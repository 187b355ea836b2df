"""CLI subcommands, CSV output discipline, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from steplpd.cli import main


def run_cli(args, tmp_path=None, out_name="out.csv"):
    out = str(tmp_path / out_name) if tmp_path is not None else "-"
    code = main(["--out", out] + args if tmp_path is not None else args)
    text = (tmp_path / out_name).read_text() if tmp_path is not None else None
    return code, text


def _coerce(tok):
    try:
        return float(tok)
    except ValueError:
        return tok


# data rows of `asymptote --A 2 --mu 0.3 0.5 0.8 --t 100 1000 10000`, so a
# refactor shows its output unchanged: re_q, im_q and abs_q at 1e-13
# relative, the rest exactly.  Recorded from the Gauss-node chi_s, with the
# power factors read off delta's product form; the same rows with
# chi_s(lam_s) from the 30-digit reference of
# test_rhfactors::TestPureStepReference agree within 3.4e-16 relative.
ASYMPTOTE_GOLDEN = (
    (30, 100, 1.6845155063878492, 1.528675410864826, 2.2747397660048625, "x>0:I2", -1),
    (300, 1000, 0.5214349387369307, 1.9284126414509095, 1.9976660659487764, "x>0:I2", -1),
    (3000, 10000, 0.7083546722211083, 1.8694838036012718, 1.999183841867714, "x>0:I2", -1),
    (50, 100, 1.5317914082400506, 1.3091744250140702, 2.0150242165961574, "x>0:I2", -1),
    (500, 1000, 1.5738795014242846, 1.237820365842322, 2.002322637113603, "x>0:I2", -1),
    (5000, 10000, 1.5602734897487227, 1.2561168294002736, 2.0030683592716585, "x>0:I2", -1),
    (80, 100, 1.89243285099297, 0.6842087732311984, 2.01232297131547, "x>0:I2", -1),
    (800, 1000, 1.9385488282537031, 0.48934125984504717, 1.9993565035057013, "x>0:I2", -1),
    (8000, 10000, 1.939282114426294, 0.4901631438484827, 2.0002687386751674, "x>0:I2", -1),
)


def parse_csv(text):
    lines = text.strip().splitlines()
    meta = json.loads(lines[0][2:])
    header = lines[1].split(",")
    rows = [[_coerce(v) for v in ln.split(",")] for ln in lines[2:]]
    return meta, header, rows


class TestSubcommands:
    def test_phase(self, tmp_path):
        code, text = run_cli(["phase", "--mu", "0.5"], tmp_path)
        assert code == 0
        meta, header, rows = parse_csv(text)
        assert meta["regime"] == "three-real"
        assert len(rows) == 3

    def test_scatter(self, tmp_path):
        code, text = run_cli(["scatter", "--A", "1.0", "--n", "9"], tmp_path)
        assert code == 0
        meta, header, rows = parse_csv(text)
        assert meta["xi1"] == pytest.approx(0.5, abs=1e-8)
        assert header[0] == "xi"

    def test_soliton_tail(self, tmp_path):
        code, text = run_cli(["soliton", "--A", "2", "--alpha", "3.141592653589793",
                              "--gamma", "0.05", "--n", "41"], tmp_path)
        assert code == 0
        _, header, rows = parse_csv(text)
        re_q = [r[header.index("re_q")] for r in rows]
        assert abs(re_q[-1] - 2.0) < 1e-6     # x -> +inf tail approaches A
        assert max(r[header.index("pde_residual")] for r in rows) < 1e-10

    def test_delta(self, tmp_path):
        code, text = run_cli(["delta", "--mu", "0.5", "--A", "2", "--n", "4"], tmp_path)
        assert code == 0
        meta, _, rows = parse_csv(text)
        assert len(meta["v"]) == 3
        assert len(rows) == 4

    def test_pcmodel(self, tmp_path):
        code, text = run_cli(["pcmodel"], tmp_path)
        assert code == 0
        meta, _, rows = parse_csv(text)
        beta = complex(*meta["beta"])
        fit = complex(*meta["beta_fit"])
        assert abs(fit - beta) / abs(beta) < 0.02
        assert max(r[2] for r in rows) < 1e-6

    def test_asymptote(self, tmp_path):
        code, text = run_cli(["asymptote", "--A", "2", "--mu", "0.5",
                              "--t", "50", "200"], tmp_path)
        assert code == 0
        meta, header, rows = parse_csv(text)
        assert len(rows) == 2
        assert rows[0][header.index("branch")].startswith("x>0")

    def test_asymptote_golden(self, tmp_path):
        code, text = run_cli(["asymptote", "--A", "2", "--mu", "0.3", "0.5", "0.8",
                              "--t", "100", "1000", "10000"], tmp_path)
        assert code == 0
        _, header, rows = parse_csv(text)
        assert header == ["x", "t", "re_q", "im_q", "abs_q", "branch", "error_exponent"]
        assert len(rows) == len(ASYMPTOTE_GOLDEN)
        for got, want in zip(rows, ASYMPTOTE_GOLDEN):
            assert got[:2] == list(want[:2]) and got[5:] == list(want[5:])
            for g, w in zip(got[2:5], want[2:5]):
                assert abs(g - w) <= 1e-13 * abs(w), (got, want)

    def test_asymptote_mode_flag_removed(self, tmp_path):
        # the phase mode is not a CLI option: the Taylor-consistent phase is
        # the only one the asymptotics use
        code = main(["--out", str(tmp_path / "out.csv"), "asymptote", "--A", "2",
                     "--mu", "0.5", "--t", "100", "--mode", "paper"])
        assert code == 1
        assert not (tmp_path / "out.csv").exists()

    def test_case_flag_removed(self, tmp_path):
        # the case split is computed from a2(0), never set
        for case in ("auto", "1", "2"):
            code = main(["--out", str(tmp_path / "out.csv"), "scatter", "--case", case])
            assert code == 1
            assert not (tmp_path / "out.csv").exists()

    def test_validate(self, capsys):
        assert main(["validate", "--A", "2.0"]) == 0
        outp = capsys.readouterr().out
        assert "PASS" in outp and "FAIL" not in outp

    def test_validate_rough_estimate_failure(self, monkeypatch, capsys):
        # a background that differs from q_rough in the last bit fails the check
        import steplpd.cli as cli

        rough = cli.q_rough
        monkeypatch.setattr(cli, "q_rough",
                            lambda *a, **k: rough(*a, **k) * (1.0 + 2.0**-52))
        assert main(["validate", "--A", "2.0"]) == 2
        failed = [ln for ln in capsys.readouterr().out.splitlines() if "FAIL" in ln]
        assert len(failed) == 1 and failed[0].startswith("rough-estimate consistency")

    def test_simulate(self, tmp_path):
        code, text = run_cli(["simulate", "--A", "1.0", "--h", "0.1", "--L", "6",
                              "--t-end", "0.02"], tmp_path)
        assert code == 0
        _, header, rows = parse_csv(text)
        assert header == ["t", "x", "re_q", "im_q"]

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_error_exit_code(self):
        # mu outside the admissible band -> controlled failure
        assert main(["phase", "--mu", "0.0"]) == 1


class TestCsvRoundTrip:
    def test_bit_for_bit(self, tmp_path):
        code, text = run_cli(["scatter", "--A", "1.3", "--n", "11"], tmp_path)
        assert code == 0
        lines = text.strip().splitlines()
        for ln in lines[2:]:
            for tok in ln.split(","):
                v = float(tok)
                assert f"{v:.17g}" == tok   # emitted decimals re-parse exactly


class TestConfig:
    def test_profile_config(self, tmp_path):
        doc = {"A": 1.0, "gamma": 1.0 / 27.0,
               "perturbation": {"kind": "gaussian-bump", "amplitude": 0.1,
                                "center": 0.2, "width": 0.3}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, text = run_cli(["scatter", "--config", str(cfg), "--n", "5"], tmp_path)
        assert code == 0
        meta, _, _ = parse_csv(text)
        assert meta["A"] == 1.0

    def test_bad_schema(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"A": -2.0, "gamma": 0.1}))
        assert main(["--out", str(tmp_path / "x.csv"), "scatter",
                     "--config", str(cfg)]) == 1

    def test_table_x_must_be_numbers(self, tmp_path):
        # the schema's x.items rule: a string node is refused, not coerced
        import jsonschema

        from steplpd.scattering import InitialProfile

        doc = {"A": 1.0, "gamma": 1.0 / 27.0,
               "perturbation": {"kind": "table", "x": [-1.0, "0.0", 1.0],
                                "values": [0.0, 0.1, 0.0]}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        with pytest.raises(jsonschema.ValidationError):
            InitialProfile.from_json(str(cfg))
        assert main(["--out", str(tmp_path / "x.csv"), "scatter",
                     "--config", str(cfg)]) == 1

    def test_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "steplpd.cli",
                               "phase", "--mu", "0.4"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.startswith("# {")
