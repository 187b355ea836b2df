"""CLI subcommands, CSV output discipline, exit codes."""

import json
import math
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

# `delta --A 2 --mu 0.5 --n 5`: the data rows (im_xi, re_delta, im_delta)
# and the metadata, recorded before delta, v, chi_s and the background
# became one ray object; delta, v and chi_s at 1e-13 relative as complex
# numbers, im_xi exactly.
DELTA_GOLDEN = {
    "rows": (
        (0.29999999999999999, 0.83069348683827859, 0.17616192545835219),
        (0.97500000000000009, 0.86127814566720817, 0.039253565557571493),
        (1.6500000000000001, 0.89433773835867514, 0.0088801536030739744),
        (2.3250000000000002, 0.91528988704372094, 0.00015620713380086126),
        (3, 0.92939467067378845, -0.0026170470513123927),
    ),
    "v": ((0.08973471017933334, -0.0), (0.43865666646958373, -0.0),
          (0.06488385369022838, -0.0)),
    "chi_at_saddle": ((0.0, -0.29661223393047315), (0.0, -0.6377182726372406),
                      (0.0, 0.09523213229704994)),
    "delta0": (0.9472889040616225, 0.32038060528335705),
}


# the Baseline bump, and the data rows of `scatter --config <bump> --n 11`
# (xi, then a1, a2, b, r1, r2 as re, im) and of `asymptote --config <bump>
# --mu 0.3 -0.3 --t 100 1000`, recorded when the CLI still ran classify_case
# and locate_xi1 itself; complex entries and abs_q at 1e-13 relative, the
# rest exactly.
BUMP_DOC = {"A": 1.0, "gamma": 1.0 / 27.0,
            "perturbation": {"kind": "gaussian-bump", "amplitude": 0.1,
                             "center": 0.2, "width": 0.3}}
BUMP_SCATTER_GOLDEN = (
    (-5, 1.0121137435253418, 0.000788693316455223, 0.9989113431638841, -0.001262367932950993,
     -0.002333206109279093, -0.10496827354691285, -0.0023860969849102457, -0.1037100744058222,
     -0.0022029478530413015, -0.10508545647821187),
    (-4, 1.0202876332324773, 0.0011587991650297818, 0.9986140375530362, -0.0012356259677733328,
     -0.0003766766469305389, -0.13738677744003236, -0.0005221213928859322, -0.13465435425393826,
     -0.0002069689061136407, -0.13757771071677996),
    (-3, 1.0371893278306632, 0.004375069746792857, 0.9982840954538229, -0.0011073185694012752,
     0.00854401747050403, -0.18838114231074962, 0.0074713945251088315, -0.18165808799535216,
     0.00876800825270513, -0.1886952163119062),
    (-2, 1.0777170436434604, 0.015185512530494572, 0.997969121781471, -0.0008497135388277604,
     0.025790009545212315, -0.2760549936185264, 0.020316951272009935, -0.2564342083728593,
     0.02607799692752004, -0.27659456466821974),
    (-1, 1.2689292710873519, 0.04695916082769438, 0.9977368809051465, -0.0004651318546050379,
     0.04467579305914402, -0.517759888086139, 0.020080079123849875, -0.40877205969617947,
     0.04501903961802265, -0.518913310919264),
    (1, 1.2689292710873519, -0.04695916082769438, 0.9977368809051465, 0.0004651318546050379,
     0.04467579305914402, 0.517759888086139, 0.020080079123849875, 0.40877205969617947,
     0.04501903961802265, 0.518913310919264),
    (2, 1.0777170436434604, -0.015185512530494572, 0.997969121781471, 0.0008497135388277604,
     0.025790009545212315, 0.2760549936185264, 0.020316951272009935, 0.2564342083728593,
     0.02607799692752004, 0.27659456466821974),
    (3, 1.0371893278306632, -0.004375069746792857, 0.9982840954538229, 0.0011073185694012752,
     0.00854401747050403, 0.18838114231074962, 0.0074713945251088315, 0.18165808799535216,
     0.00876800825270513, 0.1886952163119062),
    (4, 1.0202876332324773, -0.0011587991650297818, 0.9986140375530362, 0.0012356259677733328,
     -0.0003766766469305389, 0.13738677744003236, -0.0005221213928859322, 0.13465435425393826,
     -0.0002069689061136407, 0.13757771071677996),
    (5, 1.0121137435253418, -0.000788693316455223, 0.9989113431638841, 0.001262367932950993,
     -0.002333206109279093, 0.10496827354691285, -0.0023860969849102457, 0.1037100744058222,
     -0.0022029478530413015, 0.10508545647821187),
)
BUMP_ASYMPTOTE_GOLDEN = (
    (30, 100, 1.0367751212920437, 0.35206960111129637, 1.0949226713137323, "x>0:I2",
     -0.9906194214412513),
    (300, 1000, 0.7330950240676797, 0.7256845575540602, 1.0315262436725612, "x>0:I2",
     -0.9906194214412513),
    (-30, 100, -0.01073981455290427, 0.004962688920976988, 0.011830971978546906, "x<0",
     -0.9906194214412513),
    (-300, 1000, 0.007499471193993837, 0.0016746947001584284, 0.007684183139949364, "x<0",
     -0.9906194214412513),
)


def close(got, want):
    """A complex (re, im) pair, or a real, within 1e-13 of the recorded value."""
    g, w = complex(*got), complex(*want)
    return abs(g - w) <= 1e-13 * abs(w)


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

    def test_delta_golden(self, tmp_path):
        code, text = run_cli(["delta", "--A", "2", "--mu", "0.5", "--n", "5"], tmp_path)
        assert code == 0
        meta, header, rows = parse_csv(text)
        assert header == ["re_xi", "im_xi", "re_delta", "im_delta"]

        def close(got, want):
            g, w = complex(*got), complex(*want)
            return abs(g - w) <= 1e-13 * abs(w)

        assert len(rows) == len(DELTA_GOLDEN["rows"])
        for got, want in zip(rows, DELTA_GOLDEN["rows"]):
            assert got[:2] == [0.0, want[0]] and close(got[2:], want[1:]), (got, want)
        for key in ("v", "chi_at_saddle"):
            assert len(meta[key]) == 3
            assert all(close(g, w) for g, w in zip(meta[key], DELTA_GOLDEN[key])), key
        assert close(meta["delta0"], DELTA_GOLDEN["delta0"])

    def test_delta_mirrored_ray(self, tmp_path):
        # mu < 0 writes delta and v of the mirrored contour, and no chi_s;
        # delta_{-mu}(i y) = conj(delta_mu(i y)) and v is even in mu
        code, text = run_cli(["delta", "--A", "2", "--mu", "-0.3", "--n", "3"], tmp_path)
        assert code == 0
        meta, _, rows = parse_csv(text)
        code, text = run_cli(["delta", "--A", "2", "--mu", "0.3", "--n", "3"],
                             tmp_path, "plus.csv")
        assert code == 0
        meta_p, _, rows_p = parse_csv(text)
        assert meta["chi_at_saddle"] is None and meta_p["chi_at_saddle"] is not None
        assert np.allclose(meta["v"], meta_p["v"], rtol=0, atol=1e-12)
        assert abs(complex(*meta["delta0"]) - np.conj(complex(*meta_p["delta0"]))) < 1e-12
        assert len(rows) == 3
        for got, want in zip(rows, rows_p):
            assert got[:2] == want[:2]
            assert abs(complex(*got[2:]) - np.conj(complex(*want[2:]))) < 1e-12

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

    def test_simulate_refuses_alpha_next_to_step(self, tmp_path, capsys):
        # smoothed_step has no phase: an --alpha would be dropped
        out = tmp_path / "out.csv"
        assert main(["--out", str(out), "simulate", "--initial", "step",
                     "--L", "4", "--h", "0.1", "--t-end", "0.001", "--alpha", "1.0"]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_simulate_refuses_fewer_than_two_snapshots(self, tmp_path, capsys, n):
        # t = 0 and t_end are always written: fewer snapshots cannot be honoured
        out = tmp_path / "out.csv"
        assert main(["--out", str(out), "simulate", "--L", "4", "--h", "0.1",
                     "--t-end", "0.001", "--snapshots", n]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("dt", ["0", "nan", "1e-12"])
    def test_simulate_refuses_a_step_that_cannot_advance(self, tmp_path, dt):
        # with dt = 0 the run never advanced t, and dt = 1e-12 took 1e9 steps;
        # the timeout turns a hang into a failure
        out = tmp_path / "out.csv"
        proc = subprocess.run([sys.executable, "-m", "steplpd.cli", "--out", str(out),
                               "simulate", "--L", "4", "--h", "0.1", "--t-end", "0.001",
                               "--dt", dt], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("grid, named", [
        (["--L", "0.1", "--h", "0.05"], "5 points"),
        (["--h", "-0.05"], "-0.05"),
        (["--h", "0"], "h must be finite and positive"),
    ], ids=["no-interior", "negative-h", "zero-h"])
    def test_simulate_refuses_a_degenerate_grid(self, tmp_path, capsys, grid, named):
        # these failed inside scipy, on the odd-interval check and on a
        # division by zero, none of which named the grid
        out = tmp_path / "out.csv"
        assert main(["--out", str(out), "simulate", *grid, "--t-end", "0.001"]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("t_end", ["nan", "inf"])
    def test_simulate_refuses_a_non_finite_end(self, tmp_path, capsys, t_end):
        # both wrote the initial field labelled t = nan and exited 0
        out = tmp_path / "out.csv"
        assert main(["--out", str(out), "simulate", "--L", "4", "--h", "0.1",
                     "--t-end", t_end]) == 1
        assert not out.exists()
        assert f"--t-end must be finite, got {t_end}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["phase", "--mu", "0.5", "--gamma", "nan"], "gamma must be positive and finite, got nan"),
        (["delta", "--A", "2", "--mu", "nan"], "mu must be finite, got nan"),
        (["asymptote", "--A", "2", "--mu", "0.3", "--t", "nan"],
         "t must be positive and finite, got nan"),
    ], ids=["phase", "delta", "asymptote"])
    def test_non_finite_ray_refused(self, tmp_path, capsys, argv, named):
        # each failed in np.roots with "Array must not contain infs or NaNs",
        # which names no flag
        out = tmp_path / "out.csv"
        assert main(["--out", str(out), *argv]) == 1
        assert not out.exists()
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--A", "--alpha", "--gamma", "--t"])
    def test_soliton_refuses_a_non_finite_flag(self, tmp_path, capsys, flag):
        # --gamma nan exited 0 and wrote "gamma": NaN, which is not JSON, and
        # NaN rows
        out = tmp_path / "out.csv"
        assert main(["--out", str(out), "soliton", flag, "nan", "--n", "3"]) == 1
        assert not out.exists()
        assert f"{flag.lstrip('-')} must be finite, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, absent", [
        (["scatter", "--config", "bump.json", "--n", "5"], "scipy"),
        (["delta", "--A", "2", "--mu", "0.5", "--n", "5"], "scipy"),
        (["asymptote", "--A", "2", "--mu", "0.3", "--t", "100"], "scipy.fft"),
        (["scatter", "--config", "bump.json", "--n", "5"], "jsonschema"),
    ], ids=["scatter", "delta", "asymptote", "config"])
    def test_runs_without_scipy(self, tmp_path, argv, absent):
        # scipy.special loads on the first Gamma (the local models) and
        # scipy.fft on the first DST (simulate): scatter and delta need
        # neither, asymptote only the first; a profile document is read by
        # json and InitialProfile.from_dict alone
        cfg = tmp_path / "bump.json"
        cfg.write_text(json.dumps(BUMP_DOC))
        argv = ["--out", str(tmp_path / "out.csv"), *(str(cfg) if a == cfg.name else a for a in argv)]
        code = f"import sys; from steplpd.cli import main; print(main({argv!r}), {absent!r} in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.stdout.split() == ["0", "False"], proc.stderr

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
        # a string node is refused, not coerced
        from steplpd.scattering import InitialProfile

        doc = {"A": 1.0, "gamma": 1.0 / 27.0,
               "perturbation": {"kind": "table", "x": [-1.0, "0.0", 1.0],
                                "values": [0.0, 0.1, 0.0]}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="x must be a number"):
            InitialProfile.from_json(str(cfg))
        assert main(["--out", str(tmp_path / "x.csv"), "scatter",
                     "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("argv", [
        ["scatter", "--A", "1", "--gamma", "nan"],
        ["scatter", "--config", "nan.json"],
    ], ids=["flag", "document"])
    def test_non_finite_refused(self, tmp_path, capsys, argv):
        # both exited 0 and wrote "gamma": NaN into the metadata line, which
        # is not JSON; Python's json reads NaN in a document
        cfg, out = tmp_path / "nan.json", tmp_path / "x.csv"
        cfg.write_text(json.dumps({"A": 1.0, "gamma": math.nan}))
        argv = [str(cfg) if a == cfg.name else a for a in argv]
        assert main(["--out", str(out), *argv]) == 1
        assert not out.exists()
        assert "gamma must be positive and finite, got nan" in capsys.readouterr().err

    def test_table_x_must_ascend(self, tmp_path, capsys):
        # descending nodes were read as the pure step and exited 0
        doc = {"A": 1.2, "gamma": 0.037,
               "perturbation": {"kind": "table", "x": [0.5, 0.0, -0.5],
                                "values": [0, 0.3, 0]}}
        cfg, out = tmp_path / "cfg.json", tmp_path / "x.csv"
        cfg.write_text(json.dumps(doc))
        assert main(["--out", str(out), "scatter", "--config", str(cfg)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.fixture
    def bump(self, tmp_path):
        cfg = tmp_path / "bump.json"
        cfg.write_text(json.dumps(BUMP_DOC))
        return str(cfg)

    def test_bump_scatter_golden(self, tmp_path, bump):
        code, text = run_cli(["scatter", "--config", bump, "--n", "11"], tmp_path)
        assert code == 0
        _, _, rows = parse_csv(text)
        assert len(rows) == len(BUMP_SCATTER_GOLDEN)
        for got, want in zip(rows, BUMP_SCATTER_GOLDEN):
            assert got[0] == want[0]
            assert all(close(got[k:k + 2], want[k:k + 2]) for k in range(1, 11, 2)), (got, want)

    def test_bump_asymptote_golden(self, tmp_path, bump):
        code, text = run_cli(["asymptote", "--config", bump, "--mu", "0.3", "-0.3",
                              "--t", "100", "1000"], tmp_path)
        assert code == 0
        _, _, rows = parse_csv(text)
        assert len(rows) == len(BUMP_ASYMPTOTE_GOLDEN)
        for got, want in zip(rows, BUMP_ASYMPTOTE_GOLDEN):
            assert got[:2] == list(want[:2]) and got[5:] == list(want[5:])
            assert close(got[2:4], want[2:4]) and close(got[4:5], want[4:5]), (got, want)

    def test_step_flags_refused_next_to_config(self, tmp_path, bump):
        # the document sets A and gamma; a flag that would be ignored is refused
        for flags in (["--A", "3"], ["--gamma", "0.5"], ["--A", "3", "--gamma", "0.5"]):
            out = tmp_path / "out.csv"
            assert main(["--out", str(out), "scatter", "--config", bump] + flags) == 1
            assert not out.exists()

    def test_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "steplpd.cli",
                               "phase", "--mu", "0.4"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.startswith("# {")
