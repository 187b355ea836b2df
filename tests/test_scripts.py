"""The repository's scripts."""

import importlib.util
import json
import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _compare():
    spec = importlib.util.spec_from_file_location("compare", SCRIPTS / "compare.py")
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    return compare


def test_compare_outputs_against_itself():
    # a command that fails writes no file, so every listed file must be named
    compare = _compare()
    proc = subprocess.run([sys.executable, str(SCRIPTS / "compare.py"),
                           "--parent", str(compare.CHANGE), "outputs"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    outputs = json.loads(proc.stdout)["outputs"]
    assert set(compare.FILES) | {"validate.txt", "exit_codes.txt"} <= set(outputs)


def test_compare_max_abs_difference(tmp_path):
    # canned outputs: the first differing line as before, and the largest
    # |parent - change| of each differing CSV that keeps its shape
    files = {
        "same.csv": ("# {}\nt,x\n0,1.5\n", "# {}\nt,x\n0,1.5\n"),
        "moved.csv": ('# {"h": 1}\nt,x,kind\n0,1.5,a\n1,-2,nan\n',
                      '# {"h": 2}\nt,x,kind\n0,1.25,a\n1,-2.125,nan\n'),
        "lost.csv": ("t,x\n0,0.5\n", "t,x\n0,nan\n"),
        "reshaped.csv": ("t,x\n0,1\n", "t,x\n0,1\n1,2\n"),
        "parent_only.csv": ("t\n0\n", None),
        "exit_codes.txt": ("a: exit 0\n", "a: exit 1\n"),
    }
    for name, texts in files.items():
        for side, text in zip(("parent", "change"), texts):
            (tmp_path / side).mkdir(exist_ok=True)
            if text is not None:
                (tmp_path / side / name).write_text(text)
    firsts, largest = _compare().compare_outputs(tmp_path / "parent", tmp_path / "change")
    assert set(firsts) == set(files)
    assert firsts["same.csv"] == "same"
    assert firsts["moved.csv"].startswith("line 1: parent '# {\"h\": 1}")
    assert firsts["parent_only.csv"] == "only in parent"
    assert largest == {"moved.csv": 0.25, "lost.csv": float("inf")}


def test_compare_simulate_stages():
    stages = _compare().simulate_stages()
    assert set(stages) == {"lawson_step", "chunk", "dst", "rhs"}
    # a chunk of 0.005 is hundreds of steps, and a step makes 8 DSTs and 4
    # right-hand sides
    assert 0 < stages["lawson_step"][0] < stages["chunk"][0]
    assert 0 < stages["dst"][0] < stages["lawson_step"][0]
    assert 0 < stages["rhs"][0] < stages["lawson_step"][0]


def test_compare_pcmodel_stages():
    stages = _compare().pcmodel_stages()
    assert set(stages) == {"saddles_cold", "one_D_cold", "one_D_warm_order", "ring_cold",
                           "ray_models", "ray_asymptotic"}
    assert all(seconds > 0 for seconds, *_ in stages.values())


def test_compare_perfbench_record():
    # canned result lines of perfbench/run.py: ops are summed per side, and
    # change_won follows each metric's `better`
    compare = _compare()

    def line(op_ms, setup_s, rss, failed=0):
        values = {"op_ms_ref_mean": op_ms, "setup_s": setup_s, "peak_rss_mb": rss}
        return "# rays seed=1 trace=0: ...\n" + json.dumps({
            "correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {k: {"value": v, "unit": "?"} for k, v in values.items()}})

    canned = {"parent": [line(5.0, 0.30, 86.0), line(5.2, 0.31, 86.5, failed=1),
                         line(4.8, 0.29, 86.0)],
              "change": [line(4.9, 0.32, 86.0), line(5.1, 0.30, 86.0), line(4.9, 0.29, 86.5)]}
    record = compare.perfbench_record(
        {"rays": {side: [compare.result_line(out) for out in outs]
                  for side, outs in canned.items()}})
    rays = record["rays"]
    assert rays["ops"] == {"parent": {"attempted": 300, "failed": 1},
                           "change": {"attempted": 300, "failed": 0}}
    assert set(rays["metrics"]) == {m["name"] for m in compare.BENCHMARK["end_to_end"]}
    op = rays["metrics"]["op_ms_ref_mean"]
    assert op["unit"] == "ms"
    assert op["parent"]["runs"] == [5.0, 5.2, 4.8] and op["parent"]["median"] == 5.0
    assert op["change"]["median"] == 4.9 and len(op["change"]["quartiles"]) == 2
    assert abs(op["change_vs_parent"] - (4.9 / 5.0 - 1)) < 1e-15
    assert op["change_won"] == 2 / 3
    assert rays["metrics"]["setup_s"]["change_won"] == 1 / 3
    assert rays["metrics"]["peak_rss_mb"]["change_won"] == 1 / 3
