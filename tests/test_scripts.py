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


def test_compare_simulate_stages():
    stages = _compare().simulate_stages()
    assert set(stages) == {"lawson_step", "chunk"}
    # a chunk of 0.005 is hundreds of steps
    assert 0 < stages["lawson_step"][0] < stages["chunk"][0]


def test_compare_pcmodel_stages():
    stages = _compare().pcmodel_stages()
    assert set(stages) == {"saddles_cold", "one_D_cold", "one_D_warm_order", "ring_cold",
                           "ray_models", "ray_asymptotic"}
    assert all(seconds > 0 for seconds, *_ in stages.values())
