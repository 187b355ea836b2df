#!/usr/bin/env python3
"""Time fresh `steplpd` processes of two checkouts, alternating, pair by pair.

    python3 scripts/bench_startup.py --parent OTHER/src [--pairs 10]

Prints one JSON record.  Each of four commands runs in a new process, once
on OTHER/src (the parent) and once on this checkout's src/ (the change),
in alternating order (the parent first in even pairs), for `--pairs` pairs
after one untimed run of each side, which also writes both sides' bytecode:

- `import_steplpd`: `import steplpd`, the command behind perfbench's
  `setup_s` import time;
- `import_cli`: `import steplpd.cli`;
- `asymptote_step`: `steplpd asymptote --A 2 --mu 0.3 --t 100`;
- `asymptote_bump`: `steplpd asymptote --config <bump> --mu 0.3 0.5
  --t 100 1000` on the Baseline bump (A = 1, amplitude 0.1, centre 0.2,
  width 0.3), whose document the script writes to a temporary file.

Wall seconds per process.  For each command the record gives both sides'
medians, quartiles and runs, the share of pairs in which the change was
faster, and whether the two sides wrote the same stdout in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy
import scipy

CHANGE = pathlib.Path(__file__).resolve().parents[1] / "src"

BUMP = {"A": 1.0, "gamma": 1.0 / 27.0,
        "perturbation": {"kind": "gaussian-bump", "amplitude": 0.1,
                         "center": 0.2, "width": 0.3}}


def commands(bump: str) -> dict[str, list[str]]:
    """Command name -> arguments after the interpreter."""
    cli = ["-m", "steplpd.cli"]
    return {
        "import_steplpd": ["-c", "import steplpd"],
        "import_cli": ["-c", "import steplpd.cli"],
        "asymptote_step": cli + ["asymptote", "--A", "2", "--mu", "0.3", "--t", "100"],
        "asymptote_bump": cli + ["asymptote", "--config", bump, "--mu", "0.3", "0.5",
                                 "--t", "100", "1000"],
    }


def timed_run(src: pathlib.Path, argv: list[str]) -> tuple[float, bytes]:
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, env=env, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: {' '.join(argv)} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')}")
    return elapsed, proc.stdout


def quartiles(xs: list[float]) -> list[float]:
    q = statistics.quantiles(xs, n=4)
    return [q[0], q[2]]


def compare(parent: pathlib.Path, argv: list[str], pairs: int) -> dict:
    sides = {"parent": parent, "change": CHANGE}
    first = {name: timed_run(src, argv)[1] for name, src in sides.items()}
    runs: dict[str, list[float]] = {"parent": [], "change": []}
    same = first["parent"] == first["change"]
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            elapsed, out = timed_run(sides[name], argv)
            runs[name].append(elapsed)
            same = same and out == first[name]
    won = sum(c < p for p, c in zip(runs["parent"], runs["change"]))
    record = {name: {"median_s": statistics.median(xs), "quartiles_s": quartiles(xs),
                     "runs_s": xs} for name, xs in runs.items()}
    record["change_vs_parent"] = record["change"]["median_s"] / record["parent"]["median_s"] - 1
    record["change_won"] = won / pairs
    record["same_stdout"] = same
    return record


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=pathlib.Path, required=True,
                    help="src/ directory of the checkout to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    with tempfile.TemporaryDirectory() as tmp:
        bump = pathlib.Path(tmp) / "bump.json"
        bump.write_text(json.dumps(BUMP, sort_keys=True) + "\n")
        results = {name: compare(args.parent.resolve(), cmd, args.pairs)
                   for name, cmd in commands(str(bump)).items()}
    json.dump({"environment": environment(), "pairs": args.pairs,
               "commands": results}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
