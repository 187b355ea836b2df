#!/usr/bin/env python3
"""Write a fixed set of CLI outputs into one directory, for a diff of two checkouts.

    PYTHONPATH=src python scripts/cli_outputs.py OUTDIR

Runs ``steplpd.cli.main`` in-process on the pure step and on the Baseline
bump (A = 1, amplitude 0.1, centre 0.2, width 0.3, whose document the script
writes itself) and writes one CSV per run, plus ``validate``'s stdout, into
OUTDIR.  A refactor that claims unchanged output shows it with

    diff -r OUTDIR_of_the_parent OUTDIR_of_the_change
"""

import contextlib
import json
import pathlib
import sys

from steplpd.cli import main

BUMP = {"A": 1.0, "gamma": 1.0 / 27.0,
        "perturbation": {"kind": "gaussian-bump", "amplitude": 0.1,
                         "center": 0.2, "width": 0.3}}


def runs(bump: str) -> dict[str, list[str]]:
    """Output file name -> CLI arguments after ``--out``."""
    return {
        "asymptote.csv": ["asymptote", "--A", "2", "--mu", "0.3", "0.5", "-0.4", "0.8",
                          "--t", "100", "1000", "10000"],
        "delta_plus.csv": ["delta", "--A", "2", "--mu", "0.5", "--n", "5"],
        "delta_minus.csv": ["delta", "--A", "2", "--mu", "-0.5", "--n", "5"],
        "scatter.csv": ["scatter", "--A", "2", "--n", "21"],
        "bump_scatter.csv": ["scatter", "--config", bump, "--n", "21"],
        "bump_asymptote.csv": ["asymptote", "--config", bump, "--mu", "0.3", "-0.3",
                               "--t", "100", "1000"],
        "bump_delta.csv": ["delta", "--config", bump, "--mu", "0.3", "--n", "3"],
        "soliton.csv": ["soliton", "--A", "2", "--xmin", "-40", "--xmax", "10",
                        "--n", "101"],
        "pcmodel.csv": ["pcmodel", "--saddle", "2"],
        "phase.csv": ["phase", "--mu", "0.5"],
        "simulate.csv": ["simulate", "--t-end", "0.01"],
    }


def run(outdir: pathlib.Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    bump = outdir / "bump.json"
    bump.write_text(json.dumps(BUMP, sort_keys=True) + "\n")
    failed = 0
    for name, argv in runs(str(bump)).items():
        code = main(["--out", str(outdir / name)] + argv)
        print(f"{name}: exit {code}")
        failed += code != 0
    with open(outdir / "validate.txt", "w") as fh, contextlib.redirect_stdout(fh):
        code = main(["validate"])
    print(f"validate.txt: exit {code}")
    return 1 if failed or code else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    sys.exit(run(pathlib.Path(sys.argv[1])))
