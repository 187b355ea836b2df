#!/usr/bin/env python3
"""Time the Magnus sweep and the RH-layer stages that it feeds.

    PYTHONPATH=src python3 scripts/bench_sweep.py [--repeats 5]

Prints one JSON record.  Every stage is timed `--repeats` times (wall
seconds, each repeat's value listed beside the median) and counts its
sweeps (`jost_at_origin` calls):

- `one_S_bump`, `one_S_soliton`: one scattering matrix at one xi, the mean
  over 200 xi drawn uniformly from [0.15, 5] (fixed seed), on the Baseline
  bump (A = 1, amplitude 0.1, centre 0.2, width 0.3) and on
  `soliton_profile(2, 1/27, pi/3)`, with the profile's cells built;
- `one_S_bump_far`: the same on the bump over 200 xi drawn from [12, 50],
  where the sweep needs the narrow cells;
- `cells_bump`, `cells_soliton`: the first S of a fresh profile, which
  samples q0 at the Gauss points of its cells;
- `locate_xi1_<profile>`: `locate_xi1` on either profile, after
  `classify_case`, on a fresh `ScatteringData` (no S memoised), with the
  cells of every width built;
- `delta_exponents_<profile>`: `build_delta` plus `saddle_exponents` at
  mu = 0.3 on the same data, right after `locate_xi1`;
- `ray_<profile>`: the sum of the last two.

Only the public surface that both sides of a before/after comparison share
is used, so the script runs unchanged on either checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

from steplpd import scattering
from steplpd.phase import stationary_points
from steplpd.rhfactors import build_delta, saddle_exponents

GAMMA = 1.0 / 27.0
MU = 0.3
N_XI = 200


def profiles() -> dict:
    return {"bump": lambda: scattering.InitialProfile.gaussian_bump(1.0, GAMMA, 0.1, 0.2, 0.3),
            "soliton": lambda: scattering.soliton_profile(2.0, GAMMA, np.pi / 3)}


class SweepCounter:
    """Counts jost_at_origin calls, the sweeps, while installed."""

    def __init__(self):
        self.calls = 0
        self._jost = scattering.jost_at_origin

    def __enter__(self):
        def counting(profile, xi):
            self.calls += 1
            return self._jost(profile, xi)

        scattering.jost_at_origin = counting
        return self

    def __exit__(self, *exc):
        scattering.jost_at_origin = self._jost


def timed(fn) -> tuple[float, int]:
    with SweepCounter() as counter:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0, counter.calls


def one_S(make, xis) -> tuple[float, int]:
    profile = make()
    scattering.scattering_matrix(profile, xis[0])
    elapsed, sweeps = timed(lambda: [scattering.scattering_matrix(profile, xi) for xi in xis])
    return elapsed / len(xis), sweeps / len(xis)


def first_S(make) -> tuple[float, int]:
    return timed(lambda: scattering.scattering_matrix(make(), 1.0))


def ray_stages(name, profile) -> dict[str, tuple[float, int]]:
    data = scattering.ScatteringData.from_profile(profile, analyze=False)
    scattering.classify_case(data)
    geometry = stationary_points(MU, GAMMA)
    xi1 = timed(lambda: scattering.locate_xi1(data))
    exps = timed(lambda: saddle_exponents(build_delta(data, geometry)))
    return {f"locate_xi1_{name}": xi1, f"delta_exponents_{name}": exps,
            f"ray_{name}": (xi1[0] + exps[0], xi1[1] + exps[1])}


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def run(repeats: int) -> dict:
    xis = np.random.default_rng(0).uniform(0.15, 5.0, N_XI)
    far = np.random.default_rng(1).uniform(12.0, 50.0, N_XI)
    make = profiles()
    samples: dict[str, list[tuple[float, int]]] = {}
    built = {name: mk() for name, mk in make.items()}
    for profile in built.values():
        for xi in (1.0, 50.0):
            scattering.scattering_matrix(profile, xi)
    for _ in range(repeats):
        runs = {f"one_S_{name}": one_S(mk, xis) for name, mk in make.items()}
        runs["one_S_bump_far"] = one_S(make["bump"], far)
        runs.update({f"cells_{name}": first_S(mk) for name, mk in make.items()})
        for name, profile in built.items():
            runs.update(ray_stages(name, profile))
        for key, value in runs.items():
            samples.setdefault(key, []).append(value)
    stages = {key: {"median_s": statistics.median(t for t, _ in vals),
                    "runs_s": [t for t, _ in vals],
                    "sweeps": vals[0][1]}
              for key, vals in samples.items()}
    return {"environment": environment(), "repeats": repeats, "stages": stages}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    json.dump(run(args.repeats), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
