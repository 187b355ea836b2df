#!/usr/bin/env python3
"""Time the parabolic-cylinder local models and the D_a(z) under them.

    PYTHONPATH=src python3 scripts/bench_pcmodel.py [--repeats 5]

Prints one JSON record.  Every stage is timed `--repeats` times (wall
seconds, each repeat's value listed beside the median):

- `one_D_cold`: one `parabolic_cylinder_D_scaled(a, z)` at an order and an
  argument not seen before, |z| = 0.5 at a drawn angle, the mean over 200
  orders a = iv - 1 with v drawn from |Re v| <= 1, |Im v| <= 0.45 (fixed
  seed), as in the `rays` benchmark's local models;
- `one_D_warm_order`: right after each of those, one more at the same order
  and a new argument, |z| = 2 at a drawn angle;
- `ring_cold`: one cold ring of one s = 1 model: 16 `pc_model_matrix` (8
  ring points at |tau| = 0.5 and 2 on the four rays, each side) and 8
  `pc_jump_matrix`, the mean over 64 models with fresh v;
- `ray_models`: the local-model part of one `rays` op: the three models of
  the ray from `regularized_reflections` and `q_asymptotic`'s v, each on its
  ring, the mean over 32 pure-step rays (A = 2, mu on a golden-ratio
  sequence, x > 0) and 32 synthetic rays (`synthetic_from_v_targets`, Im v
  in [-0.4, 0.4]); the rays' data and `q_asymptotic` are built untimed.

Only the public surface that both sides of a before/after comparison share
is used, so the script runs unchanged on either checkout.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import platform
import statistics
import sys
import time

import numpy as np

from steplpd import pcmodel
from steplpd.asymptotics import q_asymptotic
from steplpd.kernels.special import parabolic_cylinder_D_scaled
from steplpd.rhfactors import regularized_reflections
from steplpd.scattering import ScatteringData, locate_xi1, synthetic_from_v_targets

GAMMA = 1.0 / 27.0
MU_MAX = math.sqrt(1.0 / (27.0 * GAMMA))
N_ORDERS = 200
N_MODELS = 64
N_RAYS = 32
RING = tuple((r, ang, ccw) for r in (0.5, 2.0)
             for ang, ccw in ((math.pi / 4, True), (3 * math.pi / 4, False),
                              (-math.pi / 4, False), (-3 * math.pi / 4, True)))


def ring(s: int, model) -> None:
    for r, ang, _ in RING:
        tau = r * cmath.exp(1j * ang)
        pcmodel.pc_model_matrix(s, model, tau, side=+1)
        pcmodel.pc_model_matrix(s, model, tau, side=-1)
        pcmodel.pc_jump_matrix(s, model, tau)


def draw_v(rng, n: int) -> list[complex]:
    return [complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.45, 0.45)) for _ in range(n)]


def d_stages(rng) -> dict[str, float]:
    cold = warm = 0.0
    for v in draw_v(rng, N_ORDERS):
        a = 1j * v - 1.0
        z0, z1 = (r * cmath.exp(1j * rng.uniform(-math.pi, math.pi)) for r in (0.5, 2.0))
        t0 = time.perf_counter()
        parabolic_cylinder_D_scaled(a, z0)
        t1 = time.perf_counter()
        parabolic_cylinder_D_scaled(a, z1)
        t2 = time.perf_counter()
        cold, warm = cold + (t1 - t0), warm + (t2 - t1)
    return {"one_D_cold": cold / N_ORDERS, "one_D_warm_order": warm / N_ORDERS}


def ring_cold(rng) -> float:
    models = []
    for v in draw_v(rng, N_MODELS):
        p = 0.3 + 0.2j
        q = (cmath.exp(-2.0 * math.pi * v) - 1.0) / p     # so that 1 + p q = e^{-2 pi v}
        models.append(pcmodel.LocalModelData(s=1, v=v, r1r=p, r2r=q))
    t0 = time.perf_counter()
    for model in models:
        ring(1, model)
    return (time.perf_counter() - t0) / N_MODELS


def rays(rng, k0: int) -> list[list]:
    """The three models of each of 2 N_RAYS fresh rays."""
    out = []
    golden = (5 ** 0.5 - 1) / 2
    for k in range(N_RAYS):
        mu = MU_MAX * (0.1 + 0.8 * (((k0 + k) * golden) % 1.0))
        step = ScatteringData.pure_step(2.0, GAMMA)
        locate_xi1(step)
        synth = synthetic_from_v_targets(1.0 + rng.uniform(), GAMMA, mu,
                                         tuple(1j * rng.uniform(-0.4, 0.4) for _ in range(3)))
        for data in (step, synth):
            res = q_asymptotic(mu * 100.0, 100.0, data)
            models = []
            for s in (1, 2, 3):
                r1r, r2r = regularized_reflections(data, res.geometry.lam(s))
                models.append(pcmodel.LocalModelData(s=s, v=res.v[s - 1], r1r=r1r, r2r=r2r))
            out.append(models)
    return out


def ray_models(rng, k0: int) -> float:
    todo = rays(rng, k0)
    t0 = time.perf_counter()
    for models in todo:
        for model in models:
            ring(model.s, model)
    return (time.perf_counter() - t0) / len(todo)


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
    rng = np.random.default_rng(0)
    samples: dict[str, list[float]] = {}
    for rep in range(repeats):
        runs = d_stages(rng)
        runs["ring_cold"] = ring_cold(rng)
        runs["ray_models"] = ray_models(rng, rep * N_RAYS)
        for key, value in runs.items():
            samples.setdefault(key, []).append(value)
    stages = {key: {"median_s": statistics.median(vals), "runs_s": vals}
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
