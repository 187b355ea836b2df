#!/usr/bin/env python3
"""Decay-law experiment: fit the t-power of |q - background| along a ray.

Synthetic reflection data with prescribed Im v at the three saddles makes the
dominant exponent -1/2 + max of the per-saddle shifts; the fitted log-log
slope should match it.
"""

import argparse
import sys

import numpy as np

from steplpd.asymptotics import q_asymptotic
from steplpd.scattering import synthetic_from_v_targets


# r2 = 0.1 + Gaussians of heights 3.0, 1.2, 0.6 at lam1, lam2, lam3
R2_PROFILE = (0.1, 3.0, 1.2, 0.6)


def run(mu: float, im_v: tuple[float, float, float]) -> int:
    A, gamma = 2.0, 1.0 / 27.0
    data = synthetic_from_v_targets(A, gamma, mu, tuple(1j * v for v in im_v),
                                    r2=R2_PROFILE)
    res = q_asymptotic(mu * 100.0, 100.0, data)
    print(f"branch: {res.branch.value}")
    print("terms (Re exponent, |coef|):")
    for tm in sorted(res.leading_terms, key=lambda tm: -tm.exponent.real):
        print(f"  {tm.exponent.real:+.4f}   {abs(tm.coef):.4f}")
    ts = np.logspace(2, 6, 61)
    vals = np.array([abs(res.value(mu * t, t) - res.background) for t in ts])
    slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
    dominant = max(tm.exponent.real for tm in res.leading_terms)
    print(f"fitted slope {slope:+.4f} vs dominant exponent {dominant:+.4f} "
          f"(difference {abs(slope - dominant):.4f})")
    print(f"predicted error orders: {res.error_order[0]}, {res.error_order[1]}")
    return 0 if abs(slope - dominant) < 0.05 else 2


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mu", type=float, default=0.5)
    ap.add_argument("--im-v", type=float, nargs=3, default=[0.1, -0.05, 0.08])
    args = ap.parse_args()
    sys.exit(run(args.mu, tuple(args.im_v)))
