"""A fixed computation timed next to every op: the machine's speed at that moment.

The benchmark runs on a shared host whose speed changes under it, by up to
2x for seconds to minutes at a time, and CPU time moves with wall time (see
README, Noise).  So an untraced run times a reference computation before the
first op and after each op.  The end-to-end op metric is the main ops' total
time over the total of the reference times taken on either side of them,
times the reference's nominal time: their mean time at the reference's
nominal speed.

Each workload gets a reference of the kind of work its ops do:

* ``ode``: a small ODE with a Python right-hand side through scipy's DOP853,
  like the ops of bump-profile and rays, where interpreted Python dominates;
* ``blas``: dense matrix-vector products on a matrix the size of soliton-sim's
  propagator, then a symmetric eigendecomposition, on OpenBLAS's threads.

A reference calls nothing in ``steplpd``, so no change to the program moves it.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.integrate import solve_ivp

REPS = 3
# a reference's usual time on the machine the figures were taken on (see
# README, Noise); the scale of the normalised metric, not a target
NOMINAL_MS = {"ode": 20.0, "blas": 24.0}
KIND = {"bump-profile": "ode", "rays": "ode", "soliton-sim": "blas"}


def _ode() -> float:
    def rhs(t, y):
        return np.array([y[1], -math.sin(y[0]) * (1.0 + 0.1 * math.cos(t))])
    return float(solve_ivp(rhs, (0.0, 30.0), [1.0, 0.0], method="DOP853",
                           rtol=1e-10, atol=1e-12).y[0, -1])


class Reference:
    """The workload's reference; ``ms()`` times it (mean of REPS runs)."""

    def __init__(self, workload: str):
        self.kind = KIND[workload]
        self.nominal_ms = NOMINAL_MS[self.kind]
        if self.kind == "blas":
            rng = np.random.default_rng(0)
            self._matrix = rng.random((993, 993))
            self._vector = rng.random(993)
            sym = rng.random((300, 300))
            self._sym = sym + sym.T
        self._run = {"ode": _ode, "blas": self._blas}[self.kind]

    def _blas(self) -> float:
        w = self._vector
        for _ in range(40):
            w = self._matrix.T @ w
            w = w / np.abs(w).max()
        return float(np.linalg.eigh(self._sym)[0][0] + w[0])

    def ms(self) -> float:
        t0 = time.perf_counter()
        for _ in range(REPS):
            self._run()
        return (time.perf_counter() - t0) * 1e3 / REPS
