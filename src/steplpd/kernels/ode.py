"""Adaptive matrix ODE integration (complex-valued, non-stiff).

It solves the f1/f2 system of ``scattering.auxiliary_f``, and the tests
build their DOP853 reference for the Magnus Jost sweep on it.  No other path
integrates an ODE, so ``scipy.integrate`` is imported on the first call of
:func:`ode_integrate`, not with the package.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# local error tolerances: the f1/f2 solve's accuracy and the reference's
_RTOL = 1e-12
_ATOL = 1e-13


class StiffnessError(RuntimeError):
    """Step size underflow / integrator failure."""


def ode_integrate(rhs: Callable[[float, np.ndarray], np.ndarray],
                  y0: np.ndarray,
                  span: tuple[float, float]) -> np.ndarray:
    """Integrate Y' = rhs(x, Y) for a complex matrix (or vector) Y over span.

    Dormand-Prince 8(5,3) at relative tolerance 1e-12 and absolute 1e-13.
    Returns Y at span[1] with the shape of y0.
    """
    from scipy.integrate import solve_ivp

    y0 = np.asarray(y0, dtype=complex)
    shape = y0.shape

    def flat_rhs(x, y):
        return rhs(x, y.reshape(shape)).reshape(-1)

    sol = solve_ivp(flat_rhs, span, y0.reshape(-1), method="DOP853",
                    rtol=_RTOL, atol=_ATOL, dense_output=False)
    if not sol.success:
        raise StiffnessError(f"ODE integration failed: {sol.message}")
    return sol.y[:, -1].reshape(shape)
