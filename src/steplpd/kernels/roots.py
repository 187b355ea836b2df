"""Real roots of the incomplete cubic c3*x**3 + c1*x + c0.

This covers the stationary-point equation of a quartic phase (no quadratic
term).  Roots come from the companion matrix, are Newton-polished, and near
double roots are snapped to the exact discriminant-zero formulas
r = -3*c0/(2*c1) (double), s = -2*r (simple).
"""

from __future__ import annotations

import numpy as np


def _polish(x: float, c3: float, c1: float, c0: float) -> float:
    for _ in range(4):
        p = c3 * x**3 + c1 * x + c0
        dp = 3.0 * c3 * x**2 + c1
        if dp == 0.0:
            break
        step = p / dp
        x -= step
        if abs(step) < 1e-16 * (1.0 + abs(x)):
            break
    return x


# |discriminant| at or below this times its natural scale is a multiple root
_MULTIPLE_ROOT_REL = 1e-9


def cubic_real_roots(c3: float, c1: float, c0: float) -> list[tuple[float, int]]:
    """All real roots, ascending, as (root, multiplicity) pairs.

    The discriminant of c3*x**3 + c1*x + c0 is -4*c3*c1**3 - 27*c3**2*c0**2;
    |disc| below 1e-9 times its natural scale triggers the multiple-root
    branch.
    """
    if c3 == 0.0:
        raise ValueError("leading coefficient must be nonzero")

    disc = -4.0 * c3 * c1**3 - 27.0 * c3**2 * c0**2
    disc_scale = 4.0 * abs(c3) * abs(c1) ** 3 + 27.0 * c3**2 * c0**2

    if disc_scale == 0.0:
        # c1 = c0 = 0: triple root at the origin
        return [(0.0, 3)]

    if abs(disc) <= _MULTIPLE_ROOT_REL * disc_scale:
        if c1 == 0.0:
            return [(0.0, 3)]
        r = -3.0 * c0 / (2.0 * c1)
        s = -2.0 * r
        if abs(r - s) <= 1e-14 * (abs(r) + abs(s)):
            return [(r, 3)]
        pairs = sorted([(r, 2), (s, 1)])
        return pairs

    roots = np.roots([c3, 0.0, c1, c0])
    scale = max(abs(roots).max(), 1.0)
    real = [r.real for r in roots if abs(r.imag) <= 1e-9 * scale]
    real = sorted(_polish(x, c3, c1, c0) for x in real)
    if disc > 0 and len(real) != 3:
        raise RuntimeError("positive discriminant but did not find 3 real roots")
    if disc < 0:
        real = real[:1] if len(real) == 1 else [min(real, key=lambda x: abs(
            c3 * x**3 + c1 * x + c0))]
    return [(x, 1) for x in real]
