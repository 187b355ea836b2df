"""Real roots of the incomplete cubic c3*x**3 + c1*x + c0.

This covers the stationary-point equation of a quartic phase (no quadratic
term).  Roots start from the closed forms of DLMF 1.11(iii), trigonometric
for three real roots and Cardano's for one, and are Newton-polished; near
double roots are snapped to the exact discriminant-zero formulas
r = -3*c0/(2*c1) (double), s = -2*r (simple).
"""

from __future__ import annotations

import math


def _residual(x: float, c3: float, c1: float, c0: float) -> float:
    """c3*x**3 + c1*x + c0 correctly rounded: each float is an integer over a
    power of two, so the sum is exact in integers up to its one division."""
    (n, d), (n3, d3), (n1, d1), (n0, d0) = (v.as_integer_ratio() for v in (x, c3, c1, c0))
    return ((n3 * n**3 * d1 * d0 + n1 * n * d3 * d * d * d0 + n0 * d3 * d**3 * d1)
            / (d3 * d**3 * d1 * d0))


def _polish(x: float, c3: float, c1: float, c0: float) -> float:
    """Newton steps, the last on the exact residual: near a double root the
    float residual's rounding alone leaves x tens of ulps from the root."""
    for _ in range(4):
        p = c3 * x**3 + c1 * x + c0
        dp = 3.0 * c3 * x**2 + c1
        if dp == 0.0:
            return x
        step = p / dp
        x -= step
        if abs(step) < 1e-16 * (1.0 + abs(x)):
            break
    return x - _residual(x, c3, c1, c0) / (3.0 * c3 * x**2 + c1)


# |discriminant| at or below this times its natural scale is a multiple root
_MULTIPLE_ROOT_REL = 1e-9


def _closed_form(p: float, q: float, three: bool) -> list[float]:
    """The real roots of x**3 + p x + q by DLMF 1.11(iii)."""
    if three:   # p < 0: x = 2 sqrt(-p/3) cos((arccos(3q/(p m)) - 2 pi j)/3)
        m = 2.0 * math.sqrt(-p / 3.0)
        phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m))))
        return [m * math.cos((phi - 2.0 * math.pi * j) / 3.0) for j in (0, 1, 2)]
    # Cardano, with the cube root of the larger-magnitude sum: no cancellation
    w = -q / 2.0 - math.copysign(math.sqrt(q * q / 4.0 + (p / 3.0) ** 3), q)
    u = math.copysign(abs(w) ** (1.0 / 3.0), w)
    return [u - p / (3.0 * u)]


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

    if abs(disc) <= _MULTIPLE_ROOT_REL * disc_scale:   # so c1 != 0 and c0 != 0
        r = -3.0 * c0 / (2.0 * c1)
        return sorted([(r, 2), (-2.0 * r, 1)])

    real = sorted(_polish(x, c3, c1, c0) for x in _closed_form(c1 / c3, c0 / c3, disc > 0))
    if disc > 0 and not real[0] < real[1] < real[2]:
        raise RuntimeError("positive discriminant but the three real roots did not stay distinct")
    return [(x, 1) for x in real]
