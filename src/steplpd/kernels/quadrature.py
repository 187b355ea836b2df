"""Quadrature on real contours.

:func:`interval_rule` maps the n Gauss-Legendre nodes s_k of
:func:`gauss_legendre` onto one interval: affinely onto a finite [a, b], by
z = b - (1+s)/(1-s) onto (-inf, b] and z = a + (1+s)/(1-s) onto [a, inf).
A finite interval of one sign is mapped geometrically instead,
z = a (b/a)^((1+s)/2): the nodes cluster toward the end nearer 0, where the
package's densities are singular (r ~ 1/xi), and a ln z singularity at 0
becomes linear in s.  With
W_k = w_k |z'(s_k)| an integral is the sum of W_k f(z_k), and
:meth:`IntervalRule.cauchy` gives (1/2 pi i) int f(z)/(z - xi) dz from f's
node values: far from the interval the plain sum; near it or on it the sum
of (f - c g)/(z - xi) plus the closed-form transform of c g, where c is f's
node interpolant (barycentric in s) at xi's preimage and g(xi) = 1.  g = 1
on [a, b] (transform c ln((b - xi)/(a - xi))) and g = (p - xi)/(p - z) on a
half-line, p = b + 1 or a - 1 (transform c Log(xi - b) or -c Log(a - xi)).
For real xi inside the interval the closed form's +-i pi (:func:`log_side`)
gives the Plemelj value from the side ``side`` = +-1.  The RH factors and
the xi1 trace formula are such sums on the two NODE_LEVELS, and
:func:`level_gap` is their one gate.  No QUADPACK call remains.  The
module attribute ``_si`` (scipy.integrate) exists only for perfbench's
tracer, which patches ``_si.quad``; the module ``__getattr__`` imports it on
first access, so ``import steplpd`` loads no scipy.integrate.
Branches throughout the package: ln and non-integer powers are principal,
and (xi - lam)**(i*v) inherits the cut along (-inf, lam].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Gauss-Legendre nodes per contour interval; every node sum is also taken on
# twice as many, and those values are the ones returned
_NODES = 64
NODE_LEVELS = (_NODES, 2 * _NODES)
# largest n/2n change of a node sum accepted
_CONVERGENCE_TOL = 1e-10


class IntegrationError(Exception):
    """A node sum changed by more than _CONVERGENCE_TOL from n to 2n nodes."""


def level_gap(stage: str, coarse: tuple, fine: tuple) -> tuple[float, ...]:
    """|coarse - fine| of node sums on the two NODE_LEVELS, elementwise over
    tuples; a gap above _CONVERGENCE_TOL or NaN raises IntegrationError naming the stage."""
    gap = tuple(abs(c - f) for c, f in zip(coarse, fine))
    if not all(g <= _CONVERGENCE_TOL for g in gap):
        raise IntegrationError(f"{stage} changes by {np.max(gap):.1e} from {NODE_LEVELS[0]}"
                               f" to {NODE_LEVELS[1]} nodes per interval")
    return gap


def log_side(z: complex, side: int | None = None) -> complex:
    """Principal log; a real negative z is read from above (side +1) or below (-1)."""
    z = complex(z)
    if side is not None and z.imag == 0.0 and z.real < 0.0:
        return complex(math.log(-z.real), math.pi * side)
    return cmath.log(z)


@dataclass(frozen=True)
class ContourInterval:
    """Real interval traversed left to right; +-inf endpoints allowed."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"need lower < upper, got [{self.lower}, {self.upper}]")

    def contains(self, x: float) -> bool:
        """x lies strictly inside."""
        return self.lower < x < self.upper


# below this Bernstein radius of xi's preimage the Cauchy sum subtracts; above
# it the plain sum's error is about _SUBTRACT_RADIUS**(-2n), 1e-22 at n = 64
_SUBTRACT_RADIUS = 1.5


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascending nodes, weights and barycentric weights (-1)^k sqrt((1 - s_k^2) w_k)
    (Wang & Xiang, 2012) of the n-point Gauss-Legendre rule on (-1, 1)."""
    s, w = np.polynomial.legendre.leggauss(n)
    arrays = (s, w, (-1.0) ** np.arange(n) * np.sqrt((1.0 - s * s) * w))
    for a in arrays:   # shared by every rule on n nodes
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class IntervalRule:
    """Gauss-Legendre nodes z_k on one contour interval, with weights W_k."""

    interval: ContourInterval
    s: np.ndarray        # nodes on (-1, 1)
    z: np.ndarray        # their images on the interval
    W: np.ndarray        # w_k |z'(s_k)|
    bary: np.ndarray     # barycentric weights of the s_k
    geometric: bool      # ln|z|, not z, is affine in s

    def integrate(self, values: np.ndarray) -> complex:
        """int_I f dz from f's node values."""
        return complex(np.dot(self.W, values))

    def cauchy(self, values: np.ndarray, xi: complex, side: int | None = None) -> complex:
        """(1/2 pi i) int_I f(z)/(z - xi) dz from f's node values.

        For real xi strictly inside the interval a side flag is required:
        +1 for the boundary value from above, -1 from below.  xi at an end
        or at a node is refused.
        """
        xi = complex(xi)
        a, b = self.interval.lower, self.interval.upper
        on = xi.imag == 0.0 and self.interval.contains(xi.real)
        if on and side not in (+1, -1):
            raise ValueError("xi lies on the contour: side flag (+1/-1) required")
        dz = self.z - xi
        if xi in (a, b) or not dz.all():
            raise ValueError(f"xi = {xi.real:.17g} is an end or a node of the rule")
        # preimage s(xi), the subtrahend g and the argument of its transform
        if math.isfinite(a) and math.isfinite(b):
            if self.geometric:
                s_xi = 2.0 * cmath.log(xi / a) / math.log(b / a) - 1.0 if xi != 0 else math.inf
            else:
                s_xi = (2.0 * xi - a - b) / (b - a)
            g, arg = 1.0, (b - xi) / (a - xi)
        else:
            if math.isfinite(b):
                u, p, arg = b - xi, b + 1.0, xi - b
            else:
                u, p, arg = xi - a, a - 1.0, 1.0 / (a - xi)
            s_xi = (u - 1.0) / (u + 1.0) if u != -1.0 else math.inf
            g = (p - xi) / (p - self.z)
        if not abs(s_xi + cmath.sqrt(s_xi - 1.0) * cmath.sqrt(s_xi + 1.0)) < _SUBTRACT_RADIUS:
            return complex(np.dot(self.W, values / dz)) / (2j * math.pi)
        terms = self.bary / (s_xi - self.s)
        c = complex(np.dot(terms, values) / np.sum(terms))
        return (complex(np.dot(self.W, (values - c * g) / dz))
                + c * log_side(arg, side)) / (2j * math.pi)


def interval_rule(interval: ContourInterval, n: int) -> IntervalRule:
    """n Gauss-Legendre nodes mapped onto the interval, evenly in ln|z| when
    it is finite and of one sign."""
    s, w, bary = gauss_legendre(n)
    a, b = interval.lower, interval.upper
    geometric = math.isfinite(a * b) and a * b > 0
    if geometric:
        z = a * (b / a) ** (0.5 * (1.0 + s))
        dzds = 0.5 * np.log(b / a) * z
    elif math.isfinite(a) and math.isfinite(b):
        z, dzds = 0.5 * (a + b) + 0.5 * (b - a) * s, np.full(n, 0.5 * (b - a))
    elif math.isfinite(a) or math.isfinite(b):
        sign = 1.0 if math.isfinite(a) else -1.0
        z = (a if math.isfinite(a) else b) + sign * (1.0 + s) / (1.0 - s)
        dzds = sign * 2.0 / (1.0 - s) ** 2
    else:
        raise ValueError("split the real line into two half-lines")
    return IntervalRule(interval=interval, s=s, z=z, W=w * np.abs(dzds), bary=bary,
                        geometric=geometric)


def __getattr__(name: str):
    # _si (scipy.integrate) on first access, bound as a global from then on
    if name == "_si":
        from scipy import integrate

        globals()["_si"] = integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
