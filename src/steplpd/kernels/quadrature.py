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
For real xi inside the interval the closed form's +-i pi gives the Plemelj
value from the side ``side`` = +-1.  QUADPACK (scipy.integrate.quad) is
left in :func:`pv_integrate` only, for the xi1 trace formula's principal
value.  Branches throughout the package: ln and non-integer powers are
principal, and (xi - lam)**(i*v) inherits the cut along (-inf, lam].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import integrate as _si


class IntegrationError(Exception):
    """Quadrature failed to converge; carries the last estimate."""

    def __init__(self, message: str, estimate: complex | None = None):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for the quadrature kernels."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_SPEC = QuadratureSpec()

# QUADPACK subinterval limit of every call
_QUAD_LIMIT = 1500


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
        if xi in (a, b) or not np.all(dz):
            raise ValueError(f"xi = {xi.real:.17g} is an end or a node of the rule")
        # preimage s(xi), the subtrahend g and the argument of its transform
        if np.isfinite(a) and np.isfinite(b):
            if self.geometric:
                s_xi = 2.0 * np.log(xi / a) / np.log(b / a) - 1.0 if xi != 0 else np.inf
            else:
                s_xi = (2.0 * xi - a - b) / (b - a)
            g, arg = 1.0, (b - xi) / (a - xi)
        else:
            if np.isfinite(b):
                u, p, arg = b - xi, b + 1.0, xi - b
            else:
                u, p, arg = xi - a, a - 1.0, 1.0 / (a - xi)
            s_xi = (u - 1.0) / (u + 1.0) if u != -1.0 else np.inf
            g = (p - xi) / (p - self.z)
        if not abs(s_xi + np.sqrt(s_xi - 1.0) * np.sqrt(s_xi + 1.0)) < _SUBTRACT_RADIUS:
            return complex(np.dot(self.W, values / dz)) / (2j * np.pi)
        c = complex(np.dot(self.bary / (s_xi - self.s), values)
                    / np.sum(self.bary / (s_xi - self.s)))
        transform = np.log(abs(arg)) + 1j * np.pi * side if on else np.log(arg)
        return (complex(np.dot(self.W, (values - c * g) / dz)) + c * transform) / (2j * np.pi)


def interval_rule(interval: ContourInterval, n: int) -> IntervalRule:
    """n Gauss-Legendre nodes mapped onto the interval, evenly in ln|z| when
    it is finite and of one sign."""
    s, w, bary = gauss_legendre(n)
    a, b = interval.lower, interval.upper
    geometric = bool(np.isfinite(a * b) and a * b > 0)
    if geometric:
        z = a * (b / a) ** (0.5 * (1.0 + s))
        dzds = 0.5 * np.log(b / a) * z
    elif np.isfinite(a) and np.isfinite(b):
        z, dzds = 0.5 * (a + b) + 0.5 * (b - a) * s, np.full(n, 0.5 * (b - a))
    elif np.isfinite(a) or np.isfinite(b):
        sign = 1.0 if np.isfinite(a) else -1.0
        z = (a if np.isfinite(a) else b) + sign * (1.0 + s) / (1.0 - s)
        dzds = sign * 2.0 / (1.0 - s) ** 2
    else:
        raise ValueError("split the real line into two half-lines")
    return IntervalRule(interval=interval, s=s, z=z, W=w * np.abs(dzds), bary=bary,
                        geometric=geometric)


def _quad_complex(f: Callable[[float], complex], a: float, b: float,
                  spec: QuadratureSpec, weight=None, wvar=None) -> complex:
    """QUADPACK on real and imaginary parts, with error accounting."""
    kw = dict(epsabs=spec.abs_tol, epsrel=spec.rel_tol, limit=_QUAD_LIMIT)
    if weight is not None:
        kw.update(weight=weight, wvar=wvar)
    re, re_err = _si.quad(lambda x: f(x).real, a, b, **kw)
    im, im_err = _si.quad(lambda x: f(x).imag, a, b, **kw)
    val = complex(re, im)
    err = max(re_err, im_err)
    if err > 10.0 * max(spec.abs_tol, spec.rel_tol * abs(val), 1e-14):
        raise IntegrationError(
            f"quadrature error estimate {err:.3e} exceeds tolerance", estimate=val)
    return val


def pv_integrate(f: Callable[[float], complex], singularity: float,
                 interval: ContourInterval,
                 spec: QuadratureSpec = DEFAULT_SPEC) -> complex:
    """Principal value of int f over the interval, f having a simple pole.

    The pole must lie strictly inside.  A symmetric window around the pole is
    handled by the Cauchy-weight rule applied to g(x) = f(x)*(x - c), which is
    smooth there; the remainder is plain adaptive quadrature.
    """
    c = float(singularity)
    if not interval.contains(c):
        raise ValueError(f"singularity {c} not strictly inside "
                         f"[{interval.lower}, {interval.upper}]")

    lo, hi = interval.lower, interval.upper
    room = min(hi - c, c - lo)
    w = min(room / 2.0, max(1.0, abs(c)))
    if not np.isfinite(w):
        w = max(1.0, abs(c))

    h0 = 1e-7 * max(1.0, abs(c))

    def g(x: float) -> complex:
        if x == c:   # removable point: average out the simple pole
            return 0.5 * (f(c + h0) * h0 - f(c - h0) * h0)
        return f(x) * (x - c)

    val = _quad_complex(g, c - w, c + w, spec, weight="cauchy", wvar=c)
    with np.errstate(all="ignore"):
        if lo < c - w:
            val += _quad_complex(f, lo, c - w, spec)
        if c + w < hi:
            val += _quad_complex(f, c + w, hi, spec)
    return val
