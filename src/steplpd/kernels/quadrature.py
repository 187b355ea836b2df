"""Adaptive quadrature for complex-valued integrands on real contours.

Three entry points:

* :func:`integrate` -- plain adaptive integration, finite or semi-infinite
  intervals, complex integrands.
* :func:`pv_integrate` -- symmetric-excision principal value across a simple
  pole located strictly inside the interval.
* :func:`cauchy_transform` -- (1/2*pi*i) * int density(z)/(z - xi) dz over a
  union of intervals, with Plemelj boundary values (PV part +- half of the
  density) when xi sits on the contour and a side flag is supplied.

The heavy lifting is delegated to QUADPACK (scipy.integrate.quad), applied
separately to real and imaginary parts; the principal-value window uses the
built-in Cauchy weight.  Branch conventions throughout the package: ln and
non-integer powers are principal (cut along the negative real axis), and
(xi - lam)**(i*v) inherits the cut along (-inf, lam].
"""

from __future__ import annotations

from dataclasses import dataclass
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


def integrate(f: Callable[[float], complex], interval: ContourInterval,
              spec: QuadratureSpec = DEFAULT_SPEC) -> complex:
    """Integrate a complex-valued function over a (possibly infinite) interval."""
    with np.errstate(all="ignore"):
        return _quad_complex(f, interval.lower, interval.upper, spec)


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


def cauchy_transform(density: Callable[[float], complex],
                     intervals: list[ContourInterval] | tuple[ContourInterval, ...],
                     xi: complex,
                     spec: QuadratureSpec = DEFAULT_SPEC,
                     side: int | None = None) -> complex:
    """(1/2*pi*i) * sum_I int_I density(z)/(z - xi) dz.

    For xi strictly off the closure of the contour the kernel is smooth.  For
    real xi inside one of the intervals a side flag is required: +1 for the
    boundary value from above (+i0), -1 from below; the result is then the
    Plemelj combination PV-part + side * density(xi)/2.
    """
    xi = complex(xi)
    on_contour = None
    if xi.imag == 0.0:
        for iv in intervals:
            if iv.contains(xi.real):
                on_contour = iv
                break

    total = 0.0 + 0.0j
    if on_contour is None:
        for iv in intervals:
            total += _quad_complex(lambda z: density(z) / (z - xi),
                                   iv.lower, iv.upper, spec)
        return total / (2j * np.pi)

    if side not in (+1, -1):
        raise ValueError("xi lies on the contour: side flag (+1/-1) required")
    c = xi.real
    for iv in intervals:
        if iv is on_contour:
            total += pv_integrate(lambda z: density(z) / (z - c), c, iv, spec)
        else:
            total += _quad_complex(lambda z: density(z) / (z - c),
                                   iv.lower, iv.upper, spec)
    return total / (2j * np.pi) + side * density(c) / 2.0
