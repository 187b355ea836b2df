"""Complex Gamma and the parabolic cylinder function D_a(z).

Gamma comes from scipy's reciprocal Gamma, ``scipy.special.rgamma``, which
is entire and exactly 0 at the poles; D_a's Gamma factors use it directly.
``scipy.special`` is imported on the first Gamma, not with the package: the
scattering and delta paths never need it.
At the local models' arguments 1 +- i v and +-i v (|Re v| <= 0.96,
|Im v| <= 0.4) Gamma agrees with mpmath to 6.2e-15 relative over 80 000
points.

D_a(z) is Whittaker's function: the solution of D'' + (a + 1/2 - z**2/4) D = 0
that is recessive for large z, D_a(z) ~ z**a * exp(-z**2/4) in
|arg z| < 3*pi/4.  It is evaluated in float64 through the scaled function
E_a(z) = exp(z**2/4) D_a(z), which solves E'' - z E' + a E = 0, so that its
Taylor coefficients at any z0 follow from
e_{k+2} = (z0 (k+1) e_{k+1} + (k - a) e_k) / ((k+1)(k+2)).  Every region
gives the pair (E_a, E_a'), and with it E_{a+1} = z E_a - E_a' (DLMF 12.8.3,
https://dlmf.nist.gov/12.8), which divides by nothing, so it holds as a -> 0
(E_{a-1} = E_a'/a does not).  The regions (DLMF 12.2, 12.9):

- |z| <= 2: the order's Maclaurin table, built once per order from
  e_0 = E(0) = 2**(a/2) sqrt(pi) / Gamma((1-a)/2) and
  e_1 = E'(0) = -2**((a+1)/2) sqrt(pi) / Gamma(-a/2) long enough for E and
  E' at |z| = 2, and summed for both by Horner's rule; a = 0 gives E = 1
  exactly.
- |z| >= 9: DLMF 12.9.1, z**a sum (-1)**s (-a)_{2s} / (s! (2 z**2)**s), cut at
  its smallest term.  Past the Stokes line |arg z| = pi/2 the exponentially
  small second series of 12.9.3 is added,
  -sqrt(2 pi) / Gamma(-a) e^{+-i pi a} e^{z**2/2} z**(-a-1)
  * sum (a+1)_{2s} / (s! (2 z**2)**s).  The switch has to sit at pi/2, not at
  the pi/4 where 12.9.3 formally starts: just past pi/4 the second series is
  not small at large |z| and does not belong to D_a.
- 2 < |z| < 9: Taylor steps of length min(0.5, 2/|z|) along the ray of z,
  each in the direction in which the other solution e^{z**2/2} z**(-a-1) is
  damped: inward from the value at |z| = 9 when |arg z| <= pi/4, outward
  from the Maclaurin value at |z| = 2 otherwise.
- |z| > 2 and |arg z| > 3*pi/4 (outside the local models' sectors): the
  connection formula D_a(z) = e^{i s pi a} D_a(-z)
  + sqrt(2 pi) / Gamma(-a) e^{i s pi (a+1)/2} D_{-a-1}(-i s z), s = sign Im z,
  which maps both terms into the sectors above.  Marching outward there
  would amplify rounding into the growing solution e^{z**2/2} z**(-a-1),
  whose true weight 1/Gamma(-a) is small for a near 0.  E_a itself overflows
  there beyond |z| ~ 37, and D_a with it.

Against mpmath at 40 digits, at the orders i v, i v - 1, -i v, -i v - 1 with
|Re v| <= 0.96, |Im v| <= 0.4: E_a and E_{a+1} are good to 3.9e-14 relative
over 1500 random points with |arg z| <= 3*pi/4, |z| <= 60, to 9.4e-14 and
1.8e-13 over 3000 with |z| <= 12, and past 3*pi/4 (2 < |z| <= 30) to 5.3e-14.
Where the second series of 12.9.3 dominates, z E_a - E_a' cancels it to
leading order and loses up to |z|**2 ulps (4.8e-13 at |z| = 50, arg z = 3 pi/4).
The unscaled function on real z in [-30, 30] is good to 3.3e-14, also at
a = 1e-8 i.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache


class GammaPoleError(ZeroDivisionError):
    """Gamma evaluated at a non-positive integer."""


def reciprocal_gamma(z: complex) -> complex:
    """1/Gamma(z); entire, exactly 0 at the poles of Gamma."""
    from scipy.special import rgamma

    return complex(rgamma(complex(z)))


def complex_gamma(z: complex) -> complex:
    """Gamma(z) for complex z, principal values, poles raise."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise GammaPoleError(f"Gamma pole at z = {z.real:g}")
    return 1.0 / reciprocal_gamma(z)


# ---------------------------------------------------------------------------
# D_a(z) through E_a(z) = e^{z^2/4} D_a(z)
# ---------------------------------------------------------------------------

_SMALL_Z = 2.0          # the Maclaurin table up to here
_LARGE_Z = 9.0          # the DLMF 12.9 series from here on
_SERIES_TOL = 2.0 ** -56
_SQRT2PI = math.sqrt(2.0 * math.pi)


@lru_cache(maxsize=None)
def _rgamma_half() -> complex:
    """1/Gamma(1/2), formed on first use."""
    return reciprocal_gamma(0.5 + 0.0j)


@lru_cache(maxsize=64)
def _maclaurin(a: complex) -> tuple[complex, ...]:
    """E_a's Maclaurin coefficients, up to the pair whose terms at r = _SMALL_Z,
    (k + 1)|e_k| r^k (E's term and r times E''s), fall below _SERIES_TOL times
    the largest.  sqrt(pi) is 1/rgamma(1/2) from the same routine, so that
    a = 0 gives e_0 = 1 and all later e_k = 0 exactly."""
    rg_half = _rgamma_half()
    e0 = 2.0 ** (a / 2.0) * reciprocal_gamma((1.0 - a) / 2.0) / rg_half
    e1 = -(2.0 ** ((a + 1.0) / 2.0)) * reciprocal_gamma(-a / 2.0) / rg_half
    e = [e0, e1]
    big, rk, k = max(abs(e0), 2.0 * _SMALL_Z * abs(e1)), 1.0, 2
    while True:
        e0 = (k - 2 - a) * e0 / ((k - 1) * k)
        e1 = (k - 1 - a) * e1 / (k * (k + 1))
        rk *= _SMALL_Z * _SMALL_Z
        w0, w1 = (k + 1) * rk * abs(e0), (k + 2) * rk * _SMALL_Z * abs(e1)
        if w0 + w1 <= _SERIES_TOL * big:
            return tuple(e)
        big = max(big, w0, w1)
        e += (e0, e1)
        k += 2


def _horner(coeffs: tuple[complex, ...], z: complex) -> tuple[complex, complex]:
    """(sum c_k z^k, its z-derivative)."""
    e, de = coeffs[-1], 0.0
    for c in coeffs[-2::-1]:
        de = de * z + e
        e = e * z + c
    return e, de


def _taylor(a: complex, e: complex, de: complex, z0: complex,
            h: complex) -> tuple[complex, complex]:
    """(E_a, E_a') at z0 + h from their values at z0, h != 0; the terms
    c_k = e_k h^k, two per pass."""
    c0, c1 = e, de * h
    s, ds = c0 + c1, c1
    p, q = z0 * h, h * h
    k = 0
    while True:
        c2 = (p * (k + 1) * c1 + (k - a) * q * c0) / ((k + 1) * (k + 2))
        c3 = (p * (k + 2) * c2 + (k + 1 - a) * q * c1) / ((k + 2) * (k + 3))
        s += c2 + c3
        ds += (k + 2) * c2 + (k + 3) * c3
        if abs(c2) + abs(c3) <= _SERIES_TOL * (abs(s) + abs(ds)):
            return s, ds / h
        c0, c1 = c2, c3
        k += 2


def _asymptotic_series(b: complex, w: complex, alpha: complex,
                       beta: complex) -> tuple[complex, complex]:
    """sum t_j and sum (alpha + beta j) t_j, t_j = (b)_{2j} w^j / j!,
    cut before the first term that is not smaller than its predecessor."""
    t, s, ds = 1.0, 1.0, alpha
    j = 0
    while True:
        t_next = t * (b + 2 * j) * (b + 2 * j + 1) * w / (j + 1)
        if abs(t_next) >= abs(t):
            return s, ds
        j += 1
        s += t_next
        ds += (alpha + beta * j) * t_next
        if abs(t_next) <= _SERIES_TOL * abs(s):
            return s, ds
        t = t_next


def _large_z(a: complex, z: complex) -> tuple[complex, complex]:
    """(E_a(z), E_a'(z)) from DLMF 12.9.1, plus 12.9.3 past |arg z| = pi/2."""
    w = 1.0 / (2.0 * z * z)
    s1, d1 = _asymptotic_series(-a, -w, a, -2.0)
    za = z ** a
    e, de = za * s1, za * d1 / z
    ph = cmath.phase(z)
    if abs(ph) > math.pi / 2.0:
        sign = 1.0 if ph > 0 else -1.0
        c = -_SQRT2PI * reciprocal_gamma(-a) * cmath.exp(sign * 1j * math.pi * a) \
            * cmath.exp(z * z / 2.0) * z ** (-a - 1.0)
        s2, d2 = _asymptotic_series(a + 1.0, w, z - (a + 1.0) / z, -2.0 / z)
        e += c * s2
        de += c * d2
    return e, de


def _march(a: complex, e: complex, de: complex, r: float,
           z: complex) -> tuple[complex, complex]:
    """(E_a, E_a') at z from their values at radius r on the ray of z, in
    Taylor steps of length min(0.5, 2/|z0|)."""
    r_end = abs(z)
    u = z / r_end
    outward = r_end > r
    while r != r_end:
        step = min(0.5, 2.0 / r)
        r_next = r + step if outward else r - step
        if (r_next >= r_end) if outward else (r_next <= r_end):
            r_next = r_end
        z0 = r * u
        z1 = z if r_next == r_end else r_next * u
        e, de = _taylor(a, e, de, z0, z1 - z0)
        r = r_next
    return e, de


def _scaled_direct(a: complex, z: complex) -> tuple[complex, complex]:
    """(E_a, E_a') at z for |z| <= 2 or |arg z| <= 3 pi/4."""
    r = abs(z)
    if r <= _SMALL_Z:
        return _horner(_maclaurin(a), z)
    if r >= _LARGE_Z:
        return _large_z(a, z)
    u = z / r
    if abs(cmath.phase(z)) <= math.pi / 4.0:
        return _march(a, *_large_z(a, _LARGE_Z * u), _LARGE_Z, z)
    return _march(a, *_horner(_maclaurin(a), _SMALL_Z * u), _SMALL_Z, z)


def _scaled(a: complex, z: complex) -> tuple[complex, complex]:
    """(E_a, E_{a+1}) at z, E_{a+1} = z E_a - E_a'.  Past |arg z| = 3 pi/4
    through the connection formula
    E_a(z) = e^{i s pi a} E_a(-z)
             + sqrt(2 pi)/Gamma(-a) e^{i s pi (a+1)/2} e^{z^2/2} E_{-a-1}(-i s z),
    s = sign Im z, whose two terms lie in the direct sectors; z E_a - E_a'
    by the chain rule, with its two z e^{z^2/2} E_{-a-1} terms cancelled."""
    if abs(z) <= _SMALL_Z or abs(cmath.phase(z)) <= 0.75 * math.pi:
        e, de = _scaled_direct(a, z)
        return e, z * e - de
    s = 1.0 if z.imag >= 0 else -1.0
    c1 = cmath.exp(s * 1j * math.pi * a)
    c2 = _SQRT2PI * reciprocal_gamma(-a) * cmath.exp(s * 1j * math.pi * (a + 1.0) / 2.0) \
        * cmath.exp(z * z / 2.0)
    e1, de1 = _scaled_direct(a, -z)
    e2, de2 = _scaled_direct(-a - 1.0, -s * 1j * z)
    return c1 * e1 + c2 * e2, c1 * (z * e1 + de1) + s * 1j * c2 * de2


@lru_cache(maxsize=1024)
def _pcfd_cached(a: complex, z: complex) -> complex:
    return cmath.exp(-z * z / 4.0) * _scaled(a, z)[0]


def parabolic_cylinder_D(a: complex, z: complex) -> complex:
    """D_a(z) with the recessive large-z normalization z**a e^{-z^2/4}."""
    return _pcfd_cached(complex(a), complex(z))


@lru_cache(maxsize=1024)
def _pcfd_scaled_cached(a: complex, z: complex) -> tuple[complex, complex]:
    return _scaled(a, z)


def parabolic_cylinder_D_scaled_pair(a: complex, z: complex) -> tuple[complex, complex]:
    """(e^{z^2/4} D_a(z), e^{z^2/4} D_{a+1}(z)) from one evaluation, the
    second as z E_a(z) - E_a'(z) (DLMF 12.8.3)."""
    return _pcfd_scaled_cached(complex(a), complex(z))
