"""Scalar delta-function, saddle exponents, jump matrices and BP elements.

The middle factor of the lower-diagonal-upper jump factorization is absorbed
by the scalar function

    delta(xi) = exp{ (1/2 pi i) (int_{-inf}^{lam3} + int_{lam2}^{lam1})
                     rho(z)/(z - xi) dz },     rho = ln(1 + r1 r2),

holomorphic off Sigma = (-inf, lam3] u [lam2, lam1], with boundary ratio
delta+/delta- = 1 + r1 r2 on Sigma and delta -> 1 at infinity.  The branch of
rho is the continuous one: arg(1 + r1 r2) is accumulated along the real line
from -inf (winding stays in (-pi, pi) by hypothesis, else the construction
refuses).

Integration by parts gives the exact product representation

    ln delta = i v1 ln(xi-lam1) - i v2 ln(xi-lam2) + i v3 ln(xi-lam3) + X(xi),
    X(xi) = -(1/2 pi i) int_Sigma ln(xi - z) rho'(z) dz,

with v_l = -rho(lam_l)/(2 pi).  The per-saddle regular parts chi_s are read
off by re-anchoring all three powers at one saddle; chi_s is continuous at
lam_s and enters the local models and the leading-order coefficients there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from steplpd.kernels import ContourInterval, QuadratureSpec, cauchy_transform, integrate
from steplpd.phase import PhaseGeometry, Regime

_TWO_PI = 2.0 * np.pi


class AssumptionViolation(RuntimeError):
    """Winding of arg(1 + r1 r2) leaves (-pi, pi): hypotheses not met."""


class BranchError(RuntimeError):
    """1 + r1 r2 vanishes on the integration contour."""


_DELTA_SPEC = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-10)
# the chi kernels carry finite-difference noise of rho'; their quadrature
# cannot certify much below ~1e-8 absolute
_CHI_SPEC = QuadratureSpec(abs_tol=5e-9, rel_tol=1e-8)
# points of the grid on which the winding of arg(1 + r1 r2) is accumulated
_WINDING_NODES = 6000
# delta is refused this close to a saddle, where it is endpoint-singular
_ENDPOINT_GUARD = 1e-8


# ---------------------------------------------------------------------------
# winding bookkeeping
# ---------------------------------------------------------------------------

class _ContinuousLog:
    """ln(1 + r1 r2) with the argument unwrapped along the line.

    The winding is anchored where the data decays (arg -> 0): at -inf for the
    positive-mu contour, at +inf for the mirrored one.
    """

    def __init__(self, w: Callable[[float], complex], x_lo: float, x_hi: float,
                 anchor: str = "left"):
        self.w = w
        grid = np.linspace(x_lo, x_hi, _WINDING_NODES)
        vals = np.array([w(float(x)) for x in grid])
        if np.any(np.abs(vals) < 1e-14):
            raise BranchError("1 + r1 r2 vanishes on the sampling grid")
        raw = np.angle(vals)
        unwrapped = np.unwrap(raw)
        k = 0 if anchor == "left" else -1
        unwrapped -= unwrapped[k] - raw[k]   # principal value at the decaying end
        if abs(raw[k]) > 0.5:
            raise AssumptionViolation("arg(1 + r1 r2) does not settle near 0 at the anchor")
        if np.max(np.abs(unwrapped)) >= np.pi:
            raise AssumptionViolation(
                "accumulated arg(1 + r1 r2) leaves (-pi, pi); refusing to continue")
        self.grid = grid
        self.offsets = np.round((unwrapped - raw) / _TWO_PI).astype(int)

    def winding(self, x: float) -> int:
        if x <= self.grid[0]:
            return int(self.offsets[0])
        if x >= self.grid[-1]:
            return int(self.offsets[-1])
        idx = int(np.searchsorted(self.grid, x))
        idx = min(idx, len(self.offsets) - 1)
        return int(self.offsets[idx])

    def __call__(self, x: float) -> complex:
        val = self.w(x)
        if val == 0:
            raise BranchError(f"1 + r1 r2 vanishes at {x}")
        return np.log(val) + 2j * np.pi * self.winding(x)


def _log_side(z: complex, side: int = +1) -> complex:
    """Principal log, with real-negative arguments read from the given side."""
    z = complex(z)
    if z.imag == 0.0 and z.real < 0.0:
        return np.log(-z.real) + 1j * np.pi * side
    return np.log(z)


# ---------------------------------------------------------------------------
# delta
# ---------------------------------------------------------------------------

@dataclass
class DeltaFunction:
    """Evaluator of delta(xi, mu) over the two-interval contour."""

    geometry: PhaseGeometry
    rho: Callable[[float], complex]
    intervals: tuple[ContourInterval, ContourInterval]
    v_values: tuple[complex, complex, complex] = field(init=False)

    def __post_init__(self):
        lam = self.geometry.lambdas
        self.v_values = tuple(-self.rho(lam[s]) / _TWO_PI for s in range(3))

    def v(self, s: int) -> complex:
        """v(lam_s) = -(1/2pi) ln|1+r1r2| - (i/2pi) * accumulated arg."""
        return self.v_values[s - 1]

    def log_delta(self, xi: complex, side: int | None = None) -> complex:
        for lam in self.geometry.lambdas:
            if abs(complex(xi) - lam) < _ENDPOINT_GUARD:
                raise ValueError(
                    f"delta is endpoint-singular: |xi - {lam:g}| < {_ENDPOINT_GUARD}")
        return cauchy_transform(self.rho, list(self.intervals), xi,
                                _DELTA_SPEC, side=side)

    def eval(self, xi: complex, side: int | None = None) -> complex:
        return np.exp(self.log_delta(xi, side=side))

    __call__ = eval

    def at_zero(self) -> complex:
        """delta(0, mu); the origin sits in the (lam3, lam2) gap off-contour."""
        return self.eval(0.0)

    def at_pole(self, xi1: float) -> complex:
        """delta(i*xi1), off the contour in the upper half-plane."""
        return self.eval(1j * float(xi1))


def build_delta(data, geometry: PhaseGeometry) -> DeltaFunction:
    """Construct the delta evaluator for three-saddle geometry.

    ``data`` needs callables r1, r2 on the real line (ScatteringData or any
    synthetic stand-in); the continuous-branch log of 1 + r1 r2 is sampled and
    its winding frozen at build time.
    """
    if geometry.regime is not Regime.THREE_REAL:
        raise ValueError("delta needs the three-stationary-point regime")
    lam1, lam2, lam3 = geometry.lam1, geometry.lam2, geometry.lam3

    def w(z: float) -> complex:
        return 1.0 + data.r1(z) * data.r2(z)

    span = 8.0 * (abs(lam1) + abs(lam3)) + 50.0
    if geometry.mu > 0:
        # lam3 < 0 < lam2 < lam1: absorb on (-inf, lam3) u (lam2, lam1)
        clog = _ContinuousLog(w, -span, lam1 + 1.0, anchor="left")
        intervals = (ContourInterval(-np.inf, lam3),
                     ContourInterval(lam2, lam1))
    else:
        # mirrored ray: lam1 < lam2 < 0 < lam3, contour (lam1, lam2) u (lam3, inf)
        clog = _ContinuousLog(w, lam1 - 1.0, span, anchor="right")
        intervals = (ContourInterval(lam1, lam2),
                     ContourInterval(lam3, np.inf))
    return DeltaFunction(geometry=geometry, rho=clog, intervals=intervals)


# ---------------------------------------------------------------------------
# saddle exponents: v and the regular parts chi_s
# ---------------------------------------------------------------------------

@dataclass
class SaddleExponents:
    """v(lam_s) and the regular parts chi_s."""

    geometry: PhaseGeometry
    delta: DeltaFunction
    v: tuple[complex, complex, complex]
    chi_at_saddle: tuple[complex, complex, complex]
    _chi_x: Callable[[complex, int, int], complex]

    def chi(self, s: int, xi: complex, side: int = +1) -> complex:
        return self._chi_x(xi, s, side)

    def chi0(self, s: int) -> complex:
        """chi_s evaluated at its own saddle (the constant of the local model)."""
        return self.chi_at_saddle[s - 1]

    def product_form(self, s: int, xi: complex, side: int = +1) -> complex:
        """delta(xi) rebuilt from the saddle-s product representation."""
        lam1, lam2, lam3 = self.geometry.lambdas
        v1, v2, v3 = self.v
        L = lambda lam: _log_side(complex(xi) - lam, side)
        if s == 1:
            powers = 1j * v1 * (L(lam1) - L(lam2) + L(lam3))
        elif s == 2:
            powers = 1j * v3 * L(lam3) - 1j * v2 * (L(lam2) - L(lam1))
        elif s == 3:
            powers = 1j * v3 * (L(lam3) - L(lam2) + L(lam1))
        else:
            raise ValueError("saddle index must be 1, 2 or 3")
        return np.exp(powers + self.chi(s, xi, side))


def saddle_exponents(data, geometry: PhaseGeometry,
                     delta: DeltaFunction | None = None) -> SaddleExponents:
    """v(lam_l) and the chi_s regular parts via the integration-by-parts form."""
    if geometry.mu < 0:
        raise ValueError("saddle exponents are built on positive rays; the "
                         "x<0 asymptotics use the mirrored geometry at -mu")
    if delta is None:
        delta = build_delta(data, geometry)
    lam1, lam2, lam3 = geometry.lambdas
    rho = delta.rho
    v1, v2, v3 = (delta.v(s) for s in (1, 2, 3))

    # 4th-order stencil: large enough step that FD noise stays ~1e-12,
    # small enough that the h^4 truncation is far below the quad tolerance
    # and that the stencil never reaches the r-singularity at the origin
    h = min(1e-4 * max(1.0, abs(lam1 - lam3)), 0.1 * abs(lam2), 0.1 * abs(lam3))

    def rho_prime(z: float) -> complex:
        return (rho(z - 2 * h) - 8.0 * rho(z - h) + 8.0 * rho(z + h)
                - rho(z + 2 * h)) / (12.0 * h)

    intervals = delta.intervals

    def _piece(xi: complex, iv: ContourInterval, side: int) -> complex:
        """int_I ln(xi - z) rho'(z) dz, regularized when xi hits an endpoint.

        Near a matching endpoint lam* the log factor is integrable but slow
        for the quadrature; a second integration by parts against the anchor
        rho(lam*) trades it for the bounded kernel (rho - rho(lam*))/(xi - z).
        """
        a, b = iv.lower, iv.upper
        near_b = np.isfinite(b) and abs(xi - b) < 1e-3
        near_a = np.isfinite(a) and abs(xi - a) < 1e-3
        if not (near_a or near_b):
            return integrate(lambda z: _log_side(xi - z, side) * rho_prime(z),
                             iv, _CHI_SPEC)
        lam_star = b if near_b else a
        cut = 0.5 * min(1.0, (b - a) if np.isfinite(b - a) else 1.0)
        lo = lam_star - cut if near_b else lam_star
        hi = lam_star if near_b else lam_star + cut
        rho_star = rho(lam_star)

        def kernel(z: float) -> complex:
            dz = complex(xi) - z
            if abs(dz) < 1e-13:
                return -rho_prime(z)
            return (rho(z) - rho_star) / dz

        inner = integrate(kernel, ContourInterval(lo, hi), _CHI_SPEC)
        if near_b:
            inner -= _log_side(xi - lo, side) * (rho(lo) - rho_star)
            outer_iv = ContourInterval(a, lo) if a < lo else None
        else:
            inner += _log_side(xi - hi, side) * (rho(hi) - rho_star)
            outer_iv = ContourInterval(hi, b) if hi < b else None
        if outer_iv is not None:
            inner += integrate(lambda z: _log_side(xi - z, side) * rho_prime(z),
                               outer_iv, _CHI_SPEC)
        return inner

    def X(xi: complex, side: int = +1) -> complex:
        xi = complex(xi)
        total = 0.0 + 0.0j
        for iv in intervals:
            total += _piece(xi, iv, side)
        return -total / (2j * np.pi)

    def chi_x(xi: complex, s: int, side: int = +1) -> complex:
        L = lambda lam: _log_side(complex(xi) - lam, side)
        if s == 1:
            extra = 1j * (v1 - v2) * L(lam2) + 1j * (v3 - v1) * L(lam3)
        elif s == 2:
            extra = 1j * (v1 - v2) * L(lam1)
        elif s == 3:
            extra = 1j * (v1 - v3) * L(lam1) + 1j * (v3 - v2) * L(lam2)
        else:
            raise ValueError("saddle index must be 1, 2 or 3")
        return extra + X(xi, side)

    chi0 = tuple(chi_x(geometry.lam(s), s, +1) for s in (1, 2, 3))
    return SaddleExponents(geometry=geometry, delta=delta, v=(v1, v2, v3),
                           chi_at_saddle=chi0, _chi_x=chi_x)


# ---------------------------------------------------------------------------
# jump matrices at the deformation stages
# ---------------------------------------------------------------------------

def _phase(xi: complex, x: float, t: float, gamma: float) -> complex:
    """xi*x - xi^2*t + 8*gamma*xi^4*t  (equals t*theta(xi, x/t) for t != 0)."""
    xi = complex(xi)
    return xi * x - xi * xi * t + 8.0 * gamma * xi**4 * t


def jump_matrix(stage: str, x: float, t: float, xi: complex, data,
                geometry: PhaseGeometry | None = None,
                delta: DeltaFunction | None = None,
                ray: str | None = None) -> np.ndarray:
    """Jump matrix of the indicated deformation stage at the point xi.

    stage: "original" (full line), "tilde" (after the delta conjugation,
    interval-dependent factorization), "hat" / "regular" (on the lens rays,
    ``ray`` one of "Y1", "Y2", "Y1*", "Y2*").
    """
    xi = complex(xi)
    gamma = data.gamma
    ph = _phase(xi, x, t, gamma)
    ep, em = np.exp(2j * ph), np.exp(-2j * ph)

    if stage == "original":
        if xi.imag != 0.0 or xi == 0:
            raise ValueError("original jump lives on the real line minus 0")
        r1, r2 = data.r1(xi), data.r2(xi)
        return np.array([[1.0 + r1 * r2, -r2 * em], [-r1 * ep, 1.0]], dtype=complex)

    if stage == "tilde":
        if xi.imag != 0.0 or xi == 0:
            raise ValueError("tilde jump lives on the real line minus 0")
        if geometry is None or delta is None:
            raise ValueError("tilde stage needs geometry and delta")
        r1, r2 = data.r1(xi), data.r2(xi)
        opr = 1.0 + r1 * r2
        lam1, lam2, lam3 = geometry.lambdas
        lo, hi = sorted((lam2, lam1))
        on_cut = (xi.real < min(lam3, lam1)) or (lo < xi.real < hi)
        if on_cut:
            dp = delta.eval(xi, side=+1)
            dm = delta.eval(xi, side=-1)
            lower = np.array([[1.0, 0.0], [-r1 * ep / (opr * dm**2), 1.0]], dtype=complex)
            upper = np.array([[1.0, -r2 * dp**2 * em / opr], [0.0, 1.0]], dtype=complex)
            return lower @ upper
        d = delta.eval(xi)
        upper = np.array([[1.0, -r2 * d**2 * em], [0.0, 1.0]], dtype=complex)
        lower = np.array([[1.0, 0.0], [-r1 * ep / d**2, 1.0]], dtype=complex)
        return upper @ lower

    if stage in ("hat", "regular"):
        if ray not in ("Y1", "Y2", "Y1*", "Y2*"):
            raise ValueError("hat/regular stages need ray in Y1, Y2, Y1*, Y2*")
        starred = ray.endswith("*")
        if (xi.imag > 0 and starred) or (xi.imag < 0 and not starred):
            raise ValueError(f"{ray} lies in the {'lower' if starred else 'upper'} half-plane")
        if delta is None:
            raise ValueError("hat/regular stages need delta")
        if stage == "regular":
            r1, r2 = regularized_reflections(data, xi)
        else:
            r1, r2 = data.r1(xi), data.r2(xi)
        opr = 1.0 + r1 * r2
        d2 = delta.eval(xi) ** 2
        if ray == "Y1":
            return np.array([[1.0, 0.0], [-r1 * ep / d2, 1.0]], dtype=complex)
        if ray == "Y2":
            return np.array([[1.0, -r2 * d2 * em / opr], [0.0, 1.0]], dtype=complex)
        if ray == "Y1*":
            return np.array([[1.0, r2 * d2 * em], [0.0, 1.0]], dtype=complex)
        return np.array([[1.0, 0.0], [r1 * ep / (d2 * opr), 1.0]], dtype=complex)

    raise ValueError(f"unknown stage {stage!r}")


def jump_factorizations(x: float, t: float, xi: complex, data) -> tuple[np.ndarray, ...]:
    """The two triangular splittings of the original jump: (U, L, Lt, D, Ut)."""
    xi = complex(xi)
    ph = _phase(xi, x, t, data.gamma)
    ep, em = np.exp(2j * ph), np.exp(-2j * ph)
    r1, r2 = data.r1(xi), data.r2(xi)
    opr = 1.0 + r1 * r2
    U = np.array([[1.0, -r2 * em], [0.0, 1.0]], dtype=complex)
    L = np.array([[1.0, 0.0], [-r1 * ep, 1.0]], dtype=complex)
    Lt = np.array([[1.0, 0.0], [-r1 * ep / opr, 1.0]], dtype=complex)
    D = np.array([[opr, 0.0], [0.0, 1.0 / opr]], dtype=complex)
    Ut = np.array([[1.0, -r2 * em / opr], [0.0, 1.0]], dtype=complex)
    return U, L, Lt, D, Ut


def regularized_reflections(data, xi: complex) -> tuple[complex, complex]:
    """BP-regularized reflection coefficients; their product equals r1*r2.

    The prefactor (xi - i xi1)/xi cancels r1's pole at the discrete
    eigenvalue, leaving the finite value conj(b(-conj(.)))/(i xi1 a1'(i xi1))
    there (r1 itself diverges, its regularization does not vanish); r2's
    regularization acquires the pole instead.
    """
    xi = complex(xi)
    if xi == 0:
        raise ZeroDivisionError("regularized reflections undefined at xi = 0")
    if data.xi1 is None:
        raise ValueError("xi1 must be located first")
    pole = 1j * data.xi1
    if abs(xi - pole) < 1e-9 * (1.0 + data.xi1):
        raise ZeroDivisionError(
            "r2^r has a pole at i*xi1; use r1_regularized_at_pole for r1^r")
    factor = (xi - pole) / xi
    return factor * data.r1(xi), data.r2(xi) / factor


def r1_regularized_at_pole(data) -> complex:
    """The finite value of r1^r at xi = i*xi1 by l'Hopital on a1's zero."""
    pole = 1j * data.xi1
    return data.b_mirror(pole) / (pole * data.a1dot_at_pole())


# ---------------------------------------------------------------------------
# residue constants and BP elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidueConstants:
    """c1(x,t) of the pole at i*xi1 and c0(mu) of the origin."""

    c1: Callable[[float, float], complex]
    c0: complex
    xi1: float
    a1dot: complex
    delta_at_pole: complex


def residue_constants(data, delta: DeltaFunction) -> ResidueConstants:
    """Build c1(.,.) and c0 from the located pole and the delta evaluator.

    c1(x,t) = kappa/(a1'(i xi1) delta(i xi1)^2) * exp(-2 xi1 x + 2 i xi1^2 t
    + 16 i xi1^4 gamma t); c0 = A delta(0)^2 / (2i).
    """
    if data.xi1 is None:
        raise ValueError("xi1 must be located first")
    xi1 = data.xi1
    a1dot = data.a1dot_at_pole()
    if a1dot == 0:
        raise ZeroDivisionError("a1'(i*xi1) = 0: zero is not simple")
    dpole = delta.at_pole(xi1)
    gamma = data.gamma
    pref = data.kappa / (a1dot * dpole**2)

    def c1(xv: float, tv: float) -> complex:
        return pref * np.exp(-2.0 * xi1 * xv + 2j * xi1**2 * tv
                             + 16j * xi1**4 * gamma * tv)

    c0 = data.A * delta.at_zero() ** 2 / 2j
    return ResidueConstants(c1=c1, c0=c0, xi1=xi1, a1dot=a1dot,
                            delta_at_pole=dpole)


def bp_elements(u, v) -> tuple[complex, complex]:
    """Blaschke-Potapov matrix elements from the two defect vectors.

    P12 = u1 v1 / (u1 v2 - u2 v1),  P21 = -u2 v2 / (u1 v2 - u2 v1).
    """
    u1, u2 = complex(u[0]), complex(u[1])
    v1, v2 = complex(v[0]), complex(v[1])
    den = u1 * v2 - u2 * v1
    if den == 0:
        raise ZeroDivisionError("degenerate BP data: u1 v2 - u2 v1 = 0")
    return u1 * v1 / den, -u2 * v2 / den


def bp_leading(xi_r_matrices, xi1: float, c0: complex,
               geometry: PhaseGeometry) -> tuple[complex, complex]:
    """Leading-order P12, P21 from the circle contributions Xi_j^r.

    Inputs are the three residue matrices Xi_j^r = -Xi_j/sqrt(t) (off-diagonal).
    """
    lam = geometry.lambdas
    p12 = -1j * c0 / xi1
    p21 = 0.0 + 0.0j
    for j, m in enumerate(xi_r_matrices):
        lamj = lam[j]
        p12 += -m[0, 1] / lamj + (1j * c0**2 / xi1) * m[1, 0] / (lamj * (lamj - 1j * xi1))
        p21 += m[1, 0] / (lamj - 1j * xi1)
    return p12, p21
