"""Scalar delta-function, saddle exponents, jump matrices and BP elements.

The middle factor of the lower-diagonal-upper jump factorization is absorbed
by the scalar function

    delta(xi) = exp{ (1/2 pi i) (int_{-inf}^{lam3} + int_{lam2}^{lam1})
                     rho(z)/(z - xi) dz },     rho = ln(1 + r1 r2),

holomorphic off Sigma = (-inf, lam3] u [lam2, lam1] (mirrored for mu < 0),
with boundary ratio delta+/delta- = 1 + r1 r2 on Sigma and delta -> 1 at
infinity.  Integration by parts gives the exact product representation

    ln delta = i v1 ln(xi-lam1) - i v2 ln(xi-lam2) + i v3 ln(xi-lam3) + X(xi),
    X(xi) = -(1/2 pi i) int_Sigma ln(xi - z) rho'(z) dz,

with v_l = -rho(lam_l)/(2 pi).  The per-saddle regular parts chi_s are read
off by re-anchoring all three powers at one saddle; chi_s is continuous at
lam_s and enters the local models and the leading-order coefficients there.

Everything is a weighted sum over one sample of rho per ray, on n and on 2n
Gauss-Legendre nodes per interval (``kernels.interval_rule``): the nodes lie
geometrically on the finite interval, whose end nearer 0 sits about mu/2
from rho's log singularity at the origin, and as z = lam3 - (1+s)/(1-s) on
the half-line.  1 + r1 r2 is evaluated once: at those nodes, the saddles,
and n nodes each on the gap and on a unit stretch past the finite interval,
which carry the winding.  arg(1 + r1 r2) is unwrapped along the sorted
points from the decaying end, with midpoints sampled where neighbours differ
by more than pi/2; data vanishing at a sample, not within 0.5 of arg 0 at
that end, or winding out of (-pi, pi) is refused.  ln delta is
``IntervalRule.cauchy``'s sum.  chi_s needs no rho': X is integrated by
parts, to boundary logs plus the Cauchy sum off the ends, and at an end lam*
to the kernel (rho(z) - rho(lam*))/(lam* - z), with rho(lam3)/(1 + lam3 - z)
subtracted on (-inf, lam3], whose log term int_0^inf ln u/(1+u)^2 du is 0.
ln delta(0) and chi_s(lam_s) come from both levels; the 2n values are used,
the n/2n gaps kept as convergence estimates, and a gap above 1e-10 raises
IntegrationError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from steplpd.kernels import ContourInterval, IntegrationError, IntervalRule, interval_rule
from steplpd.kernels.quadrature import _CONVERGENCE_TOL, _NODES
from steplpd.phase import PhaseGeometry, Regime

_TWO_PI = 2.0 * np.pi


class AssumptionViolation(RuntimeError):
    """Winding of arg(1 + r1 r2) leaves (-pi, pi): hypotheses not met."""


class BranchError(RuntimeError):
    """1 + r1 r2 vanishes on the integration contour."""


# rounds of midpoint sampling between neighbours whose args differ by > pi/2
_MAX_BISECTIONS = 40
# delta is refused this close to a saddle, where it is endpoint-singular
_ENDPOINT_GUARD = 1e-8


def _continuous_log(w: Callable[[float], complex], points: np.ndarray,
                    anchor_left: bool) -> np.ndarray:
    """ln w at the points, arg w unwrapped along the line from the decaying
    end: the leftmost point for positive mu, the rightmost for the mirror."""
    order = np.argsort(points)
    x = points[order]
    vals = np.array([w(float(p)) for p in x], dtype=complex)
    given = np.ones(len(x), dtype=bool)
    for _ in range(_MAX_BISECTIONS):
        if np.any(np.abs(vals) < 1e-14):
            raise BranchError("1 + r1 r2 vanishes on the sampling grid")
        steps = np.angle(vals[1:] / vals[:-1])
        wide = np.flatnonzero(np.abs(steps) > 0.5 * np.pi) + 1
        if not wide.size:
            break
        mids = 0.5 * (x[wide - 1] + x[wide])
        x, given = np.insert(x, wide, mids), np.insert(given, wide, False)
        vals = np.insert(vals, wide, [w(float(p)) for p in mids])
    else:
        raise BranchError(f"arg(1 + r1 r2) jumps near {x[wide[0]]:.17g}")
    k = 0 if anchor_left else -1
    if abs(np.angle(vals[k])) > 0.5:
        raise AssumptionViolation("arg(1 + r1 r2) does not settle near 0 at the anchor")
    arg = np.concatenate(([0.0], np.cumsum(steps)))
    arg += np.angle(vals[k]) - arg[k]
    if np.max(np.abs(arg)) >= np.pi:
        raise AssumptionViolation(
            "accumulated arg(1 + r1 r2) leaves (-pi, pi); refusing to continue")
    out = np.empty(len(points), dtype=complex)
    out[order] = (np.log(np.abs(vals)) + 1j * arg)[given]
    return out


def _log_side(z: complex, side: int = +1) -> complex:
    """Principal log, with real-negative arguments read from the given side."""
    z = complex(z)
    if z.imag == 0.0 and z.real < 0.0:
        return np.log(-z.real) + 1j * np.pi * side
    return np.log(z)


# ---------------------------------------------------------------------------
# delta
# ---------------------------------------------------------------------------

def _cauchy_sum(level, xi: complex, side: int | None) -> complex:
    """ln delta from one node level: (rule, rho at its nodes) per interval."""
    return sum(rule.cauchy(rho, xi, side) for rule, rho in level)


@dataclass
class DeltaFunction:
    """Evaluator of delta(xi, mu) over the two-interval contour.

    ``levels`` pairs each interval's rule with rho at its nodes, on n and
    on 2n nodes (the 2n level evaluates delta); ``rho_saddles`` is rho(lam_s).
    """

    geometry: PhaseGeometry
    levels: tuple[tuple[tuple[IntervalRule, np.ndarray], ...], ...]
    rho_saddles: tuple[complex, complex, complex]
    v_values: tuple[complex, complex, complex] = field(init=False)
    # |ln delta(0)| on n nodes minus on 2n nodes per interval
    convergence: float = field(init=False)

    def __post_init__(self):
        self.v_values = tuple(-r / _TWO_PI for r in self.rho_saddles)
        coarse, fine = (_cauchy_sum(level, 0.0, None) for level in self.levels)
        self.convergence = abs(coarse - fine)

    def v(self, s: int) -> complex:
        """v(lam_s) = -(1/2pi) ln|1+r1r2| - (i/2pi) * accumulated arg."""
        return self.v_values[s - 1]

    def log_delta(self, xi: complex, side: int | None = None) -> complex:
        for lam in self.geometry.lambdas:
            if abs(complex(xi) - lam) < _ENDPOINT_GUARD:
                raise ValueError(
                    f"delta is endpoint-singular: |xi - {lam:g}| < {_ENDPOINT_GUARD}")
        return _cauchy_sum(self.levels[-1], xi, side)

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

    ``data`` needs the callable one_plus_r1r2 on the real line
    (ScatteringData or SyntheticReflectionData); the continuous-branch log
    of 1 + r1 r2 is sampled once, on the nodes.
    """
    if geometry.regime is not Regime.THREE_REAL:
        raise ValueError("delta needs the three-stationary-point regime")
    lam1, lam2, lam3 = geometry.lambdas

    if geometry.mu > 0:
        # lam3 < 0 < lam2 < lam1: absorb on (-inf, lam3) u (lam2, lam1)
        contour = (ContourInterval(-np.inf, lam3), ContourInterval(lam2, lam1))
        winding_only = (ContourInterval(lam3, lam2), ContourInterval(lam1, lam1 + 1.0))
    else:
        # mirrored ray: lam1 < lam2 < 0 < lam3, contour (lam1, lam2) u (lam3, inf)
        contour = (ContourInterval(lam1, lam2), ContourInterval(lam3, np.inf))
        winding_only = (ContourInterval(lam1 - 1.0, lam1), ContourInterval(lam2, lam3))
    rules = [interval_rule(iv, n) for n in (_NODES, 2 * _NODES) for iv in contour]
    points = [r.z for r in rules] + [np.array(geometry.lambdas)]
    rho = np.split(_continuous_log(data.one_plus_r1r2, np.concatenate(
        points + [interval_rule(iv, _NODES).z for iv in winding_only]),
        anchor_left=geometry.mu > 0), np.cumsum([len(z) for z in points]))
    levels = (tuple(zip(rules[:2], rho[:2])), tuple(zip(rules[2:4], rho[2:4])))
    delta = DeltaFunction(geometry=geometry, levels=levels, rho_saddles=tuple(rho[4]))
    if delta.convergence > _CONVERGENCE_TOL:
        raise IntegrationError(
            f"build_delta: ln delta(0) changes by {delta.convergence:.1e} from "
            f"{_NODES} to {2 * _NODES} nodes per interval")
    return delta


# ---------------------------------------------------------------------------
# saddle exponents: v and the regular parts chi_s
# ---------------------------------------------------------------------------

def _power_coefficients(s: int, v) -> np.ndarray:
    """Coefficients of i ln(xi - lam_j), j = 1, 2, 3, in the saddle-s powers."""
    v1, v2, v3 = v
    if s not in (1, 2, 3):
        raise ValueError("saddle index must be 1, 2 or 3")
    return np.array({1: (v1, -v1, v1), 2: (v2, -v2, v3), 3: (v3, -v3, v3)}[s])


def _log_rho_prime(rule: IntervalRule, rho: np.ndarray, xi: complex,
                   rho_lo: complex, rho_hi: complex, side: int) -> complex:
    """int_I ln(xi - z) rho'(z) dz integrated by parts; rho_lo, rho_hi are rho
    at the ends (rho_lo unused on (-inf, b]) and ln(xi - z) is read from the
    side ``side`` where xi - z < 0.  At a finite end lam* the kernel is
    (rho(z) - rho(lam*))/(lam* - z); elsewhere the Cauchy sum."""
    a, b = rule.interval.lower, rule.interval.upper
    finite = np.isfinite(a)
    if xi == b:
        h = 1.0 if finite else 1.0 / (1.0 + b - rule.z)
        out = rule.integrate((rho - rho_hi * h) / (b - rule.z))
        return out - _log_side(xi - a) * (rho_lo - rho_hi) if finite else out
    if xi == a:
        return (rule.integrate((rho - rho_lo) / (a - rule.z))
                + _log_side(a - b, side) * (rho_hi - rho_lo))
    out = _log_side(xi - b, side) * rho_hi - 2j * np.pi * rule.cauchy(rho, xi, side)
    return out - _log_side(xi - a, side) * rho_lo if finite else out


def _chi(delta: DeltaFunction, level, s: int, xi: complex, side: int) -> complex:
    """chi_s(xi) from one node level (positive mu): X(xi) by parts plus the
    powers of ln delta less the saddle-s powers, whose ln(xi - lam_s)
    coefficient is 0, so that log is left out and lam_s itself allowed."""
    lambdas, v = delta.geometry.lambdas, delta.v_values
    at = dict(zip(lambdas, delta.rho_saddles))
    X = -sum(_log_rho_prime(rule, r, xi, at.get(rule.interval.lower, 0.0),
                            at[rule.interval.upper], side)
             for rule, r in level) / (2j * np.pi)
    logs = [0.0 if j == s - 1 else _log_side(xi - lam, side) for j, lam in enumerate(lambdas)]
    return X + 1j * np.dot(np.array(v) * (1, -1, 1) - _power_coefficients(s, v), logs)


@dataclass
class SaddleExponents:
    """v(lam_s) and the regular parts chi_s; ``chi_error`` holds
    |chi_s(lam_s)| on n nodes minus on 2n nodes per interval."""

    geometry: PhaseGeometry
    delta: DeltaFunction
    v: tuple[complex, complex, complex]
    chi_at_saddle: tuple[complex, complex, complex]
    chi_error: tuple[float, float, float]

    def _powers(self, s: int, xi: complex, side: int) -> complex:
        logs = [_log_side(complex(xi) - lam, side) for lam in self.geometry.lambdas]
        return 1j * np.dot(_power_coefficients(s, self.v), logs)

    def chi(self, s: int, xi: complex, side: int = +1) -> complex:
        """chi_s(xi), the regular part of the saddle-s product form (chi0 at lam_s)."""
        if complex(xi) == self.geometry.lam(s):
            return self.chi0(s)
        return _chi(self.delta, self.delta.levels[-1], s, complex(xi), side)

    def chi0(self, s: int) -> complex:
        """chi_s evaluated at its own saddle (the constant of the local model)."""
        return self.chi_at_saddle[s - 1]

    def log_local_constant(self, s: int) -> complex:
        """ln K_s = chi_s(lam_s) + i sum_{j != s} p_j ln|lam_s - lam_j|.

        Off the real line, delta(xi) -> K_s (xi - lam_s)^{i v_s} as xi -> lam_s
        at s = 1, 3 and K_2 (lam_2 - xi)^{-i v_2} at s = 2, whose cut lies
        along the contour (lam_2, lam_1): the i pi of each ln(xi - lam_j) with
        lam_j > lam_s cancels in the saddle-s powers on either side.
        """
        lam = self.geometry.lam(s)
        logs = [0.0 if j == s - 1 else np.log(abs(lam - lj))
                for j, lj in enumerate(self.geometry.lambdas)]
        return self.chi0(s) + 1j * np.dot(_power_coefficients(s, self.v), logs)

    def product_form(self, s: int, xi: complex, side: int = +1) -> complex:
        """delta(xi) rebuilt from the saddle-s product representation."""
        return np.exp(self._powers(s, xi, side) + self.chi(s, xi, side))


def saddle_exponents(data, geometry: PhaseGeometry,
                     delta: DeltaFunction | None = None) -> SaddleExponents:
    """v(lam_l) and chi_s(lam_s) from the node sample of rho."""
    if geometry.mu < 0:
        raise ValueError("saddle exponents are built on positive rays; the "
                         "x<0 asymptotics use the mirrored geometry at -mu")
    if delta is None:
        delta = build_delta(data, geometry)
    coarse, fine = (tuple(_chi(delta, level, s, geometry.lam(s), +1) for s in (1, 2, 3))
                    for level in delta.levels)
    errors = tuple(abs(c - f) for c, f in zip(coarse, fine))
    for s, err in enumerate(errors, start=1):
        if err > _CONVERGENCE_TOL:
            raise IntegrationError(
                f"saddle_exponents: chi_{s}(lam_{s}) changes by {err:.1e} from "
                f"{_NODES} to {2 * _NODES} nodes per interval")
    return SaddleExponents(geometry=geometry, delta=delta, v=delta.v_values,
                           chi_at_saddle=fine, chi_error=errors)


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
        # the half-line is (-inf, lam3) for mu > 0 and (lam3, inf) mirrored
        half = xi.real < lam3 if geometry.mu > 0 else xi.real > lam3
        on_cut = half or (lo < xi.real < hi)
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
