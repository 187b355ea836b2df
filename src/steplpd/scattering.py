"""Direct scattering for step-like profiles of the focusing nonlocal LPD flow.

The x-part of the Lax pair is phi_x = (-i*xi*sigma3 + Q) phi with the
nonlocal potential

    Q(x) = [[0, q0(x)], [-conj(q0(-x)), 0]],

so a profile that equals the pure step q0A (0 for x<0, A for x>0) outside
[-ell, ell] makes Q *exactly* equal to its limits Q-+ outside that window:
the mirrored entry couples the right tail of q0 to the left tail.  Jost
solutions are therefore seeded exactly,

    phi_-+(x) = L_-+(xi) exp(-i*xi*sigma3*x)   for -+x >= ell,

and carried to x = 0 by a transfer-matrix sweep.  The scattering matrix
S = phi_+(0)^(-1) phi_-(0) has the Wronskians of the Jost columns as its
entries (det phi_+ = 1),

    a1 = W(phi_-1, phi_+2),  b = W(phi_-2, phi_+2),  a2 = W(phi_+1, phi_-2),

the one formula for S at every nonzero xi, on the real axis and off it.

Q(x) does not depend on xi, so each half-line's transfer matrix is a
product of 4th-order Magnus cell exponentials (Iserles & Norsett, Phil.
Trans. R. Soc. A 357, 1999; Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
2009), each in closed form for a traceless 2x2 matrix.  The profile samples
Q once, at two Gauss points per cell; the sweep is vectorised over cells
and xi.  Cells are at most _MAGNUS_H wide, with edges at 0, at +-support
and at the kinks of a table profile.

L-+ blow up at xi = 0, but the clean columns phi_+1 = T_+ e1 and
phi_-2 = T_- e2 (T the transfer matrices) stay finite there: one sweep at
xi = 0 gives a2(0), and the case-2 value of b(0), where the pole of
b = W(T_- e2, T_+ e2) - (A/2i xi) a2(xi) exp(2i xi ell) cancels.

The discrete eigenvalue i*xi1 (zero of a1 in the upper half-plane) follows
from the trace formulas.  Both rest on one integral,

    I = (1/pi) int_0^inf Arg(1 + r1 r2)(th) / th dth,

the principal value of the log integral of 1 - b(th) conj(b(-th)) =
1/(1 + r1 r2) (det S = 1) folded onto th > 0: that function's modulus is
even in th and its argument odd.  Case 1 (a2(0) != 0) has xi1 = (A/2) e^I;
case 2 (a2(0) = 0) the quadratic closed form built on F1 = e^(-I) and F2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, ClassVar

import numpy as np

from steplpd.kernels import ContourInterval, IntegrationError, interval_rule, ode_integrate
from steplpd.kernels.quadrature import _CONVERGENCE_TOL, _NODES

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class CaseTag(Enum):
    CASE1 = 1   # a2 has no zero in the closed lower half-plane
    CASE2 = 2   # a2(0) = 0 with a2'(0) != 0 and lim xi*a1 != 0


class SingularNormalizationError(ZeroDivisionError):
    """Jost normalization matrices L+- blow up at xi = 0."""


class DegeneracyError(RuntimeError):
    """Neither case applies: a2(0) and a2'(0) both below threshold."""


class InconsistentDataError(RuntimeError):
    """Trace-formula xi1 and the actual zero of a1 disagree."""


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def _zero(x: float) -> complex:
    return 0.0 + 0.0j


# distances past -+support at which the perturbation must vanish
_SUPPORT_PROBES = np.linspace(0.0, 4.0, 81)[1:]
# widest cell of the Magnus sweep (see _transfer)
_MAGNUS_H = 1.25e-3
_GAUSS_OFFSET = 0.5 / np.sqrt(3.0)      # Gauss points at midpoint -+ this * h
_MAGNUS_C = np.sqrt(3.0) / 12.0         # weight of the commutator in Omega


@dataclass(frozen=True)
class InitialProfile:
    """Step of height A plus a compactly supported perturbation.

    q0(x) = perturbation(x) for x < 0 and A + perturbation(x) for x > 0;
    the perturbation must vanish (numerically) outside [-support, support].
    kinks lists the x where the perturbation's derivative jumps (the nodes
    of a table profile); the Magnus sweep puts cell edges there.
    """

    A: float
    gamma: float
    perturbation: Callable[[float], complex] = _zero
    support: float = 0.0
    kinks: tuple[float, ...] = ()

    def __post_init__(self):
        if self.A <= 0:
            raise ValueError("step height A must be positive")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.support < 0:
            raise ValueError("support must be >= 0")
        tol = 1e-10 * (1 + self.A)
        for xp in self.support + _SUPPORT_PROBES:
            if abs(self.perturbation(xp)) > tol or abs(self.perturbation(-xp)) > tol:
                raise ValueError("perturbation does not vanish outside its support")

    @property
    def is_pure_step(self) -> bool:
        return self.support == 0.0

    def q0(self, x: float) -> complex:
        base = self.A if x > 0 else 0.0
        if abs(x) > self.support:
            return complex(base)
        return base + self.perturbation(x)

    @cached_property
    def _magnus_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cells of [0, support] and q0 at their Gauss points, on both sides.

        Returns the widths h (n,), q0 at the points x (n, 2) of [0, support]
        and q0 at their mirrors -x, every array ordered from the outer end
        inwards (cells from +-support towards 0, points from |x| large to
        small), the order in which both half-line sweeps meet them.  Cell
        edges sit at 0, at support and at every |kink| in between; no cell
        is wider than _MAGNUS_H.
        """
        ell = self.support
        edges = np.unique([0.0, ell, *(abs(k) for k in self.kinks if abs(k) < ell)])
        per_gap = np.ceil(np.diff(edges) / _MAGNUS_H).astype(int)
        z = np.concatenate([np.linspace(lo, hi, n + 1)[:-1]
                            for lo, hi, n in zip(edges[:-1], edges[1:], per_gap)] + [[ell]])
        h = np.diff(z)[::-1]
        mid = 0.5 * (z[1:] + z[:-1])[::-1]
        x = mid[:, None] + np.outer(h, [_GAUSS_OFFSET, -_GAUSS_OFFSET])
        right = np.array([self.q0(v) for v in x.ravel()]).reshape(x.shape)
        left = np.array([self.q0(-v) for v in x.ravel()]).reshape(x.shape)
        return h, right, left

    # -- construction from the JSON document used by the CLI ---------------

    @classmethod
    def pure_step(cls, A: float, gamma: float) -> "InitialProfile":
        return cls(A=A, gamma=gamma)

    @classmethod
    def gaussian_bump(cls, A: float, gamma: float, amplitude: complex,
                      center: float, width: float,
                      support: float | None = None) -> "InitialProfile":
        if support is None:
            support = abs(center) + 6.5 * width
        amp = complex(amplitude)

        def bump(x: float) -> complex:
            if abs(x) > support:
                return 0.0 + 0.0j
            return amp * np.exp(-((x - center) / width) ** 2)

        return cls(A=A, gamma=gamma, perturbation=bump, support=support)

    @classmethod
    def from_table(cls, A: float, gamma: float, xs, values) -> "InitialProfile":
        xs = np.asarray(xs, dtype=float)
        vals = np.asarray(values, dtype=complex)
        if xs.ndim != 1 or xs.shape != vals.shape or len(xs) < 2:
            raise ValueError("table perturbation needs matching 1-d x and value arrays")
        support = float(max(abs(xs[0]), abs(xs[-1])))

        def interp(x: float) -> complex:
            if x <= xs[0] or x >= xs[-1]:
                return 0.0 + 0.0j
            re = np.interp(x, xs, vals.real)
            im = np.interp(x, xs, vals.imag)
            return complex(re, im)

        return cls(A=A, gamma=gamma, perturbation=interp, support=support,
                   kinks=tuple(float(x) for x in xs))

    @classmethod
    def from_dict(cls, doc: dict) -> "InitialProfile":
        A = float(doc["A"])
        gamma = float(doc["gamma"])
        pert = doc.get("perturbation", {"kind": "none"})
        kind = pert.get("kind", "none")
        if kind == "none":
            return cls.pure_step(A, gamma)
        if kind == "gaussian-bump":
            amp = pert["amplitude"]
            if isinstance(amp, (list, tuple)):
                amp = complex(amp[0], amp[1])
            return cls.gaussian_bump(A, gamma, amp, float(pert.get("center", 0.0)),
                                     float(pert["width"]),
                                     support=doc.get("support"))
        if kind == "table":
            xs = pert["x"]
            vals = [complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)
                    for v in pert["values"]]
            return cls.from_table(A, gamma, xs, vals)
        raise ValueError(f"unknown perturbation kind {kind!r}")

    @classmethod
    def from_json(cls, path: str) -> "InitialProfile":
        """Load a profile document validated against config_schema.json."""
        # imported here so that ``import steplpd`` does not pay for them
        from importlib import resources

        import jsonschema

        with open(path) as fh:
            doc = json.load(fh)
        schema = resources.files("steplpd").joinpath("config_schema.json")
        jsonschema.validate(doc, json.loads(schema.read_text()))
        return cls.from_dict(doc)


def normalization_matrices(A: float, xi: complex) -> tuple[np.ndarray, np.ndarray]:
    """L-(xi), L+(xi) diagonalizing the asymptotic Lax matrices."""
    if xi == 0:
        raise SingularNormalizationError("L+- are singular at xi = 0")
    r = A / (2j * xi)
    L_minus = np.array([[1.0, 0.0], [r, 1.0]], dtype=complex)
    L_plus = np.array([[1.0, r], [0.0, 1.0]], dtype=complex)
    return L_minus, L_plus


# ---------------------------------------------------------------------------
# Jost solutions
# ---------------------------------------------------------------------------

def _ordered_product(E: np.ndarray) -> np.ndarray:
    """E_(n-1) ... E_1 E_0 for matrices E[:, :, j] (shape (2, 2, n, ...)),
    multiplied in pairwise levels."""
    while E.shape[2] > 1:
        n = E.shape[2]
        later, earlier = E[:, :, 1::2], E[:, :, 0:n - 1:2]
        pairs = (later[:, :, None] * earlier[None]).sum(axis=1)
        E = np.concatenate([pairs, E[:, :, n - 1:]], axis=2) if n % 2 else pairs
    return E[:, :, 0]


def _half_line_transfer(h: np.ndarray, up: np.ndarray, lo: np.ndarray,
                        xi: np.ndarray) -> np.ndarray:
    """Transfer matrices (len(xi), 2, 2) of phi_x = (-i xi sigma3 + Q) phi.

    Cell j has signed width h[j] and Q = [[0, up], [lo, 0]] at its two Gauss
    points, in the order the sweep meets them.  Each cell contributes the
    4th-order Magnus exponential exp(Omega) with Omega = h/2 (A1 + A2) +
    sqrt(3)/12 h^2 [A2, A1]; Omega is traceless, so exp(Omega) =
    cosh(s) I + sinh(s)/s Omega with s^2 = -det Omega.
    """
    a = -1j * xi[None, :]
    hh = h[:, None]
    c = (_MAGNUS_C * h * h)[:, None]
    q1, q2, p1, p2 = up[:, :1], up[:, 1:], lo[:, :1], lo[:, 1:]
    w11 = a * hh + c * (q2 * p1 - q1 * p2)
    w12 = 0.5 * hh * (q1 + q2) + 2.0 * c * a * (q1 - q2)
    w21 = 0.5 * hh * (p1 + p2) + 2.0 * c * a * (p2 - p1)
    s2 = w11 * w11 + w12 * w21
    root = np.sqrt(s2)
    small = np.abs(s2) < 1e-8
    sinhc = np.where(small, 1.0 + s2 / 6.0 + s2 * s2 / 120.0,
                     np.sinh(root) / np.where(small, 1.0, root))
    ch = np.cosh(root)
    E = np.array([[ch + sinhc * w11, sinhc * w12], [sinhc * w21, ch - sinhc * w11]])
    return np.moveaxis(_ordered_product(E), -1, 0)


def _transfer(profile: InitialProfile, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T_-, T_+): phi(0) = T_-+ phi(-+support) for every xi of the array.

    Q(x) does not depend on xi: the profile samples it once (its
    _magnus_cells), and each half-line is one vectorised Magnus sweep.
    """
    h, right, left = profile._magnus_cells
    return (_half_line_transfer(h, left, -np.conj(right), xi),
            _half_line_transfer(-h, right, -np.conj(left), xi))


def jost_at_origin(profile: InitialProfile, xi: complex) -> tuple[np.ndarray, np.ndarray]:
    """(phi_-(0,0,xi), phi_+(0,0,xi)) by exact seeding outside the support.

    phi_-+ equals L_-+ exp(-i xi sigma3 x) at x = -+support, and the Magnus
    transfer matrix of its half-line carries it to 0.  For the pure step the
    seeds already live at x = 0 and no sweep runs; S then reproduces the
    closed form exactly.
    """
    xi = complex(xi)
    L_minus, L_plus = normalization_matrices(profile.A, xi)
    if profile.is_pure_step:
        return L_minus, L_plus
    T_minus, T_plus = _transfer(profile, np.array([xi]))
    phase = np.exp(1j * xi * profile.support * np.array([1.0, -1.0]))
    return T_minus[0] @ (L_minus * phase), T_plus[0] @ (L_plus / phase)


def _wronskian(u: np.ndarray, v: np.ndarray) -> complex:
    return u[0] * v[1] - u[1] * v[0]


def scattering_matrix(profile: InitialProfile, xi: complex) -> np.ndarray:
    """S(xi) = phi_+(0,0,xi)^(-1) phi_-(0,0,xi) for nonzero xi, real or
    complex, as the Wronskians of the Jost columns (det phi_+ = 1)."""
    phi_minus, phi_plus = jost_at_origin(profile, xi)
    (m1, m2), (p1, p2) = phi_minus.T, phi_plus.T
    return np.array([[_wronskian(m1, p2), _wronskian(m2, p2)],
                     [_wronskian(p1, m1), _wronskian(p1, m2)]])


# ---------------------------------------------------------------------------
# scattering data
# ---------------------------------------------------------------------------

# step of the a1'(i xi1) central difference, relative to xi1
_A1DOT_H_REL = 1e-5
# |a2(0)| above this times (1 + A) is case 1
_CASE_THRESHOLD_REL = 1e-6

@dataclass
class ScatteringData:
    """Evaluable scattering data of a step-like profile.

    a1 lives on the closed upper half-plane minus 0, a2 on the closed lower
    half-plane, b on the reals (all three continue meromorphically for the
    compact-perturbation class, which the callables exploit off the axis).
    kappa is the unimodular norming constant of the discrete eigenvalue; it
    is free data here (default 1).
    """

    A: float
    gamma: float
    a1: Callable[[complex], complex]
    a2: Callable[[complex], complex]
    b: Callable[[complex], complex]
    case_tag: CaseTag | None = None
    xi1: float | None = None
    a11: complex | None = None
    a2dot0: complex | None = None
    kappa: complex = 1.0 + 0.0j

    def __post_init__(self):
        if abs(abs(self.kappa) - 1.0) > 1e-12:
            raise ValueError("norming constant kappa must be unimodular")

    # reflection coefficients --------------------------------------------

    def b_mirror(self, xi: complex) -> complex:
        """conj(b(-conj(xi))): the Schwarz-reflected partner entering r1."""
        return np.conj(self.b(-np.conj(xi)))

    def r1(self, xi: complex) -> complex:
        return self.b_mirror(xi) / self.a1(xi)

    def r2(self, xi: complex) -> complex:
        return self.b(xi) / self.a2(xi)

    def one_plus_r1r2(self, xi: complex) -> complex:
        """1/(1 - b b_mirror), equal to 1 + r1 r2 by det S = 1 without the
        cancellation of r1 r2 ~ -1 near xi = 0, and exactly 1 where b = 0."""
        return 1.0 / (1.0 - self.b(xi) * self.b_mirror(xi))

    def a1dot_at_pole(self) -> complex:
        """da1/dxi at i*xi1 by a central difference along the imaginary axis."""
        if self.xi1 is None:
            raise ValueError("xi1 not located yet")
        h = _A1DOT_H_REL * self.xi1
        up = self.a1(1j * (self.xi1 + h))
        dn = self.a1(1j * (self.xi1 - h))
        return (up - dn) / (2j * h)

    # constructors ---------------------------------------------------------

    @classmethod
    def pure_step(cls, A: float, gamma: float) -> "ScatteringData":
        """Closed forms: a1 = 1 + A^2/(4 xi^2), a2 = 1, b = iA/(2 xi)."""
        def a1(xi):
            return 1.0 + A * A / (4.0 * complex(xi) ** 2)

        def a2(xi):
            return 1.0 + 0.0j

        def b(xi):
            return 1j * A / (2.0 * complex(xi))

        return cls(A=A, gamma=gamma, a1=a1, a2=a2, b=b, case_tag=CaseTag.CASE1,
                   xi1=A / 2.0)

    @classmethod
    def reflectionless(cls, A: float, gamma: float,
                       alpha: float = 0.0) -> "ScatteringData":
        """b == 0 case-2 data of the exact one-soliton, kappa = exp(i*alpha)."""
        def a1(xi):
            xi = complex(xi)
            return (xi - 0.5j * A) / xi

        def a2(xi):
            xi = complex(xi)
            return xi / (xi - 0.5j * A)

        def b(xi):
            return 0.0 + 0.0j

        return cls(A=A, gamma=gamma, a1=a1, a2=a2, b=b, case_tag=CaseTag.CASE2,
                   xi1=A / 2.0, a11=-0.5j * A, a2dot0=2j / A,
                   kappa=np.exp(1j * alpha))

    @classmethod
    def from_profile(cls, profile: InitialProfile,
                     analyze: bool = True) -> "ScatteringData":
        """Numerical scattering data: a1, a2 and b read the entries of the
        Wronskian S (scattering_matrix), on the axis and off it, cached per xi.

        At xi = 0 one sweep gives the clean columns T_+ e1 and T_- e2 and
        with them a2(0).  b(0) is finite only in case 2: with a2(0) = 0 the
        pole of b = W(T_- e2, T_+ e2) - (A/2i xi) a2(xi) exp(2i xi ell)
        cancels and b(0) = W(T_- e2, T_+ e2) - (A/2i) a2'(0); when |a2(0)|
        exceeds classify_case's threshold, b(0) raises.  a1(0) raises.
        """
        if profile.is_pure_step:
            return cls.pure_step(profile.A, profile.gamma)
        A = profile.A

        @lru_cache(maxsize=50_000)
        def s_entries(xi: complex) -> tuple:
            return tuple(scattering_matrix(profile, xi).ravel())

        T_minus, T_plus = (T[0] for T in _transfer(profile, np.zeros(1)))
        a2_zero = _wronskian(T_plus[:, 0], T_minus[:, 1])
        w_zero = _wronskian(T_minus[:, 1], T_plus[:, 1])

        def a1(xi):
            return s_entries(complex(xi))[0]

        def a2(xi):
            xi = complex(xi)
            return a2_zero if xi == 0 else s_entries(xi)[3]

        def b(xi):
            xi = complex(xi)
            if xi != 0:
                return s_entries(xi)[1]
            if abs(a2_zero) > _CASE_THRESHOLD_REL * (1.0 + A):
                raise SingularNormalizationError("b has a pole at 0: a2(0) != 0")
            return w_zero - A / 2j * _a2dot0(a2, A)

        data = cls(A=A, gamma=profile.gamma, a1=a1, a2=a2, b=b)
        if analyze:
            data.case_tag = classify_case(data)
            data.xi1 = locate_xi1(data)
        return data


# A times the half-width where soliton_profile cuts the exponential tails
_SOLITON_CUTOFF = 40.0


def soliton_profile(A: float, gamma: float, alpha: float = 0.0) -> InitialProfile:
    """Initial profile of the exact one-soliton at t = 0 (for f1/f2 tests).

    Exponential tails are cut where they reach ~1e-17 of the step; alpha must
    stay away from 0 mod 2*pi or the profile has a pole at the origin.
    """
    ell = _SOLITON_CUTOFF / A

    def pert(x: float) -> complex:
        if abs(x) > ell:
            return 0.0 + 0.0j
        q = A / (1.0 - np.exp(-A * x + 1j * alpha))
        return q - (A if x > 0 else 0.0)

    return InitialProfile(A=A, gamma=gamma, perturbation=pert, support=ell)


@dataclass(frozen=True)
class SyntheticReflectionData:
    """Minimal reflection-data stand-in for factor/asymptotics experiments.

    Carries just the surface the delta/exponent machinery consumes: r1, r2
    callables on the line plus step height and dispersion parameters.  The
    norming constant kappa is 1.
    """

    A: float
    gamma: float
    r1: Callable[[complex], complex]
    r2: Callable[[complex], complex]
    xi1: float | None = None
    kappa: ClassVar[complex] = 1.0 + 0.0j

    def one_plus_r1r2(self, xi: complex) -> complex:
        return 1.0 + self.r1(xi) * self.r2(xi)


# width of the Gaussians synthetic_from_v_targets centres at the saddles
_SYNTHETIC_WIDTH = 0.35


def synthetic_from_v_targets(A: float, gamma: float, mu: float,
                             v_targets: tuple[complex, complex, complex],
                             r2: complex | tuple[float, float, float, float] = 0.9
                             ) -> SyntheticReflectionData:
    """Reflection data whose saddle exponents hit prescribed v(lam_s).

    Writes 1 + r1 r2 = exp(-2 pi g) with g a sum of Gaussians centered at the
    saddles of the ray mu; the 3x3 cross-talk system is solved exactly so
    v(lam_s) = v_targets[s-1].  r2 is a nonvanishing constant, or the
    coefficients (c, w1, w2, w3) of c + sum_s w_s exp(-((xi - lam_s)/w)^2)
    with the Gaussians' width w = _SYNTHETIC_WIDTH; r1 carries the rest of
    the product.
    """
    from steplpd.phase import stationary_points

    geometry = stationary_points(mu, gamma)
    lams = np.array(geometry.lambdas)
    G = np.exp(-((lams[:, None] - lams[None, :]) / _SYNTHETIC_WIDTH) ** 2)
    coef = np.linalg.solve(G, np.asarray(v_targets, dtype=complex))

    def g(z: complex) -> complex:
        return np.sum(coef * np.exp(-((complex(z).real - lams) / _SYNTHETIC_WIDTH) ** 2))

    if np.ndim(r2) == 0:
        def r2_of(z: complex) -> complex:
            return r2
    else:
        floor, *weights = r2

        def r2_of(z: complex) -> complex:
            zr = complex(z).real
            val = floor
            for w, lam in zip(weights, lams):
                val = val + w * np.exp(-((zr - lam) / _SYNTHETIC_WIDTH) ** 2)
            return val

    def r1(z: complex) -> complex:
        return (np.exp(-2.0 * np.pi * g(z)) - 1.0) / r2_of(z)

    # a nominal discrete eigenvalue so the BP-regularized quantities exist
    return SyntheticReflectionData(A=A, gamma=gamma, r1=r1, r2=r2_of, xi1=A / 2.0)


def _a2dot0(a2: Callable[[complex], complex], A: float) -> complex:
    """a2'(0) by a central difference (shared by classify_case and b(0))."""
    h = 1e-5 * (1.0 + A)
    return (a2(h) - a2(-h)) / (2.0 * h)


def classify_case(data: ScatteringData) -> CaseTag:
    """Case 1 iff |a2(0)| exceeds 1e-6*(1+A); otherwise case 2,
    provided a2'(0) and lim xi*a1(xi) are healthy (else degenerate)."""
    thr = _CASE_THRESHOLD_REL * (1.0 + data.A)
    a20 = data.a2(0.0)
    if abs(a20) > thr:
        data.case_tag = CaseTag.CASE1
        return CaseTag.CASE1

    a2dot0 = _a2dot0(data.a2, data.A)
    if abs(a2dot0) <= thr:
        raise DegeneracyError("both a2(0) and a2'(0) vanish: unsupported data")
    b0 = data.b(0.0)
    a11 = -data.A**2 * a2dot0 / 4.0 + 1j * data.A * np.real(b0)
    if abs(a11) <= thr:
        raise DegeneracyError("lim xi*a1(xi) vanishes: unsupported data")
    data.case_tag = CaseTag.CASE2
    data.a2dot0 = a2dot0
    data.a11 = a11
    return CaseTag.CASE2


# |a1(i xi1)| above this (relative to a1 just off the zero) refutes xi1
_XI1_CHECK_TOL = 1e-6


def locate_xi1(data: ScatteringData) -> float:
    """The positive xi1 with a1(i*xi1) = 0, from the trace formulas.

    Both cases use I = (1/pi) int_0^inf Arg(1 + r1 r2)(th) / th dth, the
    folded principal value of the log integral of 1 - b(th) conj(b(-th)):
    Case 1:  xi1 = (A/2) e^I.
    Case 2:  xi1 = A (sqrt(Re b(0)^2 + F2^2) - Re b(0)) / (2 F1 F2) with
             F1 = e^(-I) and F2 = sqrt(1 - |b(0)|^2).
    I is a node sum on (0, inf) over one_plus_r1r2, taken on _NODES and on
    2 _NODES nodes; a change above _CONVERGENCE_TOL raises IntegrationError.
    The value is cross-checked against a1 at i*xi1; disagreement raises.
    """
    if data.case_tag is None:
        classify_case(data)

    def trace_integral(n: int) -> float:
        rule = interval_rule(ContourInterval(0.0, np.inf), n)
        arg = np.angle([data.one_plus_r1r2(th) for th in rule.z])
        return rule.integrate(arg / rule.z).real / np.pi

    coarse, I = trace_integral(_NODES), trace_integral(2 * _NODES)
    if abs(coarse - I) > _CONVERGENCE_TOL:
        raise IntegrationError(
            f"locate_xi1: the trace integral changes by {abs(coarse - I):.1e} "
            f"from {_NODES} to {2 * _NODES} nodes")

    A = data.A
    if data.case_tag is CaseTag.CASE1:
        xi1 = (A / 2.0) * np.exp(I)
    else:
        b0 = data.b(0.0)
        mod2 = abs(b0) ** 2
        if mod2 >= 1.0:
            raise InconsistentDataError("case 2 requires |b(0)| < 1")
        F1, F2 = np.exp(-I), np.exp(0.5 * np.log(1.0 - mod2))
        xi1 = A * (np.sqrt(np.real(b0) ** 2 + F2**2) - np.real(b0)) / (2.0 * F1 * F2)
    xi1 = float(xi1)

    scale = max(abs(data.a1(1j * xi1 * (1.0 + 1e-3))), 1e-6)
    if abs(data.a1(1j * xi1)) > _XI1_CHECK_TOL * max(1.0, scale):
        raise InconsistentDataError(
            f"a1(i*xi1) = {data.a1(1j * xi1):.3e} does not vanish at xi1 = {xi1:.8g}")
    data.xi1 = xi1
    return xi1


# ---------------------------------------------------------------------------
# auxiliary functions f1, f2 (xi -> 0 structure of the eigenfunctions)
# ---------------------------------------------------------------------------

def auxiliary_f(profile: InitialProfile, x: float) -> tuple[complex, complex]:
    """(f1(x), f2(x)) at t = 0 from the coupled Volterra system

        f1' = q0(x) f2,    f2' = -conj(q0(-x)) f1,

    integrated forward from below the support with seed (0, A/(2i)).

    The f2-kernel is the mirrored-conjugate potential alone: adding the
    asymptotic offset A (the raw 21-entry of Q - Q_-) breaks both the b == 0
    closed form for f1 and the relation a2(0) = (4/A^2)(|f2(0)|^2-|f1(0)|^2),
    and makes f grow exponentially for x > 0.
    """
    A = profile.A
    seed = np.array([0.0, A / 2j], dtype=complex)
    x_start = -(profile.support + 1e-8 * (1 + profile.support))
    if x <= x_start:
        return complex(seed[0]), complex(seed[1])

    def rhs(y_x: float, y: np.ndarray) -> np.ndarray:
        return np.array([profile.q0(y_x) * y[1],
                         -np.conj(profile.q0(-y_x)) * y[0]], dtype=complex)

    out = ode_integrate(rhs, seed, (x_start, x))
    return complex(out[0]), complex(out[1])
