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
ScatteringData carries S alone, as a function of a xi-array (a scalar is a
0-d one); a1, a2, b, r1 = -S21/S11, r2 = S12/S22 and 1 + r1 r2 = 1/(1 +
S12 S21) are its methods.  from_profile samples the half-line transfer
matrices T-+ once per profile, on Chebyshev panels over |xi| <=
_MAGNUS_XI_COARSE certified by their trailing coefficients
(_TransferPanels), and its S reads T there by barycentric interpolation: a
real nonzero xi in that range costs no sweep.  xi = 0 keeps its closed
columns, and complex xi and |xi| > 10 cost one sweep per xi, in chunks.
Either way an array's xi get the bits they get one by one: r = A/(2i xi)
and the Wronskians are formed in Python's complex arithmetic.
from_profile's S remembers its last request, so a table row (a1, a2, b,
r1, r2 at one xi or on one array) reads S once; a scalar a1, a2, b, r1 or
r2 takes no array reduction and no np.errstate.

Each half-line's transfer matrix is a product of 6th-order Magnus cell
exponentials (Blanes, Casas & Ros, BIT 40, 2000; Blanes, Casas, Oteo & Ros,
Phys. Rep. 470, 2009), each in closed form for a traceless 2x2 matrix.
Cells have edges at 0, at +-support and at the kinks of a table profile, and
the profile keeps two tables of them: cells at most _MAGNUS_H_COARSE = 1e-2
wide for |xi| <= _MAGNUS_XI_COARSE = 10, where the profile and not
exp(2i xi x) sets the error, and cells at most _MAGNUS_H = 4e-3 wide for
larger |xi| (_transfer has the measured errors).  Q(x) does not depend on
xi and only the constant -i xi sigma3 carries it, so every entry of a
cell's exponent is a cubic in xi: the profile samples Q once per table, at
three Gauss points per cell, and caches those cubics' coefficients.  A
sweep evaluates them by Horner's rule, takes cosh and sinh(s)/s from their
series wherever the cells are short against 1/|xi| (every |xi| up to about
10 on the wide cells and 25 on the narrow ones), and multiplies both
half-lines in one vectorised product.

Beyond |xi| _MAGNUS_H ~ 1 the cells no longer resolve exp(2i xi x).  There
b and the product S12 S21 that the trace formula and delta read stay within
3e-13 and 5e-14 of a fine sweep at the trace nodes, but a1 and a2 lose
digits (1e-5 at xi = 1.1e4 on a bump); near xi = k pi/_MAGNUS_H the uniform
cells fall in phase with it and b is off too (5e-5 on a bump at k = 1; no
trace node lies within 95 of one).

L-+ blow up at xi = 0, but the clean columns phi_+1 = T_+ e1 and
phi_-2 = T_- e2 (T the transfer matrices) stay finite there: one sweep at
xi = 0 gives a2(0), and the case-2 value of b(0), where the pole of
b = W(T_- e2, T_+ e2) - (A/2i xi) a2(xi) exp(2i xi ell) cancels.

The discrete eigenvalue i*xi1 (zero of a1 in the upper half-plane) follows
from the trace formulas, which ``from_profile`` applies by default.  Both
rest on one integral, a node sum gated by ``kernels.quadrature.level_gap``,

    I = (1/pi) int_0^inf Arg(1 + r1 r2)(th) / th dth,

the principal value of the log integral of 1 - b(th) conj(b(-th)) =
1/(1 + r1 r2) (det S = 1) folded onto th > 0: that function's modulus is
even in th and its argument odd.  Both cases take xi1 = C e^I: C = A/2 in
case 1 (a2(0) != 0) and C = sqrt(1 - |b(0)|^2)/Im a2'(0) in case 2
(a2(0) = 0), where det S = 1 gives a11 a2'(0) + |b(0)|^2 = 1 as xi -> 0
(a11 = lim xi a1(xi)).  Only |b(0)| enters, not b's sign convention.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, ClassVar

import numpy as np

from steplpd.kernels import ContourInterval, IntervalRule, interval_rule, ode_integrate
from steplpd.kernels.quadrature import NODE_LEVELS, IntegrationError, level_gap


class CaseTag(Enum):
    CASE1 = 1   # a2 has no zero in the closed lower half-plane
    CASE2 = 2   # a2(0) = 0 with a2'(0) != 0 and lim xi*a1 != 0


class SingularNormalizationError(ZeroDivisionError):
    """Jost normalization matrices L+- blow up at xi = 0."""


class DegeneracyError(RuntimeError):
    """Neither case applies: a2(0) vanishes, and case 2's conditions fail."""


class InconsistentDataError(RuntimeError):
    """Trace-formula xi1 and the actual zero of a1 disagree."""


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def _zero(x: float) -> complex:
    return 0.0 + 0.0j


# the keys of a document's perturbation, by kind (a bump also reads "support")
_PERTURBATION_KEYS = {"none": {"kind"}, "gaussian-bump": {"kind", "amplitude", "center", "width"},
                      "table": {"kind", "x", "values"}}


def _number(where: str, value) -> float:
    """A document's number; bool, str, None and the rest are refused, naming the key."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a number, got {value!r}")
    return float(value)


def _complex(where: str, value) -> complex:
    """A document's complex number: a number or an [re, im] pair of numbers."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_number(where, value[0]), _number(where, value[1]))
    return complex(_number(where, value))


# distances past -+support at which the perturbation must vanish
_SUPPORT_PROBES = np.linspace(0.0, 4.0, 81)[1:]
# widest cell of the Magnus sweep (see _transfer): _MAGNUS_H where |xi|
# exceeds _MAGNUS_XI_COARSE and the cells must resolve exp(2i xi x),
# _MAGNUS_H_COARSE up to it, where the profile sets the error
_MAGNUS_H = 4e-3
_MAGNUS_H_COARSE = 1e-2
_MAGNUS_XI_COARSE = 10.0
_GAUSS_3 = np.sqrt(15.0) / 10.0         # Gauss points at midpoint + (1, 0, -1) * this * h
_SIGMA3 = np.array([1.0, -1.0])         # also the step signs on (-support, 0), (support, 0)
# |s^2| up to which a sweep takes cosh(s) and sinh(s)/s from their series
_SERIES_S2 = 1e-2
# cells times xi that one _sweep of an array takes on (see _transfer)
_SWEEP_CELLS = 4096
# the Chebyshev panels of _TransferPanels: the degree n of each panel's
# interpolant, the trailing coefficients that certify it and their bound
# relative to the panel's largest sample, the first layout's panel width
# times the support, and the halvings a panel may take
_PANEL_DEGREE = 32
_PANEL_TAIL = 4
_PANEL_TOL = 1e-13
_PANEL_WIDTH_SUPPORT = 16.0
_PANEL_SPLITS = 8
# n + 1 second-kind Chebyshev points on [-1, 1], from 1 down, exactly
# symmetric (sin, not cos), and their barycentric weights (Berrut &
# Trefethen, SIAM Rev. 46, 2004, eq. 5.4)
_PANEL_UNIT = np.sin(np.pi * np.arange(_PANEL_DEGREE, -_PANEL_DEGREE - 1, -2) / (2 * _PANEL_DEGREE))
_PANEL_WEIGHTS = (-1.0) ** np.arange(_PANEL_DEGREE + 1) * np.r_[0.5, np.ones(_PANEL_DEGREE - 1), 0.5]


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
        for name, value in (("step height A", self.A), ("gamma", self.gamma)):
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not (self.support >= 0 and math.isfinite(self.support)):
            raise ValueError(f"support must be >= 0 and finite, got {self.support!r}")
        tol = 1e-10 * (1 + self.A)
        # the pure step's _zero needs no probe
        for xp in () if self.perturbation is _zero else self.support + _SUPPORT_PROBES:
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
    def _fine_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """_magnus_cells at most _MAGNUS_H wide, built on first use."""
        return self._magnus_cells(_MAGNUS_H)

    @cached_property
    def _coarse_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """_magnus_cells at most _MAGNUS_H_COARSE wide, built on first use."""
        return self._magnus_cells(_MAGNUS_H_COARSE)

    def _magnus_cells(self, width: float) -> tuple[np.ndarray, np.ndarray]:
        """Cells of [0, support] and the Magnus exponents of both half-lines.

        Returns the widths h (n,) of the cells of [0, support], ordered from
        the outer end inwards (from +-support towards 0), the order in which
        both half-line sweeps meet them, the coefficients (4, 3, 2, n)
        of the sixth-order Magnus exponent Omega of every cell as a cubic in
        a = -i xi: [k, e, side, j] is the a^k coefficient of entry e
        (Omega_11, Omega_12, Omega_21) of cell j on the side's half-line
        (0: (-support, 0), width h; 1: (support, 0), width -h), contiguous
        in the cells, along which every pass of _sweep runs.  Q(x) does not
        depend on xi, so q0 is sampled here once per table, at the three
        Gauss points of each cell, and no sweep touches the profile again.
        Cell edges sit at 0, at support and at every |kink| in between; no
        cell is wider than width.
        """
        ell = self.support
        edges = np.unique([0.0, ell, *(abs(k) for k in self.kinks if abs(k) < ell)])
        per_gap = np.ceil(np.diff(edges) / width).astype(int)
        z = np.concatenate([np.linspace(lo, hi, n + 1)[:-1]
                            for lo, hi, n in zip(edges[:-1], edges[1:], per_gap)] + [[ell]])
        h = np.diff(z)[::-1]
        mid = 0.5 * (z[1:] + z[:-1])[::-1]
        # Gauss points from |x| large to small, on [0, support] and mirrored
        x = mid[:, None] + np.outer(h, [_GAUSS_3, 0.0, -_GAUSS_3])
        q = np.array([self.q0(v) for v in np.concatenate([x, -x]).ravel()])
        right, left = q.reshape((2,) + x.shape)
        # Q = [[0, up], [lo, 0]] at the points, sides stacked on axis 0
        up, lo = np.stack([left, right]), -np.conj(np.stack([right, left]))
        return h, _magnus_exponents(np.outer(_SIGMA3, h), up, lo)

    # -- construction from the JSON document used by the CLI ---------------

    @classmethod
    def pure_step(cls, A: float, gamma: float) -> "InitialProfile":
        return cls(A=A, gamma=gamma)

    @classmethod
    def gaussian_bump(cls, A: float, gamma: float, amplitude: complex,
                      center: float, width: float,
                      support: float | None = None) -> "InitialProfile":
        amp = complex(amplitude)
        if not np.isfinite(amp):
            raise ValueError(f"bump amplitude must be finite, got {amplitude!r}")
        if not math.isfinite(center):
            raise ValueError(f"bump center must be finite, got {center!r}")
        if not (width > 0 and math.isfinite(width)):
            raise ValueError(f"bump width must be positive and finite, got {width!r}")
        if support is None:
            support = abs(center) + 6.5 * width

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
        if not (np.all(np.isfinite(xs)) and np.all(np.diff(xs) > 0)):
            raise ValueError("table perturbation needs finite, strictly ascending x nodes")
        if not np.all(np.isfinite(vals)):
            raise ValueError("table perturbation needs finite values")
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
        """A JSON document's profile: types are checked here, ranges in the constructors."""
        pert = doc.get("perturbation", {"kind": "none"}) if isinstance(doc, dict) else None
        if not isinstance(pert, dict):
            raise ValueError("a profile document and its perturbation must be JSON objects")
        kind = pert.get("kind")
        if kind not in _PERTURBATION_KEYS:
            raise ValueError(f"perturbation kind must be none, gaussian-bump or table, "
                             f"got {kind!r}")
        top = {"A", "gamma", "perturbation"} | ({"support"} if kind == "gaussian-bump" else set())
        unread = sorted(set(doc) - top) + sorted(set(pert) - _PERTURBATION_KEYS[kind])
        if unread:
            raise ValueError(f"keys {unread} are not read with perturbation kind {kind!r}")
        A, gamma = _number("A", doc.get("A")), _number("gamma", doc.get("gamma"))
        if kind == "none":
            return cls.pure_step(A, gamma)
        if kind == "gaussian-bump":
            support = _number("support", doc["support"]) if "support" in doc else None
            return cls.gaussian_bump(A, gamma, _complex("amplitude", pert.get("amplitude")),
                                     _number("center", pert.get("center", 0.0)),
                                     _number("width", pert.get("width")), support=support)
        xs, values = pert.get("x"), pert.get("values")
        if not (isinstance(xs, (list, tuple)) and isinstance(values, (list, tuple))):
            raise ValueError(f"table x and values must be arrays, got {xs!r} and {values!r}")
        return cls.from_table(A, gamma, [_number("x", x) for x in xs],
                              [_complex("values", v) for v in values])

    @classmethod
    def from_json(cls, path: str) -> "InitialProfile":
        """Load a profile document (see from_dict)."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# L- and L+ at r = 0, one xi on axis 1
_IDENTITY_PAIR = np.array([[np.eye(2)], [np.eye(2)]], dtype=complex)


# ---------------------------------------------------------------------------
# Jost solutions
# ---------------------------------------------------------------------------

def _pmul(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Product of two cubics in a, coefficients on axis 0 (lowest first).

    Terms past a^3 are dropped; no product _magnus_exponents forms has any.
    """
    out = f[0] * g
    for k in range(1, 4):
        out[k:] += f[k] * g[:4 - k]
    return out


def _commutator(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """[X, Y] of traceless matrices stored as their entries (11, 12, 21)."""
    (d1, u1, l1), (d2, u2, l2) = X, Y
    return np.array([_pmul(u1, l2) - _pmul(u2, l1),
                     2.0 * (_pmul(d1, u2) - _pmul(d2, u1)),
                     2.0 * (_pmul(d2, l1) - _pmul(d1, l2))])


def _magnus_exponents(h: np.ndarray, up: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Sixth-order Magnus exponents of cells of A = a sigma3 + Q as cubics in a.

    Cell j has signed width h[j] and Q = [[0, up], [lo, 0]] at its three
    Gauss points (last axis), in the order the sweep meets them.  With
    A_1, A_2, A_3 the matrix there (Blanes, Casas & Ros, BIT 40, 2000),

        alpha1 = h A_2,  alpha2 = sqrt(15) h/3 (A_3 - A_1),
        alpha3 = 10 h/3 (A_3 - 2 A_2 + A_1),
        C1 = [alpha1, alpha2],  C2 = -1/60 [alpha1, 2 alpha3 + C1],
        Omega = alpha1 + alpha3/12 + 1/240 [-20 alpha1 - alpha3 + C1, alpha2 + C2].

    Only alpha1 carries a, so each entry of Omega is a cubic in a.  Returns
    its coefficients (4, 3, ...): [k, e] is the a^k coefficient of entry e
    (Omega_11, Omega_12, Omega_21).
    """
    def off_diagonal(w):
        """(w . (up, lo) over the points) as a traceless constant in a."""
        out = np.zeros((3, 4) + h.shape, dtype=complex)
        out[1, 0], out[2, 0] = h * (up @ w), h * (lo @ w)
        return out

    alpha1 = off_diagonal(np.array([0.0, 1.0, 0.0]))
    alpha1[0, 1] = h
    alpha2 = off_diagonal(np.sqrt(15.0) / 3.0 * np.array([-1.0, 0.0, 1.0]))
    alpha3 = off_diagonal(10.0 / 3.0 * np.array([1.0, -2.0, 1.0]))
    C1 = _commutator(alpha1, alpha2)
    C2 = -_commutator(alpha1, 2.0 * alpha3 + C1) / 60.0
    omega = (alpha1 + alpha3 / 12.0
             + _commutator(-20.0 * alpha1 - alpha3 + C1, alpha2 + C2) / 240.0)
    return np.ascontiguousarray(omega.swapaxes(0, 1))


def _even_series() -> np.ndarray:
    """Coefficients (terms, 2, 1, 1, 1) of cosh(s) and sinh(s)/s as series
    in s^2, highest power first: 1/(2k)! and 1/(2k + 1)! for every k whose
    cosh term stays above 1e-17 at |s^2| = _SERIES_S2.  They are stored
    complex: numpy would cast them to meet the complex s^2 in every pass of
    the sweep, to the same bits."""
    K = 0
    while _SERIES_S2 ** K / math.factorial(2 * K) >= 1e-17:
        K += 1
    coef = [[1.0 / math.factorial(2 * k), 1.0 / math.factorial(2 * k + 1)]
            for k in reversed(range(K))]
    return np.array(coef, dtype=complex)[:, :, None, None, None]


_COSH_SINHC_SERIES = tuple(_even_series())     # one (2, 1, 1, 1) array per power


def _ordered_product(E: np.ndarray) -> np.ndarray:
    """E_(n-1) ... E_1 E_0 (shape (2, 2, ...)) for matrices E[..., j] (shape
    (2, 2, ..., n): [row, column, ..., cell]), multiplied in pairwise levels
    along the last axis."""
    while E.shape[-1] > 1:
        n = E.shape[-1]
        terms = E[:, :, None, ..., 1::2] * E[None, ..., 0:n - 1:2]
        pairs = terms[:, 0] + terms[:, 1]
        E = np.concatenate([pairs, E[..., n - 1:]], axis=-1) if n % 2 else pairs
    return E[..., 0]


def _transfer(profile: InitialProfile, xi: np.ndarray) -> np.ndarray:
    """(T_-, T_+) (2, K, 2, 2): phi(0) = T_-+ phi(-+support) for each xi.

    Each xi with |xi| <= _MAGNUS_XI_COARSE is swept on the profile's cells
    at most _MAGNUS_H_COARSE wide, every other xi on those at most _MAGNUS_H
    wide; a table is built the first time a xi needs it.  Up to |xi| = 10 the
    error of the wide cells is mostly that of the profile, not that of
    exp(2i xi x).  Worst relative error of S (relative where |entry| > 1)
    against a sweep at h = 2.5e-4, on +-xi:

        profile (support)      h     |xi| in [0.15, 5]  |xi| = 10     |xi| = 50
        3 bumps (2.2 to 3.7)   4e-3  5.2e-13 to 1.2e-12  2e-14 to 9e-14  7e-14 to 3e-13
                               1e-2  5.4e-13 to 1.2e-12  2e-13 to 5e-13  2e-11 to 6e-11
        soliton (20)           4e-3  6.4e-12             5.4e-13         1.5e-12
                               1e-2  6.2e-12             8.0e-13         8.1e-11
        table (1)              4e-3  1.7e-14             5.9e-14         8.0e-12
                               1e-2  5.3e-13             1.5e-11         2.1e-9

    On the table, whose Q' jumps at its nodes, the wide cells' own error
    shows through; it falls as h^6 with the width.  The choice is made per
    xi, so a xi gets the same bits alone or in an array, which is swept in
    chunks of _SWEEP_CELLS // cells per table, long enough to spread numpy's
    cost per call.
    """
    T = np.empty((2, xi.size, 2, 2), dtype=complex)
    coarse = np.abs(xi) <= _MAGNUS_XI_COARSE
    for wide in (True, False):
        at = np.flatnonzero(coarse == wide)
        if at.size:
            h, omega = profile._coarse_cells if wide else profile._fine_cells
            chunk = max(1, _SWEEP_CELLS // h.size)
            for start in range(0, at.size, chunk):
                part = at[start:start + chunk]
                T[:, part] = _sweep(xi[part], omega)
    return T


def _sweep(xi: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """(T_-, T_+) (2, K, 2, 2) of the cells whose Magnus exponents omega
    (4, 3, 2, n) holds as cubics in a = -i xi (_magnus_cells); Horner's rule
    gives every Omega at once, as (3, 2, K, n): [e, side, xi, cell].

    Omega is traceless, so exp(Omega) = cosh(s) I + sinh(s)/s Omega with
    s^2 = -det Omega.  For each xi whose cells all keep |s^2| <= _SERIES_S2,
    cosh and sinh(s)/s come from their even series in s^2; sqrt, cosh and
    sinh run only on the other xi.  The cell matrices E (2, 2, 2, K, n),
    [row, column, side, xi, cell], of both half-lines go through one
    ordered product along the cells.
    """
    a = -1j * xi[:, None]
    w = omega[3, :, :, None] * a
    for k in (2, 1):
        w += omega[k, :, :, None]
        w *= a
    w += omega[0, :, :, None]
    s2 = w[0] * w[0] + w[1] * w[2]
    cs = _COSH_SINHC_SERIES[0] * s2
    for c in _COSH_SINHC_SERIES[1:-1]:
        cs += c
        cs *= s2
    cs += _COSH_SINHC_SERIES[-1]
    far = np.abs(s2).max(axis=(0, 2)) > _SERIES_S2
    if far.any():
        root = np.sqrt(s2[:, far])
        cs[0][:, far], cs[1][:, far] = np.cosh(root), np.sinh(root) / root
    E = np.empty((4,) + s2.shape, dtype=complex)
    np.multiply(cs[1], w, out=E[:3])        # E[0] holds sinh(s)/s Omega_11 for now
    np.subtract(cs[0], E[0], out=E[3])
    np.add(cs[0], E[0], out=E[0])
    return _ordered_product(E.reshape((2, 2) + s2.shape)).transpose(2, 3, 0, 1)


def _seeds(profile: InitialProfile, xi: np.ndarray) -> np.ndarray:
    """(L_-, L_+) (2, K, 2, 2) at the nonzero complex xi (K,), placed at
    -+support: L- = [[1, 0], [r, 1]] and L+ = [[1, r], [0, 1]] (r = A/(2i
    xi)) times exp(+-i xi ell sigma3)."""
    zs = xi.tolist()
    if not all(zs):
        raise SingularNormalizationError("L+- are singular at xi = 0")
    L = _IDENTITY_PAIR.repeat(len(zs), 1)
    L[0, :, 1, 0] = L[1, :, 0, 1] = [profile.A / (2j * z) for z in zs]
    if not profile.is_pure_step:
        # exp(i xi ell sigma3), the exponents times 1 + 0j and -1 + 0j as
        # complex products, signed zeros included
        exponent = [1j * z * profile.support for z in zs]
        phase = np.exp([[c * (1 + 0j), c * (-1 + 0j)] for c in exponent]).reshape(-1, 1, 2)
        L[0] *= phase
        L[1] /= phase
    return L


def jost_at_origin(profile: InitialProfile, xi) -> np.ndarray:
    """(phi_-(0,0,xi), phi_+(0,0,xi)), stacked (2, ..., 2, 2) for xi of
    shape (...), by exact seeding outside the support.

    phi_-+ equals L_-+ exp(-i xi sigma3 x) at x = -+support, with L- =
    [[1, 0], [r, 1]] and L+ = [[1, r], [0, 1]] (r = A/(2i xi)), which
    diagonalize the asymptotic Lax matrices; the Magnus transfer matrix of
    its half-line carries it to 0.  For the pure step the seeds already live
    at x = 0 and no sweep runs; S then reproduces the closed form exactly.
    """
    xi = np.asarray(xi, dtype=complex)
    flat = xi.ravel()
    L = _seeds(profile, flat)
    if not profile.is_pure_step:
        L = _transfer(profile, flat) @ L
    return L.reshape((2,) + xi.shape + (2, 2))


def _wronskians(phi: np.ndarray) -> np.ndarray:
    """phi_+^(-1) phi_- (K, 2, 2) of the pairs phi (2, K, 2, 2) with det
    phi_+ = 1, as the Wronskians of their columns in Python's arithmetic."""
    out = []
    for ((m11, m12), (m21, m22)), ((p11, p12), (p21, p22)) in zip(*phi.tolist()):
        out += (m11 * p22 - m21 * p12, m12 * p22 - m22 * p12,
                p11 * m21 - p21 * m11, p11 * m22 - p21 * m12)
    return np.array(out).reshape(-1, 2, 2)


def scattering_matrix(profile: InitialProfile, xi) -> np.ndarray:
    """S(xi) = phi_+(0,0,xi)^(-1) phi_-(0,0,xi), (..., 2, 2), for nonzero xi
    of shape (...), real or complex (det phi_+ = 1)."""
    xi = np.asarray(xi, dtype=complex)
    return _wronskians(jost_at_origin(profile, xi.ravel())).reshape(xi.shape + (2, 2))


@dataclass(frozen=True)
class _TransferPanels:
    """(T_-, T_+) of a profile on Chebyshev panels over |xi| <=
    _MAGNUS_XI_COARSE, read by second-kind barycentric interpolation.

    The exact T-+ are entire in xi, of exponential type support (the
    Volterra series of a half-line of that length), so on a panel of
    half-width w their Chebyshev coefficients fall like J_k(w support), and
    the first layout takes equal panels at most _PANEL_WIDTH_SUPPORT /
    support wide (3 on the Baseline bump, 25 on the soliton profile of
    support 20).
    Every panel holds T-+ at its _PANEL_DEGREE + 1 second-kind points, all
    swept in one _transfer call, and is certified by its Chebyshev
    coefficients: where the last _PANEL_TAIL of any entry exceed _PANEL_TOL
    times the panel's largest sample, it is halved and the halves are
    sampled afresh, up to _PANEL_SPLITS times.  The tolerance lies below the
    wide cells' own error (5e-13 to 1.2e-12 relative on the bumps, see
    _transfer), so an interpolant differs from its sweep by about what the
    sweep itself leaves.

    edges (P + 1,) bound the panels in ascending order, nodes (P, n + 1)
    are their points and samples (P, 9, n + 1) the entries [side, row,
    column] of T-+ there, contiguous along the points, then a row of ones,
    which gives the barycentric formula's denominator.
    """

    edges: np.ndarray
    nodes: np.ndarray
    samples: np.ndarray

    @classmethod
    def sample(cls, profile: InitialProfile) -> "_TransferPanels":
        n = _PANEL_DEGREE
        # Chebyshev coefficients of the values at the points: the DCT-I
        theta = np.pi * np.arange(n + 1) / n
        to_coefficients = np.cos(np.outer(np.arange(n + 1), theta)) * (2.0 / n)
        to_coefficients[:, [0, n]] *= 0.5
        to_coefficients[[0, n]] *= 0.5
        tail = to_coefficients[-_PANEL_TAIL:].T
        count = math.ceil(2.0 * _MAGNUS_XI_COARSE * profile.support / _PANEL_WIDTH_SUPPORT)
        edges = np.linspace(-_MAGNUS_XI_COARSE, _MAGNUS_XI_COARSE, count + 1)
        todo, done = np.column_stack([edges[:-1], edges[1:]]), []
        for halvings in range(_PANEL_SPLITS + 1):
            mid, half = todo.mean(axis=1), 0.5 * (todo[:, 1] - todo[:, 0])
            nodes = mid[:, None] + half[:, None] * _PANEL_UNIT
            nodes[:, [0, n]] = todo[:, ::-1]      # neighbours share their end points
            T = _transfer(profile, nodes.ravel())
            samples = np.ones((len(todo), 9, n + 1), dtype=complex)
            samples[:, :8] = T.reshape(2, len(todo), n + 1, 4).transpose(1, 0, 3, 2).reshape(-1, 8, n + 1)
            # a NaN tail counts as over
            over = ~(np.abs(samples[:, :8] @ tail).max(axis=(1, 2))
                     <= _PANEL_TOL * np.abs(samples[:, :8]).max(axis=(1, 2)))
            done += zip(todo[~over, 0], nodes[~over], samples[~over])
            if not over.any():
                break
            lo, hi = todo[over].T
            if halvings == _PANEL_SPLITS or not np.isfinite(samples).all():
                raise IntegrationError(
                    f"from_profile: T-+ on [{lo[0]:.6g}, {hi[0]:.6g}] are not finite or keep "
                    f"Chebyshev coefficients above {_PANEL_TOL:.0e} of their largest sample "
                    f"after {halvings} halvings")
            mid = 0.5 * (lo + hi)
            todo = np.concatenate([np.column_stack([lo, mid]), np.column_stack([mid, hi])])
        done.sort(key=lambda panel: panel[0])
        left, nodes, samples = zip(*done)
        return cls(np.array([*left, _MAGNUS_XI_COARSE]), np.array(nodes), np.array(samples))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """(T_-, T_+) (2, K, 2, 2) at the real x (K,), |x| <= _MAGNUS_XI_COARSE.

        One matrix product per x takes both sums of the barycentric formula
        over its panel's points, so an x gets the same bits alone or in an
        array; at a point it gets that point's sample."""
        panel = np.searchsorted(self.edges[1:-1], x, side="right")
        d = x[:, None] - self.nodes[panel]
        hit = d == 0
        exact = hit.any()
        if exact:
            d[hit] = 1.0
        f = self.samples[panel]
        sums = f @ (_PANEL_WEIGHTS / d)[..., None]
        T = sums[:, :8, 0] / sums[:, 8:, 0]
        if exact:
            at, point = np.nonzero(hit)
            T[at] = f[at, :8, point]
        return T.reshape(-1, 2, 2, 2).swapaxes(0, 1)


# ---------------------------------------------------------------------------
# scattering data
# ---------------------------------------------------------------------------

# step of the a1'(i xi1) central difference, relative to xi1
_A1DOT_H_REL = 1e-5
# |a2(0)| above this times (1 + A) is case 1
_CASE_THRESHOLD_REL = 1e-6


def _matrix(s11, s12, s21, s22) -> np.ndarray:
    """Entries of one shape (...) stacked into matrices (..., 2, 2)."""
    m = np.array([[s11, s12], [s21, s22]])
    return m.transpose(tuple(range(2, m.ndim)) + (0, 1))


@dataclass
class ScatteringData:
    """Evaluable scattering data of a step-like profile.

    S maps an array of xi to the scattering matrices (..., 2, 2),

        S(xi) = [[a1(xi), b(xi)], [-conj(b(-conj(xi))), a2(xi)]],

    with a1 on the closed upper half-plane minus 0, a2 on the closed lower
    half-plane and b on the reals (all continue meromorphically for the
    compact-perturbation class, which S exploits off the axis).  Where an
    entry has a pole S holds a non-finite value.  The entries and the
    reflection coefficients are methods that read one S call and take a
    scalar or an array; a value that is not finite raises
    SingularNormalizationError.  classify_case sets case_tag, and in case 2
    a2dot0 = a2'(0) and a11 = lim xi a1(xi); locate_xi1 sets xi1.  kappa is
    the unimodular norming constant of the discrete eigenvalue; it is free
    data here (default 1).
    """

    A: float
    gamma: float
    S: Callable[[np.ndarray], np.ndarray]
    case_tag: CaseTag | None = None
    xi1: float | None = None
    a11: complex | None = None
    a2dot0: complex | None = None
    kappa: complex = 1.0 + 0.0j

    def __post_init__(self):
        if abs(abs(self.kappa) - 1.0) > 1e-12:
            raise ValueError("norming constant kappa must be unimodular")

    def _read(self, xi, entry: Callable[[np.ndarray], np.ndarray],
              divisor: Callable[[np.ndarray], np.ndarray] | None = None):
        """entry(S(xi)), over divisor(S(xi)) if given, for a scalar or an
        array xi; raises where not finite.

        S always gets xi as a complex array (0-d for a scalar), so a scalar
        read has the bits of a one-element one.  A scalar read takes no
        array reduction and no np.errstate: cmath.isfinite checks its entry,
        and it divides plainly when both sides are finite and the divisor is
        not 0, which leaves numpy no divide or invalid flag to ignore.
        """
        S = self.S(np.asarray(xi, dtype=complex))
        out = entry(S)
        scalar = S.ndim == 2
        if divisor is not None:
            d = divisor(S)
            if scalar and complex(d) != 0 and cmath.isfinite(d) and cmath.isfinite(out):
                out = out / d
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    out = out / d
        if cmath.isfinite(out) if scalar else np.isfinite(out).all():
            return out
        bad = ~np.isfinite(np.ravel(out))
        raise SingularNormalizationError(
            f"the scattering data have a pole at xi = {np.ravel(xi)[bad.argmax()]}"
            f" ({bad.sum()} of {bad.size} points are not finite)")

    def a1(self, xi):
        return self._read(xi, lambda S: S[..., 0, 0])

    def a2(self, xi):
        return self._read(xi, lambda S: S[..., 1, 1])

    def b(self, xi):
        return self._read(xi, lambda S: S[..., 0, 1])

    def b_mirror(self, xi):
        """-S21 = conj(b(-conj(xi))): the Schwarz-reflected partner entering r1."""
        return self._read(xi, lambda S: -S[..., 1, 0])

    def r1(self, xi):
        return self._read(xi, lambda S: -S[..., 1, 0], lambda S: S[..., 0, 0])

    def r2(self, xi):
        return self._read(xi, lambda S: S[..., 0, 1], lambda S: S[..., 1, 1])

    def one_plus_r1r2(self, xi):
        """1/(1 + S12 S21), equal to 1 + r1 r2 by det S = 1 without the
        cancellation of r1 r2 ~ -1 near xi = 0, and exactly 1 where b = 0.
        Below |xi| ~ 1e-154, S12 S21 passes the largest float, so it is
        formed under np.errstate."""
        def divisor(S):
            with np.errstate(over="ignore", invalid="ignore"):
                return 1.0 + S[..., 0, 1] * S[..., 1, 0]

        return self._read(xi, lambda S: 1.0, divisor)

    def a1dot_at_pole(self) -> complex:
        """da1/dxi at i*xi1 by a central difference along the imaginary axis."""
        if self.xi1 is None:
            raise ValueError("xi1 not located yet")
        h = _A1DOT_H_REL * self.xi1
        up, dn = self.a1(1j * (self.xi1 + np.array([h, -h])))
        return (up - dn) / (2j * h)

    # constructors ---------------------------------------------------------

    @classmethod
    def pure_step(cls, A: float, gamma: float) -> "ScatteringData":
        """Closed form S = [[1 - b^2, b], [-conj(b(-conj(xi))), 1]] with
        b = iA/(2 xi): a1 = 1 + A^2/(4 xi^2), a2 = 1 and S21 = -b."""
        def S(xi):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                b, b_reflected = 1j * A / (2.0 * xi), 1j * A / (-2.0 * np.conj(xi))
                return _matrix(1.0 - b * b, b, -np.conj(b_reflected), np.ones_like(b))

        return cls(A=A, gamma=gamma, S=S, case_tag=CaseTag.CASE1, xi1=A / 2.0)

    @classmethod
    def reflectionless(cls, A: float, gamma: float,
                       alpha: float = 0.0) -> "ScatteringData":
        """b == 0 case-2 data of the exact one-soliton, kappa = exp(i*alpha):
        a1 = (xi - iA/2)/xi, a2 = 1/a1."""
        def S(xi):
            with np.errstate(divide="ignore", invalid="ignore"):
                a1, a2 = (xi - 0.5j * A) / xi, xi / (xi - 0.5j * A)
            zero = np.zeros_like(a1)
            return _matrix(a1, zero, zero, a2)

        return cls(A=A, gamma=gamma, S=S, case_tag=CaseTag.CASE2,
                   xi1=A / 2.0, a11=-0.5j * A, a2dot0=2j / A,
                   kappa=np.exp(1j * alpha))

    @classmethod
    def from_profile(cls, profile: InitialProfile,
                     analyze: bool = True) -> "ScatteringData":
        """Numerical scattering data: S is the Wronskian scattering_matrix,
        with T-+ read off the profile's _TransferPanels, sampled here once,
        at real 0 < |xi| <= _MAGNUS_XI_COARSE, and swept at other nonzero
        xi, one sweep per xi.  S keeps its last request (by shape and
        bytes).

        At xi = 0 one sweep gives the clean columns T_+ e1 and T_- e2 and
        with them a2(0).  b(0) is finite only in case 2: with a2(0) = 0 the
        pole of b = W(T_- e2, T_+ e2) - (A/2i xi) a2(xi) exp(2i xi ell)
        cancels and b(0) = W(T_- e2, T_+ e2) - (A/2i) a2'(0); when |a2(0)|
        exceeds classify_case's threshold, S(0) holds NaN for b, as for a1.
        The a2'(0) formed for b(0) stays on the data for classify_case.
        """
        if profile.is_pure_step:
            return cls.pure_step(profile.A, profile.gamma)
        A = profile.A

        (_, b_zero), (_, a2) = _wronskians(_transfer(profile, np.zeros(1)))[0].tolist()
        b, a2dot0 = np.nan, None
        if abs(a2) <= _CASE_THRESHOLD_REL * (1.0 + A):
            a2dot0 = _a2dot0(lambda xi: scattering_matrix(profile, xi), A)
            b = b_zero - A / 2j * a2dot0
        s_zero = np.array([[np.nan, b], [-np.conj(b), a2]])
        panels = _TransferPanels.sample(profile)
        last = [None, None]

        def read(flat):
            """S at the flat xi: by the panels at real 0 < |xi| <=
            _MAGNUS_XI_COARSE, S(0) at 0 and a sweep elsewhere."""
            on_panels = [z.imag == 0 and 0.0 < abs(z.real) <= _MAGNUS_XI_COARSE
                         for z in flat.tolist()]
            if all(on_panels):
                return _wronskians(panels(flat.real) @ _seeds(profile, flat))
            near = np.array(on_panels)
            out = np.empty(flat.shape + (2, 2), dtype=complex)
            out[flat == 0] = s_zero
            if near.any():
                out[near] = read(flat[near])
            far = ~near & (flat != 0)
            if far.any():
                out[far] = scattering_matrix(profile, flat[far])
            return out

        def S(xi):
            xi = np.asarray(xi, dtype=complex)
            key = xi.shape, xi.tobytes()
            if key != last[0]:
                last[:] = key, read(xi.ravel()).reshape(xi.shape + (2, 2))
            return last[1].copy()

        data = cls(A=A, gamma=profile.gamma, S=S, a2dot0=a2dot0)
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
    from steplpd.asymptotics import q_soliton   # the layer above, imported on use
    ell = _SOLITON_CUTOFF / A

    def pert(x: float) -> complex:
        if abs(x) > ell:
            return 0.0 + 0.0j
        return q_soliton(x, 0.0, A, alpha, gamma) - (A if x > 0 else 0.0)

    return InitialProfile(A=A, gamma=gamma, perturbation=pert, support=ell)


@dataclass(frozen=True)
class SyntheticReflectionData:
    """Minimal reflection-data stand-in for factor/asymptotics experiments.

    Carries just the surface the delta/exponent machinery consumes: r1 and
    r2 on the line, each taking a scalar or an array, plus step height and
    dispersion parameters.  The norming constant kappa is 1.
    """

    A: float
    gamma: float
    r1: Callable[[np.ndarray], np.ndarray]
    r2: Callable[[np.ndarray], np.ndarray]
    xi1: float | None = None
    kappa: ClassVar[complex] = 1.0 + 0.0j

    def one_plus_r1r2(self, xi):
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

    def bumps(z):
        """The three Gaussians at Re z, on a last axis."""
        return np.exp(-((np.asarray(z).real[..., None] - lams) / _SYNTHETIC_WIDTH) ** 2)

    def g(z):
        return np.sum(coef * bumps(z), axis=-1)

    if np.ndim(r2) == 0:
        def r2_of(z):
            return np.full(np.shape(z), r2, dtype=complex)
    else:
        floor, *weights = r2

        def r2_of(z):
            return floor + np.sum(np.asarray(weights) * bumps(z), axis=-1)

    def r1(z):
        return (np.exp(-2.0 * np.pi * g(z)) - 1.0) / r2_of(z)

    # a nominal discrete eigenvalue so the BP-regularized quantities exist
    return SyntheticReflectionData(A=A, gamma=gamma, r1=r1, r2=r2_of, xi1=A / 2.0)


def _a2dot0(S: Callable[[np.ndarray], np.ndarray], A: float) -> complex:
    """a2'(0) by a central difference (shared by classify_case and b(0))."""
    h = 1e-5 * (1.0 + A)
    up, dn = S(np.array([h, -h]))[:, 1, 1]
    return (up - dn) / (2.0 * h)


def classify_case(data: ScatteringData) -> CaseTag:
    """Case 1 iff |a2(0)| exceeds 1e-6*(1+A); otherwise case 2, with a2'(0)
    the data's own, else a central difference of S, and a11 = lim xi*a1(xi)
    = (1 - |b(0)|^2)/a2'(0) by det S = 1.  Case 2 needs a11 != 0, |b(0)| < 1
    and Im a2'(0) > 0 (a2'(0) is imaginary, as a2(xi) = conj(a2(-conj(xi))));
    other data raise DegeneracyError, naming |b(0)| and a2'(0)."""
    thr = _CASE_THRESHOLD_REL * (1.0 + data.A)
    a20 = data.a2(0.0)
    if abs(a20) > thr:
        data.case_tag = CaseTag.CASE1
        return CaseTag.CASE1

    a2dot0 = _a2dot0(data.S, data.A) if data.a2dot0 is None else data.a2dot0
    if abs(a2dot0) <= thr:
        raise DegeneracyError("both a2(0) and a2'(0) vanish: unsupported data")
    mod2 = abs(data.b(0.0)) ** 2
    a11 = (1.0 - mod2) / a2dot0
    if not (abs(a11) > thr and mod2 < 1.0 and a2dot0.imag > 0):
        raise DegeneracyError(f"case 2 needs lim xi*a1 != 0, |b(0)| < 1 and Im a2'(0) > 0; "
                              f"got |b(0)| = {math.sqrt(mod2):.6g}, a2'(0) = {a2dot0:.6g}")
    data.case_tag = CaseTag.CASE2
    data.a2dot0 = a2dot0
    data.a11 = a11
    return CaseTag.CASE2


# |a1(i xi1)| above this (relative to a1 just off the zero) refutes xi1
_XI1_CHECK_TOL = 1e-6


@lru_cache(maxsize=None)
def _trace_rules() -> tuple[IntervalRule, IntervalRule]:
    """The trace integral's rules on (0, inf), one per NODE_LEVELS, built on first use."""
    return tuple(interval_rule(ContourInterval(0.0, np.inf), n) for n in NODE_LEVELS)


def locate_xi1(data: ScatteringData) -> float:
    """The positive xi1 with a1(i*xi1) = 0, from the trace formulas.

    Both cases take xi1 = C e^I, with I = (1/pi) int_0^inf Arg(1 + r1 r2)(th)
    / th dth the folded principal value of the log integral of
    1 - b(th) conj(b(-th)), and C = A/2 in case 1, sqrt(1 - |b(0)|^2) /
    Im a2'(0) in case 2 (classify_case refuses |b(0)| >= 1, Im a2'(0) <= 0).
    I is a node sum on (0, inf) over one_plus_r1r2, taken on both
    NODE_LEVELS and gated by ``level_gap``.
    The value is cross-checked against a1 at i*xi1; disagreement raises
    InconsistentDataError naming I, |a1(i*xi1)| and its bound.
    """
    if data.case_tag is None or (data.case_tag is CaseTag.CASE2 and data.a2dot0 is None):
        classify_case(data)
    coarse, I = (rule.integrate(np.angle(data.one_plus_r1r2(rule.z)) / rule.z).real / np.pi
                 for rule in _trace_rules())
    level_gap("locate_xi1: the trace integral", (coarse,), (I,))

    if data.case_tag is CaseTag.CASE1:
        C = data.A / 2.0
    else:
        C = math.sqrt(1.0 - abs(data.b(0.0)) ** 2) / data.a2dot0.imag
    xi1 = float(C * np.exp(I))

    at, near = data.a1(1j * xi1 * np.array([1.0, 1.0 + 1e-3]))
    bound = _XI1_CHECK_TOL * max(1.0, abs(near))
    if abs(at) > bound:
        raise InconsistentDataError(
            f"a1(i*xi1) does not vanish at the trace formula's xi1 = {xi1:.8g} "
            f"(trace integral I = {I:.8g}): |a1(i*xi1)| = {abs(at):.3e} against a bound of "
            f"{bound:.3e}; a1 may have more than one zero on the positive imaginary axis")
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
