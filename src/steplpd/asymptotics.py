"""Evaluable long-time leading-order formulas for q(x, t) along rays.

Along a ray mu = x/t inside the three-saddle band, the solution for x > 0
approaches the constant background A*delta(0, mu)^2 plus up to six modulated
power terms, two per stationary point:

    q = sum_s t^{-1/2 + (-1)^s Im v_s} e^{-2[chi_s + phi_s] - (-1)^s i Re v_s ln t} N_s
      - sum_s t^{-1/2 - (-1)^s Im v_s} e^{+2[chi_s + phi_s] + (-1)^s i Re v_s ln t} L_s
      + A delta(0, mu)^2 + error,

with per-saddle selection by the interval of Im v_s: the N-sum for
Im v in (-1/2, 1/6), the L-sum for Im v in (-1/6, 1/2) (both on the overlap).
For x < 0 everything is evaluated on the mirrored ray -mu and conjugated; the
background drops and the N/L-type terms collapse to a single H-sum.  A ray's
geometry, v, chi_s, background and c0 all come from its ``SaddleExponents``
and their delta.

The predicted error order follows the two case tables keyed on the sign
pattern of Im v(lam_j); sign patterns not covered by either table yield a
conservative fallback exponent flagged as such.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from steplpd.phase import PhaseGeometry, RegimeError, stationary_points
from steplpd.pcmodel import log_power_factor, pc_coefficients
from steplpd.rhfactors import SaddleExponents, build_delta, saddle_exponents


class Branch(Enum):
    X_NEG = "x<0"
    X_POS_I1 = "x>0:I1"
    X_POS_I2 = "x>0:I2"
    X_POS_I3 = "x>0:I3"
    X_POS_MIXED = "x>0:mixed"


@dataclass(frozen=True)
class OrderDescriptor:
    """Symbolic error order O(t^exponent * (ln t if log_factor))."""

    exponent: float
    log_factor: bool = False
    covered: bool = True
    rule: str = ""

    def __str__(self):
        s = f"O(t^{self.exponent:g}"
        if self.log_factor:
            s += " ln t"
        s += ")"
        if not self.covered:
            s += " [table gap: conservative bound]"
        return s


@dataclass
class AsymptoticResult:
    """Leading terms, background and error order of one ray; ``geometry``
    is the positive ray's, mirrored by the branch for x < 0."""

    branch: Branch
    leading_terms: list            # (amplitude, t_exponent, oscillation rate)
    background: complex
    error_order: tuple[OrderDescriptor, OrderDescriptor]
    geometry: PhaseGeometry
    v: tuple

    def value(self, x: float, t: float) -> complex:
        """q at a point (x, t) of the ray the result was built on."""
        negative = self.branch is Branch.X_NEG
        if t <= 0 or x == 0 or (x < 0) != negative:
            raise ValueError("value expects the ray's sign of x and t > 0")
        mu = -self.geometry.mu if negative else self.geometry.mu
        if abs(x / t - mu) > 1e-12 * (1 + abs(mu)):
            raise ValueError("value is bound to the ray it was built on")
        return self.background + sum(tm.at(t) for tm in self.leading_terms)


# ---------------------------------------------------------------------------
# interval classification of Im v
# ---------------------------------------------------------------------------

def _interval_tag(im_v: float) -> str:
    if -0.5 < im_v <= -1.0 / 6.0:
        return "I1"
    if -1.0 / 6.0 < im_v < 1.0 / 6.0:
        return "I2"
    if 1.0 / 6.0 <= im_v < 0.5:
        return "I3"
    raise ValueError(f"Im v = {im_v:g} outside (-1/2, 1/2)")


def _wants_N(im_v: float) -> bool:
    return _interval_tag(im_v) in ("I1", "I2")


def _wants_L(im_v: float) -> bool:
    return _interval_tag(im_v) in ("I2", "I3")


# ---------------------------------------------------------------------------
# the nine leading coefficients
# ---------------------------------------------------------------------------

def coefficients_HLN(data, exponents: SaddleExponents) -> tuple[tuple, tuple, tuple]:
    """(H1..H3, L1..L3, N1..N3) from the local models' 1/tau coefficients.

    L_s = -beta_s / sqrt(c_s^+) and N_s = -c0^2 gamma_c,s / (lam_s^2 sqrt(c_s^+)),
    with the ray's geometry, v and c0 read off ``exponents`` and its delta,
    times F_s and 1/F_s, F_s = exp(2 ``log_power_factor``) at t = 1 (the
    assembled terms carry chi_s, the phase and the t-powers).  The middle
    saddle's model is the conjugate reflection, so its L and N read the
    conjugated data.  H serves the mirrored ray: it is the beta of r2 in
    place of r1, with the conjugation flipped, times conj(1/F_s).  v = 0
    collapses a coefficient to 0 through the Gamma pole.
    """
    geometry, c0 = exponents.geometry, exponents.delta.c0
    c1, c2, c3 = geometry.curvatures
    roots = np.sqrt((c1, -c2, c3))
    cj = np.conj
    H, L, N = [], [], []
    for k, lam in enumerate(geometry.lambdas):
        s = k + 1
        r1, r2, v = data.r1(lam), data.r2(lam), exponents.v[k]
        if s == 2:
            ray, mirror = (cj(r1), cj(r2), cj(v)), (r2, r1, v)
        else:
            ray, mirror = (r1, r2, v), (cj(r2), cj(r1), cj(v))
        factor = np.exp(2.0 * log_power_factor(s, exponents, 1.0))
        beta, gamc = pc_coefficients(s, *ray)
        L.append(-beta / roots[k] * factor)
        N.append(-c0**2 * gamc / (lam**2 * roots[k]) / factor)
        H.append(-pc_coefficients(s, *mirror)[0] / roots[k] * cj(1.0 / factor))
    return tuple(H), tuple(L), tuple(N)


# ---------------------------------------------------------------------------
# error-order case tables
# ---------------------------------------------------------------------------

_SIGN = {">": operator.gt, "<": operator.lt, ">=": operator.ge, "<=": operator.le}

# Rows in the printed order: (pattern, saddles, rule).  A pattern is a sign
# test of 0 against each Im v(lam_j), or "log<=" / "log>=": some Im v_j = 0
# and (-1)^l Im v_l obeys the sign at every other l.  The row's exponent is
# -1 + 2 max |Im v_s| over its saddles (-1 with none); a log row adds ln t.
_R1_ROWS = (
    (("<", ">", "<"), (), "alternating-good"),
    ("log<=", (), "vanishing Im v"),
    ((">", ">=", "<="), (1,), "saddle-1 excess"),
    (("<=", "<", "<="), (2,), "saddle-2 excess"),
    (("<=", ">=", ">"), (3,), "saddle-3 excess"),
    ((">", "<", "<="), (1, 2), "saddles 1,2 excess"),
    (("<=", "<", ">"), (2, 3), "saddles 2,3 excess"),
    ((">", ">=", ">"), (1, 3), "saddles 1,3 excess"),
    ((">", "<", ">"), (1, 2, 3), "alternating-bad"),
)
_R2_ROWS = (
    (("<", ">", "<"), (1, 2, 3), "alternating-good"),
    (("<", ">", ">="), (1, 2), "saddles 1,2 excess"),
    ((">=", ">", "<"), (2, 3), "saddles 2,3 excess"),
    (("<", "<=", "<"), (1, 3), "saddles 1,3 excess"),
    (("<", "<=", ">="), (1,), "saddle-1 excess"),
    ((">=", ">", ">="), (2,), "saddle-2 excess"),
    ((">=", "<=", "<"), (3,), "saddle-3 excess"),
    ("log>=", (), "vanishing Im v"),
    ((">", "<", ">"), (), "alternating-bad"),
)


def _matches(pattern, iv) -> bool:
    if isinstance(pattern, str):
        sign = _SIGN[pattern[3:]]
        alt = (-iv[0], iv[1], -iv[2])   # (-1)^j Im v_j for j = 1, 2, 3
        return any(iv[j] == 0.0 and all(sign(alt[l], 0.0) for l in range(3) if l != j)
                   for j in range(3))
    return all(_SIGN[p](x, 0.0) for p, x in zip(pattern, iv))


def _table_order(rows, iv) -> OrderDescriptor:
    a = [abs(x) for x in iv]
    for pattern, saddles, rule in rows:
        if _matches(pattern, iv):
            exponent = -1.0 + 2.0 * max(a[s - 1] for s in saddles) if saddles else -1.0
            return OrderDescriptor(exponent, log_factor=isinstance(pattern, str),
                                   rule=rule)
    return OrderDescriptor(-1.0 + 2.0 * max(a), covered=False, rule="table gap")


def error_order(v1: complex, v2: complex, v3: complex) -> tuple[OrderDescriptor, OrderDescriptor]:
    """Predicted (R1, R2) error orders from the sign pattern of Im v(lam_j).

    Rows are matched in the printed order; alternating-sign 'good' patterns
    give O(t^-1), vanishing Im v gives the log row, and the remaining rows
    lift the exponent by twice the offending |Im v|.  Patterns outside both
    tables return a conservative -1 + 2*max|Im v| bound flagged as a gap.
    """
    iv = [float(np.imag(v)) for v in (v1, v2, v3)]
    if not all(abs(x) < 0.5 for x in iv):
        raise ValueError("|Im v| must stay below 1/2")
    return _table_order(_R1_ROWS, iv), _table_order(_R2_ROWS, iv)


# ---------------------------------------------------------------------------
# the assembled asymptotics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Term:
    """coef * t^exponent * exp(i * rate * t); |coef| is the envelope size."""

    coef: complex
    exponent: complex     # Re: power of t; Im: coefficient of i*ln(t)
    rate: float           # oscillation exp(i * rate * t) from exp(-+2 i t theta(lam_s))

    def at(self, t: float) -> complex:
        return self.coef * t ** self.exponent * np.exp(1j * self.rate * t)


def _check_point(x: float, t: float) -> None:
    """Refuse a point (x, t) that no ray passes through, naming the coordinate."""
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"t must be positive and finite, got {t!r}")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")


def q_asymptotic(x: float, t: float, data,
                 _cache: dict | None = None) -> AsymptoticResult:
    """Leading-order q(x, t) along the ray mu = x/t.

    For x > 0 the ray must satisfy eps < mu < sqrt(1/27 gamma) - eps (and
    mirrored for x < 0).  chi_s and phi_s enter at the saddle (tau = 0), where
    the Taylor-consistent phase is phi_s(0) = i t theta(lam_s), carried as
    the oscillation rate of the term.  ``_cache`` maps |mu| to the ray's
    saddle exponents and coefficients.
    """
    _check_point(x, t)
    mu = x / t
    if mu == 0:
        raise RegimeError("the ray mu = 0 is excluded")

    m = abs(mu)
    if _cache is not None and m in _cache:
        exps, H, L, N = _cache[m]
    else:
        exps = saddle_exponents(build_delta(data, stationary_points(m, data.gamma)))
        H, L, N = coefficients_HLN(data, exps)
        if _cache is not None:
            _cache[m] = (exps, H, L, N)

    geometry, v = exps.geometry, exps.v
    im = [float(np.imag(vv)) for vv in v]
    orders = error_order(*v)
    chi0 = exps.chi_at_saddle
    theta0 = [float(np.real(geometry.theta(geometry.lam(s)))) for s in (1, 2, 3)]

    terms: list[_Term] = []
    if x > 0:
        tags = {_interval_tag(i) for i in im}
        branch = (Branch.X_POS_I1 if tags == {"I1"} else
                  Branch.X_POS_I2 if tags == {"I2"} else
                  Branch.X_POS_I3 if tags == {"I3"} else Branch.X_POS_MIXED)
        for s in (1, 2, 3):
            sgn = (-1) ** s
            vv, ii = v[s - 1], im[s - 1]
            if _wants_N(ii):
                expo = complex(-0.5 + sgn * ii, -sgn * float(np.real(vv)))
                coef = N[s - 1] * np.exp(-2.0 * chi0[s - 1])
                terms.append(_Term(coef, expo, -2.0 * theta0[s - 1]))
            if _wants_L(ii):
                expo = complex(-0.5 - sgn * ii, sgn * float(np.real(vv)))
                coef = -L[s - 1] * np.exp(2.0 * chi0[s - 1])
                terms.append(_Term(coef, expo, 2.0 * theta0[s - 1]))
        background = exps.delta.background
    else:
        branch = Branch.X_NEG
        for s in (1, 2, 3):
            sgn = (-1) ** s
            vv, ii = v[s - 1], im[s - 1]
            expo = complex(-0.5 + sgn * ii, sgn * float(np.real(vv)))
            coef = -H[s - 1] * np.exp(-2.0 * np.conj(chi0[s - 1]))
            terms.append(_Term(coef, expo, 2.0 * theta0[s - 1]))
        background = 0.0 + 0.0j

    return AsymptoticResult(branch=branch, leading_terms=terms,
                            background=background, error_order=orders,
                            geometry=geometry, v=v)


def q_rough(x: float, t: float, data) -> complex:
    """A delta(0, mu)^2 for x > 0, 0 for x < 0 (the zeroth-order skeleton)."""
    _check_point(x, t)
    if x < 0:
        return 0.0 + 0.0j
    return build_delta(data, stationary_points(x / t, data.gamma)).background


def soliton_exponent(x: float, t: float, A: float, alpha: float, gamma: float) -> complex:
    """The exponent E of the exact one-soliton q = A / (1 - e^E)."""
    return -A * x + 0.5j * A * A * t + 1j * A**4 * gamma * t + 1j * alpha


def q_soliton(x: float, t: float, A: float, alpha: float, gamma: float) -> complex:
    """The exact one-soliton q = A / (1 - e^E), E = ``soliton_exponent``."""
    expo = soliton_exponent(x, t, A, alpha, gamma)
    if expo.real > 50.0:        # left tail: 1 - e^{expo} dominated by the exponential
        return -A * np.exp(-expo)
    den = 1.0 - np.exp(expo)
    if abs(den) < 1e-13:
        raise ZeroDivisionError(
            f"soliton pole: exponent {expo:.6g} hits 2 pi i Z at (x,t)=({x},{t})")
    return A / den
