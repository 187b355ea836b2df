"""Quartic phase function, stationary points and the Re(phi) signature map.

The oscillation in the jump matrices is exp(i*t*theta) with

    theta(xi, mu) = xi*mu - xi**2 + 8*gamma*xi**4,      mu = x/t.

Writing exp(i*t*theta) = exp(t*phi), phi = i*theta, the contour deformations
are governed by the sign of Re(phi).  theta'(xi) = mu - 2*xi + 32*gamma*xi**3
has three distinct real roots iff mu**2 < 1/(27*gamma); on the positive-mu
band they are labelled lam3 < 0 < lam2 < lam1, with curvature factors
48*gamma*lam**2 - 1 positive at lam1, lam3 and negative at lam2.  Negative mu
mirrors all three signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from steplpd.kernels import cubic_real_roots


class Regime(Enum):
    ONE_REAL = "one-real"
    DOUBLE_ROOT = "double-root"
    THREE_REAL = "three-real"


class RegimeError(ValueError):
    """mu outside the admissible three-saddle band (or inside a guard band)."""


# half-width of the refused bands around mu = 0 and mu = +-sqrt(1/(27 gamma))
_EDGE_GUARD = 1e-3
# |Re(i theta)| at or below this counts as zero
_RE_PHI_DEAD_BAND = 1e-12


def phase_theta(xi: complex, mu: float, gamma: float, order: int = 0) -> complex:
    """theta(xi, mu) or its xi-derivative of the given order (0..4)."""
    xi = complex(xi)
    if order == 0:
        return xi * mu - xi**2 + 8.0 * gamma * xi**4
    if order == 1:
        return mu - 2.0 * xi + 32.0 * gamma * xi**3
    if order == 2:
        return -2.0 + 96.0 * gamma * xi**2
    if order == 3:
        return 192.0 * gamma * xi
    if order == 4:
        return 192.0 * gamma + 0.0j
    raise ValueError("order must be 0..4")


@dataclass(frozen=True)
class PhaseGeometry:
    """Stationary points of theta(., mu) and their curvature factors.

    ``lambdas`` maps saddle label s=1,2,3 to the root lam_s (lam1, lam2, lam3);
    ``curvatures`` holds 48*gamma*lam_s**2 - 1 in the same order.  For mu > 0
    the labels sit ascending as lam3 < lam2 < lam1; for mu < 0 every sign is
    flipped (lam1 < lam2 < lam3).
    """

    mu: float
    gamma: float
    regime: Regime
    lambdas: tuple[float, ...]
    curvatures: tuple[float, ...]

    @property
    def lam1(self) -> float:
        return self.lambdas[0]

    @property
    def lam2(self) -> float:
        return self.lambdas[1]

    @property
    def lam3(self) -> float:
        return self.lambdas[2]

    def lam(self, s: int) -> float:
        return self.lambdas[s - 1]

    def curvature(self, s: int) -> float:
        return self.curvatures[s - 1]

    def theta(self, xi: complex, order: int = 0) -> complex:
        return phase_theta(xi, self.mu, self.gamma, order)

    @property
    def mu_max(self) -> float:
        return float(np.sqrt(1.0 / (27.0 * self.gamma)))


def stationary_points(mu: float, gamma: float,
                      allow_edge: bool = False) -> PhaseGeometry:
    """Solve theta'(xi) = 0 and label the roots.

    Labelling is by ordering and sign pattern (robust against the
    branch-sensitivity of the closed-form radicals, which are kept around
    only as a test oracle): for mu > 0, lam1 = largest, lam2 = middle,
    lam3 = smallest; mu < 0 is handled by the exact mirror
    lam_j(mu) = -lam_j(-mu).  Construction rejects mu within 1e-3 of 0
    or of +-sqrt(1/(27*gamma)) unless allow_edge is set.
    """
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu!r}")
    mu_max = float(np.sqrt(1.0 / (27.0 * gamma)))
    if not allow_edge:
        if abs(mu) < _EDGE_GUARD or abs(abs(mu) - mu_max) < _EDGE_GUARD:
            raise RegimeError(
                f"mu = {mu:g} within the guard band around 0 or +-{mu_max:g}")

    mirror = mu < 0
    m = abs(mu)
    pairs = cubic_real_roots(32.0 * gamma, -2.0, m)

    crit = m * m * 27.0 * gamma
    if crit > 1.0 + 1e-14 or (len(pairs) == 1 and pairs[0][1] == 1):
        regime = Regime.ONE_REAL
        roots = [r for r, _ in pairs]
    elif any(mult > 1 for _, mult in pairs):
        regime = Regime.DOUBLE_ROOT
        roots = sorted(r for r, mult in pairs for _ in range(mult))
    else:
        regime = Regime.THREE_REAL
        roots = sorted(r for r, _ in pairs)

    if len(roots) == 3:
        lam3, lam2, lam1 = roots[0], roots[1], roots[2]
        lams = [lam1, lam2, lam3]
    else:
        lams = sorted(roots, reverse=True)

    if mirror:
        lams = [-x for x in lams]
    curv = [48.0 * gamma * x * x - 1.0 for x in lams]
    return PhaseGeometry(mu=mu, gamma=gamma, regime=regime,
                         lambdas=tuple(lams), curvatures=tuple(curv))


def sign_of_re_phi(xi: complex, geometry: PhaseGeometry) -> int:
    """Sign of Re(i*theta(xi, mu)) in {-1, 0, +1}, with a dead band at zero."""
    re = (1j * geometry.theta(xi)).real
    if abs(re) <= _RE_PHI_DEAD_BAND:
        return 0
    return 1 if re > 0 else -1
