"""Parabolic-cylinder local models at the three stationary points.

After rescaling xi = lam_s + tau/sqrt(4 t |48 gamma lam_s^2 - 1|), the jump
matrices near a saddle freeze to constants and the local Riemann-Hilbert
problem is solved exactly by Weber-equation functions.  For s = 1, 3 the
model has the asymptotics

    mhat(tau) = I + (1/tau) [[0, -i*beta], [-i*gamma_c, 0]] + O(tau^-2),

with

    beta    = -sqrt(2 pi) e^{-pi v/2} e^{+i pi/4} / (r1r * Gamma(-i v)),
    gamma_c = -sqrt(2 pi) e^{-pi v/2} e^{-i pi/4} / (r2r * Gamma(+i v)),

v = -(1/2 pi) Log(1 + r1r*r2r) (so beta*gamma_c = -v).  The matrix m with the
constant jump [[1+pq, -q], [-p, 1]] across the real line is assembled from
the pairs (D_{iv-1}, D_{iv}) at z13 and (D_{-iv-1}, D_{-iv}) at z24, with
(z13, z24) = tau*(e^{-3 i pi/4}, e^{-i pi/4}) above the line and
tau*(e^{i pi/4}, e^{3 i pi/4}) below; the s = 2 model is the conjugate reflection
tau -> -conj(tau) of an s = 1 model built on the conjugated data.

Sector factors, jump matrices on the four rays, the Wronskian identities
recovering -r1r and -r2r, and the entry ODEs are all exercised by the test
suite; the conventions here are the unique self-consistent completion of the
set (the printed sources disagree among themselves in three signs).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from steplpd.kernels import complex_gamma
from steplpd.kernels.special import parabolic_cylinder_D_scaled_pair, reciprocal_gamma
from steplpd.phase import PhaseGeometry
from steplpd.rhfactors import SaddleExponents

_SQRT2PI = math.sqrt(2.0 * math.pi)
_QUARTER = math.pi / 4.0
# tau -> (z13, z24) above and below the real line
_ROT_UPPER = (cmath.exp(-0.75j * math.pi), cmath.exp(-0.25j * math.pi))
_ROT_LOWER = (cmath.exp(0.25j * math.pi), cmath.exp(0.75j * math.pi))


@dataclass(frozen=True)
class LocalModelData:
    """Frozen inputs of one saddle's local model."""

    s: int
    v: complex
    r1r: complex
    r2r: complex

    @cached_property
    def conjugated(self) -> "LocalModelData":
        """The s = 1 model on conjugated data, built once; reflected, the s = 2 model."""
        return LocalModelData(1, *(complex(x).conjugate() for x in (self.v, self.r1r, self.r2r)))


def model_order(r1r: complex, r2r: complex) -> complex:
    """v = -(1/2 pi) Log(1 + r1r r2r), principal branch."""
    return -np.log(1.0 + complex(r1r) * complex(r2r)) / (2.0 * np.pi)


# ---------------------------------------------------------------------------
# scaling maps and the local phase
# ---------------------------------------------------------------------------

def _scale_factor(s: int, geometry: PhaseGeometry, t: float) -> float:
    """sqrt(4 t (48 gamma lam_s^2 - 1)) with the sign pattern of the regime."""
    if t <= 0:
        raise ValueError("the scaling map needs t > 0")
    c = geometry.curvature(s)
    rad = 4.0 * t * (c if s in (1, 3) else -c)
    if rad <= 0:
        raise ValueError(f"negative radicand at saddle {s}: wrong regime")
    return math.sqrt(rad)


def scaling_map(s: int, geometry: PhaseGeometry, t: float, tau: complex) -> complex:
    """xi(tau) = lam_s + tau / sqrt(4 t |48 gamma lam_s^2 - 1|)."""
    return geometry.lam(s) + complex(tau) / _scale_factor(s, geometry, t)


def saddle_sign(s: int) -> int:
    """sigma_s: +1 at the outer saddles, -1 at the middle one."""
    return +1 if s in (1, 3) else -1


def local_phase_phi(s: int, geometry: PhaseGeometry, t: float, tau: complex) -> complex:
    """phi_s(mu, tau) = i t theta(xi(tau)) - sigma_s i tau^2/4: the conjugation
    phase of the local model, from the exact quartic phase, so that
    exp(2 i t theta) = exp(2 phi) exp(sigma_s i tau^2/2) holds identically."""
    xi = scaling_map(s, geometry, t, complex(tau))
    return 1j * t * geometry.theta(xi) - saddle_sign(s) * 1j * complex(tau)**2 / 4.0


def log_power_factor(s: int, exponents: SaddleExponents, t: float) -> complex:
    """ln K_s - chi_s(lam_s) - sigma_s i v_s ln sqrt(4 t c_s^+), read off delta.

    With xi - lam_s = tau / sqrt(4 t c_s^+), delta(xi(tau)) tends to
    exp(chi_s(lam_s) + this) times the model's tau-power, tau^{i v_s} at
    s = 1, 3 and (-tau)^{-i v_2} at s = 2 (``SaddleExponents.log_local_constant``).
    """
    if s not in (1, 2, 3):
        raise ValueError("saddle index must be 1, 2 or 3")
    return (exponents.log_local_constant(s) - exponents.chi0(s)
            - saddle_sign(s) * 1j * exponents.v[s - 1]
            * math.log(_scale_factor(s, exponents.geometry, t)))


def lambda_conjugator(s: int, exponents: SaddleExponents, t: float,
                      tau: complex) -> complex:
    """Scalar exponent eta_s with Lambda_s = exp(eta_s sigma3).

    eta_s = chi_s(xi(tau)) + phi_s(tau) + ``log_power_factor``, with the power
    factor read off delta's product form.
    """
    geometry = exponents.geometry
    xi = scaling_map(s, geometry, t, tau)
    chi = exponents.chi(s, xi) if abs(tau) > 1e-12 else exponents.chi0(s)
    phi = local_phase_phi(s, geometry, t, tau)
    return chi + phi + log_power_factor(s, exponents, t)


# ---------------------------------------------------------------------------
# the explicit Weber-function solution
# ---------------------------------------------------------------------------

def pc_coefficients(s: int, r1r: complex, r2r: complex,
                    v: complex) -> tuple[complex, complex]:
    """The 1/tau coefficients (beta, gamma_c) of the local model at saddle s.

    v = 0 returns (0, 0) exactly through the Gamma poles (1/Gamma(0) = 0
    beats any finite denominator).  At the s = 2 saddle, with its reversed
    quadratic phase, they are the conjugates of the s = 1 coefficients on
    conjugated data.
    """
    if s not in (1, 2, 3):
        raise ValueError("saddle index must be 1, 2 or 3")
    if v == 0:
        return 0.0 + 0.0j, 0.0 + 0.0j
    if s == 2:
        beta, gam = pc_coefficients(1, *(complex(x).conjugate() for x in (r1r, r2r, v)))
        return beta.conjugate(), gam.conjugate()
    scale = -_SQRT2PI * cmath.exp(-math.pi * v / 2.0)
    beta = scale * cmath.exp(1j * math.pi / 4.0) * reciprocal_gamma(-1j * v) / r1r
    gam = scale * cmath.exp(-1j * math.pi / 4.0) * reciprocal_gamma(1j * v) / r2r
    return beta, gam


@lru_cache(maxsize=64)
def _column_constants(v: complex, r1r: complex, r2r: complex) -> tuple[tuple[complex, ...], ...]:
    """The factors of E_{iv}(z13), E_{iv-1}(z13), E_{-iv-1}(z24) and
    E_{-iv}(z24) in m's scaled columns, above the real line and below;
    b = e^{i pi/4} iv/beta and g = e^{-i pi/4} iv/gamma_c."""
    b = r1r * complex_gamma(1.0 - 1j * v) * cmath.exp(math.pi * v / 2.0) / _SQRT2PI
    g = -r2r * complex_gamma(1.0 + 1j * v) * cmath.exp(math.pi * v / 2.0) / _SQRT2PI
    near, far = cmath.exp(math.pi * v / 4.0), cmath.exp(-3.0 * math.pi * v / 4.0)
    return (far, -b * far, g * near, near), (near, b * near, -g * far, far)


def _scaled_columns(v: complex, r1r: complex, r2r: complex, tau: complex,
                    upper: bool) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """(col1 * e^{+i tau^2/4}, col2 * e^{-i tau^2/4}) of m, overflow-free.

    The growth of m's columns sits entirely in e^{-+ i tau^2/4}; multiplying
    it away leaves the polynomially bounded combinations e^{z^2/4} D_a(z),
    one evaluation at each of z13 and z24.
    """
    k11, k21, k12, k22 = _column_constants(v, r1r, r2r)[0 if upper else 1]
    r13, r24 = _ROT_UPPER if upper else _ROT_LOWER
    e21, e11 = parabolic_cylinder_D_scaled_pair(1j * v - 1.0, tau * r13)
    e12, e22 = parabolic_cylinder_D_scaled_pair(-1j * v - 1.0, tau * r24)
    return (k11 * e11, k21 * e21), (k12 * e12, k22 * e22)


def pc_model_matrix(s: int, model: LocalModelData, tau: complex,
                    side: int | None = None) -> np.ndarray:
    """mhat^pc(tau): identity-normalized local model solution.

    On the rays and the real axis (within 1e-13 in angle) ``side`` (+1/-1)
    picks the sector on that side, with it the half-plane of the Weber
    functions and, on the negative axis, the branch arg tau = -+pi of
    tau^{iv}; nothing is nudged, so both sides share their D_a values.
    Assembled from exponentially scaled columns so that large |tau| stays finite.
    """
    tau = complex(tau)
    if tau == 0:
        raise ValueError("the model normalization is singular at tau = 0")
    if s == 2:      # the reflection reverses orientation, and with it the side
        return np.conj(pc_model_matrix(1, model.conjugated, -tau.conjugate(),
                                       None if side is None else -side))
    a = cmath.phase(tau)
    k, sector = round(a / _QUARTER), math.floor(a / _QUARTER)
    if k % 4 != 2 and abs(a - k * _QUARTER) < 1e-13:     # 0, +-pi/4, +-3pi/4, +-pi
        if side not in (-1, +1):
            raise ValueError("tau lies on the jump contour: side flag required")
        sector = (k + 4 - (side < 0)) % 8 - 4                # pi wraps to -pi

    (c11, c21), (c12, c22) = _scaled_columns(model.v, model.r1r, model.r2r, tau,
                                             upper=sector >= 0)
    # the piecewise unwinding factor P of mhat = m P tau^{-iv sigma3} e^{i tau^2 sigma3/4}
    # in the sector of tau: [[1, 0], [p, 1]] next to the positive real axis and
    # below the negative one, [[1, q], [0, 1]] in the other two real sectors
    p, q = model.r1r, model.r2r
    if sector in (0, -4):       # |e^{i tau^2/2}| <= 1 here
        mix = (p if sector == 0 else -p / (1.0 + p * q)) * cmath.exp(0.5j * tau * tau)
        c11, c21 = c11 + mix * c12, c21 + mix * c22
    elif sector in (-1, 3):     # |e^{-i tau^2/2}| <= 1 here
        mix = (-q if sector == -1 else q / (1.0 + p * q)) * cmath.exp(-0.5j * tau * tau)
        c12, c22 = c12 + mix * c11, c22 + mix * c21
    tpp = tau ** (1j * model.v)
    if abs(k) == 4 and (a > 0) == (sector < 0):   # across the cut: arg tau -+ 2 pi
        tpp *= cmath.exp(math.copysign(2.0 * math.pi, a) * model.v)
    return np.array([[c11 / tpp, c12 * tpp], [c21 / tpp, c22 * tpp]])


def pc_jump_matrix(s: int, model: LocalModelData, tau: complex) -> np.ndarray:
    """The ray jump J^pc of the local model at the point tau.

    Orientation: the '+' side of every ray is the sector containing the
    imaginary axis, so mhat(axial sector) = mhat(real-adjacent sector) J^pc.
    """
    tau = complex(tau)
    if s not in (1, 3):     # s = 2: conjugate reflection of the s = 1 picture
        return np.conj(pc_jump_matrix(1, model.conjugated, -tau.conjugate()))
    p, q, v = model.r1r, model.r2r, model.v
    a = cmath.phase(tau)
    k = round(a / _QUARTER)
    if k % 2 == 0 or abs(a - k * _QUARTER) >= 1e-9:
        raise ValueError("tau is not on one of the four rays")
    if k in (1, -3):
        c = -p if k == 1 else p / (1.0 + p * q)
        return np.array([[1.0, 0.0], [c * cmath.exp(0.5j * tau * tau) * tau ** (-2j * v), 1.0]])
    c = q if k == -1 else -q / (1.0 + p * q)
    return np.array([[1.0, c * cmath.exp(-0.5j * tau * tau) * tau ** (2j * v)], [0.0, 1.0]])
