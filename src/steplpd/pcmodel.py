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
D_{iv} and D_{iv-1} at the rotated arguments tau*e^{-3 i pi/4} (upper) and
tau*e^{+i pi/4} (lower); the s = 2 model is the conjugate reflection
tau -> -conj(tau) of an s = 1 model built on the conjugated data.

Sector factors, jump matrices on the four rays, the Wronskian identities
recovering -r1r and -r2r, and the entry ODEs are all exercised by the test
suite; the conventions here are the unique self-consistent completion of the
set (the printed sources disagree among themselves in three signs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from steplpd.kernels import complex_gamma
from steplpd.kernels.special import parabolic_cylinder_D_scaled, reciprocal_gamma
from steplpd.phase import PhaseGeometry
from steplpd.rhfactors import SaddleExponents

_SQRT2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class LocalModelData:
    """Frozen inputs of one saddle's local model."""

    s: int
    v: complex
    r1r: complex
    r2r: complex
    chi: complex = 0.0 + 0.0j


def model_order(r1r: complex, r2r: complex) -> complex:
    """v = -(1/2 pi) Log(1 + r1r r2r), principal branch."""
    return -np.log(1.0 + complex(r1r) * complex(r2r)) / (2.0 * np.pi)


def local_model_data(s: int, exponents: SaddleExponents,
                     data, geometry: PhaseGeometry) -> LocalModelData:
    """Assemble a saddle's model data from scattering data and exponents."""
    from steplpd.rhfactors import regularized_reflections

    lam = geometry.lam(s)
    r1r, r2r = regularized_reflections(data, lam)
    return LocalModelData(s=s, v=exponents.v[s - 1], r1r=r1r, r2r=r2r,
                          chi=exponents.chi0(s))


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
    return float(np.sqrt(rad))


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


def log_power_factor(s: int, exponents: SaddleExponents, geometry: PhaseGeometry,
                     t: float) -> complex:
    """ln K_s - chi_s(lam_s) - sigma_s i v_s ln sqrt(4 t c_s^+), read off delta.

    With xi - lam_s = tau / sqrt(4 t c_s^+), delta(xi(tau)) tends to
    exp(chi_s(lam_s) + this) times the model's tau-power, tau^{i v_s} at
    s = 1, 3 and (-tau)^{-i v_2} at s = 2 (``SaddleExponents.log_local_constant``).
    """
    if s not in (1, 2, 3):
        raise ValueError("saddle index must be 1, 2 or 3")
    return (exponents.log_local_constant(s) - exponents.chi0(s)
            - saddle_sign(s) * 1j * exponents.v[s - 1] * np.log(_scale_factor(s, geometry, t)))


def lambda_conjugator(s: int, exponents: SaddleExponents, geometry: PhaseGeometry,
                      t: float, tau: complex) -> complex:
    """Scalar exponent eta_s with Lambda_s = exp(eta_s sigma3).

    eta_s = chi_s(xi(tau)) + phi_s(tau) + ``log_power_factor``, with the power
    factor read off delta's product form.
    """
    xi = scaling_map(s, geometry, t, tau)
    chi = exponents.chi(s, xi) if abs(tau) > 1e-12 else exponents.chi0(s)
    phi = local_phase_phi(s, geometry, t, tau)
    return chi + phi + log_power_factor(s, exponents, geometry, t)


# ---------------------------------------------------------------------------
# the explicit Weber-function solution
# ---------------------------------------------------------------------------

def pc_coefficients(s: int, r1r: complex, r2r: complex,
                    v: complex) -> tuple[complex, complex]:
    """The 1/tau coefficients (beta, gamma_c) of the local model at saddle s.

    v = 0 returns (0, 0) exactly through the Gamma poles (1/Gamma(0) = 0
    beats any finite denominator).  The s = 2 saddle carries the
    conjugate-reflected convention (phases and Gamma arguments swapped),
    matching its reversed quadratic phase.
    """
    if v == 0:
        return 0.0 + 0.0j, 0.0 + 0.0j
    if s in (1, 3):
        beta = -_SQRT2PI * np.exp(-np.pi * v / 2.0) * np.exp(1j * np.pi / 4.0) \
            * reciprocal_gamma(-1j * v) / r1r
        gam = -_SQRT2PI * np.exp(-np.pi * v / 2.0) * np.exp(-1j * np.pi / 4.0) \
            * reciprocal_gamma(1j * v) / r2r
    elif s == 2:
        beta = -_SQRT2PI * np.exp(-np.pi * v / 2.0) * np.exp(-1j * np.pi / 4.0) \
            * reciprocal_gamma(1j * v) / r1r
        gam = -_SQRT2PI * np.exp(-np.pi * v / 2.0) * np.exp(1j * np.pi / 4.0) \
            * reciprocal_gamma(-1j * v) / r2r
    else:
        raise ValueError("saddle index must be 1, 2 or 3")
    return beta, gam


def _sector_factor_s13(r1r: complex, r2r: complex, tau: complex) -> np.ndarray:
    """Piecewise unwinding factor P of mhat = m P tau^{-iv sigma3} e^{i tau^2 sigma3/4}."""
    opq = 1.0 + r1r * r2r
    a = np.angle(complex(tau))
    if 0 <= a < np.pi / 4.0:
        return np.array([[1.0, 0.0], [r1r, 1.0]], dtype=complex)
    if np.pi / 4.0 < a < 3.0 * np.pi / 4.0:
        return np.eye(2, dtype=complex)
    if 3.0 * np.pi / 4.0 < a <= np.pi:
        return np.array([[1.0, r2r / opq], [0.0, 1.0]], dtype=complex)
    if -np.pi / 4.0 < a < 0:
        return np.array([[1.0, -r2r], [0.0, 1.0]], dtype=complex)
    if -3.0 * np.pi / 4.0 < a < -np.pi / 4.0:
        return np.eye(2, dtype=complex)
    return np.array([[1.0, 0.0], [-r1r / opq, 1.0]], dtype=complex)


def m_matrix(s: int, model: LocalModelData, tau: complex) -> np.ndarray:
    """The constant-jump Weber solution m at the given saddle.

    ``tau`` in the closed upper half-plane selects the branch recessive
    there, the open lower half-plane the other one.
    """
    tau = complex(tau)
    if s == 2:
        inner = LocalModelData(s=1, v=np.conj(model.v), r1r=np.conj(model.r1r),
                               r2r=np.conj(model.r2r))
        return np.conj(m_matrix(1, inner, -np.conj(tau)))
    col1s, col2s = _scaled_columns(model.v, model.r1r, model.r2r, tau,
                                   upper=tau.imag >= 0)
    grow = np.exp(1j * tau**2 / 4.0)
    return np.column_stack((col1s / grow, col2s * grow))


def _scaled_columns(v: complex, r1r: complex, r2r: complex, tau: complex,
                    upper: bool) -> tuple[np.ndarray, np.ndarray]:
    """(col1 * e^{+i tau^2/4}, col2 * e^{-i tau^2/4}) of m, overflow-free.

    The growth of m's columns sits entirely in e^{-+ i tau^2/4}; multiplying
    it away leaves the polynomially bounded combinations e^{z^2/4} D_a(z).
    """
    Ds = parabolic_cylinder_D_scaled
    tau = complex(tau)
    iv = 1j * v
    e = np.exp
    iv_over_beta = r1r * complex_gamma(1.0 - iv) * e(np.pi * v / 2.0) \
        * e(-1j * np.pi / 4.0) / _SQRT2PI
    iv_over_gamc = -r2r * complex_gamma(1.0 + iv) * e(np.pi * v / 2.0) \
        * e(1j * np.pi / 4.0) / _SQRT2PI
    if upper:
        z13, z24 = tau * e(-3j * np.pi / 4.0), tau * e(-1j * np.pi / 4.0)
        c11 = e(-3.0 * np.pi * v / 4.0) * Ds(iv, z13)
        c21 = iv_over_beta * e(-3.0 * np.pi * (v + 1j) / 4.0) * Ds(iv - 1.0, z13)
        c12 = iv_over_gamc * e(np.pi * (v - 1j) / 4.0) * Ds(-iv - 1.0, z24)
        c22 = e(np.pi * v / 4.0) * Ds(-iv, z24)
    else:
        z13, z24 = tau * e(1j * np.pi / 4.0), tau * e(3j * np.pi / 4.0)
        c11 = e(np.pi * v / 4.0) * Ds(iv, z13)
        c21 = iv_over_beta * e(np.pi * (v + 1j) / 4.0) * Ds(iv - 1.0, z13)
        c12 = iv_over_gamc * e(-3.0 * np.pi * (v - 1j) / 4.0) * Ds(-iv - 1.0, z24)
        c22 = e(-3.0 * np.pi * v / 4.0) * Ds(-iv, z24)
    return np.array([c11, c21], dtype=complex), np.array([c12, c22], dtype=complex)


def pc_model_matrix(s: int, model: LocalModelData, tau: complex,
                    side: int | None = None) -> np.ndarray:
    """mhat^pc(tau): identity-normalized local model solution.

    On the rays and the real axis the sector is ambiguous; ``side`` (+1/-1)
    nudges the argument by that sign times a tiny angle.  Assembled from
    exponentially scaled columns so that large |tau| stays finite.
    """
    tau = complex(tau)
    if tau == 0:
        raise ValueError("the model normalization is singular at tau = 0")
    a = np.angle(tau)
    on_boundary = any(abs(((a - b) + np.pi) % (2 * np.pi) - np.pi) < 1e-13
                      for b in (0.0, np.pi, np.pi / 4, 3 * np.pi / 4,
                                -np.pi / 4, -3 * np.pi / 4))
    if on_boundary:
        if side not in (-1, +1):
            raise ValueError("tau lies on the jump contour: side flag required")
        tau = tau * np.exp(1j * side * 1e-12)

    if s == 2:
        inner_model = LocalModelData(s=1, v=np.conj(model.v), r1r=np.conj(model.r1r),
                                     r2r=np.conj(model.r2r))
        inner = pc_model_matrix(1, inner_model, -np.conj(tau))
        return np.conj(inner)

    col1s, col2s = _scaled_columns(model.v, model.r1r, model.r2r, tau,
                                   upper=tau.imag >= 0)
    P = _sector_factor_s13(model.r1r, model.r2r, tau)
    tpm = tau ** (-1j * model.v)
    tpp = tau ** (1j * model.v)
    out = np.empty((2, 2), dtype=complex)
    if P[1, 0] != 0:      # lower-triangular mixing, |e^{i tau^2/2}| <= 1 here
        mix = P[1, 0] * np.exp(1j * tau**2 / 2.0)
        out[:, 0] = (col1s + mix * col2s) * tpm
        out[:, 1] = col2s * tpp
    elif P[0, 1] != 0:    # upper-triangular mixing, |e^{-i tau^2/2}| <= 1 here
        mix = P[0, 1] * np.exp(-1j * tau**2 / 2.0)
        out[:, 0] = col1s * tpm
        out[:, 1] = (col2s + mix * col1s) * tpp
    else:
        out[:, 0] = col1s * tpm
        out[:, 1] = col2s * tpp
    return out


def pc_jump_matrix(s: int, model: LocalModelData, tau: complex) -> np.ndarray:
    """The ray jump J^pc of the local model at the point tau.

    Orientation: the '+' side of every ray is the sector containing the
    imaginary axis, so mhat(axial sector) = mhat(real-adjacent sector) J^pc.
    """
    tau = complex(tau)
    p, q, v = model.r1r, model.r2r, model.v
    opq = 1.0 + p * q
    a = np.angle(tau)
    e2 = np.exp(1j * tau**2 / 2.0)
    em2 = np.exp(-1j * tau**2 / 2.0)
    tv = tau ** (2j * v)
    tvm = tau ** (-2j * v)
    if s in (1, 3):
        if abs(a - np.pi / 4) < 1e-9:
            return np.array([[1.0, 0.0], [-p * e2 * tvm, 1.0]], dtype=complex)
        if abs(a - 3 * np.pi / 4) < 1e-9:
            return np.array([[1.0, -(q / opq) * em2 * tv], [0.0, 1.0]], dtype=complex)
        if abs(a + np.pi / 4) < 1e-9:
            return np.array([[1.0, q * em2 * tv], [0.0, 1.0]], dtype=complex)
        if abs(a + 3 * np.pi / 4) < 1e-9:
            return np.array([[1.0, 0.0], [(p / opq) * e2 * tvm, 1.0]], dtype=complex)
        raise ValueError("tau is not on one of the four rays")
    # s = 2: conjugate reflection of the s = 1 picture
    inner_model = LocalModelData(s=1, v=np.conj(v), r1r=np.conj(p), r2r=np.conj(q))
    return np.conj(pc_jump_matrix(1, inner_model, -np.conj(tau)))
