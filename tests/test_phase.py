"""Phase function, stationary points and the Re(phi) signature map."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steplpd.phase import (
    PhaseGeometry,
    Regime,
    RegimeError,
    phase_theta,
    sign_of_re_phi,
    stationary_points,
)

GAMMA = 1.0 / 27.0


def cardano_roots(mu: float, gamma: float) -> tuple[complex, complex, complex]:
    """Closed-form roots via cube roots of unity: the oracle for stationary_points.

    Branch-sensitive by nature, so only the root *set* should be compared.
    """
    w = (-1.0 + np.sqrt(3.0) * 1j) / 2.0
    s = np.sqrt(complex(mu * mu - 1.0 / (27.0 * gamma)))
    up = ((-mu + s) / gamma) ** (1.0 / 3.0)
    um = np.exp(np.log((-mu - s) / gamma) / 3.0)
    lam1 = w**2 / 4.0 * up + w / 4.0 * um
    lam2 = w / 4.0 * up + w**2 / 4.0 * um
    lam3 = up / 4.0 + um / 4.0
    return lam1, lam2, lam3


class TestTheta:
    def test_zero(self):
        assert phase_theta(0.0, 0.7, GAMMA) == 0

    def test_direct_substitution(self):
        assert phase_theta(1.0, 1.0, 1.0) == pytest.approx(8.0)

    def test_second_derivative_at_saddle(self):
        # theta'' = -2 + 96 gamma xi^2 = 2 (48 gamma xi^2 - 1): symbolic oracle
        geom = stationary_points(0.5, GAMMA)
        for s in (1, 2, 3):
            lam = geom.lam(s)
            assert phase_theta(lam, 0.5, GAMMA, 2) == pytest.approx(
                2.0 * (48 * GAMMA * lam**2 - 1.0), rel=1e-13)

    def test_higher_derivatives(self):
        xi = 0.37 + 0.21j
        assert phase_theta(xi, 0.1, GAMMA, 3) == pytest.approx(192 * GAMMA * xi)
        assert phase_theta(xi, 0.1, GAMMA, 4) == pytest.approx(192 * GAMMA + 0j)

    def test_finite_difference_consistency(self):
        h, xi, mu = 1e-6, 0.83, 0.4
        fd = (phase_theta(xi + h, mu, GAMMA) - phase_theta(xi - h, mu, GAMMA)) / (2 * h)
        assert abs(fd - phase_theta(xi, mu, GAMMA, 1)) < 1e-7


class TestStationaryPoints:
    def test_mu_zero_closed_form(self):
        geom = stationary_points(0.0, GAMMA, allow_edge=True)
        lam = 1.0 / (4.0 * np.sqrt(GAMMA))
        assert geom.lambdas == pytest.approx((lam, 0.0, -lam), abs=1e-12)

    def test_three_real_ordering_and_signs(self):
        geom = stationary_points(0.5, GAMMA)
        assert geom.regime is Regime.THREE_REAL
        assert geom.lam3 < geom.lam2 < geom.lam1
        assert geom.lam1 > 0 and geom.lam2 > 0 and geom.lam3 < 0
        # curvature signs of the admissible band
        assert geom.curvature(1) > 0
        assert geom.curvature(2) < 0
        assert geom.curvature(3) > 0

    def test_residuals(self):
        for mu in (0.2, 0.5, -0.7, 0.95 / np.sqrt(27 * GAMMA)):
            geom = stationary_points(mu, GAMMA)
            for lam in geom.lambdas:
                assert abs(geom.theta(lam, 1)) < 1e-10 * (1 + abs(mu))

    def test_mirror(self):
        gp = stationary_points(0.4, GAMMA)
        gm = stationary_points(-0.4, GAMMA)
        assert gm.lambdas == pytest.approx(tuple(-l for l in gp.lambdas), abs=1e-13)
        assert gm.lam1 < gm.lam2 < 0 < gm.lam3

    def test_double_root(self):
        mu = np.sqrt(1.0 / (27 * GAMMA))
        geom = stationary_points(mu, GAMMA, allow_edge=True)
        assert geom.regime is Regime.DOUBLE_ROOT
        assert geom.lambdas[0] == pytest.approx(3 * mu / 4, rel=1e-8)
        assert geom.lambdas[1] == pytest.approx(3 * mu / 4, rel=1e-8)

    def test_one_real(self):
        geom = stationary_points(1.5 * np.sqrt(1.0 / (27 * GAMMA)), GAMMA)
        assert geom.regime is Regime.ONE_REAL
        assert len(geom.lambdas) == 1

    def test_guard_band(self):
        with pytest.raises(RegimeError):
            stationary_points(1e-5, GAMMA)
        with pytest.raises(RegimeError):
            stationary_points(np.sqrt(1.0 / (27 * GAMMA)) - 1e-5, GAMMA)

    def test_cardano_oracle_set(self):
        for mu in (0.3, 0.8, -0.55):
            geom = stationary_points(mu, GAMMA)
            oracle = sorted(np.real(c) for c in cardano_roots(mu, GAMMA))
            mine = sorted(geom.lambdas)
            assert mine == pytest.approx(oracle, abs=1e-9)
            assert max(abs(np.imag(c)) for c in cardano_roots(mu, GAMMA)) < 1e-9

    def test_boundary_continuity(self):
        # lam1, lam2 merge as mu^2 -> 1/(27 gamma)
        for gamma in (GAMMA, 1.0):
            mu = np.sqrt((1 - 1e-8) / (27 * gamma))
            geom = stationary_points(mu, gamma, allow_edge=True)
            assert geom.lam1 - geom.lam2 < 1e-4


class TestClosedFormRoots:
    def test_against_companion_matrix(self):
        # the route before the closed forms: the companion matrix's
        # eigenvalues (np.roots), then the same polish; uniform mu over the
        # band and mu within 1e-6 of both guard edges
        from steplpd.kernels.roots import _polish

        rng = np.random.default_rng(2024)
        mu_max, guard = np.sqrt(1.0 / (27 * GAMMA)), 1e-3
        mus = np.concatenate([rng.uniform(guard, mu_max - guard, 10000),
                              guard + rng.uniform(-1e-6, 1e-6, 500),
                              mu_max - guard + rng.uniform(-1e-6, 1e-6, 500)])
        c3 = 32.0 * GAMMA
        for mu in mus:
            geom = stationary_points(mu, GAMMA, allow_edge=True)
            lam3, lam2, lam1 = sorted(_polish(r.real, c3, -2.0, mu)
                                      for r in np.roots([c3, 0.0, -2.0, mu]))
            for got, want in zip(geom.lambdas, (lam1, lam2, lam3)):
                assert abs(got - want) <= 2 * np.spacing(abs(want)), mu
            assert geom.lam3 < geom.lam2 < geom.lam1
            mirrored = stationary_points(-mu, GAMMA, allow_edge=True)
            assert mirrored.lambdas == tuple(-x for x in geom.lambdas)


class TestSignature:
    def test_real_axis_zero(self):
        geom = stationary_points(0.5, GAMMA)
        for x in (-2.0, 0.3, 1.7):
            assert sign_of_re_phi(x, geom) == 0

    def test_saddle_octants(self):
        # quadrants at 45 degrees around each saddle alternate with the
        # curvature sign: sign = -sign(theta''(lam) sin 2 alpha)
        geom = stationary_points(0.5, GAMMA)
        eps = 0.1
        for s in (1, 2, 3):
            lam, curv = geom.lam(s), geom.curvature(s)
            for alpha in (np.pi / 4, 3 * np.pi / 4, -3 * np.pi / 4, -np.pi / 4):
                xi = lam + eps * np.exp(1j * alpha)
                expected = -np.sign(curv * np.sin(2 * alpha))
                assert sign_of_re_phi(xi, geom) == expected

    def test_figure_reading(self):
        # labels read off the signature figure for gamma = 1/27, mu = 0.5:
        # upper-left of lam1 and lam3 is +, upper-right -, mirrored below
        geom = stationary_points(0.5, GAMMA)
        for lam in (geom.lam1, geom.lam3):
            ur = lam + 0.1 * np.exp(1j * np.pi / 4)
            ul = lam + 0.1 * np.exp(3j * np.pi / 4)
            dl = lam + 0.1 * np.exp(-3j * np.pi / 4)
            dr = lam + 0.1 * np.exp(-1j * np.pi / 4)
            assert sign_of_re_phi(ur, geom) == -1
            assert sign_of_re_phi(ul, geom) == +1
            assert sign_of_re_phi(dl, geom) == -1
            assert sign_of_re_phi(dr, geom) == +1

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-2.5, 2.5), st.floats(0.05, 2.5))
    def test_conjugate_antisymmetry(self, re, im):
        geom = stationary_points(0.5, GAMMA)
        xi = complex(re, im)
        assert sign_of_re_phi(np.conj(xi), geom) == -sign_of_re_phi(xi, geom)
