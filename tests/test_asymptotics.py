"""Leading-order formulas, error-order tables and the soliton."""

import numpy as np
import pytest

from steplpd.asymptotics import (
    Branch,
    coefficients_HLN,
    error_order,
    q_asymptotic,
    q_rough,
    q_soliton,
)
from steplpd.phase import RegimeError, stationary_points
from steplpd.rhfactors import build_delta, saddle_exponents
from steplpd.scattering import ScatteringData, SyntheticReflectionData, locate_xi1, synthetic_from_v_targets

GAMMA = 1.0 / 27.0
A = 2.0


@pytest.fixture(scope="module")
def machinery():
    data = ScatteringData.pure_step(A, GAMMA)
    locate_xi1(data)
    geom = stationary_points(0.5, GAMMA)
    delta = build_delta(data, geom)
    exps = saddle_exponents(data, geom, delta)
    c0 = A * delta.at_zero() ** 2 / 2j
    return data, geom, delta, exps, c0


class TestCoefficients:
    def test_zero_v_collapses(self):
        data = ScatteringData.reflectionless(A, GAMMA)
        geom = stationary_points(0.5, GAMMA)
        delta = build_delta(data, geom)
        exps = saddle_exponents(data, geom, delta)
        H, L, N = coefficients_HLN(data, geom, exps, A / 2j)
        assert all(abs(c) < 1e-12 for c in H + L + N)

    def test_nonzero_for_step(self, machinery):
        data, geom, delta, exps, c0 = machinery
        H, L, N = coefficients_HLN(data, geom, exps, c0)
        assert all(abs(c) > 1e-6 for c in H + L + N)

    def test_n_over_l_modulus_structure(self, machinery):
        # N1/L1 carries |c0|^2/lam1^2 * |r1/r2| * |Gamma(-iv)/Gamma(iv)| and
        # the power factors invert: check the modulus ratio oracle
        from steplpd.kernels import complex_gamma

        data, geom, delta, exps, c0 = machinery
        H, L, N = coefficients_HLN(data, geom, exps, c0)
        v1 = exps.v[0]
        lam1 = geom.lam1
        c1, c2, c3 = geom.curvatures
        B1 = (-c2) / (4.0 * c1 * c3)
        oracle = (abs(c0) ** 2 / lam1**2
                  * abs(data.r1(lam1) / data.r2(lam1))
                  * abs(complex_gamma(-1j * v1) / complex_gamma(1j * v1)) ** (-1)
                  * abs(B1 ** (-2j * v1)))
        assert abs(abs(N[0] / L[0]) - oracle) < 1e-9 * oracle

    def test_h_uses_conjugated_data(self, machinery):
        # pure step has real v, so H_s/L_s collapses to r1(lam_s)/conj(r2(lam_s))
        data, geom, delta, exps, c0 = machinery
        H, L, N = coefficients_HLN(data, geom, exps, c0)
        for k, lam in enumerate(geom.lambdas):
            oracle = data.r1(lam) / np.conj(data.r2(lam))
            assert abs(H[k] / L[k] - oracle) < 1e-12, k + 1

    def test_pinned_pure_step_values(self, machinery):
        # the nine coefficients at mu = 0.5, recorded from the power factors
        # read off delta's product form
        data, geom, delta, exps, c0 = machinery
        got = coefficients_HLN(data, geom, exps, c0)
        want = (
            (0.13941611442944632 + 0.13587732853216897j,
             0.1778161858348699 - 0.00861157143709572j,
             -0.10368235152730564 - 0.0793429967609697j),
            (-0.24500604964729442 - 0.23878708452416122j,
             -2.79870327980239 + 0.13554015407592934j,
             0.1558679522949331 + 0.11927806663238044j),
            (-0.12706760292379773 - 0.0747895486337551j,
             -0.5671943605684595 - 2.561923219332607j,
             0.05225961949486859 + 0.039838158885222165j),
        )
        for g, w in zip(np.ravel(got), np.ravel(want)):
            assert abs(g - w) < 1e-13 * abs(w)


# error_order on every Im v sign pattern in {-0.2, 0, 0.2}^3 plus unequal
# magnitudes, recorded from the earlier if-chain implementation:
# (Im v, R1 (exponent, log_factor, covered, rule), R2 likewise)
ERROR_ORDER_PINNED = (
    ((-0.2, -0.2, -0.2), (-0.6, False, True, 'saddle-2 excess'), (-0.6, False, True, 'saddles 1,3 excess')),
    ((-0.2, -0.2, 0.0), (-0.6, False, True, 'saddle-2 excess'), (-0.6, False, True, 'saddle-1 excess')),
    ((-0.2, -0.2, 0.2), (-0.6, False, True, 'saddles 2,3 excess'), (-0.6, False, True, 'saddle-1 excess')),
    ((-0.2, 0.0, -0.2), (-0.6, False, False, 'table gap'), (-0.6, False, True, 'saddles 1,3 excess')),
    ((-0.2, 0.0, 0.0), (-0.6, False, False, 'table gap'), (-0.6, False, True, 'saddle-1 excess')),
    ((-0.2, 0.0, 0.2), (-0.6, False, True, 'saddle-3 excess'), (-0.6, False, True, 'saddle-1 excess')),
    ((-0.2, 0.2, -0.2), (-1.0, False, True, 'alternating-good'), (-0.6, False, True, 'alternating-good')),
    ((-0.2, 0.2, 0.0), (-0.6, False, False, 'table gap'), (-0.6, False, True, 'saddles 1,2 excess')),
    ((-0.2, 0.2, 0.2), (-0.6, False, True, 'saddle-3 excess'), (-0.6, False, True, 'saddles 1,2 excess')),
    ((0.0, -0.2, -0.2), (-0.6, False, True, 'saddle-2 excess'), (-0.6, False, True, 'saddle-3 excess')),
    ((0.0, -0.2, 0.0), (-1.0, True, True, 'vanishing Im v'), (-0.6, False, False, 'table gap')),
    ((0.0, -0.2, 0.2), (-1.0, True, True, 'vanishing Im v'), (-0.6, False, False, 'table gap')),
    ((0.0, 0.0, -0.2), (-0.6, False, False, 'table gap'), (-0.6, False, True, 'saddle-3 excess')),
    ((0.0, 0.0, 0.0), (-1.0, True, True, 'vanishing Im v'), (-1.0, True, True, 'vanishing Im v')),
    ((0.0, 0.0, 0.2), (-1.0, True, True, 'vanishing Im v'), (-0.6, False, False, 'table gap')),
    ((0.0, 0.2, -0.2), (-0.6, False, False, 'table gap'), (-0.6, False, True, 'saddles 2,3 excess')),
    ((0.0, 0.2, 0.0), (-0.6, False, False, 'table gap'), (-0.6, False, True, 'saddle-2 excess')),
    ((0.0, 0.2, 0.2), (-0.6, False, True, 'saddle-3 excess'), (-0.6, False, True, 'saddle-2 excess')),
    ((0.2, -0.2, -0.2), (-0.6, False, True, 'saddles 1,2 excess'), (-0.6, False, True, 'saddle-3 excess')),
    ((0.2, -0.2, 0.0), (-1.0, True, True, 'vanishing Im v'), (-0.6, False, False, 'table gap')),
    ((0.2, -0.2, 0.2), (-0.6, False, True, 'alternating-bad'), (-1.0, False, True, 'alternating-bad')),
    ((0.2, 0.0, -0.2), (-0.6, False, True, 'saddle-1 excess'), (-0.6, False, True, 'saddle-3 excess')),
    ((0.2, 0.0, 0.0), (-1.0, True, True, 'vanishing Im v'), (-0.6, False, False, 'table gap')),
    ((0.2, 0.0, 0.2), (-1.0, True, True, 'vanishing Im v'), (-0.6, False, False, 'table gap')),
    ((0.2, 0.2, -0.2), (-0.6, False, True, 'saddle-1 excess'), (-0.6, False, True, 'saddles 2,3 excess')),
    ((0.2, 0.2, 0.0), (-0.6, False, True, 'saddle-1 excess'), (-0.6, False, True, 'saddle-2 excess')),
    ((0.2, 0.2, 0.2), (-0.6, False, True, 'saddles 1,3 excess'), (-0.6, False, True, 'saddle-2 excess')),
    ((-0.1, 0.3, -0.25), (-1.0, False, True, 'alternating-good'), (-0.4, False, True, 'alternating-good')),
    ((0.3, -0.1, 0.05), (-0.4, False, True, 'alternating-bad'), (-1.0, False, True, 'alternating-bad')),
    ((0.1, 0.0, -0.4), (-0.8, False, True, 'saddle-1 excess'), (-0.19999999999999996, False, True, 'saddle-3 excess')),
    ((-0.35, -0.05, 0.15), (-0.7, False, True, 'saddles 2,3 excess'), (-0.30000000000000004, False, True, 'saddle-1 excess')),
    ((0.45, 0.2, 0.1), (-0.09999999999999998, False, True, 'saddles 1,3 excess'), (-0.6, False, True, 'saddle-2 excess')),
    ((-0.1, -0.3, -0.2), (-0.4, False, True, 'saddle-2 excess'), (-0.6, False, True, 'saddles 1,3 excess')),
)


class TestErrorOrder:
    @pytest.mark.parametrize("im_v, want1, want2", ERROR_ORDER_PINNED,
                             ids=[str(c[0]) for c in ERROR_ORDER_PINNED])
    def test_pinned_table(self, im_v, want1, want2):
        got = error_order(*(1j * x for x in im_v))
        for g, w in zip(got, (want1, want2)):
            assert (g.exponent, g.log_factor, g.covered, g.rule) == w

    def test_all_zero_is_log_row(self):
        r1, r2 = error_order(0.0, 0.0, 0.0)
        assert r1.exponent == -1.0 and r1.log_factor
        assert r2.exponent == -1.0 and r2.log_factor

    def test_alternating_good(self):
        r1, r2 = error_order(-0.1j, 0.2j, -0.05j)
        assert r1.exponent == -1.0 and not r1.log_factor
        assert r2.exponent == pytest.approx(-1.0 + 0.4)

    def test_alternating_bad(self):
        r1, r2 = error_order(0.1j, -0.2j, 0.05j)
        assert r1.exponent == pytest.approx(-1.0 + 0.4)
        assert r2.exponent == -1.0 and not r2.log_factor

    def test_single_saddle_rows(self):
        r1, _ = error_order(0.1j, 0.05j, -0.02j)
        assert r1.exponent == pytest.approx(-1.0 + 0.2)
        _, r2 = error_order(-0.1j, 0.2j, 0.3j)
        assert r2.exponent == pytest.approx(-1.0 + 0.4)

    def test_acceptance_pattern(self):
        r1, r2 = error_order(0.1j, -0.05j, 0.08j)
        assert r1.exponent == pytest.approx(-0.8)
        assert r2.exponent == -1.0
        assert r1.covered and r2.covered

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            error_order(0.6j, 0.0, 0.0)

    def test_table_gap_reported(self):
        # (0, +, 0) escapes every printed row of the first table: the
        # descriptor flags it and falls back to the conservative bound
        r1, _ = error_order(0.0, 0.1j, 0.0)
        assert not r1.covered
        assert r1.exponent == pytest.approx(-1.0 + 0.2)
        assert "table gap" in str(r1)


class TestQRough:
    def test_negative_side_zero(self, machinery):
        data = machinery[0]
        assert q_rough(-2.0, 4.0, data) == 0

    def test_positive_side_background(self, machinery):
        data, geom, delta, _, _ = machinery
        val = q_rough(geom.mu * 6.0, 6.0, data, delta)
        assert abs(val - A * delta.at_zero() ** 2) == 0.0

    def test_trivial_delta_gives_A(self):
        data = ScatteringData.reflectionless(A, GAMMA)
        assert abs(q_rough(0.5 * 7.0, 7.0, data) - A) < 1e-10


class TestQSoliton:
    def test_limits(self):
        assert abs(q_soliton(400.0, 0.3, 2.0, 0.4, 0.1) - 2.0) < 1e-12
        assert abs(q_soliton(-400.0, 0.3, 2.0, 0.4, 0.1)) < 1e-12

    def test_point_value(self):
        # A=2, alpha=pi, t=0, x=0: q = 2/(1 - e^{i pi}) = 1
        assert abs(q_soliton(0.0, 0.0, 2.0, np.pi, 1.0) - 1.0) < 1e-14

    def test_pole_raises(self):
        with pytest.raises(ZeroDivisionError):
            q_soliton(0.0, 0.0, 2.0, 0.0, 1.0)


class TestQAsymptotic:
    def test_pure_step_structure(self, machinery):
        data, geom, delta, exps, c0 = machinery
        t = 25.0
        res = q_asymptotic(geom.mu * t, t, data)
        assert res.branch is Branch.X_POS_I2
        assert abs(res.background - A * delta.at_zero() ** 2) < 1e-12
        # Im v = 0: every term decays like t^(-1/2)
        assert all(tm.exponent.real == pytest.approx(-0.5) for tm in res.leading_terms)
        # both N- and L-terms at each saddle
        assert len(res.leading_terms) == 6

    def test_background_identical_with_rough(self, machinery):
        data, geom, _, _, _ = machinery
        t = 12.0
        res = q_asymptotic(geom.mu * t, t, data)
        assert res.background == q_rough(geom.mu * t, t, data)

    def test_negative_side(self, machinery):
        data, geom, _, _, _ = machinery
        t = 30.0
        res = q_asymptotic(-geom.mu * t, t, data)
        assert res.branch is Branch.X_NEG
        assert res.background == 0
        assert len(res.leading_terms) == 3
        val = res.value(-geom.mu * t, t)
        assert abs(val) < 1.0   # decaying side stays small

    def test_t_power_scaling(self, machinery):
        # quadrupling t scales each pure-step term by 4^{-1/2}
        data, geom, _, _, _ = machinery
        res = q_asymptotic(geom.mu * 100.0, 100.0, data)
        term = res.leading_terms[0]
        assert abs(term.at(400.0) / term.at(100.0)) == pytest.approx(0.5, rel=1e-12)

    def test_branch_selection_synthetic(self):
        cases = [((-0.3j, -0.25j, -0.4j), Branch.X_POS_I1, 3),
                 ((0.05j, -0.03j, 0.08j), Branch.X_POS_I2, 6),
                 ((0.3j, 0.25j, 0.4j), Branch.X_POS_I3, 3),
                 ((-0.3j, 0.05j, 0.3j), Branch.X_POS_MIXED, 4)]
        for targets, branch, n_terms in cases:
            data = synthetic_from_v_targets(A, GAMMA, 0.5, targets)
            res = q_asymptotic(0.5 * 50.0, 50.0, data)
            assert res.branch is branch, targets
            assert len(res.leading_terms) == n_terms, targets

    def test_boundary_recovery(self):
        # r1 r2 -> 0 drives delta(0) -> 1 and the background to A
        scale = 1e-6
        data = SyntheticReflectionData(
            A=A, gamma=GAMMA,
            r1=lambda z: scale * np.exp(-np.real(z) ** 2),
            r2=lambda z: 0.5 + 0j, xi1=A / 2)
        res = q_asymptotic(0.5 * 40.0, 40.0, data)
        assert abs(res.background - A) < 1e-5

    def test_ray_guard(self, machinery):
        data = machinery[0]
        with pytest.raises(RegimeError):
            q_asymptotic(0.0, 5.0, data)
        mu_max = np.sqrt(1.0 / (27 * GAMMA))
        with pytest.raises(RegimeError):
            q_asymptotic(1.2 * mu_max * 5.0, 5.0, data)

    def test_decay_slope_quick(self):
        # coarse version of the acceptance power-law check
        data = synthetic_from_v_targets(A, GAMMA, 0.5, (0.1j, -0.05j, 0.08j),
                                        r2=(0.1, 3.0, 1.2, 0.6))
        res = q_asymptotic(0.5 * 100.0, 100.0, data)
        ts = np.logspace(2, 6, 25)
        vals = np.array([abs(res.value(0.5 * t, t) - res.background) for t in ts])
        slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
        dominant = max(tm.exponent.real for tm in res.leading_terms)
        assert abs(slope - dominant) < 0.05


class TestFormerIntegrationFailures:
    """Rays on which the QUADPACK chi route raised IntegrationError."""

    @staticmethod
    def _golden_step_ray(k: int) -> tuple[float, int]:
        # pure-step ray k of the benchmark's golden-ratio mu sequence over
        # (0.1, 0.9) mu_max; rays alternate four on x > 0, four on x < 0
        mu_max = np.sqrt(1.0 / (27.0 * GAMMA))
        u = (k * (5 ** 0.5 - 1) / 2) % 1.0
        return mu_max * (0.1 + (0.9 - 0.1) * u), 1 if k % 8 < 4 else -1

    @pytest.mark.parametrize("A_step, ray", [
        (1.8889706235148884, (0.22594616255258781, 1)),
        (2.0, 101), (2.0, 119), (2.0, 369), (2.0, 399)])
    def test_finite_q(self, A_step, ray):
        mu, sign = ray if isinstance(ray, tuple) else self._golden_step_ray(ray)
        data = ScatteringData.pure_step(A_step, GAMMA)
        locate_xi1(data)
        res = q_asymptotic(sign * mu * 100.0, 100.0, data)
        values = [res.value(sign * mu * t, t) for t in (100.0, 1e3, 1e4)]
        assert all(np.isfinite(v) for v in values)


class TestSmallMu:
    """Pure-step rays near mu = 0, where lam2 ~ mu/2 lies next to rho's log
    singularity at the origin; the x < 0 rays take the mirrored contour."""

    @pytest.mark.parametrize("mu", (0.003, 0.01, 0.02))
    def test_finite_q(self, mu):
        data = ScatteringData.pure_step(2.0, GAMMA)
        locate_xi1(data)
        for sign in (1, -1):
            res = q_asymptotic(sign * mu * 100.0, 100.0, data)
            values = [res.value(sign * mu * t, t) for t in (100.0, 1e3, 1e4)]
            assert all(np.isfinite(v) for v in values)
