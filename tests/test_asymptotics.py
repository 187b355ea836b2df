"""Leading-order formulas, error-order tables and the soliton."""

import dataclasses

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
from steplpd.scattering import (
    CaseTag,
    InitialProfile,
    ScatteringData,
    SyntheticReflectionData,
    classify_case,
    locate_xi1,
    soliton_profile,
    synthetic_from_v_targets,
)

GAMMA = 1.0 / 27.0
A = 2.0


@pytest.fixture(scope="module")
def machinery():
    data = ScatteringData.pure_step(A, GAMMA)
    locate_xi1(data)
    geom = stationary_points(0.5, GAMMA)
    return data, geom, saddle_exponents(build_delta(data, geom))


class TestCoefficients:
    def test_zero_v_collapses(self):
        data = ScatteringData.reflectionless(A, GAMMA)
        geom = stationary_points(0.5, GAMMA)
        H, L, N = coefficients_HLN(data, saddle_exponents(build_delta(data, geom)))
        assert all(abs(c) < 1e-12 for c in H + L + N)

    def test_nonzero_for_step(self, machinery):
        data, _, exps = machinery
        H, L, N = coefficients_HLN(data, exps)
        assert all(abs(c) > 1e-6 for c in H + L + N)

    def test_n_over_l_modulus_structure(self, machinery):
        # |N1/L1| = |c0|^2/lam1^2 * |r1/r2| * |Gamma(-iv)/Gamma(iv)| / |F1|^2,
        # F1 = P1^2 the power factor at t = 1, rebuilt from delta's local
        # constant: ln P1 = ln K1 - chi1(lam1) - i v1 ln sqrt(4 c1), with
        # sqrt(4 c1) read off the scaling map.  On the pure step v is real
        # and |F1| = 1; the synthetic set has complex v, so |F1| != 1 there.
        from steplpd.kernels import complex_gamma
        from steplpd.pcmodel import scaling_map

        synthetic = synthetic_from_v_targets(A, GAMMA, 0.5, (0.05j, -0.03j, 0.08j))
        geom = machinery[1]
        scale = 1.0 / (scaling_map(1, geom, 1.0, 1.0) - geom.lam1)
        sets = [(machinery[0], machinery[2]),
                (synthetic, saddle_exponents(build_delta(synthetic, geom)))]
        for data, exps in sets:
            c0 = exps.delta.c0
            H, L, N = coefficients_HLN(data, exps)
            v1, lam1 = exps.v[0], geom.lam1
            log_p = exps.log_local_constant(1) - exps.chi0(1) - 1j * v1 * np.log(scale)
            oracle = (abs(c0) ** 2 / lam1**2
                      * abs(data.r1(lam1) / data.r2(lam1))
                      * abs(complex_gamma(-1j * v1) / complex_gamma(1j * v1))
                      * abs(np.exp(-4.0 * log_p)))
            assert abs(abs(N[0] / L[0]) - oracle) < 1e-9 * oracle
        assert abs(abs(np.exp(-4.0 * log_p)) - 1.0) > 1e-3   # synthetic: a live factor

    def test_h_uses_conjugated_data(self, machinery):
        # pure step has real v, so H_s/L_s collapses to r1(lam_s)/conj(r2(lam_s))
        data, geom, exps = machinery
        H, L, N = coefficients_HLN(data, exps)
        for k, lam in enumerate(geom.lambdas):
            oracle = data.r1(lam) / np.conj(data.r2(lam))
            assert abs(H[k] / L[k] - oracle) < 1e-12, k + 1

    def test_pinned_pure_step_values(self, machinery):
        # the nine coefficients at mu = 0.5, recorded from the power factors
        # read off delta's product form
        data, _, exps = machinery
        got = coefficients_HLN(data, exps)
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


@pytest.fixture(scope="module")
def read_kinds():
    """Data of every kind coefficients_HLN reads, with a ray's saddle exponents."""
    geom = stationary_points(0.5, GAMMA)
    bump = ScatteringData.from_profile(
        InitialProfile.gaussian_bump(1.0, GAMMA, 0.1, 0.2, 0.3), analyze=False)
    kinds = {"step": ScatteringData.pure_step(A, GAMMA),
             "synthetic": synthetic_from_v_targets(A, GAMMA, 0.5, (0.1j, -0.05j, 0.2j)),
             "synthetic-gaussian": synthetic_from_v_targets(
                 A, GAMMA, 0.5, (0.1j, -0.05j, 0.08j), r2=(0.1, 3.0, 1.2, 0.6)),
             "bump": bump,
             # TestQAsymptotic::test_boundary_recovery's stand-in: r2 is one constant
             "stand-in": SyntheticReflectionData(
                 A=A, gamma=GAMMA, r1=lambda z: 1e-6 * np.exp(-np.real(z) ** 2),
                 r2=lambda z: 0.5 + 0j, xi1=A / 2)}
    return {name: (data, saddle_exponents(build_delta(data, geom)))
            for name, data in kinds.items()}


class TestSaddleReads:
    """coefficients_HLN reads r1 and r2 at the three saddles as one array
    each: the same bits as one scalar read per saddle, and 2 requests."""

    @pytest.mark.parametrize("name", ["step", "synthetic", "synthetic-gaussian", "bump",
                                      "stand-in"])
    def test_array_reads_match_scalar_reads(self, read_kinds, name):
        data, exps = read_kinds[name]
        lams = exps.geometry.lambdas
        for read in (data.r1, data.r2):
            array = np.broadcast_to(read(np.array(lams)), 3)
            scalar = np.array([read(lam) for lam in lams])
            assert array.tobytes() == scalar.tobytes()

        # and the nine coefficients equal those from one scalar read per saddle
        def each(read):
            return lambda xi: np.array([read(x) for x in np.ravel(xi)])

        per_saddle = SyntheticReflectionData(A=data.A, gamma=data.gamma,
                                             r1=each(data.r1), r2=each(data.r2))
        got, want = coefficients_HLN(data, exps), coefficients_HLN(per_saddle, exps)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_two_requests_pure_step(self, machinery):
        data, _, exps = machinery
        shapes = []

        def S(xi):
            shapes.append(xi.shape)
            return data.S(xi)

        coefficients_HLN(dataclasses.replace(data, S=S), exps)
        assert shapes == [(3,), (3,)]

    def test_two_requests_synthetic(self, read_kinds):
        data, exps = read_kinds["synthetic-gaussian"]
        shapes = []

        def counted(read):
            def counting(xi):
                shapes.append(np.shape(xi))
                return read(xi)
            return counting

        coefficients_HLN(dataclasses.replace(data, r1=counted(data.r1), r2=counted(data.r2)),
                         exps)
        assert shapes == [(3,), (3,)]


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
        data, geom, exps = machinery
        val = q_rough(geom.mu * 6.0, 6.0, data)
        assert abs(val - A * exps.delta.at_zero() ** 2) == 0.0

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
        data, geom, exps = machinery
        t = 25.0
        res = q_asymptotic(geom.mu * t, t, data)
        assert res.branch is Branch.X_POS_I2
        assert abs(res.background - A * exps.delta.at_zero() ** 2) < 1e-12
        # Im v = 0: every term decays like t^(-1/2)
        assert all(tm.exponent.real == pytest.approx(-0.5) for tm in res.leading_terms)
        # both N- and L-terms at each saddle
        assert len(res.leading_terms) == 6

    def test_background_identical_with_rough(self, machinery):
        data, geom, _ = machinery
        t = 12.0
        res = q_asymptotic(geom.mu * t, t, data)
        assert res.background == q_rough(geom.mu * t, t, data)

    def test_negative_side(self, machinery):
        data, geom, _ = machinery
        t = 30.0
        res = q_asymptotic(-geom.mu * t, t, data)
        assert res.branch is Branch.X_NEG
        assert res.background == 0
        assert len(res.leading_terms) == 3
        val = res.value(-geom.mu * t, t)
        assert abs(val) < 1.0   # decaying side stays small

    def test_value_bound_to_its_ray(self, machinery):
        # a result evaluates on its own half-line and ray only, at t > 0
        data, geom, _ = machinery
        mu = geom.mu
        for sign in (+1, -1):
            res = q_asymptotic(sign * mu * 10.0, 10.0, data)
            assert res.value(sign * mu * 40.0, 40.0) == (
                res.background + sum(tm.at(40.0) for tm in res.leading_terms))
            for x, t in ((-sign * mu * 40.0, 40.0), (0.0, 40.0),
                         (sign * mu * 40.0, -40.0), (sign * 1.01 * mu * 40.0, 40.0)):
                with pytest.raises(ValueError):
                    res.value(x, t)

    def test_t_power_scaling(self, machinery):
        # quadrupling t scales each pure-step term by 4^{-1/2}
        data, geom, _ = machinery
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


class TestCaseTwoProfile:
    def test_soliton_profile_tends_to_the_step(self):
        # case 2 end to end on a perturbed profile: the one-soliton's own
        # q0 has b ~ 0, so delta ~ 1 and q -> A on x > 0, q -> 0 on x < 0
        data = ScatteringData.from_profile(soliton_profile(A, GAMMA, np.pi / 3),
                                           analyze=False)
        assert classify_case(data) is CaseTag.CASE2
        locate_xi1(data)
        cache = {}
        right = q_asymptotic(30.0, 100.0, data, cache).value(30.0, 100.0)
        left = q_asymptotic(-30.0, 100.0, data, cache).value(-30.0, 100.0)
        assert abs(right - A) < 1e-10
        assert abs(left) < 1e-10


class TestMixedBranchProfile:
    def test_large_bump_reaches_the_mixed_branch(self):
        # a real profile past the small-bump regime: saddles 2 and 3 fall in
        # different Im v intervals, so x > 0 takes the mixed branch, and
        # both error tables still cover the sign pattern
        profile = InitialProfile.gaussian_bump(0.5, GAMMA, 2.0, 0.3, 0.5)
        data = ScatteringData.from_profile(profile)
        cache = {}
        for mu, branch in ((0.5, Branch.X_POS_MIXED), (-0.5, Branch.X_NEG)):
            res = q_asymptotic(mu * 100.0, 100.0, data, cache)
            assert res.branch is branch
            assert [v.imag for v in res.v] == pytest.approx([-0.119, -0.245, 0.078], abs=1e-3)
            assert all(order.covered for order in res.error_order)
            assert all(np.isfinite(res.value(mu * t, t)) for t in (1e2, 1e4))


class TestSmallAmplitude:
    def test_bump_tends_to_the_step_linearly(self):
        # the Baseline bump (A = 1, centre 0.2, width 0.3) at shrinking
        # amplitude: xi1 - A/2, v and q(30, 100) on mu = 0.3 each differ
        # from the pure step's in proportion to the amplitude
        def ray(data):
            classify_case(data)
            xi1 = locate_xi1(data)
            res = q_asymptotic(30.0, 100.0, data)
            return xi1, np.array(res.v), res.value(30.0, 100.0)

        _, v_step, q_step = ray(ScatteringData.pure_step(1.0, GAMMA))
        diffs = []
        for amplitude in (1e-2, 1e-3, 1e-4):
            profile = InitialProfile.gaussian_bump(1.0, GAMMA, amplitude, 0.2, 0.3)
            xi1, v, q = ray(ScatteringData.from_profile(profile, analyze=False))
            diffs.append([abs(xi1 - 0.5), np.abs(v - v_step).max(), abs(q - q_step)])
        ratios = np.array(diffs[:-1]) / np.array(diffs[1:])
        assert np.all((9.0 <= ratios) & (ratios <= 11.0)), ratios


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
