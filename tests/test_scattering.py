"""Jost solutions, scattering matrix, trace-formula xi1 and the f-system."""

import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.optimize import brentq

from steplpd import scattering
from steplpd.asymptotics import Branch, q_asymptotic
from steplpd.kernels import ContourInterval, IntegrationError, interval_rule, ode, ode_integrate
from steplpd.kernels.quadrature import _NODES, NODE_LEVELS
from steplpd.phase import stationary_points
from steplpd.rhfactors import build_delta
from steplpd.scattering import (
    CaseTag,
    DegeneracyError,
    InconsistentDataError,
    InitialProfile,
    ScatteringData,
    SingularNormalizationError,
    auxiliary_f,
    classify_case,
    jost_at_origin,
    locate_xi1,
    scattering_matrix,
    soliton_profile,
    synthetic_from_v_targets,
)

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]])
GAMMA = 1.0 / 27.0


def pure_step_S(A: float, xi: float) -> np.ndarray:
    return np.array([[1 + A * A / (4 * xi * xi), -A / (2j * xi)],
                     [A / (2j * xi), 1.0]], dtype=complex)


def diagonal_S(a1, a2):
    """S with b = 0 and the given a1, a2, each a function of the xi array."""
    def S(xi):
        out = np.zeros(np.shape(xi) + (2, 2), dtype=complex)
        out[..., 0, 0], out[..., 1, 1] = a1(xi), a2(xi)
        return out

    return S


@pytest.fixture(scope="module")
def bump_profile():
    return InitialProfile.gaussian_bump(2.0, GAMMA, 0.3 + 0.2j, 0.4, 0.5)


# ---------------------------------------------------------------------------
# DOP853 reference for the Magnus sweep
# ---------------------------------------------------------------------------

def _wronskian(u, v):
    return u[0] * v[1] - u[1] * v[0]


def normalization_matrices(A, xi):
    """L-(xi), L+(xi): [[1, 0], [r, 1]] and [[1, r], [0, 1]], r = A/(2i xi)."""
    r = A / (2j * xi)
    return np.array([[[1, 0], [r, 1]], [[1, r], [0, 1]]])


def dop853_column(profile, xi, col, x_from, sign):
    """One Jost column carried from x_from to 0 by DOP853.

    It integrates y = phi_col exp(sign i xi x), whose seed is the column of
    L-+ itself, and restarts at every kink of Q (0, the mirrored table
    nodes), where the adaptive integrator would otherwise lose accuracy.
    """
    xi = complex(xi)
    shift = 1j * xi * sign

    def rhs(x, y):
        q, p = profile.q0(x), -np.conj(profile.q0(-x))
        return np.array([(shift - 1j * xi) * y[0] + q * y[1],
                         p * y[0] + (shift + 1j * xi) * y[1]])

    inner = [abs(k) for k in profile.kinks if 0 < abs(k) < profile.support]
    stops = np.sign(x_from) * np.array(sorted({abs(x_from), 0.0, *inner}, reverse=True))
    y = np.asarray(col, dtype=complex)
    for a, b in zip(stops[:-1], stops[1:]):
        y = ode_integrate(rhs, y, (a, b))
    return y


def dop853_jost(profile, xi):
    L_minus, L_plus = normalization_matrices(profile.A, complex(xi))
    ell = profile.support
    phi_minus = np.column_stack([dop853_column(profile, xi, L_minus[:, 0], -ell, +1),
                                 dop853_column(profile, xi, L_minus[:, 1], -ell, -1)])
    phi_plus = np.column_stack([dop853_column(profile, xi, L_plus[:, 0], ell, +1),
                                dop853_column(profile, xi, L_plus[:, 1], ell, -1)])
    return phi_minus, phi_plus


def dop853_S(profile, xi):
    phi_minus, phi_plus = dop853_jost(profile, xi)
    return np.linalg.solve(phi_plus, phi_minus)


def dop853_b(profile, xi):
    """b = S_12 = W(phi_- 2, phi_+ 2): two columns instead of four."""
    L_minus, L_plus = normalization_matrices(profile.A, complex(xi))
    ell = profile.support
    return _wronskian(dop853_column(profile, xi, L_minus[:, 1], -ell, -1),
                      dop853_column(profile, xi, L_plus[:, 1], ell, -1))


def rel_err(got, want):
    """Entrywise error, relative where |want| exceeds 1."""
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def oracle_profiles():
    return {"bump-1": InitialProfile.gaussian_bump(2.0, GAMMA, 0.3 + 0.2j, 0.4, 0.5),
            "bump-2": InitialProfile.gaussian_bump(1.0, GAMMA, 0.1, 0.2, 0.3),
            "bump-3": InitialProfile.gaussian_bump(1.5, GAMMA, -0.25 + 0.1j, -0.35, 0.45),
            "soliton": soliton_profile(2.0, GAMMA, np.pi / 3),
            "table": InitialProfile.from_table(1.2, GAMMA, [-1.0, -0.3, 0.2, 0.7],
                                               [0.0, 0.3 + 0.1j, -0.2j, 0.0])}


# the baseline bump of the ROADMAP (A = 1, amplitude 0.1, center 0.2,
# width 0.3) and its xi1 as the DOP853 Jost path computed it
BASELINE_BUMP = dict(A=1.0, gamma=GAMMA, amplitude=0.1, center=0.2, width=0.3)
BASELINE_XI1 = 0.5218505723827234


class TestJost:
    def test_zero_potential_identity(self):
        # A -> 0 limit is not representable (A > 0); emulate with a tiny step
        prof = InitialProfile.pure_step(1e-12, GAMMA)
        pm, pp = jost_at_origin(prof, 0.7)
        assert np.abs(pm - np.eye(2)).max() < 1e-11
        assert np.abs(pp - np.eye(2)).max() < 1e-11

    def test_pure_step_exact_normalization(self):
        prof = InitialProfile.pure_step(2.0, GAMMA)
        pm, _ = jost_at_origin(prof, 1.3)
        L_minus = np.array([[1, 0], [2.0 / (2j * 1.3), 1]])
        assert np.abs(pm - L_minus).max() < 1e-14

    def test_determinants(self, bump_profile):
        rng = np.random.default_rng(7)
        for _ in range(6):
            xi = float(rng.uniform(0.2, 3.0)) * (1 if rng.random() < 0.5 else -1)
            pm, pp = jost_at_origin(bump_profile, xi)
            assert abs(np.linalg.det(pm) - 1) < 1e-10
            assert abs(np.linalg.det(pp) - 1) < 1e-10

    def test_xi_zero_rejected(self):
        with pytest.raises(SingularNormalizationError):
            scattering_matrix(InitialProfile.pure_step(1.0, GAMMA), 0.0)


class TestScatteringMatrix:
    def test_pure_step_closed_form(self):
        for A in (0.5, 1.0, 2.0):
            prof = InitialProfile.pure_step(A, GAMMA)
            for xi in (0.25, -0.5, 1.0, 2.0, -5.0):
                S = scattering_matrix(prof, xi)
                assert np.abs(S - pure_step_S(A, xi)).max() < 1e-12

    def test_pure_step_through_ode(self):
        # same potential, but with a declared (zero) perturbation support the
        # seeds sit away from the origin and the integrator must work
        prof = InitialProfile(A=2.0, gamma=GAMMA, support=0.6)
        for xi in (0.5, 1.0, -2.0):
            S = scattering_matrix(prof, xi)
            assert np.abs(S - pure_step_S(2.0, xi)).max() < 1e-9

    def test_symmetry_relation(self, bump_profile):
        rng = np.random.default_rng(3)
        for _ in range(5):
            xi = float(rng.uniform(0.2, 2.5))
            S = scattering_matrix(bump_profile, xi)
            Sm = scattering_matrix(bump_profile, -xi)
            lhs = SIGMA1 @ np.conj(np.linalg.inv(Sm)) @ SIGMA1
            assert np.abs(lhs - S).max() < 1e-9

    def test_entry_symmetries(self, bump_profile):
        # diagonal entries conjugate-mirror into themselves; the off-diagonal
        # relation crosses the entries (s21(xi) = -conj(s12(-xi)))
        for xi in (0.4, 1.1):
            S = scattering_matrix(bump_profile, xi)
            Sm = scattering_matrix(bump_profile, -xi)
            assert abs(S[0, 0] - np.conj(Sm[0, 0])) < 1e-9
            assert abs(S[1, 1] - np.conj(Sm[1, 1])) < 1e-9
            assert abs(S[1, 0] + np.conj(Sm[0, 1])) < 1e-9


class TestScatteringData:
    def test_pure_step_reflections(self):
        d = ScatteringData.pure_step(2.0, GAMMA)
        xi = 0.8
        r1, r2 = d.r1(xi), d.r2(xi)
        A = 2.0
        assert abs(1 + r1 * r2 - 4 * xi**2 / (4 * xi**2 + A**2)) < 1e-13
        assert abs(1 + r1 * r2 - 1.0 / (d.a1(xi) * d.a2(xi))) < 1e-13

    def test_reflection_symmetry(self):
        d = ScatteringData.pure_step(1.3, GAMMA)
        for xi in (0.3, 1.7):
            r1p, r2p = d.r1(xi), d.r2(xi)
            r1m, r2m = d.r1(-xi), d.r2(-xi)
            assert abs(r1p - np.conj(r1m)) < 1e-12
            assert abs(r2p - np.conj(r2m)) < 1e-12

    def test_reflectionless(self):
        d = ScatteringData.reflectionless(1.0, GAMMA, 0.4)
        assert d.b(0.9) == 0
        r1, r2 = d.r1(0.9), d.r2(0.9)
        assert r1 == 0 and r2 == 0

    def test_profile_data_matches_smatrix(self, bump_profile):
        d = ScatteringData.from_profile(bump_profile, analyze=False)
        S = scattering_matrix(bump_profile, 0.9)
        assert abs(d.a1(0.9) - S[0, 0]) < 1e-12
        assert abs(d.b(0.9) - S[0, 1]) < 1e-12
        assert abs(d.a2(0.9) - S[1, 1]) < 1e-12

    def test_a1_upper_half_plane_zero(self):
        prof = InitialProfile(A=2.0, gamma=GAMMA, support=0.3)
        d = ScatteringData.from_profile(prof, analyze=False)
        # closed form continues to 1 + A^2/(4 xi^2): zero at i A/2
        assert abs(d.a1(1j)) < 1e-9
        assert abs(d.a1(1.5j) - (1 - 4 / 9)) < 1e-9

    def test_asymptotics_large_xi(self):
        d = ScatteringData.pure_step(2.0, GAMMA)
        for xi in (1e2, 1e3, 1e4):
            assert abs(d.a1(xi) - 1) * xi < 2.0
            assert abs(d.b(xi)) * xi < 2.0

    def test_determinant_relation_data_level(self, bump_profile):
        # a1 a2 + b conj(b(-xi)) = 1 read off the data surface
        d = ScatteringData.from_profile(bump_profile, analyze=False)
        for xi in (0.45, -1.2, 2.2):
            lhs = d.a1(xi) * d.a2(xi) + d.b(xi) * d.b_mirror(xi)
            assert abs(lhs - 1.0) < 1e-10

    def test_meromorphic_continuation_symmetry(self, bump_profile):
        # r_j(xi) = conj(r_j(-conj(xi))) persists off the axis for the
        # compact-perturbation class (ODE-continued Wronskian data)
        d = ScatteringData.from_profile(bump_profile, analyze=False)
        z = 0.8 + 0.35j
        assert abs(d.a1(z) - np.conj(d.a1(-np.conj(z)))) < 1e-9
        zl = 0.8 - 0.35j
        assert abs(d.a2(zl) - np.conj(d.a2(-np.conj(zl)))) < 1e-9

    def test_small_xi_law(self, bump_profile):
        # xi^2 a1(xi) -> A^2 a2(0)/4 within 1% (case 1 data)
        d = ScatteringData.from_profile(bump_profile, analyze=False)
        a20 = d.a2(0.0)
        target = bump_profile.A**2 * a20 / 4.0
        xi = 5e-3
        assert abs(xi**2 * d.a1(xi) - target) < 0.01 * abs(target)


class TestCaseClassification:
    def test_pure_step_case1(self):
        d = ScatteringData.pure_step(2.0, GAMMA)
        assert classify_case(d) is CaseTag.CASE1

    def test_reflectionless_case2(self):
        d = ScatteringData.reflectionless(2.0, GAMMA, 0.0)
        assert classify_case(d) is CaseTag.CASE2
        # computed limits: a11 = -iA/2, a2'(0) = 2i/A (the printed pair is
        # swapped; both satisfy a11 * a2'(0) = 1 - |b(0)|^2 = 1)
        assert d.a11 == pytest.approx(-1j, abs=1e-6)
        assert d.a2dot0 == pytest.approx(1j, abs=1e-6)
        assert d.a11 * d.a2dot0 == pytest.approx(1.0, abs=1e-6)

    def test_soliton_profile_case2(self):
        # a2(0) = 0 on the exact soliton's profile: the pole of b at 0
        # cancels, and the data matches the reflectionless closed forms
        A = 2.0
        d = ScatteringData.from_profile(soliton_profile(A, GAMMA, np.pi / 3),
                                        analyze=False)
        assert classify_case(d) is CaseTag.CASE2
        assert abs(d.a2dot0 - 2j / A) < 1e-8
        assert abs(d.a11 + 0.5j * A) < 1e-8
        assert abs(d.b(0.0)) < 1e-8
        assert abs(locate_xi1(d) - A / 2) < 1e-8

    def test_case1_b_has_pole_at_zero(self, bump_profile):
        d = ScatteringData.from_profile(bump_profile, analyze=False)
        assert classify_case(d) is CaseTag.CASE1
        with pytest.raises(SingularNormalizationError):
            d.b(0.0)

    def test_threshold_logic(self):
        d = ScatteringData(A=1.0, gamma=GAMMA,
                           S=diagonal_S(lambda xi: 1.0 + 0j, lambda xi: 0.5 + 0j))
        assert classify_case(d) is CaseTag.CASE1

    def test_degenerate_rejected(self):
        d = ScatteringData(A=1.0, gamma=GAMMA,
                           S=diagonal_S(lambda xi: 1.0 + 0j, lambda xi: xi ** 2))
        with pytest.raises(DegeneracyError):
            classify_case(d)

    @pytest.mark.parametrize("b0, a2", [(0.0, lambda xi: xi / (xi + 1j)),
                                        (1.2, lambda xi: xi / (xi - 1j))])
    def test_case2_refusal(self, b0, a2):
        # a2(0) = 0 with a2'(0) = -i (the reflectionless data's a2'(0) = 2i/A
        # with its sign flipped), or with |b(0)| >= 1: no positive xi1
        diagonal = diagonal_S(lambda xi: 1.0 + 0 * xi, a2)

        def S(xi):
            out = diagonal(xi)
            out[..., 0, 1], out[..., 1, 0] = b0, -b0
            return out

        d = ScatteringData(A=2.0, gamma=GAMMA, S=S)
        with pytest.raises(DegeneracyError, match=rf"\|b\(0\)\| = {b0:g}, a2'\(0\) = "):
            classify_case(d)


class TestXi1:
    def test_pure_step_case1_formula(self):
        for A in (0.5, 1.0, 2.0):
            d = ScatteringData.pure_step(A, GAMMA)
            xi1 = locate_xi1(d)
            assert abs(xi1 - A / 2) < 1e-8
            assert abs(d.a1(1j * xi1)) < 1e-6

    def test_reflectionless_case2_exact(self):
        d = ScatteringData.reflectionless(1.4, GAMMA, 0.2)
        assert locate_xi1(d) == 1.4 / 2.0   # bitwise: I = 0 and 1/(2/1.4) = 0.7
        # tagged case 2 but without a2'(0): locate_xi1 classifies for it
        bare = ScatteringData(A=1.4, gamma=GAMMA, S=d.S, case_tag=CaseTag.CASE2)
        assert abs(locate_xi1(bare) - 0.7) < 1e-8

    @pytest.mark.parametrize("name, want", [("bump-1", 1.135668389424064),
                                            ("bump-3", 0.6591712245230903),
                                            ("baseline", 0.5218505723846655)])
    def test_perturbed_profiles(self, name, want):
        # want: xi1 of the adaptive principal-value quadrature that the node
        # sum replaced; a1 vanishes there far below the 1e-6 refusal
        prof = (InitialProfile.gaussian_bump(**BASELINE_BUMP) if name == "baseline"
                else oracle_profiles()[name])
        data = ScatteringData.from_profile(prof, analyze=False)
        xi1 = locate_xi1(data)
        assert abs(xi1 - want) < 1e-12
        assert abs(data.a1(1j * xi1)) < 1e-12

    def test_table_profile_refused(self):
        # the table's kinks leave the trace integral only algebraic
        # convergence in the nodes: a typed failure, not a wrong xi1
        data = ScatteringData.from_profile(oracle_profiles()["table"], analyze=False)
        with pytest.raises(IntegrationError, match="locate_xi1"):
            locate_xi1(data)

    def test_trace_xi1_off_the_zero_refused(self):
        # b = 0 gives I = 0 and xi1 = A/2, where this a1 = 1 does not vanish
        d = ScatteringData(A=1.0, gamma=GAMMA,
                           S=diagonal_S(lambda xi: 1.0 + 0j, lambda xi: 0.5 + 0j))
        with pytest.raises(InconsistentDataError, match="does not vanish"):
            locate_xi1(d)

    def test_two_zeros_refusal_names_what_it_measured(self):
        # amplitude 3, centred: Re a1(iy) changes sign near y = 0.03 and 1.8,
        # and the trace formula, which assumes one zero, lands in between
        data = ScatteringData.from_profile(InitialProfile.gaussian_bump(1.0, GAMMA, 3.0, 0.0, 0.3),
                                           analyze=False)
        with pytest.raises(InconsistentDataError) as refusal:
            locate_xi1(data)
        message = str(refusal.value)
        fields = re.search(r"xi1 = (\S+) \(trace integral I = (\S+)\): \|a1\(i\*xi1\)\| = (\S+)"
                           r" against a bound of (\S+);", message)
        xi1, I, residual, bound = map(float, fields.groups())
        assert "more than one zero on the positive imaginary axis" in message
        assert I == pytest.approx(-0.93266908, abs=1e-8)
        assert xi1 == pytest.approx(0.5 * math.exp(I), rel=1e-7)
        assert residual == pytest.approx(abs(data.a1(1j * xi1)), rel=1e-3)
        assert bound == pytest.approx(1e-6 * abs(data.a1(1j * xi1 * 1.001)), rel=1e-3)
        assert residual > 1e5 * bound
        re_a1 = [data.a1(1j * y).real for y in (0.02, 0.04, 1.7, 1.9)]
        assert re_a1[0] > 0 > re_a1[1] and re_a1[2] < 0 < re_a1[3]
        assert 0.04 < xi1 < 1.7


# ---------------------------------------------------------------------------
# case 2 with reflection
# ---------------------------------------------------------------------------

# beta of case2_profile that brings a2(0), which is real, to 0 (brentq),
# pinned to the last bit: rounded to 9 digits it leaves a2(0) = 1.5e-10,
# whose pole of b at 0 moves the trace integral by 7e-8 at its first node
CASE2_BETA = {0.05: 0.038258829359247966, 0.2: 0.14048991738416053,
              0.3: 0.200522137492318, 0.5: 0.30643564818854924}
CASE2_RAYS = (0.1, 0.3, 0.6, 0.9, -0.3, -0.8)
XI1_TOL, A11_TOL = 1e-8, 1e-6


def case2_profile(eps: float, beta: float) -> InitialProfile:
    """The one-soliton's q0 (A = 2, alpha = pi/3) plus
    eps exp(-((x - 0.4)/0.3)^2) + beta exp(-((x + 0.3)/0.25)^2)."""
    soliton = soliton_profile(2.0, GAMMA, np.pi / 3)

    def pert(x: float) -> complex:
        return (soliton.perturbation(x) + eps * np.exp(-((x - 0.4) / 0.3) ** 2)
                + beta * np.exp(-((x + 0.3) / 0.25) ** 2))

    return InitialProfile(A=2.0, gamma=GAMMA, perturbation=pert, support=soliton.support)


@pytest.fixture(scope="module", params=sorted(CASE2_BETA))
def case2_data(request):
    """from_profile's data of the tuned profile at each eps, xi1 located."""
    return ScatteringData.from_profile(case2_profile(request.param, CASE2_BETA[request.param]))


def a1_zero(data) -> float:
    """The zero of a1(iy), real on iR+, bracketed on [0.5, 2]."""
    return brentq(lambda y: data.a1(1j * y).real, 0.5, 2.0, xtol=1e-14)


def a11_mean(data) -> complex:
    """xi a1(xi) averaged over xi = +-1e-4, which cancels the O(xi) real
    part that each value carries alone."""
    xi = np.array([1e-4, -1e-4])
    return np.mean(xi * data.a1(xi))


class TestCase2WithReflection:
    def test_tuning_reproduces_the_pinned_beta(self):
        def a2_zero(beta):
            profile = case2_profile(0.05, beta)
            return ScatteringData.from_profile(profile, analyze=False).a2(0.0).real

        assert abs(brentq(a2_zero, 0.0, 0.5) - CASE2_BETA[0.05]) < 1e-9

    def test_classified_case2(self, case2_data):
        a20, a2dot0 = case2_data.a2(0.0), case2_data.a2dot0
        assert abs(a20) < 1e-12 and abs(a20.imag) < 1e-15
        assert abs(a2dot0.real) < 1e-10 * abs(a2dot0)
        assert case2_data.case_tag is CaseTag.CASE2
        assert abs(case2_data.b(0.0)) >= 0.03

    def test_xi1_and_a11(self, case2_data):
        assert abs(case2_data.xi1 - a1_zero(case2_data)) < XI1_TOL
        assert abs(case2_data.a11 - a11_mean(case2_data)) < A11_TOL

    def test_replaced_closed_forms_miss(self, case2_data):
        # the case-2 forms this module had, with Re b(0) in them
        A, b0, a2dot0 = case2_data.A, case2_data.b(0.0), case2_data.a2dot0
        rule = interval_rule(ContourInterval(0.0, np.inf), NODE_LEVELS[-1])
        I = rule.integrate(np.angle(case2_data.one_plus_r1r2(rule.z)) / rule.z).real / np.pi
        F1, F2 = np.exp(-I), np.sqrt(1.0 - abs(b0) ** 2)
        xi1 = A * (np.sqrt(b0.real ** 2 + F2 ** 2) - b0.real) / (2.0 * F1 * F2)
        a11 = -A ** 2 * a2dot0 / 4.0 + 1j * A * b0.real
        assert abs(xi1 - a1_zero(case2_data)) > 100 * XI1_TOL
        assert abs(a11 - a11_mean(case2_data)) > 100 * A11_TOL

    def test_rays(self, case2_data):
        for mu in CASE2_RAYS:
            result = q_asymptotic(mu * 1e2, 1e2, case2_data)
            assert result.branch is (Branch.X_NEG if mu < 0 else Branch.X_POS_I2)
            assert all(order.covered for order in result.error_order)
            assert all(np.isfinite(result.value(mu * t, t)) for t in (1e2, 1e4))


class TestAuxiliaryF:
    def test_below_support_seed(self):
        prof = InitialProfile.pure_step(2.0, GAMMA)
        f1, f2 = auxiliary_f(prof, -1.0)
        assert f1 == 0
        assert f2 == pytest.approx(2.0 / 2j)

    def test_soliton_closed_form(self):
        # independent oracle: decouple the system through e^{+-int q}, which
        # gives f1 = (A/2i)/(1 - e^{-Ax+i alpha}) for the b = 0 profile
        A, alpha = 2.0, np.pi
        prof = soliton_profile(A, 0.1, alpha)
        for x in (-0.8, 0.0, 0.7, 1.9):
            f1, _ = auxiliary_f(prof, x)
            oracle = (A / 2j) / (1.0 - np.exp(-A * x + 1j * alpha))
            assert abs(f1 - oracle) < 1e-8

    def test_a2_zero_relation(self):
        # a2(0) = (4/A^2)(|f2(0)|^2 - |f1(0)|^2): 1 for the pure step,
        # 0 for the reflectionless (case 2) profile
        prof = InitialProfile.pure_step(2.0, GAMMA)
        f1, f2 = auxiliary_f(prof, 0.0)
        assert (4 / 4) * (abs(f2) ** 2 - abs(f1) ** 2) == pytest.approx(1.0, abs=1e-10)

        sol = soliton_profile(1.5, GAMMA, np.pi / 2)
        f1, f2 = auxiliary_f(sol, 0.0)
        assert (4 / 1.5**2) * (abs(f2) ** 2 - abs(f1) ** 2) == pytest.approx(0.0, abs=1e-8)

    def test_bump_profile_relation(self, bump_profile):
        d = ScatteringData.from_profile(bump_profile, analyze=False)
        f1, f2 = auxiliary_f(bump_profile, 0.0)
        lhs = (4 / bump_profile.A**2) * (abs(f2) ** 2 - abs(f1) ** 2)
        assert abs(lhs - d.a2(0.0)) < 1e-9


def _doc(**keys) -> dict:
    return {"A": 1.0, "gamma": 0.037, **keys}


def _bump(**keys) -> dict:
    return {"kind": "gaussian-bump", "amplitude": 0.1, "center": 0.0, "width": 0.3, **keys}


def _table(**keys) -> dict:
    return {"kind": "table", "x": [-1.0, 0.0, 1.0], "values": [0.0, 0.3, 0.0], **keys}


# profile documents: a refused one by the key its ValueError names, an
# accepted one by its perturbation at x = 0
PROFILE_DOCS = [
    # the schema refused these, but from_dict alone read them
    ({"A": "2", "gamma": 1}, "A"),
    ({"A": True, "gamma": 1}, "A"),
    (_doc(perturbation={}), "kind"),
    (_doc(perturbation=_bump(amplitude="0.1")), "amplitude"),
    (_doc(perturbation=_bump(center="0.2")), "center"),
    (_doc(perturbation=_table(x=[-1.0, "0.0", 1.0])), "x"),
    (_doc(support=-1.0), "support"),
    # the schema's other rules
    ({"gamma": 1}, "A"),
    ({"A": 1}, "gamma"),
    (_doc(A=-2.0), "A"),
    (_doc(A=0), "A"),
    (_doc(gamma=0.0), "gamma"),
    (_doc(gamma=None), "gamma"),
    (_doc(perturbation=_bump(), support="2"), "support"),
    (_doc(perturbation=_bump(), support=-1.0), "support"),
    (_doc(perturbation={"kind": "sine"}), "kind"),
    (_doc(perturbation=_bump(width=0.0)), "width"),
    (_doc(perturbation=_bump(width=-0.3)), "width"),
    (_doc(perturbation=_bump(width=None)), "width"),
    (_doc(perturbation=_bump(amplitude=None)), "amplitude"),
    (_doc(perturbation=_table(x=1.0)), "x"),
    (_doc(perturbation=_table(values=None)), "values"),
    (_doc(perturbation="none"), "perturbation"),
    ([1.0, 0.037], "document"),
    # ranges the schema could not state
    (_doc(perturbation=_table(x=[1.0, 0.0, -1.0])), "x"),
    (_doc(perturbation=_table(x=[-1.0, 0.0])), "x"),
    # non-finite numbers, which Python's json reads
    (_doc(gamma=math.nan), "gamma"),
    (_doc(A=math.inf), "A"),
    (_doc(perturbation=_bump(), support=math.nan), "support"),
    (_doc(perturbation=_bump(amplitude=math.nan)), "amplitude"),
    (_doc(perturbation=_bump(amplitude=[0.1, math.inf])), "amplitude"),
    (_doc(perturbation=_bump(center=math.inf)), "center"),
    (_doc(perturbation=_bump(width=math.nan)), "width"),
    (_doc(perturbation=_table(x=[-math.inf, 0.0, 1.0])), "x"),
    (_doc(perturbation=_table(values=[0.0, math.nan, 0.0])), "values"),
    # keys that nothing reads
    (_doc(perturbation=_bump(widht=0.3)), "widht"),
    (_doc(support=1.0), "support"),
    (_doc(perturbation=_table(), support=1.0), "support"),
    (_doc(perturbation=_table(width=0.3)), "width"),
    (_doc(perturbation={"kind": "none", "amplitude": 0.1}), "amplitude"),
    (_doc(comment="step"), "comment"),
    # complex numbers that are neither a number nor an [re, im] pair
    (_doc(perturbation=_bump(amplitude=[0.1, 0.2, 0.3])), "amplitude"),
    (_doc(perturbation=_bump(amplitude=[0.1])), "amplitude"),
    (_doc(perturbation=_bump(amplitude=[0.1, "0.2"])), "amplitude"),
    (_doc(perturbation=_table(values=[0.0, [0.1, 0.2, 0.3], 0.0])), "values"),
    (_doc(perturbation=_table(values=[0.0, "0.3", 0.0])), "values"),
    # accepted forms
    (_doc(), 0.0),
    (_doc(perturbation={"kind": "none"}), 0.0),
    (_doc(perturbation=_bump()), 0.1),
    (_doc(perturbation=_bump(amplitude=[0.2, -0.1])), 0.2 - 0.1j),
    (_doc(perturbation=_bump(), support=2.5), 0.1),
    (_doc(perturbation={"kind": "gaussian-bump", "amplitude": 0.1, "width": 0.3}), 0.1),
    (_doc(perturbation=_table()), 0.3),
    (_doc(perturbation=_table(values=[[0, 0], [0.3, -0.2], [0.0, 0.0]])), 0.3 - 0.2j),
]


class TestProfileJSON:
    def test_round_trip(self, tmp_path):
        doc = {"A": 1.5, "gamma": 0.05,
               "perturbation": {"kind": "gaussian-bump", "amplitude": [0.2, 0.1],
                                "center": 0.3, "width": 0.4}}
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        prof = InitialProfile.from_json(str(path))
        assert prof.A == 1.5
        assert abs(prof.q0(0.3) - (1.5 + 0.2 + 0.1j)) < 1e-12

    def test_table_interpolation(self):
        prof = InitialProfile.from_table(1.0, 0.1, [-1.0, 0.0, 1.0],
                                         [0.0, 0.2 + 0.1j, 0.0])
        assert abs(prof.perturbation(0.5) - (0.1 + 0.05j)) < 1e-12
        assert prof.perturbation(2.0) == 0

    @pytest.mark.parametrize("xs", [[0.5, 0.0, -0.5], [-0.5, 0.0, 0.0, 0.5]])
    def test_table_nodes_must_ascend(self, xs):
        # descending nodes were read as the pure step: every x fell outside
        # [xs[0], xs[-1]], so the perturbation was 0 everywhere
        with pytest.raises(ValueError, match="strictly ascending"):
            InitialProfile.from_table(1.2, 0.037, xs, [0.0, 0.3] + [0.0] * (len(xs) - 2))

    def test_none_kind(self):
        prof = InitialProfile.from_dict({"A": 2.0, "gamma": 0.1})
        assert prof.is_pure_step

    def test_unknown_kind(self):
        # each rule of a profile document, one row of PROFILE_DOCS each: a
        # refusal is a ValueError that names the key, and an accepted form
        # loads its perturbation
        for doc, outcome in PROFILE_DOCS:
            try:
                got = InitialProfile.from_dict(doc).perturbation(0.0)
            except ValueError as exc:
                got = str(exc)
            if isinstance(outcome, str):
                assert isinstance(got, str) and re.search(rf"\b{outcome}\b", got), (doc, got)
            else:
                assert got == outcome, (doc, got)


class TestMagnusSweep:
    @pytest.mark.parametrize("name", ["bump-1", "bump-2", "bump-3", "soliton", "table"])
    def test_against_dop853(self, name, monkeypatch):
        prof = oracle_profiles()[name]
        data = ScatteringData.from_profile(prof, analyze=False)
        worst = 0.0
        for xi in (0.05, 0.3, 1.0, 5.0, 50.0):
            for sign in (1, -1):
                worst = max(worst, rel_err(scattering_matrix(prof, sign * xi),
                                           dop853_S(prof, sign * xi)))
        a20 = _wronskian(dop853_column(prof, 0.0, [1.0, 0.0], prof.support, +1),
                         dop853_column(prof, 0.0, [0.0, 1.0], -prof.support, -1))
        worst = max(worst, rel_err(data.a2(0.0), a20))
        for eta in (0.3, 0.5, 1.0):
            phi_minus, phi_plus = dop853_jost(prof, 1j * eta)
            a1 = _wronskian(phi_minus[:, 0], phi_plus[:, 1])
            worst = max(worst, rel_err(data.a1(1j * eta), a1))
        # off the axis b = S_12 and S_21 come from columns whose small
        # component grows like exp(2 |Im xi| |x|) across the support, which
        # turns the reference's absolute tolerance of 1e-13 into a drift of
        # 5e-9 on the soliton profile (support 20) at 0.5i
        monkeypatch.setattr(ode, "_ATOL", 1e-22)
        for xi in (0.9 + 0.2j, -0.9 + 0.2j, 0.5j):
            want, S = dop853_S(prof, xi), scattering_matrix(prof, xi)
            worst = max(worst, rel_err(data.b(xi), want[0, 1]),
                        rel_err(S[0, 1], want[0, 1]), rel_err(S[1, 0], want[1, 0]))
        assert worst < 1e-10

    def test_sixth_order(self, monkeypatch):
        # halving the cell width cuts the error by about 64.  Widths a hair
        # above 0.1/2^k split every gap of the table into twice the cells at
        # each halving; the tighter reference keeps its own error below the
        # finest sweep's.  Every xi here is below _MAGNUS_XI_COARSE, so the
        # coarse width is the one the sweep uses
        monkeypatch.setattr(ode, "_RTOL", 1e-13)
        monkeypatch.setattr(ode, "_ATOL", 1e-22)
        for name, xi in (("bump-1", 1.0), ("bump-1", 5.0), ("table", 5.0)):
            assert xi <= scattering._MAGNUS_XI_COARSE
            want = dop853_S(oracle_profiles()[name], xi)
            errs = []
            for h in (0.1001, 0.05005, 0.025025):
                # a fresh profile: each samples its cells once
                monkeypatch.setattr(scattering, "_MAGNUS_H_COARSE", h)
                prof = oracle_profiles()[name]
                errs.append(np.abs(scattering_matrix(prof, xi) - want).max())
                assert prof._coarse_cells[0].max() > 0.5 * h
                assert "_fine_cells" not in vars(prof)
            assert errs[0] / errs[1] > 40 and errs[1] / errs[2] > 40, (name, xi, errs)

    # the largest relative difference of S between the two widths that
    # test_coarse_cells_match_fine_cells allows.  On the bumps the widths
    # agree within 5.3e-13.  On the soliton profile (support 20) they differ
    # by 1.9e-12 at xi = +-5 and on the table, whose Q' jumps at its nodes,
    # by 1.5e-11 at +-10: the wider cells' own error, which falls as h^6
    COARSE_TOL = {"bump-1": 1e-12, "bump-2": 1e-12, "bump-3": 1e-12,
                  "soliton": 5e-12, "table": 3e-11}

    @pytest.mark.parametrize("name", sorted(COARSE_TOL))
    def test_coarse_cells_match_fine_cells(self, name, monkeypatch):
        prof = oracle_profiles()[name]
        xis = [s * x for x in (0.05, 0.3, 1.0, 5.0, scattering._MAGNUS_XI_COARSE)
               for s in (1, -1)]
        got = [scattering_matrix(prof, xi) for xi in xis]
        assert "_fine_cells" not in vars(prof)
        # the fine sweep at the same xi: no xi takes the wider cells
        monkeypatch.setattr(scattering, "_MAGNUS_XI_COARSE", -1.0)
        for xi, S in zip(xis, got):
            assert rel_err(S, scattering_matrix(prof, xi)) < self.COARSE_TOL[name], xi

    def test_array_sweep_matches_scalar_calls(self, bump_profile):
        # the array straddles _MAGNUS_XI_COARSE: each xi keeps its own cells
        xis = np.array([-2.0, -0.4, 0.3, 1.1 + 0.2j, 0.7j, 3.0, 10.0, -10.5, 12.0 + 1.0j, 40.0])
        T_minus, T_plus = scattering._transfer(bump_profile, xis)
        for k, xi in enumerate(xis):
            one_minus, one_plus = scattering._transfer(bump_profile, xis[k:k + 1])
            assert np.array_equal(T_minus[k], one_minus[0])
            assert np.array_equal(T_plus[k], one_plus[0])

    @staticmethod
    def s2_bound(bound, xi):
        """The certificate's bound on |s^2|, as _sweep forms it."""
        r = np.abs(np.atleast_1d(xi)).max()
        d, u, lo = (sum(c * r ** k for k, c in enumerate(entry)) for entry in bound)
        return d * d + u * lo

    def test_certificate_bounds_every_cell(self):
        # M[e][k] bounds |omega[k, e]| over sides and cells, so b_11^2 +
        # b_12 b_21 bounds every cell's |s^2|, on the axis and off it
        for prof in (InitialProfile.gaussian_bump(**BASELINE_BUMP), oracle_profiles()["table"]):
            for _, omega, bound in (prof._coarse_cells, prof._fine_cells):
                assert np.array_equal(np.abs(omega).max(axis=(2, 3)).T, bound)
                for xi in (0.2, -3.0, 2.0 + 1.5j, -0.5 - 4.0j, 9.9, 30.0):
                    w = sum(c * (-1j * xi) ** k for k, c in enumerate(omega))
                    s2 = np.abs(w[0] ** 2 + w[1] * w[2]).max()
                    assert s2 <= self.s2_bound(bound, xi) * (1 + 1e-12), xi

    def test_certificate_changes_no_bit(self, monkeypatch):
        # the certificate only skips the far-cell check: with and without
        # it, _sweep gives the same bytes where it holds (|xi| <= 5 on the
        # Baseline bump's wide cells, and 3 + 8i), where it does not (|xi| =
        # 9.9 and 5.9 + 8i) and where a cell is far (12 and 6 + 8i on the
        # wide cells), where the cosh/sinh branch must run either way
        _, omega, bound = InitialProfile.gaussian_bump(**BASELINE_BUMP)._coarse_cells
        limit = 0.99 * scattering._SERIES_S2
        cosh_calls = []
        cosh = np.cosh
        monkeypatch.setattr(np, "cosh", lambda z: cosh_calls.append(z) or cosh(z))
        certified = ([0.3], [-4.9], [2.0 + 1.0j], [3.0 + 8.0j], [0.2, -5.0, 1.5j])
        checked = ([9.9], [-9.9], [5.9 + 8.0j], [0.5, 9.9])
        far = ([12.0], [6.0 + 8.0j], [0.3, 12.0])
        for xis in certified + checked + far:
            xi = np.array(xis, dtype=complex)
            assert (self.s2_bound(bound, xi) <= limit) == (xis in certified), xis
            cosh_calls.clear()
            exact = scattering._sweep(xi, omega)
            assert len(cosh_calls) == (xis in far), xis
            got = scattering._sweep(xi, omega, bound)
            assert len(cosh_calls) == 2 * (xis in far), xis
            assert got.tobytes() == exact.tobytes(), xis

    @pytest.mark.parametrize("name", ["baseline", "soliton"])
    def test_against_expm_product(self, name):
        # every cell's exp(Omega) by scipy's expm, multiplied in cell order by
        # a plain loop, against the sweep at one xi.  At 50 on the narrow
        # cells, and only there, the sweep takes the cosh/sinh branch
        prof = {"baseline": InitialProfile.gaussian_bump(**BASELINE_BUMP),
                "soliton": oracle_profiles()["soliton"]}[name]
        worst = 0.0
        for xi in (0.3, -2.0, 7.0, 12.0, 50.0):
            wide = abs(xi) <= scattering._MAGNUS_XI_COARSE
            table = (prof._coarse_cells if wide else prof._fine_cells)[1]
            w = sum(c * (-1j * xi) ** k for k, c in enumerate(table))
            far = np.abs(w[0] ** 2 + w[1] * w[2]).max() > scattering._SERIES_S2
            assert far == (xi == 50.0)
            want = np.empty((2, 2, 2), dtype=complex)
            for side in (0, 1):
                want[side] = np.eye(2)
                for d, u, lo in w[:, side].T:
                    want[side] = expm(np.array([[d, u], [lo, -d]])) @ want[side]
            got = scattering._transfer(prof, np.array([xi]))[:, 0]
            worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
        assert worst < 1e-12

    def test_cell_edges_at_table_nodes(self):
        prof = oracle_profiles()["table"]
        for cells, width in ((prof._fine_cells, scattering._MAGNUS_H),
                             (prof._coarse_cells, scattering._MAGNUS_H_COARSE)):
            h = cells[0]
            edges = np.concatenate([[0.0], np.cumsum(h[::-1])])
            for node in (0.2, 0.3, 0.7, 1.0):
                assert np.abs(edges - node).min() < 1e-14
            assert h.max() < width * (1 + 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(A=st.floats(1.0, 2.0), amp=st.floats(0.05, 0.3),
           arg=st.floats(0.0, 2 * np.pi), center=st.floats(-0.4, 0.4),
           width=st.floats(0.3, 0.5), xi=st.floats(0.15, 5.0))
    def test_determinant_and_symmetries(self, A, amp, arg, center, width, xi):
        # criterion 2's identities over the benchmark's bump ranges
        prof = InitialProfile.gaussian_bump(A, GAMMA, amp * np.exp(1j * arg), center, width)
        S, Sm = scattering_matrix(prof, xi), scattering_matrix(prof, -xi)
        assert abs(np.linalg.det(S) - 1.0) < 1e-10
        assert abs(np.linalg.det(Sm) - 1.0) < 1e-10
        assert abs(S[0, 0] - np.conj(Sm[0, 0])) < 1e-8
        assert abs(S[1, 1] - np.conj(Sm[1, 1])) < 1e-8
        assert abs(S[1, 0] + np.conj(Sm[0, 1])) < 1e-8
        assert np.abs(SIGMA1 @ np.conj(np.linalg.inv(Sm)) @ SIGMA1 - S).max() < 1e-8


class TestBaselineBump:
    def test_xi1_end_to_end(self):
        prof = InitialProfile.gaussian_bump(**BASELINE_BUMP)
        data = ScatteringData.from_profile(prof, analyze=False)
        assert classify_case(data) is CaseTag.CASE1
        b = data.b
        # the same entry of S on the axis and just off it
        assert abs(b(0.9 + 1e-300j) - b(0.9)) < 1e-12
        xi1 = locate_xi1(data)   # raises unless |a1(i xi1)| vanishes
        assert abs(xi1 - BASELINE_XI1) < 1e-8
        # the trace integrand's 1 - b(th) conj(b(-th)) at the largest node,
        # th ~ 1.1e4, where |b| is smallest
        th = interval_rule(ContourInterval(0.0, np.inf), 2 * _NODES).z.max()
        b_plus, b_minus = dop853_b(prof, th), dop853_b(prof, -th)
        assert abs(b(th) - b_plus) < 1e-11 and abs(b(-th) - b_minus) < 1e-11
        got = 1.0 - b(th) * np.conj(b(-th))
        assert abs(got - (1.0 - b_plus * np.conj(b_minus))) < 1e-12


class TestSweepCount:
    """One Magnus sweep per sampled xi: the xi that reach _transfer, summed."""

    @pytest.fixture
    def counted(self, monkeypatch):
        swept = []
        transfer = scattering._transfer

        def counting(profile, xi):
            swept.append(xi.size)
            return transfer(profile, xi)

        monkeypatch.setattr(scattering, "_transfer", counting)
        data = ScatteringData.from_profile(InitialProfile.gaussian_bump(**BASELINE_BUMP),
                                           analyze=False)
        assert classify_case(data) is CaseTag.CASE1
        swept.clear()
        return data, swept

    def test_locate_xi1(self, counted):
        data, swept = counted
        locate_xi1(data)
        # 64 + 128 trace nodes and the two a1 checks off the axis
        assert sum(swept) == 194

    def test_build_delta(self, counted):
        data, swept = counted
        build_delta(data, stationary_points(0.3, GAMMA))
        assert sum(swept) == 515

    def test_scatter_row(self, counted):
        data, swept = counted
        xi = 0.7
        data.a1(xi), data.a2(xi), data.b(xi), data.r1(xi), data.r2(xi)
        assert sum(swept) == 1

    def test_scatter_columns(self, counted):
        # the five columns of `scatter`, each read on the whole array
        data, swept = counted
        xs = np.linspace(0.1, 4.0, 21)
        data.a1(xs), data.a2(xs), data.b(xs), data.r1(xs), data.r2(xs)
        assert sum(swept) == 21

    def test_ray(self, counted):
        # build_delta's 515 nodes and the reads at the three saddles
        data, swept = counted
        data.xi1 = BASELINE_XI1
        q_asymptotic(0.3 * 100.0, 100.0, data)
        assert sum(swept) <= 520

    def test_case2_classification(self, monkeypatch):
        # S(0) and the two points of a2'(0), which classify_case reuses
        # from the data rather than sweeping them again
        swept = []
        transfer = scattering._transfer

        def counting(profile, xi):
            swept.append(xi.size)
            return transfer(profile, xi)

        monkeypatch.setattr(scattering, "_transfer", counting)
        data = ScatteringData.from_profile(soliton_profile(2.0, GAMMA, np.pi / 3),
                                           analyze=False)
        assert classify_case(data) is CaseTag.CASE2
        assert sum(swept) == 3


class TestArraySurface:
    NODES = np.array([-2.2, -0.7, 0.3, 0.45, 1.7, 3.0])

    @pytest.mark.parametrize("source", ["pure-step", "reflectionless", "bump", "synthetic"])
    def test_array_equals_scalar_calls(self, source, bump_profile):
        data = {"pure-step": lambda: ScatteringData.pure_step(1.3, GAMMA),
                "reflectionless": lambda: ScatteringData.reflectionless(1.4, GAMMA, 0.2),
                "bump": lambda: ScatteringData.from_profile(bump_profile, analyze=False),
                "synthetic": lambda: synthetic_from_v_targets(
                    2.0, GAMMA, 0.5, (0.1j, -0.05j, 0.08j), r2=(0.1, 3.0, 1.2, 0.6))}[source]()
        for method in (data.one_plus_r1r2, data.r1, data.r2):
            np.testing.assert_array_equal(method(self.NODES),
                                          [method(xi) for xi in self.NODES])

    @pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
    def test_matrix_stacks_like_moveaxis(self, shape):
        # _matrix's one transpose gives np.moveaxis's values, shape and strides
        rng = np.random.default_rng(7)
        entries = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(4)]
        got = scattering._matrix(*entries)
        want = np.moveaxis(np.array([entries[:2], entries[2:]]), (0, 1), (-2, -1))
        assert got.shape == want.shape == (*shape, 2, 2)
        assert got.strides == want.strides
        np.testing.assert_array_equal(got, want)

    def test_b_mirror_is_reflected_b(self, bump_profile):
        d = ScatteringData.from_profile(bump_profile, analyze=False)
        for xi in (0.3, 1.7, -2.2, 0.4 + 0.1j):
            assert abs(d.b_mirror(xi) - np.conj(d.b(-np.conj(xi)))) < 1e-13

    def test_reflectionless_a2_pole(self):
        # a1's zero i A/2 is a2's pole: S holds it without a warning, a1
        # reads 0 there and a2 raises
        A = 1.4
        d = ScatteringData.reflectionless(A, GAMMA)
        S = d.S(np.asarray(0.5j * A))
        assert S[0, 0] == 0 and not np.isfinite(S[1, 1])
        assert d.a1(0.5j * A) == 0
        with pytest.raises(SingularNormalizationError):
            d.a2(0.5j * A)

    def test_pure_step_zero(self):
        d = ScatteringData.pure_step(1.3, GAMMA)
        assert d.a2(0.0) == 1
        for entry in (d.a1, d.b, d.r2, d.one_plus_r1r2):
            with pytest.raises(SingularNormalizationError):
                entry(0.0)

    def test_array_pole_names_its_node(self):
        # an array read names the first xi that is not finite and how many
        # are, not the whole array
        d = ScatteringData.pure_step(1.3, GAMMA)
        with pytest.raises(SingularNormalizationError, match=r"xi = 0\.0 \(1 of 21 points"):
            d.r2(np.linspace(-1.0, 1.0, 21))
        with pytest.raises(SingularNormalizationError, match=r"1 of 515 points") as err:
            d.r2(np.linspace(-1.0, 1.0, 515))
        assert len(str(err.value)) < 100

    # 0.0 and -0.0 among nonzero xi, where S(0) fills its rows; and more xi
    # than one chunk of either cell table holds, on both sides of |xi| = 10
    PROFILE_ARRAYS = {"zeros": np.array([0.4, 0.0, -1.3 + 0.2j, -0.0, 2.2, 0j]),
                      "chunks": np.concatenate([np.linspace(-9.9, 9.9, 45) + 0.05j,
                                                [-10.0, 10.0, 10.000000000000002],
                                                np.linspace(10.25, 40.0, 10) * (-1) ** np.arange(10)])}

    @pytest.mark.parametrize("source", ["baseline", "soliton"])
    @pytest.mark.parametrize("nodes", ["zeros", "chunks"])
    def test_profile_array_has_the_bits_of_scalar_reads(self, source, nodes):
        profile = {"baseline": lambda: InitialProfile.gaussian_bump(**BASELINE_BUMP),
                   "soliton": lambda: soliton_profile(2.0, GAMMA, np.pi / 3)}[source]()
        data = ScatteringData.from_profile(profile, analyze=False)
        xs = self.PROFILE_ARRAYS[nodes]
        if nodes == "chunks":
            for wide, table in ((True, profile._coarse_cells), (False, profile._fine_cells)):
                inside = np.sum((np.abs(xs) <= scattering._MAGNUS_XI_COARSE) == wide)
                assert inside > scattering._SWEEP_CELLS // table[0].size
        reads = [data.S] + [getattr(data, name) for name in
                            (("a2",) if nodes == "zeros" else self.READS)]
        for read in reads:
            want = np.array([read(np.asarray(xi)) for xi in xs])
            assert read(xs).tobytes() == want.tobytes(), read

    READS = ("a1", "a2", "b", "b_mirror", "r1", "r2", "one_plus_r1r2")
    # on the axis, off it, in (9, 10] and past 10, where the wide and the
    # narrow cells meet; a Python or numpy float or complex
    SCALARS = (0.3, -1.7, 4.2, np.float64(-0.05), 0.6 + 0.4j, np.complex128(-2.0 - 0.3j),
               -0.0 + 1.5j, 9.5, -10.0, 9.999999999999998 + 0.0j, np.float64(10.25), -37.0 + 2.0j)

    @pytest.mark.parametrize("source", ["pure-step", "reflectionless", "baseline", "soliton"])
    def test_scalar_read_has_the_bits_of_a_one_element_read(self, source):
        # the scalar reads skip np.errstate and the array reductions; the
        # values, signed zeros included, are those S gives one xi in an array
        data = {"pure-step": lambda: ScatteringData.pure_step(2.0, GAMMA),
                "reflectionless": lambda: ScatteringData.reflectionless(2.0, GAMMA, np.pi / 3),
                "baseline": lambda: ScatteringData.from_profile(
                    InitialProfile.gaussian_bump(**BASELINE_BUMP), analyze=False),
                "soliton": lambda: ScatteringData.from_profile(
                    soliton_profile(2.0, GAMMA, np.pi / 3), analyze=False)}[source]()
        for name in self.READS:
            read = getattr(data, name)
            for xi in self.SCALARS:
                got, want = read(xi), read(np.array([xi]))
                assert np.ndim(got) == 0 and want.shape == (1,)
                assert np.asarray(got).tobytes() == want.tobytes(), (name, xi)

    @pytest.mark.parametrize("xi", [0.0, -0.0, 0j, np.float64(0.0), np.complex128(0.0),
                                    1e-300, -1e-300])
    def test_scalar_read_at_a_pole_raises(self, xi):
        # the scalar reads enter no np.errstate: at a pole they must still
        # raise SingularNormalizationError, not ZeroDivisionError or a
        # RuntimeWarning (errors under the warnings filter here).  Only a2
        # is finite at 0.  At +-1e-300 the entries' 1/xi poles are finite
        # but pass the largest float in b^2 and S12 S21: every read there
        # returns a finite value or raises
        step = ScatteringData.pure_step(2.0, GAMMA)
        bump = ScatteringData.from_profile(InitialProfile.gaussian_bump(**BASELINE_BUMP),
                                           analyze=False)
        assert classify_case(bump) is CaseTag.CASE1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for data in (step, bump):
                for name in self.READS:
                    try:
                        value = getattr(data, name)(xi)
                    except SingularNormalizationError:
                        continue
                    assert np.isfinite(value) and (xi != 0 or name == "a2"), name
            # a divisor that is exactly 0 between finite entries: a1 and
            # 1 + S12 S21 vanish at the discrete eigenvalue i A/2
            with pytest.raises(SingularNormalizationError):
                step.one_plus_r1r2(1j)
            with pytest.raises(SingularNormalizationError):
                ScatteringData.reflectionless(2.0, GAMMA).r1(1j)


class TestSupportCheck:
    def test_zero_perturbation_not_probed(self):
        # the pure step's _zero is not probed; every other perturbation is,
        # at all 160 points, one with support 0 included
        calls = []

        def watch(frame, event, arg):
            if event == "call" and frame.f_code is scattering._zero.__code__:
                calls.append(frame)

        sys.setprofile(watch)
        try:
            InitialProfile.pure_step(2.0, GAMMA)
        finally:
            sys.setprofile(None)
        assert calls == []
        probed = []
        InitialProfile(A=2.0, gamma=GAMMA, perturbation=lambda x: probed.append(x) or 0j)
        assert len(probed) == 160
        with pytest.raises(ValueError, match="vanish outside its support"):
            InitialProfile(A=2.0, gamma=GAMMA, perturbation=lambda x: 1e-3 + 0j)

    def test_leak_past_support_rejected(self):
        # a narrow bump centred 0.2 past the declared support: zero at the
        # 4 points support +- 0.5, +-2 that an older check probed
        def leaky(x):
            return 0.1 * np.exp(-((x - 1.2) / 0.03) ** 2)

        assert abs(leaky(1.5)) < 1e-40 and abs(leaky(3.0)) < 1e-40
        with pytest.raises(ValueError, match="vanish outside its support"):
            InitialProfile(A=1.0, gamma=GAMMA, perturbation=leaky, support=1.0)
        InitialProfile(A=1.0, gamma=GAMMA, perturbation=leaky, support=1.5)
