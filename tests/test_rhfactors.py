"""Delta function, saddle exponents, jump matrices, residues, BP elements."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steplpd.phase import stationary_points
from steplpd.rhfactors import (
    AssumptionViolation,
    bp_elements,
    build_delta,
    jump_factorizations,
    jump_matrix,
    regularized_reflections,
    residue_constants,
    saddle_exponents,
)
from steplpd.scattering import ScatteringData, SyntheticReflectionData, locate_xi1

GAMMA = 1.0 / 27.0
A = 2.0
MU = 2.0 - 32.0 * GAMMA   # places lam1 exactly at 1


@pytest.fixture(scope="module")
def step_data():
    d = ScatteringData.pure_step(A, GAMMA)
    locate_xi1(d)
    return d


@pytest.fixture(scope="module")
def geometry():
    return stationary_points(MU, GAMMA)


@pytest.fixture(scope="module")
def delta(step_data, geometry):
    return build_delta(step_data, geometry)


@pytest.fixture(scope="module")
def exponents(step_data, geometry, delta):
    return saddle_exponents(step_data, geometry, delta)


class TestDelta:
    def test_trivial_for_zero_reflection(self):
        d0 = ScatteringData.reflectionless(A, GAMMA)
        geom = stationary_points(0.5, GAMMA)
        dl = build_delta(d0, geom)
        for xi in (2j, 0.0, 5.0, -0.3 + 0.4j):
            assert abs(dl.eval(xi) - 1.0) < 1e-12

    def test_jump_condition(self, step_data, geometry, delta):
        for frac in (0.3, 0.7):
            xi0 = geometry.lam2 + frac * (geometry.lam1 - geometry.lam2)
            ratio = delta.eval(xi0, side=+1) / delta.eval(xi0, side=-1)
            assert abs(ratio - step_data.one_plus_r1r2(xi0)) < 1e-6
        xi0 = geometry.lam3 - 1.0
        ratio = delta.eval(xi0, side=+1) / delta.eval(xi0, side=-1)
        assert abs(ratio - step_data.one_plus_r1r2(xi0)) < 1e-6

    def test_no_jump_in_gap(self, step_data, geometry, delta):
        xi0 = 0.5 * (geometry.lam3 + geometry.lam2)
        up = delta.eval(xi0, side=+1)
        dn = delta.eval(xi0, side=-1)
        assert abs(up - dn) < 1e-8

    def test_normalization_at_infinity(self, delta):
        assert abs(delta.eval(1e3) - 1.0) < 5e-3
        assert abs(delta.eval(2e3) - 1.0) < abs(delta.eval(1e3) - 1.0)

    def test_conjugate_symmetry_through_mirror(self, step_data, delta):
        # delta_mu(xi) = conj(delta_{-mu}(-conj(xi))): the mirrored-ray
        # contour is built independently and must close the identity
        geom_m = stationary_points(-MU, GAMMA)
        delta_m = build_delta(step_data, geom_m)
        for xi in (0.7 + 0.9j, -1.2 + 0.4j, 2.0 - 0.8j, 3.0):
            lhs = delta.eval(xi)
            rhs = np.conj(delta_m.eval(-np.conj(xi)))
            assert abs(lhs - rhs) < 1e-6

    def test_v_value_pure_step(self, delta):
        # at lam = 1 with A = 2: v = -(1/2 pi) ln(4/(4+4)) = ln 2/(2 pi)
        assert abs(delta.v(1) - np.log(2) / (2 * np.pi)) < 1e-10
        for s in (1, 2, 3):
            assert abs(np.imag(delta.v(s))) < 1e-12

    def test_endpoint_guard(self, delta, geometry):
        with pytest.raises(ValueError):
            delta.eval(geometry.lam1 + 1e-10)

    def test_winding_violation_raises(self):
        # a synthetic product winding past pi must be refused
        bad = SyntheticReflectionData(
            A=1.0, gamma=GAMMA,
            r1=lambda z: np.exp(-2 * np.pi * (0.9j) * np.exp(-(np.real(z) - 0.8) ** 2)) - 1.0,
            r2=lambda z: 1.0 + 0j)
        geom = stationary_points(0.5, GAMMA)
        with pytest.raises(AssumptionViolation):
            build_delta(bad, geom)

    def test_winding_refined_between_samples(self):
        # arg w = 3 sin(24 z) exp(-z^2) turns by up to 3.3 rad between these
        # samples, so a plain unwrap slips by 2 pi; midpoint sampling does not
        from steplpd.rhfactors import _continuous_log

        phase = lambda z: 3.0 * np.sin(24.0 * z) * np.exp(-z * z)
        x = np.linspace(4.0, -4.0, 161)
        assert np.abs(np.unwrap(phase(x)) - phase(x)).max() > 6.0
        for anchor_left in (True, False):
            rho = _continuous_log(lambda z: np.exp(1j * phase(z)), x, anchor_left)
            assert np.abs(rho - 1j * phase(x)).max() < 1e-12


class TestSaddleExponents:
    def test_im_v_zero_for_pure_step(self, exponents):
        assert all(abs(np.imag(v)) < 1e-12 for v in exponents.v)

    def test_product_forms_match_cauchy(self, exponents, delta):
        for s in (1, 2, 3):
            for xi in (0.9 + 0.4j, -2.0 + 0.15j, 2.4 - 0.3j, 0.0, 3.5, 1e3):
                err = abs(exponents.product_form(s, xi) - delta.eval(xi))
                assert err < 1e-5, (s, xi, err)

    def test_product_forms_on_cut(self, exponents, delta):
        for s in (1, 2, 3):
            for xi, side in ((-5.0, +1), (0.8, -1)):
                err = abs(exponents.product_form(s, xi, side=side)
                          - delta.eval(xi, side=side))
                assert err < 1e-5

    def test_chi_continuous_at_saddle(self, exponents, geometry):
        for s in (1, 2, 3):
            lam = geometry.lam(s)
            up = exponents.chi(s, lam + 1e-7j)
            assert abs(up - exponents.chi0(s)) < 1e-5

    def test_trivial_for_zero_reflection(self):
        d0 = ScatteringData.reflectionless(A, GAMMA)
        geom = stationary_points(0.5, GAMMA)
        exps = saddle_exponents(d0, geom)
        assert all(abs(v) < 1e-12 for v in exps.v)
        assert all(abs(c) < 1e-9 for c in exps.chi_at_saddle)

    def test_mirror_ray_rejected(self, step_data):
        geom_m = stationary_points(-0.5, GAMMA)
        with pytest.raises(ValueError):
            saddle_exponents(step_data, geom_m)


class TestPureStepReference:
    """ln delta(0), v and chi_s(lam_s) against mpmath at 30 digits.

    The reference integrates the definitions on the closed form
    rho = ln(4 xi^2/(4 xi^2 + A^2)): the Cauchy integral at 0 and
    X(lam_s) = -(1/2 pi i) int ln(lam_s - z) rho'(z) dz with the exact rho',
    no integration by parts.
    """

    @staticmethod
    def reference(geometry):
        import mpmath as mp

        with mp.workdps(30):
            lam = [mp.mpf(x) for x in geometry.lambdas]
            a2 = mp.mpf(A) ** 2
            rho = lambda z: mp.log(4 * z * z / (4 * z * z + a2))
            drho = lambda z: 2 / z - 8 * z / (4 * z * z + a2)
            L = lambda x: mp.log(-x) + 1j * mp.pi if x < 0 else mp.log(x)
            # (lam2, lam1) split geometrically: its end lam2 ~ mu/2 is near
            # rho's log singularity at 0 on the rays with small mu
            sigma = ([-mp.inf, lam[2]],
                     [lam[1] * (lam[0] / lam[1]) ** (mp.mpf(k) / 8) for k in range(9)])
            log_delta0 = sum(mp.quad(lambda z: rho(z) / z, iv) for iv in sigma) / (2j * mp.pi)
            v1, v2, v3 = v = [-rho(x) / (2 * mp.pi) for x in lam]
            chi = []
            for s in (1, 2, 3):
                ls = lam[s - 1]
                X = -sum(mp.quad(lambda z: L(ls - z) * drho(z), iv)
                         for iv in sigma) / (2j * mp.pi)
                re_anchor = {
                    1: 1j * (v1 - v2) * L(ls - lam[1]) + 1j * (v3 - v1) * L(ls - lam[2]),
                    2: 1j * (v1 - v2) * L(ls - lam[0]),
                    3: 1j * (v1 - v3) * L(ls - lam[0]) + 1j * (v3 - v2) * L(ls - lam[1])}
                chi.append(X + re_anchor[s])
            return complex(log_delta0), [complex(x) for x in v], [complex(x) for x in chi]

    @pytest.mark.parametrize("mu", (0.3, 0.5, 0.8))
    def test_against_mpmath(self, step_data, mu):
        geom = stationary_points(mu, GAMMA)
        exps = saddle_exponents(step_data, geom)
        log_delta0, v, chi = self.reference(geom)
        assert abs(np.log(exps.delta.at_zero()) - log_delta0) < 1e-13
        for s in (1, 2, 3):
            assert abs(exps.v[s - 1] - v[s - 1]) < 1e-13
            assert abs(exps.chi0(s) - chi[s - 1]) < 1e-13, (s, exps.chi0(s) - chi[s - 1])

    @pytest.mark.parametrize("mu", (0.003, 0.01, 0.02))
    def test_small_mu(self, step_data, mu):
        # lam2 ~ mu/2 lies next to rho's log singularity at 0.  The floor is
        # ten times 1e-16 A^2/(4 lam2^2), the rounding near lam2 of
        # 1 + r1 r2 formed from r1 r2 ~ -1
        geom = stationary_points(mu, GAMMA)
        exps = saddle_exponents(step_data, geom)
        assert exps.delta.convergence < 1e-10 and max(exps.chi_error) < 1e-10
        log_delta0, v, chi = self.reference(geom)
        floor = 1e-13 + 1e-15 * A ** 2 / (4.0 * geom.lam2 ** 2)
        assert abs(exps.delta.log_delta(0.0) - log_delta0) < floor
        for s in (1, 2, 3):
            assert abs(exps.v[s - 1] - v[s - 1]) < floor
            assert abs(exps.chi0(s) - chi[s - 1]) < floor, (s, exps.chi0(s) - chi[s - 1])

    @pytest.mark.parametrize("height, mu", [(2.0, 0.0017386934673366834),
                                            (3.0, 0.001), (3.0, 0.001492462311557789),
                                            (3.0, 0.0022311557788944726),
                                            (3.0, 0.0024773869346733667)])
    def test_no_rounding_near_lam2(self, height, mu):
        # rays whose chi_2 n/2n gap the rounding of 1 + r1 r2 near lam2 once
        # pushed past 1e-10; sampled as 1/(1 - b b_mirror) it is not there
        exps = saddle_exponents(ScatteringData.pure_step(height, GAMMA),
                                stationary_points(mu, GAMMA))
        assert exps.delta.convergence < 1e-13 and max(exps.chi_error) < 1e-13


class TestNodeConvergence:
    def test_estimates_on_result(self, delta, exponents):
        assert 0 <= delta.convergence < 1e-10
        assert len(exponents.chi_error) == 3 and max(exponents.chi_error) < 1e-10

    def test_unconverged_sample_raises(self, step_data, monkeypatch):
        # a tolerance no sum can meet makes both stages fail, by name
        from steplpd import rhfactors
        from steplpd.kernels.quadrature import IntegrationError

        geom = stationary_points(0.4, GAMMA)
        delta = build_delta(step_data, geom)
        monkeypatch.setattr(rhfactors, "_CONVERGENCE_TOL", -1.0)
        with pytest.raises(IntegrationError, match="build_delta"):
            build_delta(step_data, geom)
        with pytest.raises(IntegrationError, match="saddle_exponents"):
            saddle_exponents(step_data, geom, delta)


BUMP = {"A": 1.0, "gamma": GAMMA,
        "perturbation": {"kind": "gaussian-bump", "amplitude": 0.1,
                         "center": 0.2, "width": 0.3}}


class TestPerturbedProfile:
    """The Baseline bump (case 1) through delta, chi_s and `asymptote`."""

    @pytest.fixture(scope="class")
    def bump(self):
        from steplpd.scattering import InitialProfile, classify_case

        profile = InitialProfile.gaussian_bump(BUMP["A"], GAMMA, 0.1, 0.2, 0.3)
        data = ScatteringData.from_profile(profile, analyze=False)
        classify_case(data)
        locate_xi1(data)
        geom = stationary_points(0.3, GAMMA)
        exps = saddle_exponents(data, geom)
        return data, geom, exps

    def test_delta_suite(self, bump):
        # criterion 5's checks and tolerances on perturbed data
        data, geom, exps = bump
        delta = exps.delta
        for xi0 in (0.5 * (geom.lam2 + geom.lam1), geom.lam3 - 1.0):
            ratio = delta.eval(xi0, side=+1) / delta.eval(xi0, side=-1)
            assert abs(ratio - data.one_plus_r1r2(xi0)) < 1e-6
        for s in (1, 2, 3):
            for xi in (0.9 + 0.4j, -2.0 + 0.15j, 2.4 - 0.3j, 0.0, 3.5):
                assert abs(exps.product_form(s, xi) - delta.eval(xi)) < 1e-5
            assert abs(exps.chi(s, geom.lam(s) + 1e-7j) - exps.chi0(s)) < 1e-5

    def test_node_convergence(self, bump):
        _, _, exps = bump
        assert exps.delta.convergence < 1e-10
        assert max(exps.chi_error) < 1e-10

    def test_asymptote_cli(self, tmp_path):
        import json

        from steplpd.cli import main

        cfg = tmp_path / "bump.json"
        cfg.write_text(json.dumps(BUMP))
        out = tmp_path / "out.csv"
        assert main(["--out", str(out), "asymptote", "--config", str(cfg),
                     "--mu", "0.3", "--t", "100", "1000"]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[2:]]
        assert len(rows) == 2
        assert all(np.isfinite(float(tok)) for row in rows for tok in row[:5])


class TestJumpMatrices:
    def test_original_value_pure_step(self, step_data):
        # J11 = 1 + r1 r2 = 4 xi^2/(4 xi^2 + A^2) = 1/2 at xi = 1, A = 2
        J = jump_matrix("original", 0.0, 0.0, 1.0, step_data)
        assert abs(J[0, 0] - 0.5) < 1e-14
        assert abs(J[1, 1] - 1.0) < 1e-14

    def test_identity_for_zero_reflection(self):
        d0 = ScatteringData.reflectionless(A, GAMMA)
        J = jump_matrix("original", 0.3, 0.7, 1.1, d0)
        assert np.abs(J - np.eye(2)).max() < 1e-14

    def test_triangular_factorizations(self, step_data):
        rng = np.random.default_rng(5)
        for _ in range(5):
            xi = float(rng.uniform(0.3, 2.5)) * (1 if rng.random() < 0.5 else -1)
            x, t = float(rng.uniform(-1, 1)), float(rng.uniform(0, 2))
            J = jump_matrix("original", x, t, xi, step_data)
            U, L, Lt, D, Ut = jump_factorizations(x, t, xi, step_data)
            assert np.abs(U @ L - J).max() < 1e-10
            assert np.abs(Lt @ D @ Ut - J).max() < 1e-10

    def test_tilde_consistency(self, step_data, geometry, delta):
        # the factorized tilde jump equals delta_-^{sigma3} J delta_+^{-sigma3};
        # the mirrored ray (mu < 0) has the contour (lam1, lam2) u (lam3, inf)
        t = 0.5
        mirror = stationary_points(-0.5, GAMMA)
        dmirror = build_delta(step_data, mirror)
        lam1, lam2, lam3 = mirror.lambdas
        cases = [(geometry, delta, 0.5 * (geometry.lam2 + geometry.lam1), True),
                 (geometry, delta, 0.5 * (geometry.lam3 + geometry.lam2), False),
                 (geometry, delta, geometry.lam1 + 0.8, False),
                 (geometry, delta, geometry.lam3 - 0.5, True),
                 (mirror, dmirror, lam1 - 0.5, False),
                 (mirror, dmirror, 0.5 * (lam1 + lam2), True),
                 (mirror, dmirror, 0.5 * (lam2 + lam3), False),
                 (mirror, dmirror, lam3 + 0.5, True)]
        for geom, delta, xi0, on_cut in cases:
            x = geom.mu * t
            Jt = jump_matrix("tilde", x, t, xi0, step_data, geom, delta)
            J = jump_matrix("original", x, t, xi0, step_data)
            dp = delta.eval(xi0, side=+1) if on_cut else delta.eval(xi0)
            dm = delta.eval(xi0, side=-1) if on_cut else delta.eval(xi0)
            conj = np.diag([dm, 1 / dm]) @ J @ np.diag([1 / dp, dp])
            assert np.abs(Jt - conj).max() < 1e-8

    def test_hat_to_regular_conjugation(self, step_data, geometry, delta):
        # diag(1,(xi-i xi1)/xi) Jhat diag(1, xi/(xi-i xi1)) = Jhat^r
        xi1 = step_data.xi1
        for ray, point in (("Y1", geometry.lam1 + 0.4 * np.exp(0.25j * np.pi)),
                           ("Y2", geometry.lam3 + 0.4 * np.exp(0.75j * np.pi)),
                           ("Y1*", geometry.lam1 + 0.4 * np.exp(-0.25j * np.pi)),
                           ("Y2*", geometry.lam3 + 0.4 * np.exp(-0.75j * np.pi))):
            Jh = jump_matrix("hat", 0.2, 0.4, point, step_data, geometry, delta, ray=ray)
            Jr = jump_matrix("regular", 0.2, 0.4, point, step_data, geometry, delta, ray=ray)
            B = np.diag([1.0, (point - 1j * xi1) / point])
            Binv = np.diag([1.0, point / (point - 1j * xi1)])
            assert np.abs(B @ Jh @ Binv - Jr).max() < 1e-10

    def test_off_contour_rejected(self, step_data, geometry, delta):
        with pytest.raises(ValueError):
            jump_matrix("original", 0, 0, 0.5 + 0.5j, step_data)
        with pytest.raises(ValueError):
            jump_matrix("hat", 0, 0, 1.0 + 0.5j, step_data, geometry, delta, ray="Y1*")


class TestRegularizedReflections:
    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.2, 3.0), st.booleans())
    def test_product_invariance(self, xi, neg):
        d = ScatteringData.pure_step(A, GAMMA)
        d.xi1 = A / 2
        x = -xi if neg else xi
        r1r, r2r = regularized_reflections(d, x)
        assert abs(r1r * r2r - d.r1(x) * d.r2(x)) < 1e-12

    def test_pole_removed_in_r1(self, step_data):
        # r1 blows up at i*xi1 (zero of a1); its regularization is finite:
        # pure-step closed form 2iA(xi - i xi1)/(4 xi^2 + A^2) -> A/(4 xi1)
        from steplpd.rhfactors import r1_regularized_at_pole

        val = r1_regularized_at_pole(step_data)
        assert abs(val - A / (4 * step_data.xi1)) < 1e-6
        near = regularized_reflections(step_data, 1j * step_data.xi1 * (1 + 1e-5))[0]
        assert abs(near - val) < 1e-4
        with pytest.raises(ZeroDivisionError):
            regularized_reflections(step_data, 1j * step_data.xi1)

    def test_pure_step_value(self, step_data):
        # xi1 = 1 for A = 2: r2r(1) = r2(1)/(1 - i)
        _, r2r = regularized_reflections(step_data, 1.0)
        assert abs(r2r - step_data.r2(1.0) / (1.0 - 1j)) < 1e-14

    def test_symmetry(self, step_data):
        for xi in (0.45, 1.3):
            rp = regularized_reflections(step_data, xi)
            rm = regularized_reflections(step_data, -xi)
            assert abs(rp[0] - np.conj(rm[0])) < 1e-12
            assert abs(rp[1] - np.conj(rm[1])) < 1e-12


class TestResidueConstants:
    def test_c0(self, step_data, delta):
        rc = residue_constants(step_data, delta)
        assert abs(rc.c0 - A * delta.at_zero() ** 2 / 2j) == 0.0

    def test_c0_trivial_delta(self):
        d0 = ScatteringData.reflectionless(A, GAMMA, 0.0)
        geom = stationary_points(0.5, GAMMA)
        dl = build_delta(d0, geom)
        rc = residue_constants(d0, dl)
        assert abs(rc.c0 - A / 2j) < 1e-12

    def test_c1_x_decay(self, step_data, delta):
        rc = residue_constants(step_data, delta)
        ratio = abs(rc.c1(1.0, 3.0)) / abs(rc.c1(0.0, 3.0))
        assert abs(ratio - np.exp(-2 * step_data.xi1)) < 1e-12

    def test_c1_modulus_t_independent(self, step_data, delta):
        rc = residue_constants(step_data, delta)
        assert abs(abs(rc.c1(0.4, 5.0)) - abs(rc.c1(0.4, 0.0))) < 1e-12


class TestBPElements:
    def test_rough_approximation_recovers_background(self, step_data, delta):
        xi1 = step_data.xi1
        rc = residue_constants(step_data, delta)
        P12, P21 = bp_elements((1j * xi1, 0.0), (rc.c0, 1j * xi1))
        assert abs(-2 * xi1 * P12 - A * delta.at_zero() ** 2) < 1e-14
        assert P21 == 0

    def test_trivial_inputs(self):
        P12, P21 = bp_elements((1.0, 0.0), (0.0, 1.0))
        assert P12 == 0 and P21 == 0

    def test_mirror_branch_vanishes(self, step_data, delta):
        xi1 = step_data.xi1
        rc = residue_constants(step_data, delta)
        _, P21 = bp_elements((1j * xi1, 0.0), (rc.c0, 1j * xi1))
        assert abs(-2 * xi1 * np.conj(P21)) == 0.0

    def test_degenerate_raises(self):
        with pytest.raises(ZeroDivisionError):
            bp_elements((1.0, 1.0), (1.0, 1.0))

