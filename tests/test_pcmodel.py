"""Local parabolic-cylinder models: scaling, phases, Weber solutions, conjugator."""

import cmath
from functools import lru_cache

import numpy as np
import pytest

from steplpd import pcmodel
from steplpd.kernels import special
from steplpd.phase import stationary_points
from steplpd.pcmodel import (
    LocalModelData,
    lambda_conjugator,
    local_phase_phi,
    model_order,
    pc_coefficients,
    pc_jump_matrix,
    pc_model_matrix,
    saddle_sign,
    scaling_map,
)
from steplpd.rhfactors import build_delta, saddle_exponents
from steplpd.scattering import ScatteringData, locate_xi1, synthetic_from_v_targets

GAMMA = 1.0 / 27.0
P, Q = 0.32 + 0.21j, -0.55 + 0.4j


@pytest.fixture(scope="module")
def model1():
    v = model_order(P, Q)
    return LocalModelData(s=1, v=v, r1r=P, r2r=Q)


@pytest.fixture(scope="module")
def geometry():
    return stationary_points(0.5, GAMMA)


class TestScalingMap:
    def test_center(self, geometry):
        for s in (1, 2, 3):
            assert scaling_map(s, geometry, 10.0, 0.0) == geometry.lam(s)

    def test_linearity(self, geometry):
        xi1 = scaling_map(1, geometry, 7.0, 1.0) - geometry.lam1
        xi2 = scaling_map(1, geometry, 7.0, 2.0) - geometry.lam1
        assert abs(xi2 - 2 * xi1) < 1e-15

    def test_composed_with_root_solve(self):
        geom = stationary_points(0.5, GAMMA)
        t = 100.0
        xi = scaling_map(1, geom, t, 1.0)
        expected = geom.lam1 + 1.0 / np.sqrt(4 * t * (48 * GAMMA * geom.lam1**2 - 1))
        assert abs(xi - expected) < 1e-15

    def test_needs_positive_t(self, geometry):
        with pytest.raises(ValueError):
            scaling_map(1, geometry, 0.0, 1.0)


class TestLocalPhase:
    def test_taylor_constant_term(self, geometry):
        t = 13.0
        for s in (1, 2, 3):
            phi0 = local_phase_phi(s, geometry, t, 0.0)
            assert abs(phi0 - 1j * t * geometry.theta(geometry.lam(s))) < 1e-12

    def test_taylor_tau3_coefficient(self, geometry):
        # 4 i gamma lam1 / sqrt(t (48 gamma lam1^2 - 1)^3) from theta''' = 192 gamma xi
        t, lam1, c1 = 50.0, geometry.lam1, geometry.curvature(1)
        target = 4j * GAMMA * lam1 / np.sqrt(t * c1**3)
        eps = 1e-2
        vals = [local_phase_phi(1, geometry, t, tau) for tau in
                (2 * eps, eps, -eps, -2 * eps)]
        third = (vals[0] - 2 * vals[1] + 2 * vals[2] - vals[3]) / (2 * eps**3)
        assert abs(third / 6.0 - target) < 1e-7

    def test_taylor_tau4_coefficient(self, geometry):
        t, c1 = 50.0, geometry.curvature(1)
        target = 1j * GAMMA / (2 * t * c1**2)
        # quartic in tau: read the coefficient off exact polynomial samples
        taus = np.array([1.0, 2.0, -1.0, -2.0, 0.5])
        rhs = np.array([local_phase_phi(1, geometry, t, tt)
                        - local_phase_phi(1, geometry, t, 0.0) for tt in taus])
        Vand = np.vander(taus, 5, increasing=True)[:, 1:]
        coef = np.linalg.solve(Vand[:4, :], rhs[:4])
        assert abs(coef[3] - target) < 1e-10

    def test_exponential_identity(self, geometry):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = int(rng.integers(1, 4))
            t = float(rng.uniform(0.5, 200.0))
            tau = complex(rng.normal(), rng.normal())
            lhs = np.exp(2j * t * geometry.theta(scaling_map(s, geometry, t, tau)))
            rhs = np.exp(2 * local_phase_phi(s, geometry, t, tau)) \
                * np.exp(saddle_sign(s) * 1j * tau**2 / 2)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


class TestPcCoefficients:
    def test_zero_order(self):
        assert pc_coefficients(1, 0.3, 0.0, 0.0) == (0, 0)
        assert pc_coefficients(2, 0.0, 0.0, 0.0) == (0, 0)

    def test_product_identity(self):
        # beta gamma_c = -v; for real v this gives |beta gamma_c| = |v|,
        # the modulus identity |Gamma(iv)|^2 = pi/(v sinh(pi v)) in disguise
        for (p, q) in ((0.4, 0.3), (P, Q), (0.9j, 0.4 - 0.2j)):
            v = model_order(p, q)
            beta, gamc = pc_coefficients(1, p, q, v)
            assert abs(beta * gamc + v) < 1e-12
            if abs(np.imag(v)) < 1e-14:
                assert abs(abs(beta * gamc) - abs(v)) < 1e-12

    def test_s2_conjugate_convention(self):
        v = model_order(P, Q)
        b2, g2 = pc_coefficients(2, P, Q, v)
        b1c, g1c = pc_coefficients(1, np.conj(P), np.conj(Q), np.conj(v))
        assert abs(b2 - np.conj(b1c)) < 1e-14
        assert abs(g2 - np.conj(g1c)) < 1e-14


def m_matrix(model: LocalModelData, tau: complex) -> np.ndarray:
    """The constant-jump Weber solution m of an s = 1 model, from its scaled
    columns; tau in the closed upper half-plane selects the branch recessive
    there, the open lower half-plane the other one."""
    tau = complex(tau)
    (c11, c21), (c12, c22) = pcmodel._scaled_columns(model.v, model.r1r, model.r2r, tau,
                                                     upper=tau.imag >= 0)
    grow = cmath.exp(0.25j * tau * tau)
    return np.array([[c11 / grow, c12 * grow], [c21 / grow, c22 * grow]])


class TestWeberSolution:
    def test_entry_odes(self, model1):
        # m11'' + (i/2 + tau^2/4 - v) m11 = 0 and the -i/2 partner for m22
        # (the printed order parameter gamma*beta equals -v here, so the
        # coefficient is i/2 + tau^2/4 + beta*gamma_c)
        v = model1.v
        h = 1e-3
        for tau in (0.6, -1.2, 0.4 + 0.5j):
            for (i, j, sgn) in ((0, 0, +1), (1, 0, -1), (0, 1, +1), (1, 1, -1)):
                f = lambda t: m_matrix(model1, t)[i, j]
                dd = (f(tau + h) - 2 * f(tau) + f(tau - h)) / h**2
                coef = (sgn * 0.5j + tau**2 / 4.0 - v)
                res = dd + coef * f(tau)
                scale = max(1.0, abs(coef * f(tau)))
                assert abs(res) < 1e-6 * scale, (i, j, tau)

    def test_wronskian_identities(self, model1):
        # the solutions recessive above/below recombine to -r1r and -r2r;
        # a 1e-300 offset below the axis selects the lower branch at the
        # same point (it vanishes in every product)
        tau = 1.234
        mu_ = m_matrix(model1, tau)
        md_ = m_matrix(model1, complex(tau, -1e-300))
        w1 = md_[0, 0] * mu_[1, 0] - mu_[0, 0] * md_[1, 0]
        w2 = md_[1, 1] * mu_[0, 1] - mu_[1, 1] * md_[0, 1]
        assert abs(w1 - (-P)) < 1e-12
        assert abs(w2 - (-Q)) < 1e-12

    def test_determinant(self, model1):
        for tau in (0.5, 1.5 + 0.4j, -2.0 - 0.3j):
            m = m_matrix(model1, tau)
            assert abs(np.linalg.det(m) - 1.0) < 1e-10


def _jump_residual(s, model, tau_points=(0.5, 2.0)):
    worst = 0.0
    for r in tau_points:
        for ang, plus_is_ccw in ((np.pi / 4, True), (3 * np.pi / 4, False),
                                 (-np.pi / 4, False), (-3 * np.pi / 4, True)):
            tau = r * np.exp(1j * ang)
            up = pc_model_matrix(s, model, tau, side=+1)
            dn = pc_model_matrix(s, model, tau, side=-1)
            J = pc_jump_matrix(s, model, tau)
            plus, minus = (up, dn) if plus_is_ccw else (dn, up)
            worst = max(worst, float(np.abs(plus - minus @ J).max()))
        for x in (r, -r):
            up = pc_model_matrix(s, model, x, side=+1)
            dn = pc_model_matrix(s, model, x, side=-1)
            worst = max(worst, float(np.abs(up - dn).max()))
    return worst


class TestModelMatrix:
    def test_identity_for_zero_data(self):
        model = LocalModelData(s=1, v=0.0, r1r=0.0, r2r=0.0)
        for tau in (0.3 + 0.4j, -1.2 + 0.1j, 2.1 - 1.7j):
            assert np.abs(pc_model_matrix(1, model, tau) - np.eye(2)).max() < 1e-12

    def test_jump_residuals(self, model1):
        assert _jump_residual(1, model1) < 1e-6

    def test_jump_residuals_s2(self):
        v = model_order(0.15 - 0.3j, 0.8 + 0.25j)
        model = LocalModelData(s=2, v=v, r1r=0.15 - 0.3j, r2r=0.8 + 0.25j)
        assert _jump_residual(2, model) < 1e-6

    def test_side_flag_required_on_contour(self, model1):
        with pytest.raises(ValueError):
            pc_model_matrix(1, model1, 1.0 + 0j)

    def test_large_tau_coefficients(self, model1):
        beta, gamc = pc_coefficients(1, P, Q, model1.v)
        for ang in (0.3, 1.8, -2.2):
            tau = 50.0 * np.exp(1j * ang)
            X = tau * (pc_model_matrix(1, model1, tau) - np.eye(2))
            assert abs(1j * X[0, 1] - beta) / abs(beta) < 0.02
            assert abs(1j * X[1, 0] - gamc) / abs(gamc) < 0.02

    def test_reflection_symmetry_s2(self):
        # the middle-saddle model is the conjugate reflection tau -> -conj(tau)
        # of the outer-saddle construction on conjugated data
        p2, q2 = 0.15 - 0.3j, 0.8 + 0.25j
        v2 = model_order(p2, q2)
        mod2 = LocalModelData(s=2, v=v2, r1r=p2, r2r=q2)
        mod1c = LocalModelData(s=1, v=np.conj(v2), r1r=np.conj(p2), r2r=np.conj(q2))
        for tau in (0.8 + 0.6j, -1.1 + 0.3j, 2.0 - 0.9j):
            lhs = pc_model_matrix(2, mod2, tau)
            rhs = np.conj(pc_model_matrix(1, mod1c, -np.conj(tau)))
            assert np.abs(lhs - rhs).max() < 1e-8


class TestEvaluationCount:
    """One Maclaurin table per order, one D_a evaluation per ring point."""

    def test_ring(self, monkeypatch, model1):
        # fresh caches, so that no earlier test's values hide the work
        tables, built, pairs, evaluations, sums = [], [], [], [], []
        build, pair = special._maclaurin.__wrapped__, pcmodel.parabolic_cylinder_D_scaled_pair
        scaled, horner = special._scaled, special._horner

        def counting_build(a):
            tables.append(a)
            built.append(build(a))
            return built[-1]

        def counting_pair(a, z):
            pairs.append(a)
            return pair(a, z)

        def counting_scaled(a, z):
            evaluations.append((a, z))
            return scaled(a, z)

        def counting_horner(coeffs, z):
            sums.append((abs(z), coeffs))
            return horner(coeffs, z)

        monkeypatch.setattr(special, "_maclaurin", lru_cache(maxsize=64)(counting_build))
        monkeypatch.setattr(special, "_pcfd_scaled_cached",
                            lru_cache(maxsize=1024)(counting_scaled))
        monkeypatch.setattr(special, "_horner", counting_horner)
        monkeypatch.setattr(pcmodel, "parabolic_cylinder_D_scaled_pair", counting_pair)
        for r in (0.5, 2.0):
            for ang in (np.pi / 4, 3 * np.pi / 4, -np.pi / 4, -3 * np.pi / 4):
                tau = r * np.exp(1j * ang)
                for side in (+1, -1):
                    before = len(pairs)
                    pc_model_matrix(1, model1, tau, side=side)
                    assert len(pairs) == before + 2
                pc_jump_matrix(1, model1, tau)
        assert len(pairs) == 32
        # both sides of a ray evaluate at tau itself and share their D_a
        assert len(evaluations) == 8
        iv = 1j * model1.v
        assert sorted(tables, key=np.imag) == sorted([iv - 1.0, -iv - 1.0], key=np.imag)
        # every sum at |z| <= 2 uses its order's full table
        assert len(sums) == 8 and {r for r, _ in sums} == {0.5, 2.0}
        assert all(any(coeffs is table for table in built) for _, coeffs in sums)


    def test_conjugated_model_once(self, monkeypatch):
        # the s = 2 model reads the s = 1 model on conjugated data: one
        # LocalModelData for the whole ring, not one per matrix
        model = LocalModelData(s=2, v=model_order(P, Q), r1r=P, r2r=Q)
        made, init = [], LocalModelData.__init__

        def counting_init(self, *args, **kwargs):
            made.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LocalModelData, "__init__", counting_init)
        for r in (0.5, 2.0):
            for ang in (np.pi / 4, 3 * np.pi / 4, -np.pi / 4, -3 * np.pi / 4):
                tau = r * np.exp(1j * ang)
                pc_model_matrix(2, model, tau, side=+1)
                pc_model_matrix(2, model, tau, side=-1)
                pc_jump_matrix(2, model, tau)
        assert len(made) == 1
        assert model.conjugated == LocalModelData(1, *(complex(x).conjugate()
                                                      for x in (model.v, P, Q)))


class TestOnRayEvaluation:
    """On a ray or the real axis, side picks the sector: no nudge of tau."""

    RAYS = (0.0, np.pi / 4, 3 * np.pi / 4, np.pi, -np.pi / 4, -3 * np.pi / 4)

    @pytest.fixture(scope="class")
    def models(self):
        rng = np.random.default_rng(17)
        out = []
        for _ in range(4):
            p, q = (complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(2))
            out.append((p, q, model_order(p, q)))
        return out

    @pytest.mark.parametrize("s", (1, 2, 3))
    def test_side_is_the_limit(self, s, models):
        # each side equals the off-line value at tau e^{+-i eps}
        eps = 1e-8
        for p, q, v in models:
            model = LocalModelData(s=s, v=v, r1r=p, r2r=q)
            for r in (0.5, 2.0):
                for ang in self.RAYS:
                    tau = r * cmath.exp(1j * ang)
                    for side in (+1, -1):
                        got = pc_model_matrix(s, model, tau, side=side)
                        want = pc_model_matrix(s, model, tau * cmath.exp(1j * side * eps))
                        assert np.abs(got - want).max() < 1e-7 * np.abs(want).max(), \
                            (r, ang, side)

    @pytest.mark.parametrize("s", (1, 2, 3))
    def test_ring_residuals(self, s, models):
        # the ring of the CLI's pcmodel and the rays workload, both sides
        # from one evaluation: left to rounding
        for p, q, v in models:
            assert _jump_residual(s, LocalModelData(s=s, v=v, r1r=p, r2r=q)) <= 1e-14


class TestLambdaConjugator:
    @pytest.fixture(scope="class")
    def machinery(self):
        data = ScatteringData.pure_step(2.0, GAMMA)
        locate_xi1(data)
        geom = stationary_points(0.5, GAMMA)
        return data, geom, saddle_exponents(build_delta(data, geom))

    def test_trivial(self):
        data = ScatteringData.reflectionless(2.0, GAMMA)
        geom = stationary_points(0.5, GAMMA)
        exps = saddle_exponents(build_delta(data, geom))
        eta = lambda_conjugator(1, exps, 5.0, 0.0)
        # v = chi = 0: only the oscillatory phase i t theta survives
        assert abs(eta - 1j * 5.0 * geom.theta(geom.lam1)) < 1e-9

    def test_power_factor_modulus(self, machinery):
        data, geom, exps = machinery
        t = 40.0
        eta = lambda_conjugator(1, exps, t, 0.0)
        # pure step: v real, chi imaginary, phi imaginary -> |e^eta| = |F^{iv/2}| = 1
        assert abs(abs(np.exp(eta)) - 1.0) < 1e-9

    def test_t_power_law(self, machinery):
        # |Lambda_1| = O(t^{+-Im v/2}): with synthetic complex v the modulus
        # of the power factor scales like t^{Im v/2}
        from steplpd.scattering import synthetic_from_v_targets

        data = synthetic_from_v_targets(2.0, GAMMA, 0.5, (0.1 + 0.2j, 0.05, 0.02))
        geom = stationary_points(0.5, GAMMA)
        exps = saddle_exponents(build_delta(data, geom))
        t1, t2 = 20.0, 80.0
        e1 = lambda_conjugator(1, exps, t1, 0.0)
        e2 = lambda_conjugator(1, exps, t2, 0.0)
        # strip the oscillation i t theta(lam1): it has no modulus
        ratio = abs(np.exp(e2)) / abs(np.exp(e1))
        expected = (t2 / t1) ** (np.imag(exps.v[0]) / 2.0)
        assert abs(ratio - expected) < 1e-6

    @pytest.mark.parametrize("s", (1, 2, 3))
    @pytest.mark.parametrize("targets", [None, (0.05j, -0.03j, 0.08j)],
                             ids=["pure-step", "synthetic"])
    def test_matches_delta_at_saddle(self, targets, s):
        # delta(xi(tau)) over the model's tau-power tends to exp(eta_s - phi_s)
        # at tau = 0, with an O(t^-1/2) remainder from tau = +-0.7i alike
        if targets is None:
            data = ScatteringData.pure_step(2.0, GAMMA)
        else:
            data = synthetic_from_v_targets(2.0, GAMMA, 0.5, targets)
        geom = stationary_points(0.5, GAMMA)
        delta = build_delta(data, geom)
        exps = saddle_exponents(delta)
        v = exps.v[s - 1]
        for t in (1e4, 1e6):
            want = np.exp(lambda_conjugator(s, exps, t, 0.0)
                          - local_phase_phi(s, geom, t, 0.0))
            for tau in (0.7j, -0.7j):
                power = tau ** (1j * v) if s != 2 else (-tau) ** (-1j * v)
                got = delta(scaling_map(s, geom, t, tau)) / power
                assert abs(got / want - 1.0) < 10.0 / np.sqrt(t), (t, tau)
