"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with -s (or look at the summary) to
see the per-criterion report.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from steplpd.asymptotics import Branch, q_asymptotic, q_rough, q_soliton
from steplpd.pcmodel import (
    LocalModelData,
    local_phase_phi,
    model_order,
    pc_coefficients,
    pc_jump_matrix,
    pc_model_matrix,
    saddle_sign,
    scaling_map,
)
from steplpd.phase import Regime, sign_of_re_phi, stationary_points
from steplpd.rhfactors import bp_elements, build_delta, residue_constants, saddle_exponents
from steplpd.scattering import (
    InitialProfile,
    ScatteringData,
    SyntheticReflectionData,
    locate_xi1,
    scattering_matrix,
)
from steplpd.simulate import FieldGrid, SolitonField, evolve, pde_residual

GAMMA = 1.0 / 27.0


def report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def pure_step_S(A, xi):
    return np.array([[1 + A * A / (4 * xi * xi), -A / (2j * xi)],
                     [A / (2j * xi), 1.0]], dtype=complex)


def test_criterion_01_pure_step_scattering_oracle():
    t0 = time.time()
    worst = 0.0
    for A in (0.5, 1.0, 2.0):
        exact_profile = InitialProfile.pure_step(A, GAMMA)
        ode_profile = InitialProfile(A=A, gamma=GAMMA, support=0.4)
        for xi in (0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 5.0, -5.0):
            Sx = pure_step_S(A, xi)
            scale = np.abs(Sx)
            for prof in (exact_profile, ode_profile):
                S = scattering_matrix(prof, xi)
                worst = max(worst, float((np.abs(S - Sx) / scale).max()))
    wall = time.time() - t0
    report("criterion 1 (pure-step scattering oracle)",
           worst < 1e-8 and wall < 30.0,
           f"max entrywise rel err {worst:.2e}, runtime {wall:.1f}s")


def test_criterion_02_determinant_and_symmetry_suite():
    rng = np.random.default_rng(42)
    profiles = [InitialProfile.pure_step(2.0, GAMMA),
                InitialProfile.gaussian_bump(2.0, GAMMA, 0.3 + 0.2j, 0.4, 0.5)]
    worst_det, worst_sym = 0.0, 0.0
    sigma1 = np.array([[0, 1], [1, 0]])
    for prof in profiles:
        xis = rng.uniform(0.15, 4.0, size=25) * rng.choice([-1, 1], size=25)
        for xi in xis:
            S = scattering_matrix(prof, float(xi))
            Sm = scattering_matrix(prof, float(-xi))
            worst_det = max(worst_det, abs(np.linalg.det(S) - 1.0))
            worst_sym = max(
                worst_sym,
                abs(S[0, 0] - np.conj(Sm[0, 0])),
                abs(S[1, 1] - np.conj(Sm[1, 1])),
                abs(S[1, 0] + np.conj(Sm[0, 1])),
                float(np.abs(sigma1 @ np.conj(np.linalg.inv(Sm)) @ sigma1 - S).max()))
    report("criterion 2 (determinant and symmetry suite)",
           worst_det < 1e-10 and worst_sym < 1e-8,
           f"|det-1| {worst_det:.2e}, symmetry {worst_sym:.2e} over 50 xi")


def test_criterion_03_xi1_agreement():
    errs = []
    for A in (0.5, 1.0, 2.0):
        d = ScatteringData.pure_step(A, GAMMA)
        xi1 = locate_xi1(d)
        errs.append(abs(xi1 - A / 2))
        errs.append(abs(d.a1(1j * xi1)))
    d2 = ScatteringData.reflectionless(1.7, GAMMA, 0.3)
    exact = locate_xi1(d2) == 1.7 / 2.0
    report("criterion 3 (xi1 agreement)",
           max(errs) < 1e-6 and exact,
           f"case-1 worst err {max(errs):.2e}; case-2 closed form exact: {exact}")


def test_criterion_04_exact_soliton_residual():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for (A, gam, al) in ((2.0, 0.1, np.pi / 3), (1.0, GAMMA, 0.0)):
        f = SolitonField(A, al, gam)
        count = 0
        while count < 100:
            x = float(rng.uniform(-2.5, 2.5))
            t = float(rng.uniform(0.05, 1.5))
            # non-pole: the solution stays moderate on the whole stencil
            # footprint (including the mirrored line), else its high
            # derivatives overwhelm any finite differencing
            probe = [abs(f(xx, tt))
                     for xx in (x - 0.12, x, x + 0.12, -x - 0.12, -x, -x + 0.12)
                     for tt in (t - 0.1, t, t + 0.1)]
            if max(probe) > 1.4 * A:
                continue
            worst = max(worst, abs(pde_residual(f, x, t, gam, hx=0.015, ht=0.015)))
            count += 1
    wall = time.time() - t0
    report("criterion 4 (exact soliton residual)",
           worst < 1e-6 and wall < 10.0,
           f"max |residual| {worst:.2e} at 200 points, runtime {wall:.1f}s")


def test_criterion_05_delta_suite():
    A = 2.0
    data = ScatteringData.pure_step(A, GAMMA)
    locate_xi1(data)
    mu = 0.5
    geom = stationary_points(mu, GAMMA)
    delta = build_delta(data, geom)

    xi0 = 0.5 * (geom.lam2 + geom.lam1)
    jump_err = abs(delta.eval(xi0, +1) / delta.eval(xi0, -1)
                   - data.one_plus_r1r2(xi0))
    norm_err = abs(delta.eval(1e3) - 1.0)

    geom_m = stationary_points(-mu, GAMMA)
    delta_m = build_delta(data, geom_m)
    sym_err = max(abs(delta.eval(z) - np.conj(delta_m.eval(-np.conj(z))))
                  for z in (0.7 + 0.9j, -1.2 + 0.4j, 2.0 - 0.8j))

    exps = saddle_exponents(delta)
    prod_err = max(abs(exps.product_form(s, z) - delta.eval(z))
                   for s in (1, 2, 3)
                   for z in (0.9 + 0.4j, -2.0 + 0.15j, 2.4 - 0.3j, 0.0, 3.5))

    report("criterion 5 (delta-function suite)",
           jump_err < 1e-6 and norm_err < 5e-3 and sym_err < 1e-6
           and prod_err < 1e-5,
           f"jump {jump_err:.2e}, |delta(1e3)-1| {norm_err:.2e}, "
           f"symmetry {sym_err:.2e}, product-form {prod_err:.2e}")


def test_criterion_06_parabolic_cylinder_local_model():
    worst_jump, worst_fit = 0.0, 0.0
    for v_target in (0.11, 0.11 + 0.2j):
        r2r = 0.9
        r1r = (np.exp(-2 * np.pi * v_target) - 1.0) / r2r
        v = model_order(r1r, r2r)
        model = LocalModelData(s=1, v=v, r1r=r1r, r2r=r2r)
        beta, gamc = pc_coefficients(1, r1r, r2r, v)
        for r in (0.5, 2.0):
            for ang, plus_is_ccw in ((np.pi / 4, True), (3 * np.pi / 4, False),
                                     (-np.pi / 4, False), (-3 * np.pi / 4, True)):
                tau = r * np.exp(1j * ang)
                up = pc_model_matrix(1, model, tau, side=+1)
                dn = pc_model_matrix(1, model, tau, side=-1)
                J = pc_jump_matrix(1, model, tau)
                plus, minus = (up, dn) if plus_is_ccw else (dn, up)
                worst_jump = max(worst_jump, float(np.abs(plus - minus @ J).max()))
            for x in (r, -r):   # continuity across the real axis
                up = pc_model_matrix(1, model, x, side=+1)
                dn = pc_model_matrix(1, model, x, side=-1)
                worst_jump = max(worst_jump, float(np.abs(up - dn).max()))
        for ang in (0.9, 2.3, -1.1):
            tau = 50.0 * np.exp(1j * ang)
            X = tau * (pc_model_matrix(1, model, tau) - np.eye(2))
            worst_fit = max(worst_fit,
                            abs(1j * X[0, 1] - beta) / abs(beta),
                            abs(1j * X[1, 0] - gamc) / abs(gamc))
    report("criterion 6 (parabolic-cylinder local model)",
           worst_jump < 1e-6 and worst_fit < 0.02,
           f"jump residual {worst_jump:.2e}, large-tau coefficient fit {worst_fit:.2%}")


def test_criterion_07_phase_geometry():
    worst_res = 0.0
    for mu in (0.2, 0.5, -0.6):
        geom = stationary_points(mu, GAMMA)
        worst_res = max(worst_res,
                        max(abs(geom.theta(l, 1)) for l in geom.lambdas)
                        / (1 + abs(mu)))
    geo0 = stationary_points(0.0, GAMMA, allow_edge=True)
    lam = 1.0 / (4.0 * np.sqrt(GAMMA))
    closed_err = max(abs(geo0.lambdas[0] - lam), abs(geo0.lambdas[2] + lam),
                     abs(geo0.lambdas[1]))
    mu_c = np.sqrt(1.0 / (27 * GAMMA))
    degen = stationary_points(mu_c * (1.0 - 1e-12), GAMMA, allow_edge=True)
    degen_ok = degen.regime in (Regime.DOUBLE_ROOT, Regime.THREE_REAL) and \
        abs(degen.lambdas[0] - degen.lambdas[1]) < 1e-2
    exact_degen = stationary_points(mu_c, GAMMA, allow_edge=True)
    degen_detect = exact_degen.regime is Regime.DOUBLE_ROOT and \
        abs(exact_degen.lambdas[0] - 3 * mu_c / 4) < 1e-8

    geom = stationary_points(0.5, GAMMA)
    probes_ok = True
    for lam_s in (geom.lam1, geom.lam3):   # figure-read octant labels
        for ang, expected in ((np.pi / 4, -1), (3 * np.pi / 4, +1),
                              (-3 * np.pi / 4, -1), (-np.pi / 4, +1)):
            probes_ok &= sign_of_re_phi(lam_s + 0.1 * np.exp(1j * ang),
                                        geom) == expected
    report("criterion 7 (phase geometry)",
           worst_res < 1e-10 and closed_err < 1e-12 and degen_detect
           and degen_ok and probes_ok,
           f"residuals {worst_res:.1e}, mu=0 closed form {closed_err:.1e}, "
           f"degenerate detection {degen_detect}, 8 sign probes {probes_ok}")


def test_criterion_08_taylor_consistency():
    geom = stationary_points(0.5, GAMMA)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        s = int(rng.integers(1, 4))
        t = float(rng.uniform(0.5, 300.0))
        tau = complex(rng.normal(), rng.normal())
        lhs = np.exp(2j * t * geom.theta(scaling_map(s, geom, t, tau)))
        rhs = np.exp(2.0 * local_phase_phi(s, geom, t, tau)) \
            * np.exp(saddle_sign(s) * 1j * tau**2 / 2.0)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    report("criterion 8 (Taylor-consistent local phase)", worst < 1e-12,
           f"max identity residual {worst:.2e} over 20 samples")


def test_criterion_09_asymptotic_power_law():
    targets = (0.1j, -0.05j, 0.08j)
    geom = stationary_points(0.5, GAMMA)
    lams = np.array(geom.lambdas)
    width = 0.35
    G = np.exp(-((lams[:, None] - lams[None, :]) / width) ** 2)
    coef = np.linalg.solve(G, np.asarray(targets))

    def g(z):
        return np.sum(coef * np.exp(-((np.asarray(z).real[..., None] - lams) / width) ** 2),
                      axis=-1)

    def r2(z):
        zr = np.real(z)
        return (0.1 + 3.0 * np.exp(-((zr - lams[0]) / width) ** 2)
                + 1.2 * np.exp(-((zr - lams[1]) / width) ** 2)
                + 0.6 * np.exp(-((zr - lams[2]) / width) ** 2))

    def r1(z):
        return (np.exp(-2 * np.pi * g(z)) - 1.0) / r2(z)

    data = SyntheticReflectionData(A=2.0, gamma=GAMMA, r1=r1, r2=r2, xi1=1.0)
    res = q_asymptotic(0.5 * 100.0, 100.0, data)
    v_err = max(abs(res.v[k] - targets[k]) for k in range(3))
    ts = np.logspace(2, 6, 61)
    vals = np.array([abs(res.value(0.5 * t, t) - res.background) for t in ts])
    slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
    dominant = max(tm.exponent.real for tm in res.leading_terms)

    # branch table: all three Im v sit in the middle interval -> both sums
    branch_ok = res.branch is Branch.X_POS_I2 and len(res.leading_terms) == 6
    cases = [((-0.3j, -0.25j, -0.4j), Branch.X_POS_I1),
             ((0.3j, 0.25j, 0.4j), Branch.X_POS_I3)]
    for tg, br in cases:
        dd = __import__("steplpd.scattering", fromlist=["x"]).synthetic_from_v_targets(
            2.0, GAMMA, 0.5, tg)
        branch_ok &= q_asymptotic(0.5 * 60.0, 60.0, dd).branch is br

    report("criterion 9 (asymptotic power law)",
           abs(slope - dominant) < 0.05 and branch_ok and v_err < 1e-9,
           f"slope {slope:.4f} vs dominant {dominant:.4f}, "
           f"branch selection {branch_ok}")


def test_criterion_10_rough_estimate_consistency():
    data = ScatteringData.pure_step(2.0, GAMMA)
    locate_xi1(data)
    t = 17.0
    res = q_asymptotic(0.5 * t, t, data)
    same_bits = res.background == q_rough(0.5 * t, t, data)
    neg_zero = q_rough(-0.5 * t, t, data) == 0
    res_neg = q_asymptotic(-0.5 * t, t, data)
    report("criterion 10 (rough-estimate consistency)",
           same_bits and neg_zero and res_neg.background == 0,
           f"background bit-identical: {same_bits}; x<0 background 0: "
           f"{neg_zero and res_neg.background == 0}")


@pytest.mark.slow
def test_criterion_11_simulator_oracle():
    A, gam, al = 2.0, 0.1, np.pi
    g0 = FieldGrid.from_function(lambda x: q_soliton(x, 0.0, A, al, gam),
                                 10.0, 0.02)
    t0 = time.time()
    g1 = evolve(g0, 0.1, gam)
    wall = time.time() - t0
    exact = np.array([q_soliton(float(x), 0.1, A, al, gam) for x in g1.x])
    err = float(np.abs(g1.values - exact).max())
    report("criterion 11 (simulator oracle)",
           err < 1e-3 and wall < 120.0,
           f"max-norm deviation {err:.2e} at t=0.1 (h=0.02), runtime {wall:.0f}s")


def test_criterion_12_bp_consistency():
    data = ScatteringData.pure_step(2.0, GAMMA)
    locate_xi1(data)
    geom = stationary_points(0.5, GAMMA)
    delta = build_delta(data, geom)
    rc = residue_constants(data, delta)
    xi1 = data.xi1

    P12, P21 = bp_elements((1j * xi1, 0.0), (rc.c0, 1j * xi1))
    pos_err = abs(-2 * xi1 * P12 - 2.0 * delta.at_zero() ** 2)
    neg_err = abs(-2 * xi1 * np.conj(P21))
    report("criterion 12 (BP consistency)",
           pos_err < 1e-10 and neg_err < 1e-10,
           f"x>0 background err {pos_err:.2e}, x<0 err {neg_err:.2e}")
