"""Node rules and Cauchy sums, special functions, cubic roots and the ODE kernel."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from steplpd.kernels import (
    ContourInterval,
    complex_gamma,
    cubic_real_roots,
    interval_rule,
    ode_integrate,
    parabolic_cylinder_D,
)
from steplpd.kernels.quadrature import IntegrationError, level_gap, log_side
from steplpd.kernels.special import (
    GammaPoleError,
    _pcfd_scaled_cached,
    parabolic_cylinder_D_scaled_pair,
    reciprocal_gamma,
)

# nodes of the Gauss-Legendre rules under test
N = 64


def _loaded_after_import(module: str, names: list[str]) -> list[bool]:
    """Whether each of names is in sys.modules after a fresh process imports module."""
    import steplpd

    src = os.path.dirname(os.path.dirname(os.path.abspath(steplpd.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; print(*(n in sys.modules for n in {names!r}))"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return [tok == "True" for tok in proc.stdout.split()]


class TestIntegrate:
    """The Gauss-Legendre node rule on finite intervals and half-lines."""

    def test_constant(self):
        rule = interval_rule(ContourInterval(0, 1), N)
        assert abs(rule.integrate(np.ones(N)) - 1.0) < 1e-12

    def test_gaussian(self):
        val = sum(rule.integrate(np.exp(-rule.z ** 2) + 0j)
                  for rule in (interval_rule(ContourInterval(-np.inf, 0.0), N),
                               interval_rule(ContourInterval(0.0, np.inf), N)))
        assert abs(val - np.sqrt(np.pi)) < 1e-10

    def test_full_period_oscillation(self):
        rule = interval_rule(ContourInterval(0, 2 * np.pi), N)
        assert abs(rule.integrate(np.exp(1j * rule.z))) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, a, b):
        rule = interval_rule(ContourInterval(-4.0, 4.0), N)
        f = np.exp(-rule.z ** 2) + 0j
        g = np.cos(rule.z) * np.exp(-abs(rule.z) / 2) + 0j
        lhs = rule.integrate(a * f + b * g)
        rhs = a * rule.integrate(f) + b * rule.integrate(g)
        assert abs(lhs - rhs) < 1e-8 * (1 + abs(a) + abs(b))

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            ContourInterval(2.0, 1.0)

    def test_whole_line_refused(self):
        with pytest.raises(ValueError):
            interval_rule(ContourInterval(-np.inf, np.inf), N)

    def test_si_bound_on_first_access(self):
        from scipy import integrate

        from steplpd.kernels import quadrature

        assert quadrature._si is integrate
        assert vars(quadrature)["_si"] is integrate
        with pytest.raises(AttributeError):
            quadrature.no_such_name  # noqa: B018


def _exp_cauchy(xi: complex, side: int = +1) -> complex:
    """(1/2 pi i) int_0^1 e^z/(z - xi) dz: mpmath on the entire part
    (e^z - e^xi)/(z - xi), plus e^xi ln((1 - xi)/(-xi)) in closed form."""
    import mpmath as mp

    with mp.workdps(30):
        x = mp.mpc(xi)
        smooth = mp.quad(lambda z: (mp.exp(z) - mp.exp(x)) / (z - x), [0, 1])
        if xi.imag == 0.0:
            log = mp.log((1 - x.real) / x.real) + 1j * mp.pi * side
        else:
            log = mp.log((1 - x) / (-x))
        return complex((smooth + mp.exp(x) * log) / (2j * mp.pi))


class TestCauchyTransform:
    """IntervalRule.cauchy: plain sums far off, subtraction near and on."""

    def test_zero_density(self):
        rule = interval_rule(ContourInterval(0, 1), N)
        for xi in (2.0 + 0j, -1j, 0.5 + 0.5j):
            assert rule.cauchy(np.zeros(N, dtype=complex), xi) == 0

    def test_unit_density_closed_form(self):
        # (1/2 pi i) int_0^1 dz/(z - 2) = -ln 2/(2 pi i); oracle from the
        # antiderivative ln(z - xi)
        val = interval_rule(ContourInterval(0, 1), N).cauchy(np.ones(N), 2.0 + 0j)
        assert abs(val - (-np.log(2.0) / (2j * np.pi))) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.15, 0.85), st.floats(-2, 2), st.floats(-2, 2))
    @example(0.5, 1.0, -1.0)
    def test_plemelj_jump(self, x0, c1, c2):
        rule = interval_rule(ContourInterval(0, 1), N)
        density = lambda z: np.exp(c1 * z) + 1j * c2 * z * z
        up = rule.cauchy(density(rule.z), x0, side=+1)
        dn = rule.cauchy(density(rule.z), x0, side=-1)
        assert abs((up - dn) - density(x0)) < 1e-9 * (1 + abs(density(x0)))

    def test_side_flag_required(self):
        with pytest.raises(ValueError):
            interval_rule(ContourInterval(0, 1), N).cauchy(np.ones(N), 0.5)

    def test_near_contour(self):
        # 1e-6 off the interval, and on it from either side
        rule = interval_rule(ContourInterval(0, 1), N)
        for xi, side in ((0.5 + 1e-6j, None), (0.5 - 1e-6j, None), (0.3, +1), (0.3, -1)):
            val = rule.cauchy(np.exp(rule.z), xi, side)
            assert abs(val - _exp_cauchy(complex(xi), side or 1)) < 1e-12, xi

    def test_node_refused(self):
        rule = interval_rule(ContourInterval(0, 1), N)
        for side in (+1, -1):
            with pytest.raises(ValueError, match="node"):
                rule.cauchy(np.exp(rule.z), float(rule.z[N // 3]), side)

    def test_geometric(self):
        # density ln z^2, log-singular at 0, on [1e-3, 1] and on its mirror,
        # where the nodes are spaced evenly in ln|z|: at 0, near the end
        # nearer 0 and on the contour from either side
        import mpmath as mp

        for a, b, x0 in ((1e-3, 1.0, 2e-3), (-1.0, -1e-3, -2e-3)):
            rule = interval_rule(ContourInterval(a, b), N)
            assert rule.geometric
            f = np.log(rule.z ** 2) + 0j
            with mp.workdps(30):
                F = lambda z: mp.log(z * z)
                assert abs(rule.integrate(f) - complex(mp.quad(F, [a, x0, b]))) < 1e-12
                at_zero = mp.quad(lambda z: F(z) / z, [a, x0, b]) / (2j * mp.pi)
                assert abs(rule.cauchy(f, 0.0) - complex(at_zero)) < 1e-12
                for xi, side in ((x0 + 1e-6j, None), (x0 - 1e-6j, None), (x0, +1), (x0, -1)):
                    x = mp.mpc(xi)
                    smooth = mp.quad(lambda z: (F(z) - F(x)) / (z - x), [a, x0, b])
                    if side is None:
                        log = mp.log((b - x) / (a - x))
                    else:
                        log = mp.log(abs((b - x0) / (a - x0))) + 1j * mp.pi * side
                    want = complex((smooth + F(x) * log) / (2j * mp.pi))
                    assert abs(rule.cauchy(f, xi, side) - want) < 1e-12, (a, xi, side)

    def test_half_line(self):
        # density 1/(1 + z^2) on (-inf, -1] and on its mirror [1, inf)
        import mpmath as mp

        for iv, x0 in ((ContourInterval(-np.inf, -1.0), -2.0),
                       (ContourInterval(1.0, np.inf), 2.0)):
            rule = interval_rule(iv, N)
            f = 1.0 / (1.0 + rule.z ** 2)
            for xi in (0.3 + 0.4j, x0 + 1e-6j, 1e3 + 0j, -1e3 + 0j):
                if iv.contains(xi.real) and xi.imag == 0.0:
                    continue
                with mp.workdps(30):
                    want = complex(mp.quad(lambda z: 1 / ((1 + z * z) * (z - mp.mpc(xi))),
                                           [iv.lower, x0, iv.upper]) / (2j * mp.pi))
                assert abs(rule.cauchy(f, xi) - want) < 1e-12, (iv, xi)
            up, dn = rule.cauchy(f, x0, +1), rule.cauchy(f, x0, -1)
            assert abs((up - dn) - 1.0 / (1.0 + x0 * x0)) < 1e-12

    def test_endpoint_refused(self):
        with pytest.raises(ValueError):
            interval_rule(ContourInterval(0, 1), N).cauchy(np.ones(N), 1.0)


def _numpy_log_side(z: complex, side: int | None = None) -> complex:
    """The numpy form that log_side replaced."""
    z = complex(z)
    if side is not None and z.imag == 0.0 and z.real < 0.0:
        return np.log(-z.real) + 1j * np.pi * side
    return np.log(z)


def _numpy_cauchy(rule, values: np.ndarray, xi: complex, side: int | None = None) -> complex:
    """The numpy form that IntervalRule.cauchy's scalar steps replaced."""
    xi = complex(xi)
    a, b = rule.interval.lower, rule.interval.upper
    dz = rule.z - xi
    if np.isfinite(a) and np.isfinite(b):
        if rule.geometric:
            s_xi = 2.0 * np.log(xi / a) / np.log(b / a) - 1.0 if xi != 0 else np.inf
        else:
            s_xi = (2.0 * xi - a - b) / (b - a)
        g, arg = 1.0, (b - xi) / (a - xi)
    else:
        if np.isfinite(b):
            u, p, arg = b - xi, b + 1.0, xi - b
        else:
            u, p, arg = xi - a, a - 1.0, 1.0 / (a - xi)
        s_xi = (u - 1.0) / (u + 1.0) if u != -1.0 else np.inf
        g = (p - xi) / (p - rule.z)
    if not abs(s_xi + np.sqrt(s_xi - 1.0) * np.sqrt(s_xi + 1.0)) < 1.5:
        return complex(np.dot(rule.W, values / dz)) / (2j * np.pi)
    c = complex(np.dot(rule.bary / (s_xi - rule.s), values)
                / np.sum(rule.bary / (s_xi - rule.s)))
    return (complex(np.dot(rule.W, (values - c * g) / dz))
            + c * _numpy_log_side(arg, side)) / (2j * np.pi)


def _ulps(got, want) -> float:
    """|got - want| in units of the last place of |want|."""
    return abs(got - want) / np.spacing(abs(want))


def _form_points(rng, lo: float, hi: float) -> list:
    """(xi, side): on the interval from both sides, 1e-9 to 1e-2 above and
    below it, off it, and next to each finite end."""
    xs = rng.uniform(max(lo, -3.0), min(hi, 3.0), 30)
    pts = [(x, side) for x in xs for side in (+1, -1)]
    pts += [(complex(x, e), None) for x in xs for e in (1e-9, -1e-9, 1e-5, -1e-5, 1e-2, -1e-2)]
    pts += [(complex(*rng.normal(0.0, 3.0, 2)), None) for _ in range(60)]
    for end in (e for e in (lo, hi) if np.isfinite(e)):
        pts += [(complex(end + d, h), None) for d in (-1e-6, 1e-6, -0.1, 0.1)
                for h in (1e-6, -1e-6)]
        pts += [(end + d, side) for d in (-1e-6, 1e-6) for side in (+1, -1) if lo < end + d < hi]
    return pts


class TestScalarForms:
    """log_side, level_gap and IntervalRule.cauchy do their scalar steps in
    Python's math and cmath; they agree with the numpy forms they replaced.
    cmath.log and numpy's complex log differ in the last bits of either
    part, so log_side agrees to 2 ulps of |ln z|; the affine and half-line
    Cauchy sums inherit that through the closed-form log, and the geometric
    one also through the preimage ln(xi/a), which moves the subtracted
    interpolant c: 1e-9 off the contour that changes the sum by up to a few
    hundred ulps, 1e-13 of it."""

    def test_log_side(self):
        rng = np.random.default_rng(7)
        zs = [complex(*rng.normal(0.0, scale, 2))
              for scale in (0.1, 1.0, 10.0) for _ in range(500)]
        zs += [complex(-x, 0.0) for x in rng.uniform(1e-3, 10.0, 200)]
        for z in zs:
            for side in (None, +1, -1):
                assert _ulps(log_side(z, side), _numpy_log_side(z, side)) <= 2.0, (z, side)

    def test_level_gap(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            coarse, fine = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
            fine = coarse + 1e-11 * fine
            want = np.abs(np.subtract(coarse, fine))
            for n in (1, 3):
                got = level_gap("stage", tuple(coarse[:n]), tuple(fine[:n]))
                assert len(got) == n and all(_ulps(g, w) <= 1.0 for g, w in zip(got, want))
        with pytest.raises(IntegrationError, match="stage changes by 2.0e-10"):
            level_gap("stage", (1.0, 1.0 + 2e-10j), (1.0, 1.0))

    @pytest.mark.parametrize("lo, hi, bound", [(0.0, 1.0, 4.0), (-0.8, 1.1, 4.0),
                                               (0.2, 1.3, 1e3), (-1.3, -0.2, 1e3),
                                               (-np.inf, -0.7, 4.0), (0.7, np.inf, 4.0)])
    def test_cauchy(self, lo, hi, bound):
        rng = np.random.default_rng(9)
        for n in (64, 128):
            rule = interval_rule(ContourInterval(lo, hi), n)
            f = (1.0 + 0.3j) / (1.0 + rule.z * rule.z)
            for xi, side in _form_points(rng, lo, hi):
                want = _numpy_cauchy(rule, f, xi, side)
                assert _ulps(rule.cauchy(f, xi, side), want) <= bound, (n, xi, side)
                assert abs(rule.cauchy(f, xi, side) - want) <= 1e-13 * max(1.0, abs(want))


class TestComplexGamma:
    def test_one(self):
        assert abs(complex_gamma(1.0) - 1.0) < 1e-13

    def test_half(self):
        assert abs(complex_gamma(0.5) - np.sqrt(np.pi)) < 1e-13

    def test_gamma_of_i_reflection_oracle(self):
        # |Gamma(i)|^2 = pi/sinh(pi) from Gamma(z)Gamma(1-z) = pi/sin(pi z)
        oracle = np.sqrt(np.pi / np.sinh(np.pi))
        assert abs(abs(complex_gamma(1j)) - oracle) < 1e-12

    def test_recurrence_grid(self):
        for re in np.linspace(-9.3, 9.7, 8):
            for im in np.linspace(-4.8, 4.8, 7):
                z = complex(re, im)
                if z.imag == 0 and z.real <= 0 and z.real == int(z.real):
                    continue
                lhs = complex_gamma(z + 1)
                rhs = z * complex_gamma(z)
                assert abs(lhs - rhs) < 1e-9 * abs(lhs)

    def test_pole(self):
        with pytest.raises(GammaPoleError):
            complex_gamma(-3.0)

    def test_reciprocal_at_pole(self):
        assert reciprocal_gamma(0.0) == 0
        assert reciprocal_gamma(-2.0) == 0


# orders i v, i v - 1, -i v, -i v - 1 of the local models, for criterion 6's
# two targets and the corners of the rays workload (|Re a| <= 1.4,
# |Im a| <= 0.96)
_MODEL_ORDERS = [a for v in (0.11, 0.11 + 0.2j, 0.96 + 0.4j, 0.96 - 0.4j)
                 for a in (1j * v, 1j * v - 1.0, -1j * v, -1j * v - 1.0)]
# every region and both sides of each switch: |z| = 2 and 9, and the
# Stokes line arg z = +-pi/2
_PC_RADII = (0.5, 2.0, 2.0 - 1e-9, 2.0 + 1e-9, 5.0, 9.0 - 1e-9, 9.0 + 1e-9, 20.0, 50.0)
_PC_ANGLES = [k * np.pi / 8 for k in range(-6, 7)] + [
    s * np.pi / 2 + d for s in (1, -1) for d in (1e-9, -1e-9)]


def _mp_pcfd(a, z, scaled):
    """D_a(z), or e^{z^2/4} D_a(z), from mpmath at 30 digits."""
    import mpmath as mp

    with mp.workdps(30):
        zz = mp.mpc(complex(z))
        d = mp.pcfd(mp.mpc(complex(a)), zz)
        return complex(mp.exp(zz * zz / 4) * d if scaled else d)


class TestParabolicCylinder:
    def test_order_zero_closed_form(self):
        for z in (2.0, -1.3, 0.7 + 0.4j):
            assert abs(parabolic_cylinder_D(0.0, z) - np.exp(-z * z / 4.0)) < 1e-12

    def test_order_minus_one_erfc_oracle(self):
        # D_{-1}(z) = e^{z^2/4} sqrt(pi/2) erfc(z/sqrt(2))
        import mpmath as mp

        for z in (0.0, 0.8, -1.1):
            with mp.workdps(30):
                erfc = complex(mp.erfc(mp.mpc(z / np.sqrt(2))))
            oracle = np.exp(z * z / 4) * np.sqrt(np.pi / 2) * erfc
            assert abs(parabolic_cylinder_D(-1.0, z) - oracle) < 1e-11
        assert abs(parabolic_cylinder_D(-1.0, 0.0) - np.sqrt(np.pi / 2)) < 1e-12

    def test_three_term_recurrence(self):
        a, z = 0.3 + 0.1j, 1.5
        res = (parabolic_cylinder_D(a + 1, z) - z * parabolic_cylinder_D(a, z)
               + a * parabolic_cylinder_D(a - 1, z))
        assert abs(res) < 1e-9

    @pytest.mark.parametrize("a", [0.0, 0.25j, -0.25j, 0.3 + 0.1j])
    def test_weber_ode_residual(self, a):
        # D'' + (a + 1/2 - z^2/4) D = 0 via second central difference;
        # the FD truncation scales with |D''|, so normalize by the term size
        h = 5e-4
        for z in np.linspace(-6, 6, 7):
            d0 = parabolic_cylinder_D(a, z)
            dp = parabolic_cylinder_D(a, z + h)
            dm = parabolic_cylinder_D(a, z - h)
            dd = (dp - 2 * d0 + dm) / h**2
            coef = a + 0.5 - z * z / 4.0
            res = dd + coef * d0
            assert abs(res) < 1e-6 * max(1.0, abs(coef * d0))

    def test_recessive_large_z(self):
        a, z = 0.2 + 0.1j, 9.0
        lhs = parabolic_cylinder_D(a, z)
        assert abs(lhs / (z**a * np.exp(-z * z / 4)) - 1.0) < 1e-2

    @pytest.mark.parametrize("a", _MODEL_ORDERS)
    def test_scaled_against_mpmath(self, a):
        worst = 0.0
        for r in _PC_RADII:
            for ang in _PC_ANGLES:
                z = r * np.exp(1j * ang)
                want = _mp_pcfd(a, z, scaled=True)
                got = parabolic_cylinder_D_scaled_pair(a, z)[0]
                worst = max(worst, abs(got - want) / abs(want))
        assert worst < 1e-12

    @pytest.mark.parametrize("a", _MODEL_ORDERS + [1e-8j - 1.0, -1e-8j - 1.0])
    def test_pair_against_mpmath(self, a):
        # E_{a+1} = z E_a - E_a' from the same evaluation; where 12.9.3's
        # growing part dominates, the subtraction loses up to |z|^2 ulps
        # (4.8e-13 at |z| = 50)
        worst = 0.0
        for r in _PC_RADII:
            for ang in _PC_ANGLES:
                z = r * np.exp(1j * ang)
                e, e_next = parabolic_cylinder_D_scaled_pair(a, z)
                want = _mp_pcfd(a + 1.0, z, scaled=True)
                worst = max(worst, abs(e_next - want) / abs(want))
        assert worst < 1e-12

    @pytest.mark.parametrize("a", _MODEL_ORDERS[:4])
    def test_scaled_past_the_stokes_line(self, a):
        # just past arg z = pi/4 the second series of DLMF 12.9.3 is not small
        # at this |z|, and it is not part of D_a until arg z = pi/2
        z = 20.4 + 20.5j
        want = _mp_pcfd(a, z, scaled=True)
        assert abs(parabolic_cylinder_D_scaled_pair(a, z)[0] - want) < 1e-12 * abs(want)

    @pytest.mark.parametrize("a", [0.0, 0.25j, -0.25j, 0.3 + 0.1j, 1e-8j, 0.11j - 1.0])
    def test_unscaled_real_line_against_mpmath(self, a):
        # on the negative axis at a = 1e-8 i the 1/Gamma(-a)-sized growing
        # part outweighs the recessive one by 1e5 at z = -8
        for x in np.linspace(-8.0, 8.0, 33):
            want = _mp_pcfd(a, x, scaled=False)
            assert abs(parabolic_cylinder_D(a, x) - want) < 1e-12 * abs(want), x

    def test_order_zero_scaled_is_one(self):
        for z in (0.0, 0.7, 2.0, 3.0 - 1.0j, -5.0 + 2.0j, 6.0j, 9.0, 20.4 + 20.5j,
                  -30.0, 40.0 - 35.0j):
            assert parabolic_cylinder_D_scaled_pair(0.0, z)[0] == 1.0, z

    def test_cache_stays_small(self):
        # a ray repeats a third of its (E_a, E_{a+1}) pairs (32 of 96): a
        # ring point above the real line and its twin below (pi/4 and
        # -3pi/4, 3pi/4 and -pi/4) rotate onto the same z13 and z24 when
        # rounding allows; a larger cache only grows with the run
        assert _pcfd_scaled_cached.cache_info().maxsize <= 4096

    def test_import_leaves_mpmath_out(self):
        assert _loaded_after_import("steplpd", ["mpmath"]) == [False]


class TestCubicRoots:
    def test_three_simple(self):
        roots = cubic_real_roots(1.0, -1.0, 0.0)
        assert [r for r, _ in roots] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)
        assert all(m == 1 for _, m in roots)

    def test_phase_closed_form(self):
        gamma = 1.0 / 27.0
        roots = cubic_real_roots(32 * gamma, -2.0, 0.0)
        vals = [r for r, _ in roots]
        lam = 1.0 / (4.0 * np.sqrt(gamma))
        assert vals == pytest.approx([-lam, 0.0, lam], abs=1e-12)
        assert abs(lam - 3 * np.sqrt(3) / 4) < 1e-14

    def test_double_root(self):
        # mu^2 = 1/(27 gamma): theta' = theta'' = 0 at 3 mu/4
        gamma = 0.05
        mu = np.sqrt(1.0 / (27 * gamma))
        roots = cubic_real_roots(32 * gamma, -2.0, mu)
        mults = {m for _, m in roots}
        assert 2 in mults
        dbl = [r for r, m in roots if m == 2][0]
        assert abs(dbl - 3 * mu / 4) < 1e-10   # theta' = theta'' = 0 solve

    def test_one_real(self):
        roots = cubic_real_roots(1.0, 1.0, 1.0)
        assert len(roots) == 1
        r = roots[0][0]
        assert abs(r**3 + r + 1) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-5, 5), st.floats(-5, 5),
           st.floats(0.1, 5) | st.floats(-5, -0.1))
    def test_residual_bound(self, c1, c0, c3):
        roots = cubic_real_roots(c3, c1, c0)
        scale = abs(c3) + abs(c1) + abs(c0)
        for r, _ in roots:
            assert abs(c3 * r**3 + c1 * r + c0) < 1e-10 * max(1.0, scale * (1 + abs(r)) ** 3)


class TestImport:
    @pytest.mark.parametrize("module", ["steplpd", "steplpd.cli"])
    def test_import_leaves_scipy_out(self, module):
        # scipy loads on first use: scipy.special on the first Gamma,
        # scipy.fft on the first DST, scipy.integrate on the first ODE solve
        assert _loaded_after_import(module, ["scipy"]) == [False]


class TestOdeIntegrate:
    @pytest.mark.parametrize("module", ["steplpd", "steplpd.cli"])
    def test_import_leaves_scipy_integrate_out(self, module):
        # only ode_integrate solves an ODE and it imports scipy.integrate
        # itself; scipy.optimize (and sparse, linalg, spatial) come with it
        assert _loaded_after_import(module, ["scipy.integrate", "scipy.optimize"]) == [False, False]

    def test_zero_field(self):
        out = ode_integrate(lambda x, y: 0 * y, np.eye(2, dtype=complex), (0, 1))
        assert np.abs(out - np.eye(2)).max() < 1e-14

    def test_scalar_rotation(self):
        out = ode_integrate(lambda x, y: 1j * y, np.array([1.0 + 0j]), (0, np.pi))
        assert abs(out[0] + 1.0) < 1e-9

    def test_diagonal_exponential(self):
        sigma3 = np.diag([1.0, -1.0]).astype(complex)

        def rhs(x, y):
            return -1j * sigma3 @ y

        out = ode_integrate(rhs, np.eye(2, dtype=complex), (0, 1))
        expected = np.diag([np.exp(-1j), np.exp(1j)])
        assert np.abs(out - expected).max() < 1e-10

    def test_blowup_reported(self):
        from steplpd.kernels import StiffnessError

        def rhs(x, y):   # finite-time blow-up inside the span
            return y * y

        with pytest.raises(StiffnessError):
            ode_integrate(rhs, np.array([1.0 + 0j]), (0.0, 2.0))
