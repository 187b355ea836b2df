"""Node rules and Cauchy sums, special functions, cubic roots and the ODE kernel."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from steplpd.kernels import (
    ContourInterval,
    complex_gamma,
    cubic_real_roots,
    erfc_complex,
    interval_rule,
    ode_integrate,
    parabolic_cylinder_D,
)
from steplpd.kernels.special import GammaPoleError, reciprocal_gamma

# nodes of the Gauss-Legendre rules under test
N = 64


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


class TestParabolicCylinder:
    def test_order_zero_closed_form(self):
        for z in (2.0, -1.3, 0.7 + 0.4j):
            assert abs(parabolic_cylinder_D(0.0, z) - np.exp(-z * z / 4.0)) < 1e-12

    def test_order_minus_one_erfc_oracle(self):
        # D_{-1}(z) = e^{z^2/4} sqrt(pi/2) erfc(z/sqrt(2))
        for z in (0.0, 0.8, -1.1):
            oracle = np.exp(z * z / 4) * np.sqrt(np.pi / 2) * erfc_complex(z / np.sqrt(2))
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


class TestOdeIntegrate:
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
