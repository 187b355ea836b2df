"""PDE residual checker and the short-time integrator."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
from scipy.linalg import expm

from steplpd import simulate
from steplpd.asymptotics import q_soliton
from steplpd.simulate import (
    BlowUpError,
    _D1_6,
    _D2_6,
    _D2_6_PAD,
    _D4_6,
    FieldGrid,
    SolitonField,
    StabilityError,
    _LawsonStepper,
    _nonlinear_rhs,
    evolve,
    fd_weights,
    pde_residual,
    stable_dt,
)

GAMMA = 1.0 / 27.0


class TestFdWeights:
    def test_first_derivative_moments(self):
        w = fd_weights(np.arange(-4, 5), 1)
        assert abs(w.sum()) < 1e-12
        assert abs(np.dot(w, np.arange(-4, 5)) - 1.0) < 1e-12

    def test_reproduces_polynomial(self):
        offs = np.arange(-5, 6)
        w = fd_weights(offs, 4)
        h = 0.1
        x = offs * h
        vals = x**6
        d4 = np.dot(w, vals) / h**4
        assert abs(d4 - 360 * 0.0**2) < 1e-8   # (x^6)'''' = 360 x^2 at 0


class TestSolitonField:
    def test_derivative_consistency(self):
        f = SolitonField(1.3, 0.7, 0.08)
        h = 1e-5
        x, t = 0.4, 0.6
        fd1 = (f(x + h, t) - f(x - h, t)) / (2 * h)
        assert abs(fd1 - f.dx(x, t, 1)) < 1e-8
        fd2 = (f(x + h, t) - 2 * f(x, t) + f(x - h, t)) / h**2
        assert abs(fd2 - f.dx(x, t, 2)) < 5e-6   # roundoff floor eps/h^2
        h3 = 1e-3
        fd3 = (f(x + 2 * h3, t) - 2 * f(x + h3, t) + 2 * f(x - h3, t)
               - f(x - 2 * h3, t)) / (2 * h3**3)
        assert abs(fd3 - f.dx(x, t, 3)) < 1e-3
        fd4 = (f(x + 2 * h3, t) - 4 * f(x + h3, t) + 6 * f(x, t)
               - 4 * f(x - h3, t) + f(x - 2 * h3, t)) / h3**4
        assert abs(fd4 - f.dx(x, t, 4)) < 1e-2
        fdt = (f(x, t + h) - f(x, t - h)) / (2 * h)
        assert abs(fdt - f.dt(x, t)) < 1e-8


class TestResidual:
    def test_zero_field(self):
        zero = lambda x, t: 0.0 + 0.0j
        assert pde_residual(zero, 0.3, 0.2, 0.1) == 0

    @pytest.mark.parametrize("A,gam,al", [(2.0, 0.1, np.pi / 3), (1.0, GAMMA, 0.0)])
    def test_soliton_annihilates_analytic(self, A, gam, al):
        f = SolitonField(A, al, gam)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = float(rng.uniform(-2.5, 2.5))
            t = float(rng.uniform(0.05, 1.0))
            if abs(f(x, t)) > 3 * A:    # pole guard
                continue
            assert abs(pde_residual(f, x, t, gam, analytic=True)) < 1e-10

    def test_soliton_annihilates_fd(self):
        f = SolitonField(2.0, np.pi / 3, 0.1)
        assert abs(pde_residual(f, 0.7, 0.4, 0.1)) < 1e-6

    def test_term_isolation(self):
        # dropping the higher-order bracket leaves gamma * |H| > 0
        gam = 0.1
        f = SolitonField(2.0, np.pi / 3, gam)
        r_full = pde_residual(f, 0.7, 0.4, gam, analytic=True)
        r_nog = pde_residual(f, 0.7, 0.4, 0.0, analytic=True)
        assert abs(r_full) < 1e-10
        assert abs(r_nog) > 1e-2   # = gamma * |H[q]| at a generic point

    def test_h_convergence_order(self):
        # truncation-dominated window: log-log slope equals the stencil order
        f = SolitonField(2.0, np.pi / 3, 0.1)
        hs = np.array([0.22, 0.19, 0.16, 0.14, 0.12])
        res = np.array([abs(pde_residual(f, 0.7, 0.4, 0.1, hx=h, ht=h))
                        for h in hs])
        slope = np.polyfit(np.log(hs), np.log(res), 1)[0]
        assert abs(slope - 8.0) < 0.3


class TestFieldGrid:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            FieldGrid(x=np.array([0.0, 1.0, 2.0]),
                      values=np.zeros(3, dtype=complex), h=1.0)

    def test_even_interval_count(self):
        with pytest.raises(ValueError):
            FieldGrid(x=np.array([-1.0, 0.0, 0.5, 1.0]),
                      values=np.zeros(4, dtype=complex), h=0.5)

    def test_from_function(self):
        g = FieldGrid.from_function(lambda x: complex(x), 2.0, 0.5)
        assert len(g.x) == 9
        assert g.x[0] == -2.0 and g.x[-1] == 2.0

    @pytest.mark.parametrize("half_width, h, named", [
        (2.0, 0.0, "h must be finite and positive, got 0.0"),
        (2.0, -0.5, "h must be finite and positive, got -0.5"),
        (2.0, np.nan, "h must be finite and positive, got nan"),
        (0.0, 0.5, "half_width must be finite and positive, got 0.0"),
        (np.inf, 0.5, "half_width must be finite and positive, got inf"),
    ])
    def test_from_function_refuses_a_degenerate_grid(self, half_width, h, named):
        with pytest.raises(ValueError, match=named):
            FieldGrid.from_function(lambda x: 0.0, half_width, h)

    def test_smoothed_step(self):
        g = FieldGrid.smoothed_step(2.0, 10.0, 0.05)
        assert abs(g.values[0]) < 1e-12
        assert abs(g.values[-1] - 2.0) < 1e-12


class TestEvolve:
    def test_zero_stays_zero(self):
        g = FieldGrid.from_function(lambda x: 0.0, 5.0, 0.05)
        out = evolve(g, 0.2, GAMMA)
        assert np.abs(out.values).max() == 0

    def test_soliton_oracle_coarse(self):
        A, gam, al = 1.0, GAMMA, np.pi
        g0 = FieldGrid.from_function(lambda x: q_soliton(x, 0.0, A, al, gam), 10.0, 0.05)
        g1 = evolve(g0, 0.1, gam)
        exact = np.array([q_soliton(float(x), 0.1, A, al, gam) for x in g1.x])
        assert np.abs(g1.values - exact).max() < 1e-3

    def test_time_reversal_round_trip(self):
        A, gam, al = 1.0, GAMMA, np.pi
        g0 = FieldGrid.from_function(lambda x: q_soliton(x, 0.0, A, al, gam), 10.0, 0.05)
        g1 = evolve(g0, 0.08, gam)
        g2 = evolve(g1, 0.0, gam)
        assert np.abs(g2.values - g0.values).max() < 1e-3
        assert g2.time == 0.0

    def test_far_field_conservation(self):
        A, gam, al = 2.0, GAMMA, np.pi
        g0 = FieldGrid.from_function(lambda x: q_soliton(x, 0.0, A, al, gam), 10.0, 0.05)
        g1 = evolve(g0, 0.5, gam)
        assert np.abs(g1.values[:4]).max() < 1e-8
        assert np.abs(g1.values[-4:] - g0.values[-1]).max() < 1e-6

    def test_step_halving_to_underflow(self):
        # a bump too tall for the stable step: the step-doubling check
        # halves dt until it underflows
        g = FieldGrid.from_function(lambda x: 30.0 * np.exp(-x * x), 5.0, 0.05)
        with pytest.raises(StabilityError, match="time step underflow"):
            evolve(g, 0.5, 0.1)

    def test_blow_up_names_x(self):
        # a bump past 50 (1 + |right clamp|) stops the first step, and the
        # error says where max|q| sits
        g = FieldGrid.from_function(lambda x: 60.0 * np.exp(-((x - 1.5) / 0.3) ** 2), 3.0, 0.05)
        with pytest.raises(BlowUpError, match=r"at t = 0: max\|q\| = \S+ at x = 1\.5\b"):
            evolve(g, 0.1, GAMMA)

    def test_lost_finiteness_names_first_x(self, monkeypatch):
        step = _LawsonStepper.step

        def nan_from_x0(stepper, q, u, dt):
            q_new, u_new = step(stepper, q, u, dt)
            q_new[g.x >= 0.0] = np.nan
            return q_new, u_new

        monkeypatch.setattr(_LawsonStepper, "step", nan_from_x0)
        g = FieldGrid.from_function(lambda x: np.exp(-x * x), 3.0, 0.05)
        with pytest.raises(BlowUpError, match=r"lost finiteness at t = 0, first at x = 0$"):
            evolve(g, 0.1, GAMMA)

    def test_step_profile_runs(self):
        g = FieldGrid.smoothed_step(1.0, 8.0, 0.05)
        out = evolve(g, 0.2, GAMMA)
        assert np.all(np.isfinite(out.values))
        assert np.abs(out.values).max() < 3.0

    def test_restart_invariance(self):
        # ten evolve calls and one call reach the same state: the background
        # of the linear flow is fixed by the clamps, not by each call's start
        A, gam, al = 2.0, 0.1, np.pi
        g0 = FieldGrid.from_function(lambda x: q_soliton(x, 0.0, A, al, gam), 10.0, 0.05)
        chunked = g0
        for k in range(1, 11):
            chunked = evolve(chunked, 0.005 * k, gam)
        single = evolve(g0, 0.05, gam)
        exact = np.array([q_soliton(float(x), 0.05, A, al, gam) for x in g0.x])
        assert np.abs(chunked.values - single.values).max() < 1e-8
        assert np.abs(chunked.values - exact).max() < 1e-6
        assert np.abs(single.values - exact).max() < 1e-6

    def test_conserves_the_mirrored_mass(self):
        # h sum q(x) r(x), r(x) = -conj q(-x), the grid's integral of q r:
        # -2 on criterion 11's soliton grid (up to 8.1e-9 from the cut
        # tails), and a drift of 1.8e-10 by t = 0.02
        g0 = FieldGrid.from_function(lambda x: q_soliton(x, 0.0, 2.0, np.pi, 0.1), 10.0, 0.02)

        def mass(q):
            return g0.h * np.sum(q * -np.conj(q[::-1]))

        assert abs(mass(g0.values) + 2.0) < 1e-7
        assert abs(mass(evolve(g0, 0.02, 0.1).values) - mass(g0.values)) < 1e-9

    def test_phases_once_per_step_size(self, monkeypatch):
        # a run of equal Lawson steps evaluates its phases once per dt: the
        # steps' half-step, and the step-doubling check's quarter step; every
        # later request for a dt returns the arrays of the first
        requested = []
        phases = _LawsonStepper.phases

        def recording(stepper, dt):
            flow = phases(stepper, dt)
            requested.append((dt, flow))
            return flow

        monkeypatch.setattr(_LawsonStepper, "phases", recording)
        g0 = FieldGrid.from_function(lambda x: q_soliton(x, 0.0, 2.0, np.pi, 0.1), 10.0, 0.05)
        evolve(g0, 0.005, 0.1)
        first = dict(reversed(requested))
        assert len(requested) > 20
        assert all(flow is first[dt] for dt, flow in requested)
        assert len(first) <= 4

    def test_dst_count_per_step(self, monkeypatch):
        # the propagator's forcing and u_ref take one DST each; a Lawson step
        # takes 8 (k1, three stage pairs, the new grid) because the modes of
        # its state come from the step before; the step-doubling check at
        # step 0 is two half-steps
        calls = []
        dst = simulate._dst

        def counting(a):
            calls.append(len(a))
            return dst(a)

        monkeypatch.setattr(simulate, "_dst", counting)
        g0 = FieldGrid.from_function(lambda x: q_soliton(x, 0.0, 2.0, np.pi, 0.1), 10.0, 0.05)
        steps, dt = 10, 2.0 ** -16
        evolve(g0, steps * dt, 0.1, dt=dt)
        assert len(calls) == 2 + 8 * steps + 2 * 8

    @pytest.mark.parametrize("h", [0.1, 0.15])
    def test_refuses_a_grid_with_no_interior(self, h):
        # a half-width below h/2 leaves the single point x = 0, which is
        # both clamped ends: there is no mode to evolve
        g = FieldGrid.from_function(lambda x: 1.0, 0.4 * h, h)
        assert len(g.x) == 1
        with pytest.raises(ValueError, match="a 1-point grid has no point between its clamped"):
            evolve(g, 0.001, GAMMA)

    @pytest.mark.parametrize("t_end", [np.nan, np.inf, -np.inf])
    def test_refuses_a_non_finite_end(self, t_end):
        g = FieldGrid.from_function(lambda x: 0.0, 1.0, 0.05)
        with pytest.raises(ValueError, match=f"t_end must be finite, got {t_end}"):
            evolve(g, t_end, GAMMA)

    def test_one_interior_point_evolves(self):
        g = FieldGrid.from_function(lambda x: 0.0, 0.05, 0.05)
        assert len(g.x) == 3
        assert np.abs(evolve(g, 0.001, GAMMA).values).max() == 0

    def test_only_the_end_points_are_clamped(self, monkeypatch):
        # criterion 11's grid: q[0] and q[-1] keep their values bit for bit,
        # the cells beside them evolve, and every transform is a DST-I of
        # the m = N - 2 points between the ends, a real FFT of 2(m + 1) points
        lengths = []
        kernel = simulate._dst_kernel()

        def recording(pairs, **kwargs):
            lengths.append(len(pairs))
            return kernel(pairs, **kwargs)

        monkeypatch.setattr(simulate, "_dst_kernel", lambda: recording)
        g0 = FieldGrid.from_function(lambda x: q_soliton(x, 0.0, 2.0, np.pi, 0.1), 10.0, 0.02)
        q0, q = g0.values, evolve(g0, 0.002, 0.1).values
        assert q[0] == q0[0] and q[-1] == q0[-1]
        # the cells beside the ends moved, and not onto the clamp values
        assert q[1] not in (q0[1], q0[0]) and q[-2] not in (q0[-2], q0[-1])
        assert len(lengths) > 8 and set(lengths) == {len(q0) - 2}
        assert {2 * (m + 1) for m in lengths} == {2000}

    def test_stable_dt_scale(self):
        g = FieldGrid.smoothed_step(2.0, 10.0, 0.02)
        dt = stable_dt(g, 0.1)
        assert 1e-6 < dt < 1e-4


def _rows(h):
    """The 7-point q_x and q_xx stencils as rows, pre-divided by h and h^2."""
    return np.stack((_D1_6 / h, _D2_6 / (h * h)))


def _symbol_stencil(h, gamma):
    return 0.5 * _D2_6_PAD / h**2 + gamma * _D4_6 / h**4


def _odd_closure_matrix(n, stencil):
    """The stencil's matrix on the n - 2 points between the ends of an
    n-point grid, with w = 0 at x_0 and x_{n-1} and odd about each."""
    T = np.zeros((n - 2, n - 2))
    for k in range(1, n - 1):            # grid index of the row
        for off in range(-4, 5):
            j, sign = k + off, 1.0
            if j < 0:                        # odd about x_0: w(x_j) = -w(x_{-j})
                j, sign = -j, -1.0
            elif j > n - 1:                  # odd about x_{n-1}
                j, sign = 2 * (n - 1) - j, -1.0
            if 0 < j < n - 1:                # w = 0 at both ends
                T[k - 1, j - 1] += sign * stencil[off + 4]
    return T


class TestLinearPropagator:
    N, H, GAMMA, DT = 41, 0.3, 0.1, 0.01
    LEFT, RIGHT = 0.0, 1.5 - 0.4j

    def _background(self):
        n = self.N
        b = np.where(np.arange(n) < n // 2, self.LEFT, self.RIGHT).astype(complex)
        b[n // 2] = 0.5 * (self.LEFT + self.RIGHT)
        return b

    def test_evals_match_odd_closure(self):
        stepper = _LawsonStepper(self._background(), self.H, self.GAMMA, self.DT)
        dense = np.linalg.eigvalsh(_odd_closure_matrix(self.N, _symbol_stencil(self.H, self.GAMMA)))
        assert len(stepper.evals) == len(dense) == self.N - 2
        got = np.sort(stepper.evals)
        assert np.abs(got - dense).max() < 1e-10 * np.abs(dense).max()

    def test_affine_step_matches_expm(self):
        n, h, m = self.N, self.H, self.N - 2
        stencil = _symbol_stencil(h, self.GAMMA)
        b = self._background()
        stepper = _LawsonStepper(b, h, self.GAMMA, self.DT)
        # the stencil acting on b, on the rows between the ends, with the
        # far field in 3 ghost cells past each end
        far = np.concatenate(([self.LEFT] * 3, b, [self.RIGHT] * 3))
        g = np.array([stencil @ far[k - 1:k + 8] for k in range(1, n - 1)])
        rng = np.random.default_rng(5)
        w = rng.normal(size=m) + 1j * rng.normal(size=m)
        q = b.copy()
        q[1:-1] += w
        dt = self.DT
        ph, kick = stepper.phases(dt)
        got = stepper.to_grid(ph * stepper.to_modes(q) + kick)
        M = np.zeros((m + 1, m + 1), dtype=complex)
        M[:m, :m] = -1j * _odd_closure_matrix(n, stencil)
        M[:m, m] = -1j * g
        want = (expm(M * dt) @ np.append(w, 1.0))[:m]
        assert np.abs(got[1:-1] - b[1:-1] - want).max() < 1e-11
        assert got[0] == b[0] and got[-1] == b[-1]


class TestDampingBand:
    # criterion 11's grid: a step multiplies the deviation from u_ref by e^-3
    # in every mode with |lambda| > min(gamma (pi/2h)^4, 0.4 pi/dt) and leaves
    # every other mode alone.  At stable_dt the resonance bound 0.4 pi/dt
    # binds (1.24e5 against 3.81e6); below dt = 3.3e-7 the other does
    GAMMA, H = 0.1, 0.02

    @pytest.mark.parametrize("dt, resonance_binds, damped", [
        (None, True, 787),
        (2e-7, False, 493),
    ], ids=["stable_dt", "short_dt"])
    def test_band(self, monkeypatch, dt, resonance_binds, damped):
        g = FieldGrid.from_function(lambda x: q_soliton(x, 0.0, 2.0, np.pi, self.GAMMA),
                                    10.0, self.H)
        dt = dt or stable_dt(g, self.GAMMA)
        top, resonance = self.GAMMA * (np.pi / (2 * self.H)) ** 4, 0.4 * np.pi / dt
        assert (resonance < top) == resonance_binds
        edge = min(top, resonance)
        # the linear stencil's symbol at the DST-I frequencies
        m = len(g.x) - 2
        theta = np.pi * np.arange(1, m + 1) / (m + 1)
        lam = _symbol_stencil(self.H, self.GAMMA) @ np.cos(np.outer(np.arange(-4, 5), theta))
        band = np.abs(lam) > edge
        assert band.sum() == damped
        assert np.abs(np.abs(lam) - edge).min() > 1e-3 * edge   # no mode on the edge
        # with the nonlinear terms off, a step is the affine flow of u, then
        # the band's contraction
        monkeypatch.setattr(simulate, "_nonlinear_rhs",
                            lambda q, rows, gamma: np.zeros(len(q) - 2, dtype=complex))
        stepper = _LawsonStepper(g.values, self.H, self.GAMMA, dt)
        rng = np.random.default_rng(3)
        u = stepper.u_ref + rng.normal(size=m) + 1j * rng.normal(size=m)
        ph, kick = stepper.phases(0.5 * dt)
        free = ph * (ph * u + kick) + kick
        _, u_new = stepper.step(stepper.to_grid(u), u, dt)
        factor = (u_new - stepper.u_ref) / (free - stepper.u_ref)
        assert np.allclose(factor[band], np.exp(-3.0), rtol=1e-9, atol=0)
        assert np.allclose(factor[~band], 1.0, rtol=1e-9, atol=0)


class TestNonlinearRhs:
    def test_matches_stencil_reference(self):
        # q_x and q_xx by the 6th-order stencils of fd_weights, on the rows
        # between the ends, reading the far field q[0], q[-1] in 2 ghost
        # cells past each end, in the written-out form of the nonlinear terms
        h, gam = 0.02, 0.1
        x = np.arange(-500, 501) * h
        q = np.array([q_soliton(float(xx), 0.0, 2.0, 3.0, gam) for xx in x])
        far = np.concatenate(([q[0]] * 2, q, [q[-1]] * 2))
        offs = np.arange(-3, 4)
        qx = np.convolve(far, fd_weights(offs, 1)[::-1], "valid") / h
        qxx = np.convolve(far, fd_weights(offs, 2)[::-1], "valid") / h**2
        qi = q[1:-1]
        assert len(qx) == len(qi) == len(q) - 2
        r, rx, rxx = -np.conj(qi[::-1]), np.conj(qx[::-1]), -np.conj(qxx[::-1])
        H = (6j * r * qx**2 + 4j * qi * qx * rx + 8j * r * qi * qxx
             + 2j * qi * qi * rxx - 6j * r * r * qi**3)
        want = 1j * qi * qi * r + gam * H
        got = _nonlinear_rhs(q, _rows(h), gam)
        assert np.abs(got - want).max() < 1e-11 * np.abs(want).max()


def _bumped(grid, seed):
    """The grid plus a seeded complex Gaussian bump: complex, asymmetric data."""
    rng = np.random.default_rng(seed)
    amp = complex(rng.normal(), rng.normal())
    centre, width = rng.uniform(-3.0, 3.0), rng.uniform(0.5, 1.5)
    return replace(grid, values=grid.values + amp * np.exp(-((grid.x - centre) / width) ** 2))


class TestBits:
    # the transforms and the right-hand side are pinned to the last bit

    @pytest.mark.parametrize("m", [993, 393, 999, 399])
    def test_dst_is_scipy_fft_dst(self, m):
        rng = np.random.default_rng(m)
        a = rng.normal(size=m) + 1j * rng.normal(size=m)
        pairs = a.view(np.float64).reshape(-1, 2)
        want = scipy.fft.dst(pairs, type=1, norm="ortho", axis=0).view(complex).ravel()
        assert np.array_equal(simulate._dst(a), want)

    @pytest.mark.parametrize("make", [
        lambda: FieldGrid.from_function(lambda x: q_soliton(x, 0.0, 2.0, np.pi, 0.1), 10.0, 0.02),
        lambda: _bumped(FieldGrid.smoothed_step(2.0, 10.0, 0.05), 9),
    ], ids=["criterion_11", "smoothed_step"])
    def test_rhs_is_the_one_line_expression(self, make):
        grid = make()
        q, h, gam = grid.values, grid.h, 0.1
        m = len(q) - 2
        # the grid with 2 far-field ghost cells past each end; row j of the
        # stencils' input is the interior shifted by j - 3 cells
        far = np.concatenate(([q[0]] * 2, q, [q[-1]] * 2))
        shifted = np.stack([far[j:j + m] for j in range(7)]).view(np.float64)
        derivs = (_rows(h) @ shifted).view(complex)
        qi, (qx, qxx) = q[1:-1], derivs
        c = np.conj(qi[::-1])
        c1, c2 = np.conj(derivs[:, ::-1])
        p = c * qi
        want = -1j * (qi * (p + gam * (8 * c * qxx + 2 * qi * c2 + 6 * p * p - 4 * qx * c1))
                      + (6 * gam) * c * qx * qx)
        assert np.array_equal(_nonlinear_rhs(q, _rows(h), gam), want)


def _written_out_rhs(q, h, gamma):
    """The nonlinear terms as first written: zeroed accumulators, divisions
    after the stencil sums, and H_nl term by term, on the rows between the
    ends, with the far field q[0], q[-1] in 2 ghost cells past each end."""
    m = len(q) - 2
    far = np.concatenate(([q[0]] * 2, q, [q[-1]] * 2))
    qi = far[3:3 + m]
    qx = np.zeros(m, dtype=complex)
    qxx = _D2_6[3] * qi
    for k in (1, 2, 3):
        fwd, back = far[3 + k:3 + k + m], far[3 - k:3 - k + m]
        qx += _D1_6[3 + k] * (fwd - back)
        qxx += _D2_6[3 + k] * (fwd + back)
    qx /= h
    qxx /= h * h
    r = -np.conj(qi[::-1])
    rx = np.conj(qx[::-1])
    rxx = -np.conj(qxx[::-1])
    H_nl = (6j * r * qx**2 + 4j * qi * qx * rx + 8j * r * qi * qxx
            + 2j * qi * qi * rxx - 6j * r * r * qi**3)
    return 1j * qi * qi * r + gamma * H_nl


def _written_out_step(q, u, dt, h, gamma, stepper):
    """The Lawson step with its stage combination unfactored."""
    def N_modes(u):
        return simulate._dst(_written_out_rhs(stepper.to_grid(u), h, gamma))

    ph_h, kick_h = stepper.phases(0.5 * dt)
    u_half = ph_h * u + kick_h
    u_full = ph_h * u_half + kick_h
    k1 = simulate._dst(_written_out_rhs(q, h, gamma))
    k2 = N_modes(u_half + 0.5 * dt * (ph_h * k1))
    k3 = N_modes(u_half + 0.5 * dt * k2)
    k4 = N_modes(u_full + dt * (ph_h * k3))
    u_new = u_full + (dt / 6.0) * (ph_h * ph_h * k1 + 2.0 * ph_h * (k2 + k3) + k4)
    u_new = stepper.u_ref + stepper.damp * (u_new - stepper.u_ref)
    return stepper.to_grid(u_new), u_new


class TestLawsonStep:
    def test_matches_the_written_out_step(self):
        # criterion 11's grid at evolve's step and damping band: the factored
        # right-hand side and stage combination only reorder the rounding
        A, gam, al, h = 2.0, 0.1, np.pi, 0.02
        g = FieldGrid.from_function(lambda x: q_soliton(x, 0.0, A, al, gam), 10.0, h)
        q0 = g.values
        dt = stable_dt(g, gam)
        stepper = _LawsonStepper(q0, h, gam, dt)
        q, u = want, u_want = q0, stepper.u_ref
        for _ in range(20):
            q, u = stepper.step(q, u, dt)
            want, u_want = _written_out_step(want, u_want, dt, h, gam, stepper)
        assert np.abs(q - want).max() < 1e-12 * np.abs(want).max()
        assert np.abs(u - u_want).max() < 1e-12 * np.abs(u_want).max()
        assert np.abs(q - q0).max() > 1e-6   # the 20 steps moved the field
