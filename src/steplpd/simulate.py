"""Pointwise PDE residual and a short-time direct integrator.

The evolution equation (focusing nonlocal coupling r(x,t) = -conj(q(-x,t))):

    q_t + (i/2) q_xx - i q^2 r - gamma * H[q] = 0,
    H[q] = -i q_xxxx + 6 i r q_x^2 + 4 i q q_x r_x + 8 i r q q_xx
           + 2 i q^2 r_xx - 6 i r^2 q^3.

The mirrored argument makes the x -> -x reflection part of the state, so the
integrator works on grids symmetric about 0 (x_k = -x_{N-k}) and reads the
nonlocal terms off the reversed array.  Spatial derivatives are 6th-order
centered, and the nonlinear terms are summed as one factored expression
(``_nonlinear_rhs``).  The stiff linear part -(i/2) d2 - i gamma d4 is
advanced exactly on the deviation from a fixed background that holds the
clamp values: the interior stencil, closed by odd reflection about the two
clamped end points, is diagonal in the sine modes of one O(N log N) DST-I
(``scipy.fftpack``, imported on the first transform, not with the package),
and the stencil acting on the background is a constant forcing.  The
nonlocal nonlinearity enters by integrating-factor RK4 (Lawson): every stage
is evaluated in the frame rotated by that exact linear flow.  Modes whose
rotation per step nears a multiple of pi are resonant for the sampled scheme,
so the high-dispersion band of the deviation from the initial state is
contracted every step.  The default step is set by the stability of the
explicit nonlinear terms, and a periodic step-doubling check halves it if the
local error grows too large.

Only the end points x_0 and x_{N-1} are clamped, to the constant far fields
(0 on the left, the initial right-edge value on the right): the mirrored
coupling pairs the q ~ A tail with the q ~ 0 tail, so the constant background
is the consistent far field (the exact soliton has constant tails; a rotating
clamp would be the local equation's far field, not this one's).  Every other
point evolves; where a stencil of the rows beside the ends reaches past the
grid, it reads that far field in ghost cells.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from steplpd.asymptotics import q_soliton, soliton_exponent

# ---------------------------------------------------------------------------
# finite-difference weights (Fornberg)
# ---------------------------------------------------------------------------

def fd_weights(offsets, order: int) -> np.ndarray:
    """Weights of the derivative of given order on arbitrary integer offsets."""
    x = np.asarray(offsets, dtype=float)
    n = len(x)
    if order >= n:
        raise ValueError("need more points than the derivative order")
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1, c4 = 1.0, x[0]
    for i in range(1, n):
        mn = min(i, order)
        c2, c5, c4 = 1.0, c4, x[i]
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


# ---------------------------------------------------------------------------
# pointwise residual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolitonField:
    """q(x,t) of the exact one-soliton, with closed-form derivatives."""

    A: float
    alpha: float
    gamma: float

    def __post_init__(self):
        for name, value in (("A", self.A), ("alpha", self.alpha), ("gamma", self.gamma)):
            if not math.isfinite(value):
                raise ValueError(f"soliton {name} must be finite, got {value!r}")

    def _E(self, x: float, t: float) -> complex:
        return np.exp(soliton_exponent(x, t, self.A, self.alpha, self.gamma))

    def __call__(self, x: float, t: float) -> complex:
        return q_soliton(x, t, self.A, self.alpha, self.gamma)

    def dx(self, x: float, t: float, order: int) -> complex:
        # d/dx acts on E as multiplication by -A; the chain collapses to
        # polynomials in u = E/(1-E)
        A, E = self.A, self._E(x, t)
        u = E / (1.0 - E)
        if order == 0:
            return self(x, t)
        if order == 1:
            return -A**2 * (u + u**2)
        if order == 2:
            return A**3 * (u + 3 * u**2 + 2 * u**3)
        if order == 3:
            return -A**4 * (u + 7 * u**2 + 12 * u**3 + 6 * u**4)
        if order == 4:
            return A**5 * (u + 15 * u**2 + 50 * u**3 + 60 * u**4 + 24 * u**5)
        raise ValueError("order must be 0..4")

    def dt(self, x: float, t: float) -> complex:
        A, E = self.A, self._E(x, t)
        w = soliton_exponent(0.0, 1.0, A, 0.0, self.gamma)   # dE/dt: E is linear in t
        return A * w * E / (1.0 - E) ** 2


@functools.cache
def _residual_stencils() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """pde_residual's 8th-order centered q_x, q_xx and q_xxxx weights, of
    half-widths 4, 4 and 5, built on first use and read-only."""
    stencils = tuple(fd_weights(np.arange(-half, half + 1), order)
                     for order, half in ((1, 4), (2, 4), (4, 5)))
    for w in stencils:
        w.flags.writeable = False
    return stencils


def pde_residual(q: Callable[[float, float], complex], x: float, t: float,
                 gamma: float, hx: float = 0.03, ht: float = 0.02,
                 analytic: bool = False) -> complex:
    """Left side of the evolution equation at (x, t).

    ``q`` is a callable field; with analytic=True it must expose dx(x,t,k)
    and dt(x,t) (the SolitonField does) and differencing is skipped.
    Otherwise derivatives come from 8th-order centered stencils; the default
    steps balance the h^8 truncation against the 1/h^4 roundoff of the
    fourth derivative.
    """
    if analytic:
        qv = q(x, t)
        q1, q2, q4 = q.dx(x, t, 1), q.dx(x, t, 2), q.dx(x, t, 4)
        qt = q.dt(x, t)
        rm0 = -np.conj(q(-x, t))
        rm1 = np.conj(q.dx(-x, t, 1))
        rm2 = -np.conj(q.dx(-x, t, 2))
    else:
        w1, w2, w4 = _residual_stencils()
        h1, h4 = len(w1) // 2, len(w4) // 2
        line4 = np.array([q(x + k * hx, t) for k in range(-h4, h4 + 1)])
        mirror4 = np.array([q(-x + k * hx, t) for k in range(-h4, h4 + 1)])
        pad = h4 - h1
        line1, mirror1 = line4[pad:-pad], mirror4[pad:-pad]
        qv = line4[h4]
        q1 = np.dot(w1, line1) / hx
        q2 = np.dot(w2, line1) / hx**2
        q4 = np.dot(w4, line4) / hx**4
        qt = np.dot(w1, [q(x, t + k * ht) for k in range(-h1, h1 + 1)]) / ht
        rm0 = -np.conj(mirror4[h4])
        rm1 = np.conj(np.dot(w1, mirror1) / hx)
        rm2 = -np.conj(np.dot(w2, mirror1) / hx**2)

    H = (-1j * q4 + 6j * rm0 * q1**2 + 4j * qv * q1 * rm1
         + 8j * rm0 * qv * q2 + 2j * qv**2 * rm2 - 6j * rm0**2 * qv**3)
    return qt + 0.5j * q2 - 1j * qv**2 * rm0 - gamma * H


# ---------------------------------------------------------------------------
# method-of-lines integrator
# ---------------------------------------------------------------------------

# width of smoothed_step's tanh ramp, in cells
_RAMP_CELLS = 10


@dataclass
class FieldGrid:
    """Uniform symmetric grid (x_k = -x_{N-k}, N even) carrying q samples."""

    x: np.ndarray
    values: np.ndarray
    h: float
    time: float = 0.0

    def __post_init__(self):
        n = len(self.x) - 1
        if n % 2 != 0:
            raise ValueError("need an even number of intervals (odd point count)")
        if not np.allclose(self.x + self.x[::-1], 0.0, atol=1e-12):
            raise ValueError("grid must be symmetric about 0")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @classmethod
    def from_function(cls, f: Callable[[float], complex], half_width: float,
                      h: float) -> "FieldGrid":
        """Samples of f at t = 0; h and half_width must be finite and positive."""
        for name, value in (("h", h), ("half_width", half_width)):
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"grid {name} must be finite and positive, got {value}")
        n = int(round(half_width / h))
        x = np.arange(-n, n + 1) * h
        vals = np.array([f(float(xx)) for xx in x], dtype=complex)
        return cls(x=x, values=vals, h=h)

    @classmethod
    def smoothed_step(cls, A: float, half_width: float, h: float) -> "FieldGrid":
        """Pure step pre-smoothed by a tanh ramp of width _RAMP_CELLS*h."""
        w = _RAMP_CELLS * h
        return cls.from_function(lambda x: 0.5 * A * (1.0 + np.tanh(x / w)),
                                 half_width, h)


_D2_6 = np.array([1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90])
_D2_6_PAD = np.concatenate([[0.0], _D2_6, [0.0]])
_D4_6 = np.array([7 / 240, -2 / 5, 169 / 60, -122 / 15, 91 / 8,
                  -122 / 15, 169 / 60, -2 / 5, 7 / 240])
_D1_6 = np.array([-1 / 60, 3 / 20, -3 / 4, 0, 3 / 4, -3 / 20, 1 / 60])
_FROZEN = 1   # clamped cells at each end: the end point alone


@functools.cache
def _dst_kernel() -> Callable[..., np.ndarray]:
    """scipy's DST, bound on the first transform, not on import.

    ``scipy.fftpack.dst`` runs the same pocketfft transform as
    ``scipy.fft.dst``, bit for bit, without scipy.fft's backend dispatch.
    """
    from scipy.fftpack import dst

    return dst


def _dst(a: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I (``scipy.fftpack.dst``, its own inverse); re and im
    in one call as 2 columns."""
    pairs = np.ascontiguousarray(a, dtype=complex).view(np.float64).reshape(-1, 2)
    return _dst_kernel()(pairs, type=1, norm="ortho", axis=0).view(complex).ravel()


class BlowUpError(RuntimeError):
    pass


class StabilityError(RuntimeError):
    pass


def _nonlinear_rhs(q: np.ndarray, rows: np.ndarray, gamma: float) -> np.ndarray:
    """The nonlinear terms on the interior rows, between the clamped ends.
    Past each end the 7-point q_x and q_xx stencils read ghost cells that
    hold the far field, the end point's value.

    With rq = r q, i q^2 r + gamma H_nl factors as

        i (q (rq + gamma (4 q_x r_x + 8 r q_xx + 2 q r_xx - 6 rq^2))
           + 6 gamma r q_x^2).

    Both stencils come from one product of ``rows``, the 7-point q_x and
    q_xx stencils pre-divided by h and h^2, with the seven shifted copies of
    the interior in the ghost-padded grid.  The mirrored terms are read off
    c, c1, c2 = conj(q, q_x, q_xx) at -x, which are -r, r_x and -r_xx, so
    with p = c q = -rq the sum above is written with no sign flips.
    """
    n = len(q)
    m, ghosts = n - 2 * _FROZEN, 3 - _FROZEN   # 3: the stencils' half-width
    padded = np.empty(n + 2 * ghosts, dtype=complex)
    padded[:ghosts] = q[0]
    padded[ghosts:-ghosts] = q
    padded[-ghosts:] = q[-1]
    # row j: the interior shifted by j - 3 cells, as interleaved re and im
    shifted = np.ndarray((7, 2 * m), np.float64, padded, 0, (padded.itemsize, 8)).copy()
    derivs = (rows @ shifted).view(complex)
    qi, (qx, qxx) = padded[3:3 + m], derivs
    c = np.conj(qi[::-1])
    c1, c2 = np.conj(derivs[:, ::-1])
    p = c * qi
    # -1j * (qi * (p + gamma * (8 * c * qxx + 2 * qi * c2 + 6 * p * p - 4 * qx * c1))
    #        + (6 * gamma) * c * qx * qx), in place in acc and tmp, keeping
    # each product's operand order: numpy's complex multiply fuses
    # multiply-add, so a * b and b * a may differ in the last bit
    acc = np.multiply(8, c)
    np.multiply(acc, qxx, out=acc)
    tmp = np.multiply(2, qi)
    np.multiply(tmp, c2, out=tmp)
    np.add(acc, tmp, out=acc)
    np.multiply(6, p, out=tmp)
    np.multiply(tmp, p, out=tmp)
    np.add(acc, tmp, out=acc)
    np.multiply(4, qx, out=tmp)
    np.multiply(tmp, c1, out=tmp)
    np.subtract(acc, tmp, out=acc)
    np.multiply(gamma, acc, out=acc)
    np.add(p, acc, out=acc)
    np.multiply(qi, acc, out=acc)
    np.multiply(6 * gamma, c, out=tmp)
    np.multiply(tmp, qx, out=tmp)
    np.multiply(tmp, qx, out=tmp)
    np.add(acc, tmp, out=acc)
    return np.multiply(-1j, acc, out=acc)


class _LawsonStepper:
    """One evolve call's integrating-factor RK4 (Lawson) steps.

    The exact linear flow of q_t = -(i/2) q_xx - i gamma q_xxxx acts on
    w = q - b, where b holds only the clamp values (`left` = q0[0] on x < 0,
    `right` = q0[-1] on x > 0, their mean at 0), so it stays fixed across
    evolve calls (a background taken from each call's start lets the closure
    mismatch grow with every restart).  The clamped end points x_0 and
    x_{N-1} hold w = 0, and the stencil on the m = N - 2 points between them,
    closed by odd reflection of w about each end, is diagonal in DST-I
    modes, with the stencil's symbol at pi k/(m+1) as eigenvalues: the
    transform is a real FFT of 2(m + 1) = 2(N - 1) points.  The odd closure
    differs from far-field ghost cells only in the three rows beside each
    end, through w, which vanishes where the field is flat.  The stencil on
    b, with 3 far-field ghost cells past each end, is a constant forcing,
    taken by the phi-1 function.  The exact rotation's
    quasi-random mode phases avoid the period-doubling pileup that a CN
    substep feeds the nonlinear map.

    Every step contracts (e^-3) the deviation from the initial modes
    ``u_ref`` in each mode whose dispersion is above min(gamma (pi/2h)^4,
    0.4 pi/|dt|).  Sampled exponential integrators go unstable where the
    linear rotation per step hits a multiple of pi (S dt = m pi): those modes
    look frozen to the stroboscopic map and their nonlinear pair coupling
    grows unchecked.  A band edge below ~0.4 pi/dt buries every resonance in
    the damped band; the modes lost carry no physical content for the
    smooth fields this integrator is for.
    """

    def __init__(self, q0: np.ndarray, h: float, gamma: float, dt: float):
        n = len(q0)
        left, right = complex(q0[0]), complex(q0[-1])
        stencil = 0.5 * _D2_6_PAD / h**2 + gamma * _D4_6 / h**4   # q_t = -i S q
        m = n - 2 * _FROZEN
        theta = np.pi * np.arange(1, m + 1) / (m + 1)
        self.evals = stencil[4] + 2.0 * sum(stencil[4 + j] * np.cos(j * theta)
                                            for j in range(1, 5))
        # b on the grid and on the ghost cells that the 9-point stencil of
        # the rows beside each clamp reaches
        ghosts = 4 - _FROZEN
        b = np.full(n + 2 * ghosts, left, dtype=complex)
        b[n // 2 + ghosts + 1:] = right
        b[n // 2 + ghosts] = 0.5 * (left + right)
        self.background = b[ghosts:-ghosts]
        self.force = _dst(np.convolve(b, stencil, mode="valid"))
        self._phases: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        cut = min(gamma * (0.5 * np.pi / h) ** 4, 0.4 * np.pi / abs(dt))
        self.damp = np.where(np.abs(self.evals) > cut, np.exp(-3.0), 1.0)
        self.rows = np.stack((_D1_6 / h, _D2_6 / (h * h)))
        self.gamma = gamma
        self.u_ref = self.to_modes(q0)

    def to_modes(self, q: np.ndarray) -> np.ndarray:
        """Modes of the interior deviation w = q - b."""
        return _dst((q - self.background)[_FROZEN:-_FROZEN])

    def to_grid(self, u: np.ndarray) -> np.ndarray:
        """The full grid b + w of the deviation's modes."""
        full = self.background.copy()
        full[_FROZEN:-_FROZEN] += _dst(u)
        return full

    def phases(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """(e^{-i lam dt}, the affine forcing increment over dt), evaluated
        once per dt: a run of equal steps shares them."""
        if dt not in self._phases:
            lam = self.evals
            ph = np.exp(-1j * lam * dt)
            z = -1j * lam * dt
            small = np.abs(z) < 1e-8
            phi1 = np.where(small, 1.0 + z / 2.0,
                            (ph - 1.0) / np.where(small, 1.0, z))
            self._phases[dt] = ph, dt * phi1 * (-1j * self.force)
        return self._phases[dt]

    def step(self, q: np.ndarray, u: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """One step over dt: the exact linear flow wraps every RK4 stage.

        The state comes and goes both as the grid q and as its modes u.

        Splitting the bare nonlinearity off the dispersion entirely is
        unstable here (the mirrored derivative coupling grows at the k^2
        scale once the stabilizing k^4 rotation is removed); evaluating the
        RK stages in the rotated frame keeps everything phase-mixed.  All
        linear flows act diagonally on the sine modes; grid space is visited
        only for the four nonlinear evaluations.
        """
        rows, gamma = self.rows, self.gamma
        ph_h, kick_h = self.phases(0.5 * dt)
        u_half = ph_h * u + kick_h   # affine half-flow of the state
        u_full = ph_h * u_half + kick_h

        # k1 is used only rotated by a half-step; the full-step rotations of
        # k1, k2 and k3 share one more factor ph_h.  The stage states
        # u_half + (dt/2) pk1, u_half + (dt/2) k2 and u_full + dt (ph_h k3)
        # share one buffer and u_new is summed into k2, each product in the
        # operand order written here (see _nonlinear_rhs)
        pk1 = _dst(_nonlinear_rhs(q, rows, gamma))
        np.multiply(ph_h, pk1, out=pk1)
        stage = np.multiply(0.5 * dt, pk1)
        np.add(u_half, stage, out=stage)
        k2 = _dst(_nonlinear_rhs(self.to_grid(stage), rows, gamma))
        np.multiply(0.5 * dt, k2, out=stage)
        np.add(u_half, stage, out=stage)
        k3 = _dst(_nonlinear_rhs(self.to_grid(stage), rows, gamma))
        np.multiply(ph_h, k3, out=stage)
        np.multiply(dt, stage, out=stage)
        np.add(u_full, stage, out=stage)
        k4 = _dst(_nonlinear_rhs(self.to_grid(stage), rows, gamma))
        # u_new = u_full + (dt / 6) (ph_h (pk1 + 2 (k2 + k3)) + k4)
        u_new = np.add(k2, k3, out=k2)
        np.multiply(2.0, u_new, out=u_new)
        np.add(pk1, u_new, out=u_new)
        np.multiply(ph_h, u_new, out=u_new)
        np.add(u_new, k4, out=u_new)
        np.multiply(dt / 6.0, u_new, out=u_new)
        np.add(u_full, u_new, out=u_new)
        # contract the top dispersion band of the deviation from u_ref, free
        # in modes: u_ref + damp (u_new - u_ref)
        np.subtract(u_new, self.u_ref, out=u_new)
        np.multiply(self.damp, u_new, out=u_new)
        np.add(self.u_ref, u_new, out=u_new)
        return self.to_grid(u_new), u_new


def stable_dt(grid: FieldGrid, gamma: float) -> float:
    """Step bound from the explicitly treated q_xx-carrying nonlinear terms.

    The bare nonlinear Jacobian's spectral radius is ~ 12 gamma |q|^2 k^2
    (the 8i r q q_xx, 2i q^2 r_xx and first-derivative terms combined);
    1.2/rho keeps RK4's stage amplification well inside its stability disk.
    """
    kmax = np.pi / grid.h
    amp = float(np.abs(grid.values).max()) ** 2
    scale = 12.0 * gamma * amp * kmax**2 + amp + 1.0
    return 1.2 / scale


# evolve's step-doubling error check: its tolerance and period in steps
_LOCAL_TOL = 1e-4
_CHECK_EVERY = 64
# the shortest given step evolve takes, as a fraction of stable_dt
_DT_FLOOR = 2.0 ** -10


def evolve(grid: FieldGrid, t_end: float, gamma: float,
           dt: float | None = None) -> FieldGrid:
    """Advance the grid to t_end (forward or backward in time).

    Integrating-factor RK4 at the stability-limited step, with the top of
    the dispersion spectrum contracted every step (those modes carry no
    physical content for smooth data but sit at RK4's stability edge).  A
    step-doubling error check every 64 steps halves dt if the local error
    per step exceeds 1e-4 * (dt + max|q|); the 4th-order truncation sits
    orders below that in normal operation, so the check is a safety valve
    against under-resolved data, not a tuner.

    A given dt must be finite and nonzero, and either cover the whole span
    or be at least 2**-10 * stable_dt: a shorter step buys no accuracy that
    the stable step lacks, and the step count span/dt grows without bound
    (dt = 1e-12 on a 1e-3 span is 1e9 steps).  A ValueError names both.
    So does one for a t_end that is not finite, and one for a grid with no
    point between its clamped ends.

    Only the end points q[0] and q[-1] are clamped: they keep their initial
    values, bit for bit, and every point between them evolves.
    """
    if not np.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if dt is not None and not (np.isfinite(dt) and dt != 0):
        raise ValueError(f"time step dt must be finite and nonzero, got {dt}")
    q = grid.values.astype(complex).copy()
    n = len(q)
    if n <= 2 * _FROZEN:
        raise ValueError(f"a {n}-point grid has no point between its clamped ends: "
                         "widen it or refine h")
    right = complex(q[-1])
    t = grid.time
    span = t_end - t
    if span == 0:
        return replace(grid, values=q)
    direction = np.sign(span)
    dt_stab = stable_dt(grid, gamma)
    if dt is None:
        dt = dt_stab
    elif abs(dt) < min(abs(span), _DT_FLOOR * dt_stab):
        raise ValueError(f"time step dt = {dt:g} is below {_DT_FLOOR:g} of stable_dt = {dt_stab:g}")
    dt = direction * min(abs(dt), abs(span))

    stepper = _LawsonStepper(q, grid.h, gamma, dt)
    u = stepper.u_ref
    amp = float(np.abs(q).max())

    steps = 0
    while (t_end - t) * direction > 1e-15:
        if abs(dt) > abs(t_end - t):
            dt = (t_end - t)
        q_new, u_new = stepper.step(q, u, dt)
        peak = np.abs(q_new).max()   # NaN if any value is NaN
        if not np.isfinite(peak):
            raise BlowUpError(f"solution lost finiteness at t = {t:.6g}, first at "
                              f"x = {grid.x[np.isfinite(q_new).argmin()]:.6g}")
        if peak > 50.0 * (1.0 + abs(right)):
            raise BlowUpError(f"solution blowing up at t = {t:.6g}: max|q| = {peak:.3g} "
                              f"at x = {grid.x[np.abs(q_new).argmax()]:.6g}")
        if steps % _CHECK_EVERY == 0:
            qa, ua = stepper.step(q, u, 0.5 * dt)
            qb, _ = stepper.step(qa, ua, 0.5 * dt)
            err = float(np.abs(q_new - qb).max()) / 3.0
            tol = _LOCAL_TOL * (abs(dt) + amp)
            if err > tol:
                dt *= 0.5
                if abs(dt) < 1e-12:
                    raise StabilityError("time step underflow")
                continue
        q, u = q_new, u_new
        t += dt
        steps += 1
    return FieldGrid(x=grid.x, values=q, h=grid.h, time=t_end)
