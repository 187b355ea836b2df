"""The benchmark's workloads: inputs drawn from a seed, ops and their checks.

Every workload is an endless stream of ops.  An op's inputs are plain JSON
values drawn from the seed as the op is taken, so the run record can hold
them and the same seed replays the same ops.  ``compute`` is the timed part
and follows the call order of the CLI subcommand the workload mirrors;
``check`` runs afterwards, untimed and untraced, at the acceptance suite's
tolerances.

Inputs are stratified (Latin-hypercube profiles, ξ and μ spread over fixed
strata in a fixed cycle) so that every stretch of a run samples the same mix
of cheap and expensive ops, whatever the seed; a run's medians then depend
little on its seed.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import Iterator

import numpy as np

from steplpd import asymptotics, pcmodel, rhfactors, scattering, simulate
from steplpd.asymptotics import Branch

GAMMA = 1.0 / 27.0
MU_MAX = math.sqrt(1.0 / (27.0 * GAMMA))

# acceptance-suite tolerances (criteria 2, 6, 9, 10, 11) and the a2(0) identity
DET_TOL = 1e-10
SYM_TOL = 1e-8
ROW_TOL = 1e-8      # a table row against S recomputed, relative above |S_jk| = 1
A20_TOL = 1e-9
V_TOL = 1e-9
JUMP_TOL = 1e-6
SOLITON_TOL = 1e-3

# bump-profile
N_PROFILES = 4
XI_STRATA = 8
XI_RANGE = (0.15, 5.0)

# rays: data kinds in a fixed 16-op cycle, x > 0 for 8 ops, then x < 0 for 8
RAY_CYCLE = ("step", "I1", "step", "I2", "step", "I3", "step", "mixed") * 2
MU_STRATA = 8
MU_BAND = (0.1, 0.9)
# Pure-step rays are held at the CLI's default A = 2, with mu walking the
# golden-ratio sequence over the band (never repeating, so every ray stays
# cold).  A is not drawn: about 1 in 100 drawn (A, mu) makes
# saddle_exponents raise IntegrationError (see KNOWN_DEFECT), and an op of
# the workload must not fail.  Draw A once that is fixed.  The defect hits
# A = 2 too, first at pure-step ray 101 of the sequence; runs do not reach
# it yet, and will report it as a failed op once they do.
STEP_A = 2.0
GOLDEN = (5 ** 0.5 - 1) / 2
KNOWN_DEFECT = {"kind": "step", "sign": 1, "A": 1.8889706235148884,
                "mu": 0.22594616255258781}
IM_V = {"I1": (-0.4, -0.2), "I2": (-0.12, 0.12), "I3": (0.2, 0.4)}
EXPECTED_BRANCH = {"step": Branch.X_POS_I2, "I1": Branch.X_POS_I1,
                   "I2": Branch.X_POS_I2, "I3": Branch.X_POS_I3,
                   "mixed": Branch.X_POS_MIXED}
RAY_T0 = 100.0
RAY_TIMES = tuple(float(t) for t in np.logspace(2, 6, 9))
# criterion 6's probe points; ccw: the ray's '+' side is counter-clockwise
TAU_RING = tuple((r, ang, ccw) for r in (0.5, 2.0)
                 for ang, ccw in ((math.pi / 4, True), (3 * math.pi / 4, False),
                                  (-math.pi / 4, False), (-3 * math.pi / 4, True)))

# soliton-sim: criterion 11's soliton and grid, alpha drawn near pi.  One
# job is `simulate --snapshots 11` at the CLI's default t_end = 0.05: a grid,
# then 10 chunks of 0.005, each an evolve call that rebuilds the propagator.
SOLITON_A = 2.0
SOLITON_GAMMA = 0.1
SOLITON_ALPHA_SPREAD = 0.5
SOLITON_L = 10.0
SOLITON_H = 0.02
SOLITON_T_END = 0.05
SOLITON_SNAPSHOTS = 11


def _strata(rng, n: int) -> np.ndarray:
    """One point in each of n equal strata of [0, 1), in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def generate(workload: str, seed: int) -> Iterator[dict]:
    """The workload's ops, drawn from the seed, without end."""
    rng = np.random.default_rng(seed)
    return {"bump-profile": _gen_bump, "rays": _gen_rays,
            "soliton-sim": _gen_soliton}[workload](rng)


def _gen_bump(rng) -> Iterator[dict]:
    u = {k: _strata(rng, N_PROFILES)
         for k in ("A", "amp", "arg", "center", "width")}
    for p in range(N_PROFILES):
        amp = (0.05 + 0.25 * u["amp"][p]) * cmath.exp(2j * math.pi * u["arg"][p])
        yield {"kind": "profile", "profile": p,
               "A": 1.0 + float(u["A"][p]),
               "amplitude": [amp.real, amp.imag],
               "center": -0.4 + 0.8 * float(u["center"][p]),
               "width": 0.3 + 0.2 * float(u["width"][p])}
    lo, hi = XI_RANGE
    for k in itertools.count():
        stratum = (k // N_PROFILES) % XI_STRATA
        mag = lo + (hi - lo) * (stratum + rng.random()) / XI_STRATA
        yield {"kind": "point", "profile": k % N_PROFILES,
               "xi": float(mag * rng.choice((-1.0, 1.0)))}


def _gen_rays(rng) -> Iterator[dict]:
    """16-op cycles: 8 pure-step and 8 synthetic rays, x > 0 then x < 0.

    The pure-step rays take the golden-ratio sequence over the band in order
    (see STEP_A for why they are not drawn).  The synthetic rays draw mu and
    A from MU_STRATA strata each, one per stratum per cycle, so every cycle
    asks for the same mix of work.
    """
    lo, hi = MU_BAND
    seen_steps = set()
    while True:
        u_mu, u_A = _strata(rng, MU_STRATA), _strata(rng, MU_STRATA)
        for k, kind in enumerate(RAY_CYCLE):
            op = {"kind": kind, "sign": 1 if k < len(RAY_CYCLE) // 2 else -1}
            if kind == "step":
                u = (len(seen_steps) * GOLDEN) % 1.0
                op.update(mu=MU_MAX * (lo + (hi - lo) * u), A=STEP_A)
                if (op["mu"], op["sign"]) in seen_steps:
                    raise RuntimeError(f"pure-step ray {op} repeats; it would run warm")
                seen_steps.add((op["mu"], op["sign"]))
            else:
                classes = ("I1", "I2", "I3") if kind == "mixed" else (kind,) * 3
                classes = [classes[i] for i in rng.permutation(3)]
                op.update(mu=MU_MAX * (lo + (hi - lo) * float(u_mu[k // 2])),
                          A=1.0 + float(u_A[k // 2]),
                          im_v=[float(rng.uniform(*IM_V[c])) for c in classes])
            yield op


def _gen_soliton(rng) -> Iterator[dict]:
    """Jobs of one grid op and SOLITON_SNAPSHOTS - 1 chunk ops, alpha per job."""
    chunk = SOLITON_T_END / (SOLITON_SNAPSHOTS - 1)
    while True:
        alpha = math.pi + SOLITON_ALPHA_SPREAD * (2.0 * float(rng.random()) - 1.0)
        yield {"kind": "grid", "A": SOLITON_A, "alpha": alpha,
               "gamma": SOLITON_GAMMA, "L": SOLITON_L, "h": SOLITON_H}
        for k in range(1, SOLITON_SNAPSHOTS):
            yield {"kind": "chunk", "t_end": k * chunk}


class TracePlan:
    """Which ops a traced run traces: one of each pair of like ops, by coin.

    Ops are grouped by what sets their cost (kind and half-line for rays,
    the profile for bump points, the kind otherwise).  Within a group,
    consecutive ops are paired and a coin drawn from the seed picks the
    traced one of each pair, so traced and untraced ops see the same mix of
    inputs and the choice shares no period with the input cycles.  The coins
    come from their own stream: the inputs do not depend on the plan.
    """

    def __init__(self, workload: str, seed: int):
        self._rng = np.random.default_rng([seed, 1])
        self.group = {"rays": lambda op: (op["kind"], op["sign"]),
                      "bump-profile": lambda op: op["profile"] if op["kind"] == "point"
                      else op["kind"]}.get(workload, lambda op: op["kind"])
        self._partner: dict = {}        # group -> the second op's fate

    def traced(self, op: dict) -> bool:
        key = self.group(op)
        if key in self._partner:
            return self._partner.pop(key)
        coin = bool(self._rng.random() < 0.5)
        self._partner[key] = not coin
        return coin


# the op kinds whose latency the end-to-end metrics report
MAIN_KIND = {"bump-profile": ("point",), "rays": ("step", "I1", "I2", "I3", "mixed"),
             "soliton-sim": ("chunk",)}


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

class Workload:
    """Carries the state ops share (profiles' data, the evolving grid)."""

    def __init__(self, name: str):
        self.name = name
        self.state: dict = {}

    def shared_data(self, op: dict) -> list:
        """Data objects made by earlier ops that this op calls into."""
        entry = self.state.get(op["profile"]) if op["kind"] == "point" else None
        return [] if entry is None else [entry[1]]

    def compute(self, op: dict, adopt) -> dict:
        kind = op["kind"]
        if kind == "profile":
            return self._profile(op, adopt)
        if kind == "point":
            return self._point(op)
        if kind == "grid":
            return self._grid(op)
        if kind == "chunk":
            return self._chunk(op)
        return self._ray(op, adopt)

    def check(self, op: dict, out: dict) -> list[str]:
        return getattr(self, "_check_" + out["check"])(op, out)

    # bump-profile: the `scatter --config` path ----------------------------

    def _profile(self, op, adopt):
        profile = scattering.InitialProfile.gaussian_bump(
            op["A"], GAMMA, complex(*op["amplitude"]), op["center"], op["width"])
        data = adopt(scattering.ScatteringData.from_profile(profile, analyze=False))
        case = scattering.classify_case(data)
        self.state[op["profile"]] = (profile, data)
        return {"check": "profile", "case": case}

    def _check_profile(self, op, out):
        profile, data = self.state[op["profile"]]
        bad = []
        if out["case"] is not scattering.CaseTag.CASE1:
            bad.append(f"expected case 1, got {out['case']}")
        f1, f2 = scattering.auxiliary_f(profile, 0.0)
        err = abs(data.a2(0.0) - 4.0 / op["A"] ** 2 * (abs(f2) ** 2 - abs(f1) ** 2))
        if not err < A20_TOL:
            bad.append(f"a2(0) identity off by {err:.2e}")
        return bad

    def _point(self, op):
        data = self.state[op["profile"]][1]
        xi = op["xi"]
        return {"check": "point", "row": (data.a1(xi), data.a2(xi), data.b(xi),
                                          data.r1(xi), data.r2(xi))}

    def _check_point(self, op, out):
        profile, data = self.state[op["profile"]]
        xi = op["xi"]
        # S is recomputed by scattering_matrix (untimed): det S needs its
        # 21-entry, which the row lacks, and the row must match it
        S = scattering.scattering_matrix(profile, xi)
        det = np.linalg.det(S)
        bad = []
        if not abs(det - 1.0) < DET_TOL:
            bad.append(f"|det S - 1| = {abs(det - 1.0):.2e}")
        # S(-xi) is in the data's cache already: r1 needed b(-xi)
        b_minus = data.b(-xi)
        want = {"a1": S[0, 0], "a2": S[1, 1], "b": S[0, 1],
                "r1": np.conj(b_minus) / S[0, 0], "r2": S[0, 1] / S[1, 1]}
        for name, got in zip(("a1", "a2", "b", "r1", "r2"), out["row"]):
            err = abs(got - want[name])
            if not err < ROW_TOL * max(1.0, abs(want[name])):
                bad.append(f"{name} off S by {err:.2e}")
        sym = abs(data.a1(-xi) - np.conj(out["row"][0]))
        if not sym < SYM_TOL:
            bad.append(f"|a1(-xi) - conj a1(xi)| = {sym:.2e}")
        return bad

    # rays: the `asymptote` path, then the `pcmodel` check at each saddle ---

    def _ray(self, op, adopt):
        mu, sign = op["mu"], op["sign"]
        if op["kind"] == "step":
            profile = scattering.InitialProfile.pure_step(op["A"], GAMMA)
            data = adopt(scattering.ScatteringData.from_profile(profile, analyze=False))
            scattering.classify_case(data)
            scattering.locate_xi1(data)
        else:
            data = adopt(scattering.synthetic_from_v_targets(
                op["A"], GAMMA, mu, tuple(1j * v for v in op["im_v"])))
        x0 = sign * mu * RAY_T0
        res = asymptotics.q_asymptotic(x0, RAY_T0, data)
        values = [res.value(sign * mu * t, t) for t in RAY_TIMES]
        models = []
        for s in (1, 2, 3):
            r1r, r2r = rhfactors.regularized_reflections(data, res.geometry.lam(s))
            model = pcmodel.LocalModelData(s=s, v=res.v[s - 1], r1r=r1r, r2r=r2r)
            for r, ang, ccw in TAU_RING:
                tau = r * cmath.exp(1j * ang)
                up = pcmodel.pc_model_matrix(s, model, tau, side=+1)
                dn = pcmodel.pc_model_matrix(s, model, tau, side=-1)
                jump = pcmodel.pc_jump_matrix(s, model, tau)
                models.append((up, dn, jump) if ccw else (dn, up, jump))
        return {"check": "ray", "data": data, "x0": x0, "result": res,
                "values": values, "models": models}

    def _check_ray(self, op, out):
        res, data = out["result"], out["data"]
        bad = []
        want = EXPECTED_BRANCH[op["kind"]] if op["sign"] > 0 else Branch.X_NEG
        if res.branch is not want:
            bad.append(f"branch {res.branch.value}, expected {want.value}")
        if op["kind"] == "step":
            rough = asymptotics.q_rough(out["x0"], RAY_T0, data)
            if res.background != rough:
                bad.append(f"background {res.background} != q_rough {rough}")
        else:
            err = max(abs(res.v[k] - 1j * op["im_v"][k]) for k in range(3))
            if not err < V_TOL:
                bad.append(f"v off its targets by {err:.2e}")
        if not all(np.isfinite(v) for v in out["values"]):
            bad.append("non-finite q value")
        jump = max(float(np.abs(plus - minus @ J).max())
                   for plus, minus, J in out["models"])
        if not jump < JUMP_TOL:
            bad.append(f"local-model jump residual {jump:.2e}")
        return bad

    # soliton-sim: the `simulate --snapshots` path ---------------------------

    def _grid(self, op):
        A, alpha, gamma = op["A"], op["alpha"], op["gamma"]
        self.state["soliton"] = (A, alpha, gamma)
        grid = simulate.FieldGrid.from_function(
            lambda x: asymptotics.q_soliton(x, 0.0, A, alpha, gamma), op["L"], op["h"])
        self.state["grid"] = grid
        return {"check": "snapshot", "grid": grid}

    def _chunk(self, op):
        gamma = self.state["soliton"][2]
        grid = simulate.evolve(self.state["grid"], op["t_end"], gamma)
        self.state["grid"] = grid
        return {"check": "snapshot", "grid": grid}

    def _check_snapshot(self, op, out):
        A, alpha, gamma = self.state["soliton"]
        grid = out["grid"]
        exact = np.array([asymptotics.q_soliton(float(x), grid.time, A, alpha, gamma)
                          for x in grid.x])
        err = float(np.abs(grid.values - exact).max())
        return [] if err < SOLITON_TOL else [f"max-norm deviation {err:.2e}"]
