"""Command-line application: scattering tables, factor functions, local
models, asymptotic rays, the exact soliton, short-time simulation, and a
self-check suite.

Every numeric output is CSV with a leading '#'-prefixed JSON metadata line;
floats carry 17 significant digits so files re-parse bit-for-bit.  Exit
codes: 0 success, 1 usage/config error, 2 validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import numpy as np

from steplpd.asymptotics import q_asymptotic, q_rough, q_soliton
from steplpd.pcmodel import (
    LocalModelData,
    model_order,
    pc_coefficients,
    pc_jump_matrix,
    pc_model_matrix,
)
from steplpd.phase import sign_of_re_phi, stationary_points
from steplpd.rhfactors import build_delta, saddle_exponents
from steplpd.scattering import (
    InitialProfile,
    ScatteringData,
    classify_case,
    locate_xi1,
    scattering_matrix,
)
from steplpd.simulate import FieldGrid, SolitonField, evolve, pde_residual


def _fmt(x) -> str:
    if isinstance(x, complex):
        raise TypeError("split complex values into columns")
    if isinstance(x, str):
        return x
    return f"{x:.17g}"


def write_csv(path, header: list[str], rows, meta: dict):
    out = sys.stdout if path in (None, "-") else open(path, "w")
    try:
        out.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def load_profile(args) -> InitialProfile:
    if args.config:
        if args.A is not None or args.gamma is not None:
            raise ValueError("--config sets A and gamma: drop --A and --gamma")
        return InitialProfile.from_json(args.config)
    return InitialProfile.pure_step(2.0 if args.A is None else args.A,
                                    1.0 / 27.0 if args.gamma is None else args.gamma)


def _scattering_data(args) -> ScatteringData:
    return ScatteringData.from_profile(load_profile(args))


def _large_tau_fit(s: int, model: LocalModelData) -> tuple[complex, complex]:
    """(beta, gamma_c) off tau (M - I) ~ [[., -i beta], [-i gamma_c, .]], tau = 50 e^{0.9i}."""
    tau = 50.0 * np.exp(0.9j)
    X = tau * (pc_model_matrix(s, model, tau) - np.eye(2))
    return 1j * X[0, 1], 1j * X[1, 0]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_scatter(args) -> int:
    data = _scattering_data(args)
    xs = np.linspace(args.xi_min, args.xi_max, args.n)
    xs = xs[np.abs(xs) > 1e-9]
    cols = [entry(xs) for entry in (data.a1, data.a2, data.b, data.r1, data.r2)]
    rows = np.column_stack([xs] + [part for c in cols for part in (c.real, c.imag)])
    meta = {"command": "scatter", "A": data.A, "gamma": data.gamma,
            "xi1": data.xi1, "case": data.case_tag.value}
    write_csv(args.out, ["xi", "re_a1", "im_a1", "re_a2", "im_a2", "re_b",
                         "im_b", "re_r1", "im_r1", "re_r2", "im_r2"], rows, meta)
    return 0


def cmd_phase(args) -> int:
    geom = stationary_points(args.mu, args.gamma)
    rows = []
    for s, (lam, c) in enumerate(zip(geom.lambdas, geom.curvatures), start=1):
        rows.append([s, lam, c])
    meta = {"command": "phase", "mu": args.mu, "gamma": args.gamma,
            "regime": geom.regime.value,
            "sign_probes": {f"{lam:+.6g}{q:+.3g}j":
                            sign_of_re_phi(lam + 0.15 * q * 1j + 0.15 * q, geom)
                            for lam in geom.lambdas for q in (+1, -1)}}
    write_csv(args.out, ["saddle", "lambda", "curvature_48glam2_minus_1"],
              rows, meta)
    return 0


def cmd_delta(args) -> int:
    data = _scattering_data(args)
    delta = build_delta(data, stationary_points(args.mu, data.gamma))
    rows = []
    for y in np.linspace(0.3, args.height, args.n):
        d = delta.eval(1j * y)
        rows.append([0.0, y, d.real, d.imag])
    # chi_s is built on positive rays only; the mirrored ray writes null
    chi = None if args.mu < 0 else [[c.real, c.imag]
                                    for c in saddle_exponents(delta).chi_at_saddle]
    delta0 = delta.at_zero()
    meta = {"command": "delta", "mu": args.mu,
            "v": [[v.real, v.imag] for v in delta.v_values],
            "chi_at_saddle": chi,
            "delta0": [delta0.real, delta0.imag]}
    write_csv(args.out, ["re_xi", "im_xi", "re_delta", "im_delta"], rows, meta)
    return 0


def cmd_pcmodel(args) -> int:
    r1r = complex(*args.r1r)
    r2r = complex(*args.r2r)
    v = model_order(r1r, r2r)
    model = LocalModelData(s=args.saddle, v=v, r1r=r1r, r2r=r2r)
    beta, gamc = pc_coefficients(args.saddle, r1r, r2r, v)
    rows = []
    for r in (0.5, 2.0):
        for ang, plus_is_ccw in ((np.pi / 4, True), (3 * np.pi / 4, False),
                                 (-np.pi / 4, False), (-3 * np.pi / 4, True)):
            tau = r * np.exp(1j * ang)
            up = pc_model_matrix(args.saddle, model, tau, side=+1)
            dn = pc_model_matrix(args.saddle, model, tau, side=-1)
            J = pc_jump_matrix(args.saddle, model, tau)
            plus, minus = (up, dn) if plus_is_ccw else (dn, up)
            res = float(np.abs(plus - minus @ J).max())
            rows.append([r, ang, res])
    fit_beta, fit_gamc = _large_tau_fit(args.saddle, model)
    meta = {"command": "pcmodel", "saddle": args.saddle,
            "v": [v.real, v.imag],
            "beta": [beta.real, beta.imag], "gamma_c": [gamc.real, gamc.imag],
            "beta_fit": [fit_beta.real, fit_beta.imag],
            "gamma_c_fit": [fit_gamc.real, fit_gamc.imag]}
    write_csv(args.out, ["radius", "angle", "jump_residual"], rows, meta)
    return 0


def cmd_asymptote(args) -> int:
    data = _scattering_data(args)
    rows = []
    cache: dict = {}
    for mu in args.mu:
        res = None
        for t in args.t:
            x = mu * t
            if res is None:
                res = q_asymptotic(x, t, data, _cache=cache)
            qv = res.value(x, t)
            rows.append([x, t, qv.real, qv.imag, abs(qv), res.branch.value,
                         float(res.error_order[0].exponent)])
    meta = {"command": "asymptote", "A": data.A, "gamma": data.gamma,
            "mu": args.mu}
    write_csv(args.out, ["x", "t", "re_q", "im_q", "abs_q", "branch",
                         "error_exponent"], rows, meta)
    return 0


def cmd_soliton(args) -> int:
    f = SolitonField(args.A, args.alpha, args.gamma)
    if not np.isfinite(args.t):
        raise ValueError(f"--t must be finite, got {args.t}")
    xs = np.linspace(args.xmin, args.xmax, args.n)
    rows = []
    for x in xs:
        qv = q_soliton(float(x), args.t, args.A, args.alpha, args.gamma)
        res = pde_residual(f, float(x), args.t, args.gamma, analytic=True)
        rows.append([x, args.t, qv.real, qv.imag, abs(res)])
    meta = {"command": "soliton", "A": args.A, "alpha": args.alpha,
            "gamma": args.gamma, "t": args.t}
    write_csv(args.out, ["x", "t", "re_q", "im_q", "pde_residual"], rows, meta)
    return 0


def cmd_simulate(args) -> int:
    if args.snapshots < 2:
        raise ValueError("--snapshots counts t = 0 and t_end: give at least 2")
    if not np.isfinite(args.t_end):   # the snapshot times would be NaN
        raise ValueError(f"--t-end must be finite, got {args.t_end}")
    if args.initial == "soliton":
        alpha = np.pi if args.alpha is None else args.alpha
        grid = FieldGrid.from_function(
            lambda x: q_soliton(x, 0.0, args.A, alpha, args.gamma),
            args.L, args.h)
    else:
        if args.alpha is not None:
            raise ValueError("--initial step has no phase: drop --alpha")
        grid = FieldGrid.smoothed_step(args.A, args.L, args.h)
    times = np.linspace(0.0, args.t_end, args.snapshots)
    rows = []
    g = grid
    for t in times:
        g = evolve(g, float(t), args.gamma, dt=args.dt)
        for x, v in zip(g.x, g.values):
            rows.append([float(t), float(x), v.real, v.imag])
    meta = {"command": "simulate", "A": args.A, "gamma": args.gamma,
            "h": args.h, "t_end": args.t_end, "initial": args.initial}
    write_csv(args.out, ["t", "x", "re_q", "im_q"], rows, meta)
    return 0


def cmd_validate(args) -> int:
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = ""):
        checks.append((name, bool(ok), detail))

    A, gamma = args.A, args.gamma
    profile = InitialProfile.pure_step(A, gamma)
    data = ScatteringData.pure_step(A, gamma)
    classify_case(data)
    locate_xi1(data)

    # scattering oracle
    errs = []
    for xi in (0.25, -0.5, 1.0, 2.0, -2.0):
        S = scattering_matrix(profile, xi)
        exact = np.array([[1 + A**2 / (4 * xi**2), -A / (2j * xi)],
                          [A / (2j * xi), 1.0]])
        errs.append(np.abs(S - exact).max() / np.abs(exact).max())
    check("pure-step scattering matrix", max(errs) < 1e-8, f"max rel err {max(errs):.2e}")

    check("xi1 = A/2", abs(data.xi1 - A / 2) < 1e-6, f"xi1 = {data.xi1}")

    mu = 0.45 * np.sqrt(1.0 / (27 * gamma))
    geom = stationary_points(mu, gamma)
    res = [abs(geom.theta(lam, 1)) for lam in geom.lambdas]
    check("stationary points", max(res) < 1e-10 * (1 + abs(mu)), f"residuals {max(res):.1e}")

    delta = build_delta(data, geom)
    xi0 = 0.5 * (geom.lam2 + geom.lam1)
    jump = delta.eval(xi0, +1) / delta.eval(xi0, -1) - data.one_plus_r1r2(xi0)
    check("delta jump", abs(jump) < 1e-6, f"err {abs(jump):.1e}")
    check("delta normalization", abs(delta.eval(1e3) - 1) < 5e-3,
          f"|delta(1e3)-1| = {abs(delta.eval(1e3)-1):.1e}")

    f = SolitonField(A, np.pi / 3, gamma)
    resid = max(abs(pde_residual(f, x, t, gamma, analytic=True))
                for (x, t) in [(0.6, 0.3), (-1.1, 0.7), (1.9, 0.2)])
    check("soliton PDE residual", resid < 1e-10, f"max {resid:.1e}")

    p, q = 0.32 + 0.21j, -0.55 + 0.4j
    v = model_order(p, q)
    model = LocalModelData(s=1, v=v, r1r=p, r2r=q)
    beta, gamc = pc_coefficients(1, p, q, v)
    fit_beta, fit_gamc = _large_tau_fit(1, model)
    fit_ok = (abs(fit_beta - beta) / abs(beta) < 0.02
              and abs(fit_gamc - gamc) / abs(gamc) < 0.02)
    check("local-model coefficients", fit_ok, "large-tau fit within 2%")

    qa = q_asymptotic(mu * 50.0, 50.0, data)
    check("rough-estimate consistency",
          qa.background == q_rough(mu * 50.0, 50.0, data),
          "background == A delta(0)^2")

    width = max(len(name) for name, _, _ in checks)
    failed = 0
    for name, ok, detail in checks:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 2


# ---------------------------------------------------------------------------

def _add_profile_args(p):
    p.add_argument("--config", help="profile JSON document (sets A and gamma)")
    p.add_argument("--A", type=float, help="pure-step height (default 2)")
    p.add_argument("--gamma", type=float, help="pure-step gamma (default 1/27)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="steplpd",
        description="step-like nonlocal LPD scattering/asymptotics toolkit")
    ap.add_argument("--out", default="-", help="output CSV path (default stdout)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scatter", help="scattering data over a xi grid")
    _add_profile_args(p)
    p.add_argument("--xi-min", type=float, default=-5.0)
    p.add_argument("--xi-max", type=float, default=5.0)
    p.add_argument("--n", type=int, default=101)
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("phase", help="stationary points and signature probes")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--gamma", type=float, default=1.0 / 27.0)
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("delta", help="delta function and saddle exponents")
    _add_profile_args(p)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--height", type=float, default=3.0)
    p.add_argument("--n", type=int, default=25)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("pcmodel", help="local model jump residuals and coefficients")
    p.add_argument("--saddle", type=int, choices=[1, 2, 3], default=1)
    p.add_argument("--r1r", type=float, nargs=2, default=[0.32, 0.21],
                   metavar=("RE", "IM"))
    p.add_argument("--r2r", type=float, nargs=2, default=[-0.55, 0.4],
                   metavar=("RE", "IM"))
    p.set_defaults(func=cmd_pcmodel)

    p = sub.add_parser("asymptote", help="leading-order q along rays")
    _add_profile_args(p)
    p.add_argument("--mu", type=float, nargs="+", default=[0.4])
    p.add_argument("--t", type=float, nargs="+", default=[100.0, 1000.0])
    p.set_defaults(func=cmd_asymptote)

    p = sub.add_parser("soliton", help="exact one-soliton and its PDE residual")
    p.add_argument("--A", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=np.pi)
    p.add_argument("--gamma", type=float, default=0.05)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--xmin", type=float, default=-10.0)
    p.add_argument("--xmax", type=float, default=10.0)
    p.add_argument("--n", type=int, default=201)
    p.set_defaults(func=cmd_soliton)

    p = sub.add_parser("simulate", help="short-time direct integration")
    p.add_argument("--initial", choices=["soliton", "step"], default="soliton")
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--alpha", type=float, help="soliton phase (default pi)")
    p.add_argument("--gamma", type=float, default=1.0 / 27.0)
    p.add_argument("--L", type=float, default=10.0)
    p.add_argument("--h", type=float, default=0.05)
    p.add_argument("--t-end", type=float, default=0.05)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--snapshots", type=int, default=2)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="run the invariant self-check suite")
    p.add_argument("--A", type=float, default=2.0)
    p.add_argument("--gamma", type=float, default=1.0 / 27.0)
    p.set_defaults(func=cmd_validate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except Exception as exc:                     # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
