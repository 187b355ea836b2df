#!/usr/bin/env python3
"""Compare this checkout with another: CLI outputs, stage timings, start-up.

    python3 scripts/compare.py --parent OTHER/src [--pairs 10] GROUP...

Prints one JSON record.  Each side, OTHER/src (the parent) and this
checkout's src/ (the change), runs in fresh processes with PYTHONPATH set to
it, and each child checks that it imported `steplpd` from there.  GROUPs:

- `outputs`: one child per side writes the CLI outputs in `FILES` (the
  Baseline bump is A = 1, amplitude 0.1, centre 0.2, width 0.3) and the exit
  codes into a temporary directory.  The record names each file `same` or
  gives its first differing line; any difference exits 1, like `diff`.
  Under `max_abs_difference`, each differing CSV with the same rows and
  columns on both sides gets the largest |parent - change| over the cells
  that read as numbers on both.
- `startup`: wall seconds of the fresh processes in `STARTUP`.
- `sweep`, on the bump and on `soliton_profile(2, 1/27, pi/3)`, counting
  the xi swept (their number, summed over `scattering._transfer` calls,
  under `sweeps`): `one_S_*`, one S at one xi,
  the mean over 200 xi in [0.15, 5] (`one_S_bump_far`: in [12, 50];
  `one_S_wide_bump` on the bump A = 2, amplitude 0.3, centre 0.4, width
  0.5, 365 cells per half-line, the widest of bump-profile's draws);
  `row_bump`, the five reads a1, a2, b, r1, r2 of fresh `from_profile`
  data on the bump at a new scalar xi, as a bump-profile op reads them,
  the mean over the same 200 xi with random signs;
  `cells_*`, the first S of a fresh profile; `locate_xi1_*` on fresh data;
  `delta_exponents_*`, `build_delta` and `saddle_exponents` at mu = 0.3
  right after; `ray_*`, the two summed.
- `pcmodel`: `saddles_cold`, one `stationary_points` at a fresh mu in
  (0.1, 0.9) mu_max, the mean over the first 200 of the process;
  `one_D_cold`, one `parabolic_cylinder_D_scaled_pair` at a new
  order a = iv - 1 (|Re v| <= 1, |Im v| <= 0.45), |z| = 0.5, the mean over
  200 orders, after scipy.special has loaded; `one_D_warm_order`, then one at |z| = 2; `ring_cold`, one s = 1
  model's 16 `pc_model_matrix` and 8 `pc_jump_matrix` at |tau| = 0.5 and 2
  on the four rays, the mean over 64 fresh v; `ray_models`, the rings of one
  `rays` op's three models, the mean over 32 pure-step and 32 synthetic rays;
  `ray_asymptotic`, one `q_asymptotic` on those 64 fresh rays, for x > 0 and
  for x < 0, the mean over the 128 calls.
- `perfbench`: `perfbench/run.py --trace 0` on each workload that
  `BENCHMARK.json` lists, for its `run_seconds`, in the parent's checkout
  (the directory above OTHER/src) and in this one; pair i runs seed
  i + 1 on both sides.  Under `perfbench`, each workload gets both
  sides' attempted and failed ops, and each end-to-end metric both sides'
  median, quartiles and runs, `change_vs_parent` and `change_won` (the
  share of pairs the change was better in, by the metric's `better`).
- `simulate`, on criterion 11's grid (the soliton A = 2, alpha = pi,
  gamma = 0.1 on L = 10, h = 0.02: N = 1001): `lawson_step`, one
  `_LawsonStepper.step` (integrating-factor RK4) at `stable_dt`, the mean
  over 200 steps;
  `chunk`, one `evolve` over 0.005 from t = 0, as a `simulate --snapshots`
  chunk of soliton-sim runs; `dst`, one `_dst` of the points between the
  side's clamped cells (`grid.values[_FROZEN:-_FROZEN]`), and `rhs`, one
  `_nonlinear_rhs` on the grid with the stepper's stencil rows, each the
  mean over 1000 calls.  This group needs `_LawsonStepper` on both sides.

Draws use fixed seeds.  A timed group runs one untimed child per side, then
`--pairs` pairs, the parent first in even pairs (`perfbench` runs only the
pairs, in the same order).  Each stage gets both
sides' median, quartiles and runs, `change_vs_parent` (the relative change
of the median) and `change_won` (the share of pairs the change was faster
in).  Stage code uses only names that both checkouts have (for
`simulate`, a parent with `_LawsonStepper`).
"""

import argparse
import cmath
import contextlib
import csv
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

SCRIPTS = pathlib.Path(__file__).resolve().parent
CHANGE = SCRIPTS.parent / "src"
CHILD = "import sys, compare; compare.child(*sys.argv[1:])"
GAMMA = 1.0 / 27.0
BENCHMARK = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
BUMP = {"A": 1.0, "gamma": GAMMA,
        "perturbation": {"kind": "gaussian-bump", "amplitude": 0.1,
                         "center": 0.2, "width": 0.3}}
FILES = {  # output file -> CLI arguments after `--out`; bump.json holds BUMP
    "asymptote.csv": "asymptote --A 2 --mu 0.3 0.5 -0.4 0.8 --t 100 1000 10000",
    "delta_plus.csv": "delta --A 2 --mu 0.5 --n 5",
    "delta_minus.csv": "delta --A 2 --mu -0.5 --n 5",
    "scatter.csv": "scatter --A 2 --n 21",
    "bump_scatter.csv": "scatter --config bump.json --n 21",
    "bump_asymptote.csv": "asymptote --config bump.json --mu 0.3 -0.3 --t 100 1000",
    "bump_delta.csv": "delta --config bump.json --mu 0.3 --n 3",
    "soliton.csv": "soliton --A 2 --xmin -40 --xmax 10 --n 101",
    "pcmodel.csv": "pcmodel --saddle 2",
    "pcmodel_1.csv": "pcmodel --saddle 1",
    "pcmodel_3.csv": "pcmodel --saddle 3",
    "phase.csv": "phase --mu 0.5",
    "simulate.csv": "simulate --t-end 0.01",
    "simulate_step.csv": "simulate --initial step --t-end 0.01",
}
STARTUP = {  # stage -> arguments after the interpreter
    "import_steplpd": ["-c", "import steplpd"],
    "import_cli": ["-c", "import steplpd.cli"],
    "asymptote_step": ["-m", "steplpd.cli", "asymptote", "--A", "2", "--mu", "0.3", "--t", "100"],
    "asymptote_bump": ["-m", "steplpd.cli", "asymptote", "--config", "bump.json",
                       "--mu", "0.3", "0.5", "--t", "100", "1000"],
    "scatter_bump": ["-m", "steplpd.cli", "scatter", "--config", "bump.json", "--n", "21"],
}
RING = tuple((r, k * math.pi / 4) for r in (0.5, 2.0) for k in (1, 3, -1, -3))


def child(group: str, src: str) -> None:
    """Run one group's work on the steplpd found first on sys.path."""
    import steplpd
    if not pathlib.Path(steplpd.__file__).resolve().is_relative_to(pathlib.Path(src)):
        sys.exit(f"steplpd imported from {steplpd.__file__}, not from {src}")
    print(json.dumps({"outputs": write_outputs, "sweep": sweep_stages,
                      "pcmodel": pcmodel_stages, "simulate": simulate_stages}[group]()))


def write_outputs() -> None:
    from steplpd.cli import main
    pathlib.Path("bump.json").write_text(json.dumps(BUMP, sort_keys=True) + "\n")
    codes = [f"{name}: exit {main(['--out', name, *argv.split()])}" for name, argv in FILES.items()]
    with open("validate.txt", "w") as fh, contextlib.redirect_stdout(fh):
        codes.append(f"validate.txt: exit {main(['validate'])}")
    pathlib.Path("exit_codes.txt").write_text("\n".join(codes) + "\n")


def sweep_stages() -> dict[str, list[float]]:
    from steplpd import scattering
    from steplpd.phase import stationary_points
    from steplpd.rhfactors import build_delta, saddle_exponents

    transfer, sweeps = scattering._transfer, [0]

    def counting(profile, xi):
        sweeps[0] += xi.size
        return transfer(profile, xi)

    def timed(fn, n: int = 1) -> list[float]:
        before, t0 = sweeps[0], time.perf_counter()
        fn()
        return [(time.perf_counter() - t0) / n, (sweeps[0] - before) / n]

    def one_S(make, xis) -> list[float]:
        profile = make()
        scattering.scattering_matrix(profile, xis[0])
        return timed(lambda: [scattering.scattering_matrix(profile, xi) for xi in xis], len(xis))

    scattering._transfer = counting
    make = {"bump": lambda: scattering.InitialProfile.gaussian_bump(1.0, GAMMA, 0.1, 0.2, 0.3),
            "soliton": lambda: scattering.soliton_profile(2.0, GAMMA, np.pi / 3)}
    built = {name: mk() for name, mk in make.items()}
    for profile in built.values():
        for xi in (1.0, 50.0):
            scattering.scattering_matrix(profile, xi)
    near = np.random.default_rng(0).uniform(0.15, 5.0, 200)
    runs = {f"one_S_{name}": one_S(mk, near) for name, mk in make.items()}
    runs["one_S_bump_far"] = one_S(make["bump"], np.random.default_rng(1).uniform(12.0, 50.0, 200))
    runs["one_S_wide_bump"] = one_S(
        lambda: scattering.InitialProfile.gaussian_bump(2.0, GAMMA, 0.3, 0.4, 0.5), near)
    row = scattering.ScatteringData.from_profile(make["bump"](), analyze=False)
    row.a1(1.0)
    signed = near * np.random.default_rng(2).choice([-1.0, 1.0], len(near))
    runs["row_bump"] = timed(lambda: [(row.a1(xi), row.a2(xi), row.b(xi), row.r1(xi), row.r2(xi))
                                      for xi in map(float, signed)], len(signed))
    for name, mk in make.items():
        runs[f"cells_{name}"] = timed(lambda: scattering.scattering_matrix(mk(), 1.0))
    geometry = stationary_points(0.3, GAMMA)
    for name, profile in built.items():
        data = scattering.ScatteringData.from_profile(profile, analyze=False)
        scattering.classify_case(data)
        xi1 = runs[f"locate_xi1_{name}"] = timed(lambda: scattering.locate_xi1(data))
        exps = runs[f"delta_exponents_{name}"] = timed(
            lambda: saddle_exponents(build_delta(data, geometry)))
        runs[f"ray_{name}"] = [a + b for a, b in zip(xi1, exps)]
    return runs


def pcmodel_stages() -> dict[str, list[float]]:
    from steplpd import pcmodel
    from steplpd.asymptotics import q_asymptotic
    from steplpd.kernels.special import parabolic_cylinder_D_scaled_pair, reciprocal_gamma
    from steplpd.phase import stationary_points
    from steplpd.rhfactors import regularized_reflections
    from steplpd.scattering import ScatteringData, locate_xi1, synthetic_from_v_targets

    mu_max = math.sqrt(1.0 / (27.0 * GAMMA))
    mus = mu_max * np.random.default_rng(1).uniform(0.1, 0.9, 200)
    t0 = time.perf_counter()
    for mu in mus:
        stationary_points(float(mu), GAMMA)
    runs = {"saddles_cold": [(time.perf_counter() - t0) / len(mus)]}
    reciprocal_gamma(0.5)  # scipy.special loads on the first Gamma: not a D_a cost
    rng = np.random.default_rng(0)

    def draw_v(n: int) -> list[complex]:
        return [complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.45, 0.45)) for _ in range(n)]

    def rings(models) -> float:
        t0 = time.perf_counter()
        for model in models:
            for r, ang in RING:
                tau = r * cmath.exp(1j * ang)
                pcmodel.pc_model_matrix(model.s, model, tau, side=+1)
                pcmodel.pc_model_matrix(model.s, model, tau, side=-1)
                pcmodel.pc_jump_matrix(model.s, model, tau)
        return time.perf_counter() - t0

    orders = draw_v(200)
    cold = warm = 0.0
    for v in orders:
        a = 1j * v - 1.0
        z0, z1 = (r * cmath.exp(1j * rng.uniform(-math.pi, math.pi)) for r in (0.5, 2.0))
        t0 = time.perf_counter()
        parabolic_cylinder_D_scaled_pair(a, z0)
        t1 = time.perf_counter()
        parabolic_cylinder_D_scaled_pair(a, z1)
        cold, warm = cold + (t1 - t0), warm + (time.perf_counter() - t1)
    runs.update(one_D_cold=[cold / len(orders)], one_D_warm_order=[warm / len(orders)])
    p = 0.3 + 0.2j  # q below makes 1 + p q = e^{-2 pi v}
    models = [pcmodel.LocalModelData(s=1, v=v, r1r=p,
                                     r2r=(cmath.exp(-2.0 * math.pi * v) - 1.0) / p)
              for v in draw_v(64)]
    runs["ring_cold"] = [rings(models) / len(models)]
    models, golden, asymptotic = [], (5 ** 0.5 - 1) / 2, 0.0
    for k in range(32):
        mu = mu_max * (0.1 + 0.8 * ((k * golden) % 1.0))
        step = ScatteringData.pure_step(2.0, GAMMA)
        locate_xi1(step)
        synth = synthetic_from_v_targets(1.0 + rng.uniform(), GAMMA, mu,
                                         tuple(1j * rng.uniform(-0.4, 0.4) for _ in range(3)))
        for data in (step, synth):
            t0 = time.perf_counter()
            res = q_asymptotic(mu * 100.0, 100.0, data)
            q_asymptotic(-mu * 100.0, 100.0, data)
            asymptotic += time.perf_counter() - t0
            for s in (1, 2, 3):
                r1r, r2r = regularized_reflections(data, res.geometry.lam(s))
                models.append(pcmodel.LocalModelData(s=s, v=res.v[s - 1], r1r=r1r, r2r=r2r))
    runs["ray_models"] = [rings(models) / 64]  # per ray, of its three models
    runs["ray_asymptotic"] = [asymptotic / 128]
    return runs


def simulate_stages() -> dict[str, list[float]]:
    from steplpd import simulate
    from steplpd.asymptotics import q_soliton

    gamma, steps, calls = 0.1, 200, 1000
    grid = simulate.FieldGrid.from_function(lambda x: q_soliton(x, 0.0, 2.0, math.pi, gamma),
                                            10.0, 0.02)
    dt = simulate.stable_dt(grid, gamma)
    stepper = simulate._LawsonStepper(grid.values, grid.h, gamma, dt)
    q, u = stepper.step(grid.values, stepper.u_ref, dt)  # the phases, once
    t0 = time.perf_counter()
    for _ in range(steps):
        q, u = stepper.step(q, u, dt)
    t1 = time.perf_counter()
    simulate.evolve(grid, 0.005, gamma)
    t2 = time.perf_counter()
    interior = grid.values[simulate._FROZEN:-simulate._FROZEN]   # this side's transform length
    for _ in range(calls):
        simulate._dst(interior)
    t3 = time.perf_counter()
    for _ in range(calls):
        simulate._nonlinear_rhs(grid.values, stepper.rows, gamma)
    t4 = time.perf_counter()
    return {"lawson_step": [(t1 - t0) / steps], "chunk": [t2 - t1],
            "dst": [(t3 - t2) / calls], "rhs": [(t4 - t3) / calls]}


def run_side(group: str, src: pathlib.Path, cwd: str) -> dict[str, list[float]]:
    """One fresh run of a group on one side: stage -> [seconds, count...]."""
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{SCRIPTS}")

    def run(argv: list[str]) -> tuple[float, str]:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                              text=True, check=False)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"{src}: {' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
        return elapsed, proc.stdout

    if group != "startup":
        return json.loads(run(["-c", CHILD, group, str(src)])[1])
    return {name: [run(argv)[0]] for name, argv in STARTUP.items()}


def first_difference(parent: pathlib.Path, change: pathlib.Path) -> str:
    if not (parent.exists() and change.exists()):
        return "only in " + ("parent" if parent.exists() else "change")
    a, b = parent.read_bytes(), change.read_bytes()
    if a == b:
        return "same"
    a, b = a.splitlines(keepends=True), b.splitlines(keepends=True)
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    line = lambda lines: lines[i].decode(errors="replace")[:200] if i < len(lines) else "<end>"
    return f"line {i + 1}: parent {line(a)!r}, change {line(b)!r}"


def csv_cells(path: pathlib.Path) -> list[list[str]]:
    """The rows of a CLI output, without its `#` metadata line."""
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


def max_abs_difference(parent: pathlib.Path, change: pathlib.Path) -> float | None:
    """The largest |parent - change| over the cells that read as numbers on
    both sides (inf where only one is NaN), or None if the shapes differ."""
    a, b = csv_cells(parent), csv_cells(change)
    if [len(row) for row in a] != [len(row) for row in b]:
        return None
    largest = 0.0
    for x, y in ((x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb) if x != y):
        try:
            d = abs(float(x) - float(y))
        except ValueError:
            continue
        largest = max(largest, math.inf if math.isnan(d) else d)
    return largest


def compare_outputs(parent: pathlib.Path, change: pathlib.Path) -> tuple[dict[str, str],
                                                                         dict[str, float]]:
    """Each file's first difference, and each differing CSV's largest
    absolute difference where both sides have its shape."""
    names = sorted({p.name for side in (parent, change) for p in side.iterdir()})
    firsts = {f: first_difference(parent / f, change / f) for f in names}
    largest = {}
    for f, first in firsts.items():
        if f.endswith(".csv") and first != "same" and not first.startswith("only in"):
            d = max_abs_difference(parent / f, change / f)
            if d is not None:
                largest[f] = d
    return firsts, largest


def outputs(sides: dict[str, pathlib.Path], work: pathlib.Path) -> tuple[dict[str, str],
                                                                         dict[str, float]]:
    for name, src in sides.items():
        (work / name).mkdir()
        run_side("outputs", src, str(work / name))
    return compare_outputs(work / "parent", work / "change")


def spread(xs: list[float], suffix: str = "") -> dict:
    """The median, quartiles and runs of xs, each key ending in suffix."""
    q = statistics.quantiles(xs, n=4)
    return {f"median{suffix}": statistics.median(xs), f"quartiles{suffix}": [q[0], q[2]],
            f"runs{suffix}": xs}


def result_line(stdout: str) -> dict:
    """The result that `perfbench/run.py` prints on its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


def perfbench_record(results: dict[str, dict[str, list[dict]]]) -> dict:
    """workload -> side -> one result line per pair, summed and spread as
    the module docstring says."""
    record = {}
    for workload, sides in results.items():
        entry = {"ops": {side: {key: sum(r[key] for r in runs) for key in ("attempted", "failed")}
                         for side, runs in sides.items()}, "metrics": {}}
        for metric in BENCHMARK["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            xs = {side: [r["metrics"][name]["value"] for r in runs] for side, runs in sides.items()}
            better = [c < p if lower else c > p for p, c in zip(xs["parent"], xs["change"])]
            stats = {side: spread(x) for side, x in xs.items()}
            entry["metrics"][name] = {
                "unit": metric["unit"], **stats,
                "change_vs_parent": stats["change"]["median"] / stats["parent"]["median"] - 1,
                "change_won": sum(better) / len(better)}
        record[workload] = entry
    return record


def perfbench(sides: dict[str, pathlib.Path], pairs: int) -> dict:
    """The benchmark's workloads in alternating pairs of runs, one per side."""
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    results = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(pairs):
        for workload in workloads:
            for name in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                # the benchmark's script under this interpreter, from the side's root
                argv = [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
                        "--seed", str(i + 1), "--seconds", str(BENCHMARK["run_seconds"]),
                        "--trace", "0"]
                proc = subprocess.run(argv, cwd=sides[name].parent, capture_output=True,
                                      text=True, check=False)
                if proc.returncode != 0:
                    raise RuntimeError(f"{sides[name].parent}: {' '.join(argv[1:])} exited "
                                       f"{proc.returncode}: {proc.stderr}")
                results[workload][name].append(result_line(proc.stdout))
    return perfbench_record(results)


def timings(group: str, sides: dict[str, pathlib.Path], pairs: int, cwd: str) -> dict:
    for src in sides.values():
        run_side(group, src, cwd)
    samples: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(pairs):
        for name in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            samples[name].append(run_side(group, sides[name], cwd))
    stages = {}
    for stage in samples["parent"][0]:
        record = {}
        for name, runs in samples.items():
            record[name] = spread([run[stage][0] for run in runs], "_s")
            if len(runs[0][stage]) > 1:  # sweeps, listed once if every run agrees
                counts = sorted({run[stage][1] for run in runs})
                record[name]["sweeps"] = counts[0] if len(counts) == 1 else counts
        wins = zip(record["parent"]["runs_s"], record["change"]["runs_s"])
        record["change_vs_parent"] = record["change"]["median_s"] / record["parent"]["median_s"] - 1
        record["change_won"] = sum(c < p for p, c in wins) / pairs
        stages[stage] = record
    return stages


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=pathlib.Path, required=True,
                    help="src/ directory of the checkout to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("groups", nargs="+", metavar="GROUP",
                    choices=("outputs", "startup", "sweep", "pcmodel", "simulate", "perfbench"))
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    sides = {"parent": args.parent.resolve(), "change": CHANGE}
    command = " ".join(["scripts/compare.py", *(sys.argv[1:] if argv is None else argv)])
    record = {"command": command, "environment": environment(), "pairs": args.pairs, "stages": {}}
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        (work / "bump.json").write_text(json.dumps(BUMP, sort_keys=True) + "\n")
        for group in dict.fromkeys(args.groups):
            if group == "outputs":
                record["outputs"], record["max_abs_difference"] = outputs(sides, work)
            elif group == "perfbench":
                record["perfbench"] = perfbench(sides, args.pairs)
            else:
                record["stages"].update(timings(group, sides, args.pairs, tmp))
    json.dump(record, sys.stdout, indent=1)
    print()
    return int(any(v != "same" for v in record.get("outputs", {}).values()))


if __name__ == "__main__":
    sys.exit(main())
