#!/usr/bin/env python3
"""steplpd benchmark: one workload, one seed, one fixed measuring window.

    python3 perfbench/run.py --workload rays --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports ``steplpd`` from ``src/``
there and exits with code 2, printing no result, if that is missing.  One
process, single client in a closed loop: each op starts when the previous
one and its check have finished.  Ops run until ``--seconds`` have passed
(the op running at the deadline completes).

With ``--trace 0`` the last stdout line reports the end-to-end metrics, the
op time at the nominal speed of a reference computation timed after every op
(``reference.py``); with ``--trace 1`` half the ops run traced, one of each pair of like ops
(``workloads.TracePlan``), and the line reports the per-layer metrics (see
``perfbench/README.md``).  A run record with the
environment, every op's inputs and outcome, and the metrics is written to
``perfbench/out/``; traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("bump-profile", "rays", "soliton-sim")
SETUP_REPEATS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------

def _blas_threads():
    import numpy
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__),
                                      os.pardir, "numpy.libs", "*openblas*")):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def environment() -> dict:
    import mpmath
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "threads_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                            if k in os.environ}}


def measure_setup(generate, workload: str, seed: int) -> dict:
    """Median fresh-process import of steplpd plus median time to the first op.

    The first op of bump-profile draws every profile; later ops draw their
    inputs as they are taken, a few microseconds each, inside the window.
    """
    code = "import sys; sys.path.insert(0, sys.argv[1]); import steplpd"
    imports = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, SRC], check=True,
                       stdin=subprocess.DEVNULL)
        imports.append(time.perf_counter() - t0)
    gens = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        next(generate(workload, seed))
        gens.append(time.perf_counter() - t0)
    return {"import_s": imports, "generate_s": gens,
            "setup_s": statistics.median(imports) + statistics.median(gens)}


# ---------------------------------------------------------------------------
# the measuring window
# ---------------------------------------------------------------------------

def run_ops(workload, ops, seconds: float, tracer=None, plan=None,
            reference=None) -> list[dict]:
    """Take ops until the window closes; time, trace and check each one.

    In a traced run, ``plan`` says which ops are traced.  In an untraced run,
    ``reference`` is timed before the first op and after each op's check, and
    an op's ``ref_ms`` is the mean of the times on either side of it.
    """
    from scipy.integrate import IntegrationWarning
    from steplpd.kernels import special
    from workloads import MAIN_KIND

    main_kinds = MAIN_KIND[workload.name]
    modes = (False, True) if tracer else (False,)
    main_seen: set[bool] = set()
    records = []
    deadline = time.perf_counter() + seconds
    ref_before = reference.ms() if reference else None
    for index, op in enumerate(ops):
        if time.perf_counter() >= deadline and main_seen.issuperset(modes):
            break
        traced = tracer is not None and plan.traced(op)
        adopt = (lambda data: data)
        if traced:
            tracer.start(index, workload.shared_data(op))
            adopt = tracer.adopt
            pcfd_before = _pcfd_counts(special)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                out, error = workload.compute(op, adopt), None
            except Exception as exc:            # an op failure, reported below
                out, error = None, f"{type(exc).__name__}: {exc}"
            t1, cpu1 = time.perf_counter(), time.process_time()
        record = {"index": index, "inputs": op, "traced": traced,
                  "ms": (t1 - t0) * 1e3, "cpu_s": cpu1 - cpu0}
        if traced:
            tracer.stop()
            after = _pcfd_counts(special)
            record["pcfd_hits"] = after[0] - pcfd_before[0]
            record["pcfd_misses"] = after[1] - pcfd_before[1]
        failures = []
        if error is None:
            try:
                failures = workload.check(op, out)
            except Exception as exc:            # a failed check, not a crash
                failures = [f"check raised {type(exc).__name__}: {exc}"]
        record.update(
            error=error, failures=failures, ok=error is None and not failures,
            integration_warnings=sum(issubclass(w.category, IntegrationWarning)
                                     for w in caught),
            other_warnings=sorted({w.category.__name__ for w in caught
                                   if not issubclass(w.category, IntegrationWarning)}))
        if reference:
            ref_after = reference.ms()
            record["ref_ms"] = (ref_before + ref_after) / 2
            ref_before = ref_after
        records.append(record)
        if op["kind"] in main_kinds:
            main_seen.add(traced)
    return records


def _pcfd_counts(special) -> tuple[int, int]:
    # the D_a(z) caches of kernels.special, read only
    infos = [special._pcfd_cached.cache_info(),
             special._pcfd_scaled_cached.cache_info()]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[int, float]:
    """(p, value): the highest percentile with at least 10 samples beyond it.

    With 10 samples or fewer there is no such percentile; the maximum is
    returned as p = 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    p = (100 * (n - 10)) // n
    return p, ordered[math.ceil(p * n / 100) - 1]   # nearest-rank percentile


def main_ops(records: list[dict], kinds) -> list[dict]:
    """The successful main ops; all main ops if every one failed."""
    main = [r for r in records if r["inputs"]["kind"] in kinds]
    return [r for r in main if r["ok"]] or main


def main_latencies(records: list[dict], kinds) -> list[float]:
    return [r["ms"] for r in main_ops(records, kinds)]


def end_to_end(workload: str, records: list[dict], setup: dict,
               reference) -> tuple[dict, dict]:
    from workloads import MAIN_KIND
    main = main_ops(records, MAIN_KIND[workload])
    main_ms = [r["ms"] for r in main]
    p, tail_ms = tail(main_ms)
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "op_ms_ref_mean": (reference.nominal_ms * sum(r["ms"] for r in main)
                           / sum(r["ref_ms"] for r in main), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # reported, not bounded: as measured, they move with the shared machine's
    # speed by more than a regression bound allows (see README)
    return metrics, {"op_ms_p50": statistics.median(main_ms), "op_ms_tail": tail_ms,
                     "tail_percentile": p, "main_ops": len(main_ms),
                     "reference": reference.kind,
                     "ref_ms_mean": statistics.mean(r["ref_ms"] for r in main)}


def per_layer(workload, records: list[dict], rec) -> tuple[dict, dict]:
    from workloads import MAIN_KIND
    traced = [r for r in records if r["traced"]]
    n = max(len(traced), 1)
    calls = lambda name: rec.calls.get(name, 0)
    total = lambda name: rec.total.get(name, 0.0)
    own = lambda name: rec.self_time.get(name, 0.0)
    s_evals = calls("scattering.jost_at_origin")
    s_requests = sum(calls(f"scattering.data.{a}") for a in ("a1", "a2", "b"))
    pcfd = ("kernels.special.parabolic_cylinder_D",
            "kernels.special.parabolic_cylinder_D_scaled")
    hits = sum(r.get("pcfd_hits", 0) for r in traced)
    lookups = hits + sum(r.get("pcfd_misses", 0) for r in traced)
    main = MAIN_KIND[workload.name]
    ms = {mode: main_latencies([r for r in records if r["traced"] is mode], main)
          for mode in (False, True)}
    untraced = [r for r in records if not r["traced"]]
    untraced_wall = sum(r["ms"] for r in untraced) / 1e3
    untraced_cpu = sum(r["cpu_s"] for r in untraced)
    grid = workload.state.get("grid")
    metrics = {
        "scattering.s_evals": (s_evals / n, "count/op"),
        "scattering.s_requests": (s_requests / n, "count/op"),
        "scattering.s_evals_per_request": (s_evals / s_requests if s_requests else 0.0,
                                           "ratio"),
        "scattering.s_self_s": (rec.layer_self("scattering") / n, "s/op"),
        "scattering.locate_xi1_s": (total("scattering.locate_xi1") / n, "s/op"),
        "scattering.from_profile_s": (total("scattering.ScatteringData.from_profile") / n,
                                      "s/op"),
        "scattering.classify_case_s": (total("scattering.classify_case") / n, "s/op"),
        "kernels.ode.solves": (calls("kernels.ode.ode_integrate") / n, "count/op"),
        "kernels.ode.self_s": (rec.layer_self("kernels.ode") / n, "s/op"),
        "kernels.quadrature.quadpack_calls": (calls("kernels.quadrature.quad") / n,
                                              "count/op"),
        "kernels.quadrature.self_s": (rec.layer_self("kernels.quadrature") / n, "s/op"),
        "kernels.quadrature.warnings": (sum(r["integration_warnings"] for r in traced) / n,
                                        "count/op"),
        "rhfactors.rho_evals": (rec.rho_evals / n, "count/op"),
        "rhfactors.build_delta_s": (total("rhfactors.build_delta") / n, "s/op"),
        "rhfactors.saddle_exponents_s": (total("rhfactors.saddle_exponents") / n, "s/op"),
        "rhfactors.delta_evals": (calls("rhfactors.DeltaFunction.log_delta") / n, "count/op"),
        "rhfactors.self_s": (rec.layer_self("rhfactors") / n, "s/op"),
        "phase.stationary_points_s": (total("phase.stationary_points") / n, "s/op"),
        "asymptotics.q_asymptotic_self_s": (own("asymptotics.q_asymptotic") / n, "s/op"),
        "asymptotics.coefficients_s": (total("asymptotics.coefficients_HLN") / n, "s/op"),
        "asymptotics.value_calls": (calls("asymptotics.AsymptoticResult.value") / n,
                                    "count/op"),
        "asymptotics.value_self_s": (own("asymptotics.AsymptoticResult.value") / n, "s/op"),
        "pcmodel.model_matrix_calls": (calls("pcmodel.pc_model_matrix") / n, "count/op"),
        "pcmodel.self_s": (rec.layer_self("pcmodel") / n, "s/op"),
        "kernels.special.pcfd_calls": (sum(calls(f) for f in pcfd) / n, "count/op"),
        "kernels.special.pcfd_self_s": (sum(own(f) for f in pcfd) / n, "s/op"),
        "kernels.special.pcfd_cache_hit_ratio": (hits / lookups if lookups else 0.0,
                                                 "ratio"),
        "simulate.evolve_s": (total("simulate.evolve") / n, "s/op"),
        "simulate.grid_points": (float(len(grid.x)) if grid is not None else 0.0, "count"),
        "process.cpu_s": (untraced_cpu / max(len(untraced), 1), "s/op"),
        "process.cpu_per_wall": (untraced_cpu / untraced_wall if untraced_wall else 0.0,
                                 "ratio"),
        "trace.overhead_frac": (statistics.median(ms[True]) / statistics.median(ms[False])
                                - 1.0, "ratio"),
    }
    notes = {"traced_ops": len(traced), "layers_seen": sorted(rec.layers_seen()),
             "stored_spans": len(rec.spans), "dropped_spans": rec.dropped,
             "baseline": baseline_comparison(workload.name, records, rec)}
    return metrics, notes


def baseline_comparison(workload: str, records: list[dict], rec) -> list[dict]:
    """Traced figures next to the ROADMAP Baseline rows they overlap."""
    kinds = {r["index"]: r["inputs"]["kind"] for r in records}

    def mean_span(name, kind=None):
        durs = [s[2] - s[1] for s in rec.spans if s is not None and s[0] == name
                and (kind is None or kinds.get(s[4]) == kind)]
        return (sum(durs) / len(durs), len(durs)) if durs else (None, 0)

    rows = []
    if workload == "bump-profile":
        s, n = mean_span("scattering.jost_at_origin")
        rows.append({"row": "S(xi), bump profile", "baseline": "88-98 ms per xi",
                     "measured": None if s is None else f"{s * 1e3:.1f} ms per S "
                     f"(traced, n={n})",
                     "agrees": None if s is None else 0.05 <= s <= 0.2})
        rows.append({"row": "locate_xi1, bump", "baseline": "132 s",
                     "measured": None, "agrees": None,
                     "note": "not run: one bump xi1 outlasts a benchmark run"})
    if workload == "rays":
        s, n = mean_span("rhfactors.saddle_exponents", kind="step")
        rows.append({"row": "saddle_exponents, pure step", "baseline": "0.96 s",
                     "measured": None if s is None else f"{s:.3f} s (traced, n={n}, "
                     "A = 2, mu over the band)",
                     "agrees": None if s is None else 0.1 <= s <= 3.0,
                     "note": "the Baseline timed one ray untraced; tracing adds the "
                             "cost of wrapping every r1/r2 call"})
    return rows


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "steplpd", "__init__.py")):
        print(f"error: no steplpd package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import steplpd  # noqa: F401  (a broken package fails here, before set-up)
    import workloads

    setup = measure_setup(workloads.generate, args.workload, args.seed)
    ops = workloads.generate(args.workload, args.seed)
    workload = workloads.Workload(args.workload)
    tracer = plan = reference = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        plan = workloads.TracePlan(args.workload, args.seed)
    else:
        from reference import Reference
        reference = Reference(args.workload)
    t0 = time.perf_counter()
    records = run_ops(workload, ops, args.seconds, tracer, plan, reference)
    window_s = time.perf_counter() - t0

    if tracer:
        metrics, notes = per_layer(workload, records, tracer.rec)
    else:
        metrics, notes = end_to_end(args.workload, records, setup, reference)
    failed = sum(not r["ok"] for r in records)
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.rec.write(os.path.join(OUT, f"{stem}.spans.json"))
    run_record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "environment": environment(), "setup": setup,
                  "window_s": window_s, "attempted": len(records), "failed": failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  "notes": notes, "ops": records}
    with open(os.path.join(OUT, f"{stem}.json"), "w") as fh:
        json.dump(run_record, fh, indent=1, default=str)

    env = run_record["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(records)} ops "
          f"in {window_s:.1f} s, {failed} failed; nproc={env['nproc']} "
          f"blas_threads={env['blas_threads']}")
    for r in records:
        if not r["ok"]:
            print(f"#   op {r['index']} {json.dumps(r['inputs'])}: "
                  f"{r['error'] or '; '.join(r['failures'])}")
    for k, (v, u) in metrics.items():
        print(f"#   {k} = {v:.6g} {u}")
    for k, v in notes.items():
        print(f"#   {k}: {json.dumps(v, default=str)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": run_record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
