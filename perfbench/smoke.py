#!/usr/bin/env python3
"""Smoke run of the benchmark itself at toy length (about a minute).

    python3 perfbench/smoke.py

Runs every workload for one second, untraced and traced, and checks that

* the last stdout line is the result object: correct, attempted, failed, metrics;
* every end-to-end metric (untraced) and every per-layer metric (traced)
  named in BENCHMARK.json is printed, with its unit, and nothing else;
* every op passed its check;
* each layer's spans appear in the written trace of some workload;
* the trace plan puts every group of like ops (kind and half-line for rays,
  profile for bump points) in both the traced and the untraced half, for
  several seeds.

It also replays the known ``saddle_exponents`` failure (``KNOWN_DEFECT`` in
``workloads.py``) and says whether it still fails; that does not fail the
smoke run.

Exits with code 1 and a list of problems if any check fails.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from tracing import LAYERS  # noqa: E402

SEED = 0
SECONDS = 1
PLAN_SEEDS = range(5)
PLAN_OPS = 96


def plan_problems(workload: str) -> list[str]:
    """Groups of like ops missing from one half of the traced run."""
    import workloads
    problems = []
    for seed in PLAN_SEEDS:
        plan = workloads.TracePlan(workload, seed)
        halves = {True: set(), False: set()}
        for op in itertools.islice(workloads.generate(workload, seed), PLAN_OPS):
            halves[plan.traced(op)].add(plan.group(op))
        one_sided = halves[True] ^ halves[False]
        if one_sided:
            problems.append(f"{workload} seed {seed}: trace plan puts {sorted(one_sided)} "
                            "in one half only")
    return problems


def known_defect() -> str:
    import workloads
    from steplpd.kernels.quadrature import IntegrationError
    op = workloads.KNOWN_DEFECT
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            workloads.Workload("rays").compute(op, lambda data: data)
        except IntegrationError as exc:
            return f"still present: {json.dumps(op)} raises IntegrationError: {exc}"
    return (f"fixed: {json.dumps(op)} passes; draw A for the pure-step rays "
            "(workloads.STEP_A)")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    layers_traced: set[str] = set()
    for workload in (w["name"] for w in bench["workloads"]):
        problems += plan_problems(workload)
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=300)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} "
                                "ops failed their checks")
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace].items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(expected[trace].items()))
                problems.append(f"{where}: metrics missing {missing}, unexpected {extra}")
            if any(not isinstance(v.get("value"), (int, float))
                   for v in result["metrics"].values()):
                problems.append(f"{where}: a metric value is not a number")
            if trace:
                spans = os.path.join(HERE, "out", f"{workload}-seed{SEED}-trace1.spans.json")
                with open(spans) as fh:
                    doc = json.load(fh)
                layers_traced |= {layer for layer in LAYERS
                                  for name, agg in doc["aggregates"].items()
                                  if name.startswith(layer + ".") and agg["calls"]}
            print(f"{where}: {result['attempted']} ops, {result['failed']} failed")
    missing_layers = sorted(set(LAYERS) - layers_traced)
    if missing_layers:
        problems.append(f"no spans for layers {missing_layers}")
    print("known saddle_exponents defect:", known_defect())
    for p in problems:
        print("FAIL", p)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
