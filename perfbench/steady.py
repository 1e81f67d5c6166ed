#!/usr/bin/env python3
"""Steadiness mode: run workloads N times each, each time with another
seed, and report every metric's median, quartiles and spread against its bound.

    python3 perfbench/steady.py --workload monte-carlo --runs 10 --first-seed 1
    python3 perfbench/steady.py --workload all --runs 10 --first-seed 1

With several workloads (a comma-separated list, or ``all``) the runs are
interleaved, seed by seed, so that a slow stretch of a shared host is spread
over the workloads instead of falling on one workload's whole set.

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A metric
is marked OVER when its spread exceeds its bound and WIDE when it exceeds a
third of it.  Each run's result line is also validated against
BENCHMARK.json.  Exit code 1 when any run is invalid or any spread is OVER.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from run import HERE, OUT_DIR, load_spec


def validate(result: dict, spec: dict) -> list[str]:
    """Problems with one untraced result line; empty when it matches BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"keys {sorted(result)}"]
    if result["correct"] is not True:
        problems.append("correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    declared = spec["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in declared}:
        problems.append("metric names differ from BENCHMARK.json")
        return problems
    for m in declared:
        entry = result["metrics"][m["name"]]
        value = entry.get("value")
        if entry.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {entry.get('unit')!r} != {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r} is not a finite number")
        elif value == 0:
            problems.append(f"{m['name']}: end-to-end value is 0")
    return problems


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and the quartile distance over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / abs(median) if median else math.inf
    return median, q1, q3, share


def assess(values: dict, spec: dict) -> list[dict]:
    """One row per end-to-end metric: its spread against its bound."""
    rows = []
    for m in spec["end_to_end"]:
        median, q1, q3, share = spread(values[m["name"]])
        bound = m["bound"]
        if share > bound:
            flag = "OVER"
        elif share > bound / 3.0:
            flag = "WIDE"
        else:
            flag = "ok"
        rows.append({"name": m["name"], "unit": m["unit"], "median": median, "q1": q1,
                     "q3": q3, "spread": share, "bound": bound, "flag": flag})
    return rows


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    """One untraced run's result line, and the run's wall time in seconds."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def report(workload: str, values: dict, spec: dict, seeds: list[int]) -> list[dict]:
    rows = assess(values, spec)
    print(f"== {workload}")
    print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}  flag")
    for r in rows:
        print(f"{r['name']:<16}{r['median']:>12.5g}{r['q1']:>12.5g}{r['q3']:>12.5g}"
              f"{r['spread']:>9.4f}{r['bound']:>7.2f}  {r['flag']}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"steady-{workload}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seeds": seeds, "values": values, "rows": rows},
                  fh, indent=1)
    return rows


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload, a comma-separated list, or 'all'")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else args.workload.split(","))
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in names}
    invalid = False
    for seed in seeds:
        for workload in names:
            result, wall = run_once(workload, seed, args.seconds)
            problems = validate(result, spec)
            invalid |= bool(problems)
            for name in values[workload]:
                values[workload][name].append(result["metrics"][name]["value"])
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: wall {wall:.1f} s, failed "
                  f"{result['failed']}/{result['attempted']} {shown}"
                  + (f"  INVALID: {'; '.join(problems)}" if problems else ""), flush=True)

    over = False
    for workload in names:
        rows = report(workload, values[workload], spec, seeds)
        over |= any(r["flag"] == "OVER" for r in rows)
    return 1 if invalid or over else 0


if __name__ == "__main__":
    sys.exit(main())
