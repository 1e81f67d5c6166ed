#!/usr/bin/env python3
"""Benchmark of the catwalk package: four checked workloads, end-to-end
metrics from an untraced run and per-layer metrics from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lattice-transient --seed 1 --seconds 15 --trace 0

The program is taken from ``src/`` of the checkout.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it list every metric by name
with its unit, the environment record, and each failed check.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: fresh interpreters set up per untraced run, one after each of the first
#: rounds; setup_s is their median
SETUP_PROBES = 5
#: bare-interpreter and import probes per traced round of cli-cold
START_PROBES = 2
OUT_DIR = ".perfbench_out"


def load_spec() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env.update(THREAD_VARS)
    env["PYTHONPATH"] = src
    return env


# ---------------------------------------------------------------------------
# measurement


class Record:
    """Outcomes of the operations of one run."""

    def __init__(self) -> None:
        self.latency = defaultdict(list)   # (op label, traced) -> seconds
        self.facts = defaultdict(list)     # (op label, fact name) -> values
        self.round_wall = defaultdict(list)  # traced -> seconds per round
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures: dict = {}

    def add(self, op, out, err, elapsed, traced: bool) -> None:
        self.attempted += 1
        self.latency[(op.label, traced)].append(elapsed)
        if err is not None:
            ok, detail = False, f"raised {type(err).__name__}: {' '.join(str(err).split())}"
        else:
            try:
                verdict, facts = op.check(out)
            except Exception as exc:  # a check that cannot read the output fails it
                facts = {}
                ok, detail = False, f"check raised {type(exc).__name__}: {exc}"
            else:
                ok, detail = verdict.ok, verdict.detail
            for name, value in facts.items():
                if value is not None:
                    self.facts[(op.label, name)].append(value)
        if not ok:
            self.failed += 1
            # only the documented failure of a known defect is excused
            excused = bool(op.known_defect) and detail.startswith(op.defect_detail)
            if not excused:
                self.unexpected += 1
            self.failures.setdefault(op.label, (detail, op.known_defect if excused else ""))

    def fact(self, name: str, label_prefix: str = "") -> list:
        return [v for (label, key), vals in self.facts.items()
                if key == name and label.startswith(label_prefix) for v in vals]

    def times(self, label_prefix: str = "", traced: bool = False) -> list:
        return [t for (label, tr), ts in self.latency.items()
                if tr == traced and label.startswith(label_prefix) for t in ts]


def timed_call(fn):
    start = perf_counter()
    try:
        out, err = fn(), None
    except Exception as exc:  # a raise is a failed operation, not a crash
        out, err = None, exc
    return out, err, perf_counter() - start


def run_round(ops, record: Record, tracer=None) -> float:
    start = perf_counter()
    for op in ops:
        call = op.call
        if tracer is not None:
            tracer.op_id += 1
            call = tracer.timed(f"op/{op.kind}", call)
        out, err, elapsed = timed_call(call)
        record.add(op, out, err, elapsed, tracer is not None)
    return perf_counter() - start


def nearest_rank(values, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    rank = int(min(rank, len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def setup_probe(args, src: str) -> int:
    """Fresh-interpreter set-up: import, build the inputs, one warm-up op."""
    import workloads

    scratch = make_scratch(os.getcwd())
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch, child_env(src))
        wl.warmup_op().call()
        print("ready", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def measure_setup(args, src: str) -> float:
    """Seconds from starting a fresh interpreter until it reports ready."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(src))
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def probe_start(src: str) -> tuple[list, list]:
    """Wall time of a bare interpreter and of one that imports catwalk.cli."""
    env = child_env(src)
    bare, imported = [], []
    for _ in range(START_PROBES):
        for code, sink in (("pass", bare), ("import catwalk.cli", imported)):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            sink.append(perf_counter() - start)
    return bare, imported


def make_scratch(root: str) -> str:
    path = os.path.join(root, OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# metrics


def end_to_end(wl, record: Record, setup: list) -> tuple[dict, dict]:
    """Gated metrics, and the rest of the end-to-end figures.

    The gated latency and throughput come from each operation's 75th
    percentile over the run's rounds.  A shared machine whose speed switches
    between a fast and a slow state spends anywhere from a few to most of
    the rounds of a run in the fast state, but at least a fifth of them in
    the slow one; the 75th percentile stays in the slow state where the
    median, the mean and the best latency jump between the two."""
    times = record.times()
    untraced = [ts for (_, traced), ts in record.latency.items() if not traced]
    p75 = [statistics.quantiles(ts, n=4, method="inclusive")[2] for ts in untraced]
    medians = [statistics.median(ts) for ts in untraced]
    tail, beyond = nearest_rank(times, wl.tail_pct)
    if wl.name == "cli-cold":
        peak_kb = max(record.fact("child_maxrss_kb"))
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    busy = sum(times)
    gated = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p75_ms": (statistics.median(p75) * 1e3, "ms"),
        "ops_per_s_p75": (len(p75) / sum(p75), "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    reps = sum(record.fact("replications"))
    points = sum(record.fact("density_points"))
    printed = {
        "op_p50_ms": (statistics.median(medians) * 1e3, "ms"),
        "ops_per_s": (len(medians) / sum(medians), "1/s"),
        "op_tail_ms": (tail * 1e3, f"ms (p{wl.tail_pct:g}, {beyond} of {len(times)} beyond)"),
        "failed_share": (record.failed / record.attempted, "ratio"),
        "replications_per_s": (reps / busy if reps else None, "1/s"),
        "density_points_per_s": (points / busy if points else None, "1/s"),
    }
    return gated, printed


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(record: Record, tracer, traced_rounds: int, probes: dict) -> dict:
    per_round = 1.0 / traced_rounds
    c, total, own = tracer.counts, tracer.total_s, tracer.self_s

    def mean_time(kind, scale):  # op-level timings come from the untraced rounds
        return _mean(record.times(kind + "/")) * scale

    def rep_us(label):
        times = record.times(f"simulate/{label}")
        reps = _mean(record.fact("replications", f"simulate/{label}"))
        return _mean(times) / reps * 1e6 if reps else 0.0

    def events_per_rep(label):
        reps = _mean(record.fact("replications", f"simulate/{label}"))
        return _mean(record.fact("events", f"simulate/{label}")) / reps if reps else 0.0

    heavy_rep, empty_rep = rep_us("heavy-lattice"), rep_us("empty")
    heavy_events = events_per_rep("heavy-lattice")
    rounds = len(record.round_wall[False]) + len(record.round_wall[True])
    zs = record.fact("z")
    bare, imported = probes.get("bare", []), probes.get("imported", [])
    cli_times = record.times("cli/") + probes.get("cli_main", [])
    values = {
        "special.bessel_calls": c["special.bessel"] * per_round,
        "special.bessel_self_ms": own["special.bessel"] * per_round * 1e3,
        "special.bessel_zero_returns": c["special.bessel.zero"] * per_round,
        "special.quad_calls": c["special.quad"] * per_round,
        "special.quad_evals": c["special.integrand"] * per_round,
        "special.quad_self_ms": own["special.quad"] * per_round * 1e3,
        "special.quad_worst_err_ratio": tracer.worst_err_ratio,
        "special.quad_errors": c["special.quad.raised.QuadratureError"] * per_round,
        "discrete.window_ms": mean_time("window", 1e3),
        "discrete.window_states": sum(record.fact("states")) / rounds,
        "discrete.state_us": total["discrete.state"] / c["discrete.state"] * 1e6
        if c["discrete.state"] else 0.0,
        "discrete.tail_bound_max": max(record.fact("tail_bound"), default=0.0),
        "discrete.mass_defect_max": max(record.fact("mass_defect", "window/"), default=0.0),
        "diffusion.point_us": total["diffusion.point"] / c["diffusion.point"] * 1e6
        if c["diffusion.point"] else 0.0,
        "diffusion.slice_ms": mean_time("slice", 1e3),
        "diffusion.on_mass_ms": mean_time("on_mass", 1e3),
        "diffusion.evals_per_point": c["diffusion.point_evals"] / c["diffusion.point"]
        if c["diffusion.point"] else 0.0,
        "diffusion.slice_mass_defect_max": max(record.fact("mass_defect", "slice/"), default=0.0),
        "simulate.lattice_rep_us": rep_us("lattice"),
        "simulate.diffusion_rep_us": rep_us("diffusion"),
        "simulate.heavy_lattice_rep_us": heavy_rep,
        "simulate.lattice_events_per_rep": events_per_rep("lattice"),
        "simulate.diffusion_events_per_rep": events_per_rep("diffusion"),
        "simulate.heavy_lattice_events_per_rep": heavy_events,
        "simulate.event_ns": (heavy_rep - empty_rep) / heavy_events * 1e3 if heavy_events else 0.0,
        "simulate.empty_rep_us": empty_rep,
        "simulate.estimate_ms": mean_time("estimate", 1e3),
        "simulate.export_ms": mean_time("export", 1e3),
        "simulate.max_abs_z": max(zs, default=0.0),
        "cli.interp_ms": statistics.median(bare) * 1e3 if bare else 0.0,
        "cli.import_ms": (statistics.median(imported) - statistics.median(bare)) * 1e3
        if bare else 0.0,
        "cli.main_ms": _mean(cli_times) * 1e3,
        "cli.output_bytes": _mean(record.fact("output_bytes")),
        "trace.overhead_share": _mean(record.round_wall[True]) / _mean(record.round_wall[False]),
    }
    return values


# ---------------------------------------------------------------------------
# environment record


def _cpuinfo(field: str) -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.split(":")[0].strip() == field:
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(args, src: str, record: Record, rounds: dict) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for folder, _, files in sorted(os.walk(os.path.join(src, "catwalk"))):
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(folder, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpuinfo("model name"),
        "llc_size": _cpuinfo("cache size"),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "samples": {f"{label}{' traced' if traced else ''}": len(ts)
                    for (label, traced), ts in sorted(record.latency.items())},
    }


# ---------------------------------------------------------------------------
# entry point


def run(args, src: str) -> int:
    import workloads

    spec = load_spec()
    root = os.getcwd()
    scratch = make_scratch(root)
    try:
        setup = []
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch, child_env(src))
        wl.prepare()
        warm = wl.ops(0)
        for op in warm[: wl.warmup_ops]:
            timed_call(op.call)

        record = Record()
        tracer = probes = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            probes = defaultdict(list)
        index = 0
        while True:
            index += 1
            traced = bool(args.trace) and index % 2 == 0
            if traced:
                with tracer.install():
                    wall = run_round(wl.ops(index), record, tracer)
                if wl.name == "cli-cold":
                    bare, imported = probe_start(src)
                    probes["bare"] += bare
                    probes["imported"] += imported
                    for op in wl.inprocess_ops():
                        out, err, elapsed = timed_call(op.call)
                        record.add(op, out, err, elapsed, True)
                        probes["cli_main"].append(elapsed)
            else:
                wall = run_round(wl.ops(index), record)
            record.round_wall[traced].append(wall)
            if not args.trace and len(setup) < SETUP_PROBES:
                # spread the set-up probes over the run so that one burst of
                # contention on a shared machine cannot move all of them
                setup.append(measure_setup(args, src))
            measured = sum(record.round_wall[False]) + sum(record.round_wall[True])
            if args.trace:
                done = traced
            else:
                done = index >= wl.min_rounds and len(setup) == SETUP_PROBES
            if done and measured >= args.seconds:
                break

        rounds = {"untraced": len(record.round_wall[False]), "traced": len(record.round_wall[True])}
        env = environment(args, src, record, rounds)
        if args.trace:
            metrics = per_layer(record, tracer, rounds["traced"], probes)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            shown = {k: (v, units[k]) for k, v in metrics.items()}
            extra = {}
        else:
            shown, extra = end_to_end(wl, record, setup)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"# env {json.dumps(env, sort_keys=True)}")
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {wl.name}: {why.get(wl.name, '')}")
    print(f"rounds {rounds}, operations {record.attempted}, failed {record.failed} "
          f"({record.unexpected} outside the known defects)")
    for label, (detail, defect) in sorted(record.failures.items()):
        note = f"  [known defect: {defect}]" if defect else ""
        print(f"FAIL {label}: {detail}{note}")
    for name, (value, unit) in list(shown.items()) + list(extra.items()):
        text = "n/a (not defined on this workload)" if value is None else f"{value:.6g} {unit}"
        print(f"{name:<34} {text}")

    result = {
        "correct": record.unexpected == 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {name: {"value": float(shown[name][0]), "unit": units[name]} for name in units},
    }
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    stem = os.path.join(root, OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result,
                   "extra": {k: v for k, (v, _) in extra.items()},
                   "latency_ms": {f"{label}{' traced' if traced else ''}": [t * 1e3 for t in ts]
                                  for (label, traced), ts in sorted(record.latency.items())},
                   "failures": record.failures}, fh, indent=1, sort_keys=True)
    if tracer is not None:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write("# span_id parent_id name op_id start_s end_s\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "catwalk", "__init__.py")):
        print("error: src/catwalk not found; run from the root of a catwalk checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_VARS)
    sys.path.insert(0, src)
    if args.setup_probe:
        return setup_probe(args, src)
    compileall.compile_dir(src, quiet=1)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    return run(args, src)


if __name__ == "__main__":
    sys.exit(main())
