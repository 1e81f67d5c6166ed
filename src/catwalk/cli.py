"""Command-line surface.

Subcommands: ``transient``, ``steady``, ``moments``, ``simulate``,
``compare``, ``table1``.  Every table is emitted as CSV (comment lines with
full parameter provenance, then a header row) or as a JSON object with
``params``, ``schema`` and ``rows`` keys, so any run can be reproduced from
its own output file.  Exit codes: 0 success, 2 validation error, 3 numerical
convergence failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import diffusion, discrete, scaling
from . import simulate as sim
from .failure_cycle import steady_failure_mass
from .special import QuadratureError

__all__ = ["main", "entrypoint", "read_table", "rebuild_argv"]

TABLE1_EPSILONS = (0.1, 0.05, 0.01)
TABLE1_RANGE = range(-6, 7)


# ---------------------------------------------------------------------------
# option parsing


def _parse_grid(spec) -> tuple[float, ...]:
    """Accept 'a,b,c' lists, 'start:stop:step' ranges, bare numbers, or an
    already-built list."""
    if isinstance(spec, (list, tuple)):
        return tuple(float(v) for v in spec)
    if isinstance(spec, (int, float)):
        return (float(spec),)
    text = spec.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0.0:
            raise ValueError("grid step must be positive")
        values = np.arange(start, stop + step * 1e-9, step)
        return tuple(float(v) for v in values)
    return tuple(float(v) for v in text.split(","))


def _parse_stat(text: str) -> tuple[str, Optional[float]]:
    name, _, arg = text.partition(":")
    name = name.strip()
    if not arg:
        return name, None
    value = float(arg)
    if name == "state-probability":
        value = int(value)
    return name, value


def _add_output_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=("csv", "json"), default=None)
    sp.add_argument("--out", default=None, help="output path, '-' for stdout")
    sp.add_argument("--full-precision", action="store_true", default=None)
    sp.add_argument("--config", default=None, help="JSON file with option defaults; flags win")


def _add_model_args(sp: argparse.ArgumentParser, with_model: bool = True) -> None:
    if with_model:
        sp.add_argument("--model", choices=("discrete", "diffusion"), default=None)
    sp.add_argument("--lambda", dest="lam", type=float, default=None)
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--nu", type=float, default=None)
    sp.add_argument("--eta", type=float, default=None)
    sp.add_argument("--lambda-hat", dest="lam_hat", type=float, default=None)
    sp.add_argument("--mu-hat", dest="mu_hat", type=float, default=None)
    sp.add_argument("--sigma2", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catwalk",
        description="Transient and stationary laws of a random walk with "
        "catastrophes and repairs, and of its jump-diffusion limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("transient", help="state probabilities or density over a grid")
    _add_model_args(sp)
    sp.add_argument("--t", type=float, default=None)
    sp.add_argument("--t-grid", dest="t_grid", default=None)
    sp.add_argument("--n-min", dest="n_min", type=int, default=None)
    sp.add_argument("--n-max", dest="n_max", type=int, default=None)
    sp.add_argument("--x-grid", dest="x_grid", default=None)
    _add_output_args(sp)

    sp = sub.add_parser("steady", help="stationary law")
    _add_model_args(sp)
    sp.add_argument("--n-min", dest="n_min", type=int, default=None)
    sp.add_argument("--n-max", dest="n_max", type=int, default=None)
    sp.add_argument("--x-grid", dest="x_grid", default=None)
    _add_output_args(sp)

    sp = sub.add_parser("moments", help="truncated mean and variance over a time grid")
    _add_model_args(sp)
    sp.add_argument("--t-grid", dest="t_grid", default=None)
    _add_output_args(sp)

    sp = sub.add_parser("simulate", help="Monte Carlo estimates with standard errors")
    _add_model_args(sp)
    sp.add_argument("--t", type=float, default=None)
    sp.add_argument("--t-grid", dest="t_grid", default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--reps", type=int, default=None)
    sp.add_argument(
        "--stat",
        dest="stats",
        action="append",
        default=None,
        help="statistic, e.g. failure-probability, truncated-mean, "
        "state-probability:2, cdf:1.5 (repeatable)",
    )
    sp.add_argument("--trace-out", dest="trace_out", default=None)
    _add_output_args(sp)

    sp = sub.add_parser("compare", help="stationary lattice law against the diffusion density")
    _add_model_args(sp, with_model=False)
    sp.add_argument("--epsilon", dest="epsilon", action="append", default=None)
    sp.add_argument("--n-min", dest="n_min", type=int, default=None)
    sp.add_argument("--n-max", dest="n_max", type=int, default=None)
    _add_output_args(sp)

    sp = sub.add_parser("table1", help="13x9 stationary comparison grid at the reference parameters")
    _add_model_args(sp, with_model=False)
    _add_output_args(sp)

    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """Layer option sources: built-in defaults < config file < flags."""
    options = {k: v for k, v in vars(args).items() if k != "config"}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object of options")
        for key, value in config.items():
            slot = key.replace("-", "_")
            if slot == "lambda":
                slot = "lam"
            elif slot == "lambda_hat":
                slot = "lam_hat"
            if slot not in options:
                raise ValueError(f"unknown config key {key!r}")
            if options[slot] is None:
                options[slot] = value
    if options.get("format") is None:
        options["format"] = "csv"
    if options.get("full_precision") is None:
        options["full_precision"] = False
    return options


def _require(options: dict, *names: str) -> None:
    missing = [n for n in names if options.get(n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-").replace("lam", "lambda", 1) for n in missing)
        raise ValueError(f"missing required options: {flags}")


def _discrete_params(options: dict) -> discrete.DiscreteParams:
    _require(options, "lam", "mu", "nu", "eta")
    return discrete.DiscreteParams(options["lam"], options["mu"], options["nu"], options["eta"])


def _diffusion_params(options: dict) -> diffusion.DiffusionParams:
    _require(options, "lam_hat", "mu_hat", "sigma2", "nu", "eta")
    return diffusion.DiffusionParams(
        options["lam_hat"], options["mu_hat"], options["sigma2"], options["nu"], options["eta"]
    )


def _time_grid(options: dict) -> tuple[float, ...]:
    if options.get("t_grid") is not None:
        return _parse_grid(options["t_grid"])
    if options.get("t") is not None:
        return (float(options["t"]),)
    raise ValueError("missing required options: --t or --t-grid")


# ---------------------------------------------------------------------------
# table output


def _format_cell(value, full_precision: bool, decimals: Optional[int]) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if decimals is not None:
            return f"{value:.{decimals}f}"
        if full_precision:
            return repr(value)
        return f"{value:.6g}"
    return str(value)


def write_table(
    columns: Sequence[str],
    rows: Sequence[Sequence],
    params: dict,
    options: dict,
    decimals: Optional[int] = None,
) -> None:
    out = options.get("out") or "-"
    fmt = options.get("format", "csv")
    full = bool(options.get("full_precision"))
    if fmt == "json":
        if decimals is not None:
            rows = [
                [round(v, decimals) if isinstance(v, float) else v for v in row]
                for row in rows
            ]
        payload = {"params": params, "schema": list(columns), "rows": [list(r) for r in rows]}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buffer = io.StringIO()
        buffer.write("# catwalk-table v1\n")
        buffer.write(f"# params {json.dumps(params, sort_keys=True)}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(v, full, decimals) for v in row])
        text = buffer.getvalue()
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as sink:
            sink.write(text)


def read_table(path: str) -> dict:
    """Parse a table written by this CLI back into params/schema/rows."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return json.loads(text)
    params = {}
    lines = text.splitlines()
    body = []
    for line in lines:
        if line.startswith("# params "):
            params = json.loads(line[len("# params "):])
        elif not line.startswith("#"):
            body.append(line)
    reader = csv.reader(body)
    schema = next(reader)
    rows = []
    for record in reader:
        if not record:
            continue
        parsed = []
        for cell in record:
            if cell == "":
                parsed.append(None)
                continue
            try:
                parsed.append(float(cell))
            except ValueError:
                parsed.append(cell)
        rows.append(parsed)
    return {"params": params, "schema": schema, "rows": rows}


_FLAG_NAMES = {
    "lam": "--lambda",
    "lam_hat": "--lambda-hat",
    "mu_hat": "--mu-hat",
    "t_grid": "--t-grid",
    "n_min": "--n-min",
    "n_max": "--n-max",
    "x_grid": "--x-grid",
    "trace_out": "--trace-out",
    "full_precision": "--full-precision",
}


def rebuild_argv(params: dict) -> list[str]:
    """Reconstruct an argv equivalent to the run that produced ``params``."""
    argv = [params["command"]]
    for key, value in params.items():
        if key == "command" or value is None:
            continue
        flag = _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))
        if key == "full_precision":
            if value:
                argv.append(flag)
            continue
        if key == "stats":
            for stat in value:
                argv.extend(["--stat", str(stat)])
            continue
        if key == "epsilon":
            for eps in value:
                argv.extend(["--epsilon", repr(float(eps))])
            continue
        if isinstance(value, (list, tuple)):
            argv.extend([flag, ",".join(repr(float(v)) for v in value)])
            continue
        if isinstance(value, float):
            argv.extend([flag, repr(value)])
        else:
            argv.extend([flag, str(value)])
    return argv


def _provenance(options: dict, command: str, **extra) -> dict:
    keep = (
        "model",
        "lam",
        "mu",
        "nu",
        "eta",
        "lam_hat",
        "mu_hat",
        "sigma2",
        "n_min",
        "n_max",
        "seed",
        "reps",
        "format",
        "full_precision",
    )
    params = {"command": command}
    for key in keep:
        if options.get(key) is not None:
            params[key] = options[key]
    params.update({k: v for k, v in extra.items() if v is not None})
    return params


# ---------------------------------------------------------------------------
# subcommands


def cmd_transient(options: dict) -> int:
    model = options.get("model") or "discrete"
    t_grid = _time_grid(options)
    if model == "discrete":
        p = _discrete_params(options)
        n_min = options["n_min"] if options.get("n_min") is not None else -5
        n_max = options["n_max"] if options.get("n_max") is not None else 5
        rows = []
        for t in t_grid:
            if t == 0.0:
                rows.append([0.0, 0, 1.0, 0.0])
                continue
            law = discrete.transient_distribution(p, t, window=(n_min, n_max))
            rows += [[t, n, value, law.failure_mass] for n, value in law.probabilities.items()]
        params = _provenance(
            options, "transient", model=model, t_grid=list(t_grid), n_min=n_min, n_max=n_max
        )
        write_table(["t", "n", "probability", "failure_mass"], rows, params, options)
        return 0
    dp = _diffusion_params(options)
    if any(t <= 0.0 for t in t_grid):
        raise ValueError("the diffusion density needs t > 0 (t = 0 is a point mass at 0)")
    if options.get("x_grid") is not None:
        xs = _parse_grid(options["x_grid"])
    else:
        t_ref = max(t_grid)
        sd = math.sqrt(dp.sigma2 * t_ref)
        lo = min(0.0, dp.drift * t_ref) - 8.0 * sd
        hi = max(0.0, dp.drift * t_ref) + 8.0 * sd
        xs = tuple(float(v) for v in np.linspace(lo, hi, 161))
    grid = np.array(xs)
    rows = []
    for t in t_grid:
        q = diffusion.failure_probability(dp, t)
        rows += [[t, x, f, q] for x, f in zip(xs, diffusion._density(dp, grid, t).tolist())]
    params = _provenance(options, "transient", model=model, t_grid=list(t_grid), x_grid=list(xs))
    write_table(["t", "x", "density", "failure_mass"], rows, params, options)
    return 0


def cmd_steady(options: dict) -> int:
    model = options.get("model") or "discrete"
    if model == "discrete":
        p = _discrete_params(options)
        n_min = options["n_min"] if options.get("n_min") is not None else -6
        n_max = options["n_max"] if options.get("n_max") is not None else 6
        q = discrete.steady_failure(p)
        rows = [[n, discrete.steady_state(p, n), q] for n in range(n_min, n_max + 1)]
        params = _provenance(options, "steady", model=model, n_min=n_min, n_max=n_max)
        write_table(["n", "probability", "failure_mass"], rows, params, options)
        return 0
    dp = _diffusion_params(options)
    if options.get("x_grid") is not None:
        xs = _parse_grid(options["x_grid"])
    else:
        root = math.sqrt(dp.drift**2 + 2.0 * dp.sigma2 * dp.nu)
        length = dp.sigma2 / (root - abs(dp.drift))
        xs = tuple(float(v) for v in np.linspace(-12.0 * length, 12.0 * length, 161))
    q = steady_failure_mass(dp.nu, dp.eta)
    rows = [[x, diffusion.steady_density(dp, x), q] for x in xs]
    params = _provenance(options, "steady", model=model, x_grid=list(xs))
    write_table(["x", "density", "failure_mass"], rows, params, options)
    return 0


def cmd_moments(options: dict) -> int:
    model = options.get("model") or "discrete"
    t_grid = _time_grid(options)
    if model == "discrete":
        p = _discrete_params(options)
        rows = [[t, discrete.mean_transient(p, t), discrete.variance_transient(p, t)] for t in t_grid]
    else:
        dp = _diffusion_params(options)
        rows = [[t, diffusion.mean_x(dp, t), diffusion.variance_x(dp, t)] for t in t_grid]
    params = _provenance(options, "moments", model=model, t_grid=list(t_grid))
    write_table(["t", "mean", "variance"], rows, params, options)
    return 0


DEFAULT_STATS = ("failure-probability", "truncated-mean", "truncated-variance")


def cmd_simulate(options: dict) -> int:
    model = options.get("model") or "discrete"
    _require(options, "seed", "reps")
    t_grid = tuple(sorted(_time_grid(options)))
    cfg = sim.SimConfig(
        seed=options["seed"],
        replications=options["reps"],
        horizon=max(t_grid),
        observation_times=t_grid,
    )
    stats = list(options.get("stats") or DEFAULT_STATS)
    parsed_stats = [_parse_stat(s) for s in stats]
    if model == "discrete":
        p = _discrete_params(options)
        traces = list(sim.simulate_discrete(p, cfg))
    else:
        dp = _diffusion_params(options)
        traces = list(sim.simulate_diffusion(dp, cfg))
    params = _provenance(
        options, "simulate", model=model, t_grid=list(t_grid), stats=list(stats)
    )
    if options.get("trace_out"):
        sim.export_traces(traces, options["trace_out"], params, cfg)
    rows = []
    for t in t_grid:
        for name, arg in parsed_stats:
            est = sim.estimate(traces, t, name, arg)
            rows.append([t, name, arg, est.value, est.standard_error, est.replications])
    write_table(
        ["t", "statistic", "arg", "estimate", "standard_error", "replications"],
        rows,
        params,
        options,
    )
    return 0


def cmd_compare(options: dict) -> int:
    dp = _diffusion_params(options)
    raw = options.get("epsilon") or list(TABLE1_EPSILONS)
    eps_list: list[float] = []
    for item in raw if isinstance(raw, (list, tuple)) else [raw]:
        eps_list.extend(_parse_grid(item))
    n_min = options["n_min"] if options.get("n_min") is not None else -6
    n_max = options["n_max"] if options.get("n_max") is not None else 6
    rows = []
    for eps in eps_list:
        for row in scaling.steady_comparison(dp, eps, range(n_min, n_max + 1)):
            rows.append([eps, row.n, row.scaled_pi, row.w_value, row.delta])
    params = _provenance(
        options, "compare", epsilon=list(eps_list), n_min=n_min, n_max=n_max
    )
    write_table(["epsilon", "n", "pi_over_eps", "w_value", "delta"], rows, params, options)
    return 0


def cmd_table1(options: dict) -> int:
    dp = diffusion.DiffusionParams(
        lam_hat=options.get("lam_hat") if options.get("lam_hat") is not None else 1.0,
        mu_hat=options.get("mu_hat") if options.get("mu_hat") is not None else 2.0,
        sigma2=options.get("sigma2") if options.get("sigma2") is not None else 9.0,
        nu=options.get("nu") if options.get("nu") is not None else 1.0,
        eta=options.get("eta") if options.get("eta") is not None else 0.25,
    )
    columns = ["n"]
    per_eps = {}
    for eps in TABLE1_EPSILONS:
        per_eps[eps] = {row.n: row for row in scaling.steady_comparison(dp, eps, TABLE1_RANGE)}
        columns += [f"pi_over_eps_{eps}", f"w_{eps}", f"delta_{eps}"]
    rows = []
    for n in TABLE1_RANGE:
        row: list = [n]
        for eps in TABLE1_EPSILONS:
            cell = per_eps[eps][n]
            row += [cell.scaled_pi, cell.w_value, cell.delta]
        rows.append(row)
    params = _provenance(
        options,
        "table1",
        lam_hat=dp.lam_hat,
        mu_hat=dp.mu_hat,
        sigma2=dp.sigma2,
        nu=dp.nu,
        eta=dp.eta,
        epsilon=list(TABLE1_EPSILONS),
    )
    write_table(columns, rows, params, options, decimals=5)
    return 0


DISPATCH = {
    "transient": cmd_transient,
    "steady": cmd_steady,
    "moments": cmd_moments,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "table1": cmd_table1,
}


def _emit_error(kind: str, exc: Exception) -> None:
    record = {"error": {"type": kind, "message": str(exc)}}
    sys.stderr.write(json.dumps(record) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        options = _resolve(args)
        return DISPATCH[args.command](options)
    except QuadratureError as exc:
        _emit_error("convergence", exc)
        return 3
    except (ValueError, OSError) as exc:
        _emit_error("validation", exc)
        return 2


def entrypoint() -> None:
    sys.exit(main())
