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
DEFAULT_STATS = ("failure-probability", "truncated-mean", "truncated-variance")


# ---------------------------------------------------------------------------
# option parsing


def _parse_grid(spec: str) -> tuple[float, ...]:
    """Accept 'a,b,c' lists (one value alone is a one-point list) or
    'start:stop:step' ranges."""
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


def _parse_time(text: str) -> tuple[float]:
    """The one-point time grid that ``--t`` stands for."""
    return (float(text),)


def _parse_stat(text: str) -> tuple[str, Optional[float]]:
    name, _, arg = text.partition(":")
    name = name.strip()
    return name, sim._statistic(name, float(arg) if arg else None)


class _Repeated(argparse.Action):
    """A repeatable option: the values given, in order, replace its default."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = getattr(namespace, self.dest)
        # defaults are tuples; values from the command line collect in a list
        setattr(namespace, self.dest, (given if isinstance(given, list) else []) + [values])


#: every option, declared once: its flag and its add_argument keywords
_OPTIONS = {
    "--model": dict(choices=("discrete", "diffusion"), default="discrete"),
    "--lambda": dict(dest="lam", type=float),
    "--mu": dict(type=float),
    "--nu": dict(type=float),
    "--eta": dict(type=float),
    "--lambda-hat": dict(dest="lam_hat", type=float),
    "--mu-hat": dict(dest="mu_hat", type=float),
    "--sigma2": dict(type=float),
    # --t is the one-point form of --t-grid; rebuild_argv replays --t-grid
    "--t": dict(dest="t_grid", type=_parse_time, metavar="T"),
    "--t-grid": dict(type=_parse_grid),
    "--n-min": dict(type=int),
    "--n-max": dict(type=int),
    "--x-grid": dict(type=_parse_grid),
    "--seed": dict(type=int),
    "--reps": dict(type=int),
    "--stat": dict(
        dest="stats",
        action=_Repeated,
        default=DEFAULT_STATS,
        help="statistic, e.g. failure-probability, truncated-mean, "
        "state-probability:2, cdf:1.5 (repeatable)",
    ),
    "--trace-out": dict(),
    "--epsilon": dict(action=_Repeated, type=_parse_grid, default=(TABLE1_EPSILONS,)),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--out": dict(default="-", help="output path, '-' for stdout"),
    "--full-precision": dict(action="store_true"),
    "--config": dict(help="JSON file with option defaults; flags win"),
}
_RATES = ("--lambda", "--mu", "--nu", "--eta", "--lambda-hat", "--mu-hat", "--sigma2")
_OUTPUT = ("--format", "--out", "--full-precision", "--config")

#: subcommand: its help, its options and the defaults it sets for them
_SUBCOMMANDS = {
    "transient": (
        "state probabilities or density over a grid",
        ("--model", *_RATES, "--t", "--t-grid", "--n-min", "--n-max", "--x-grid"),
        dict(n_min=-5, n_max=5),
    ),
    "steady": (
        "stationary law",
        ("--model", *_RATES, "--n-min", "--n-max", "--x-grid"),
        dict(n_min=-6, n_max=6),
    ),
    "moments": (
        "truncated mean and variance over a time grid",
        ("--model", *_RATES, "--t-grid"),
        {},
    ),
    "simulate": (
        "Monte Carlo estimates with standard errors",
        ("--model", *_RATES, "--t", "--t-grid", "--seed", "--reps", "--stat", "--trace-out"),
        {},
    ),
    "compare": (
        "stationary lattice law against the diffusion density",
        (*_RATES, "--epsilon", "--n-min", "--n-max"),
        dict(n_min=-6, n_max=6),
    ),
    "table1": (
        "13x9 stationary comparison grid at the reference parameters",
        _RATES,
        dict(lam_hat=1.0, mu_hat=2.0, sigma2=9.0, nu=1.0, eta=0.25),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catwalk",
        description="Transient and stationary laws of a random walk with "
        "catastrophes and repairs, and of its jump-diffusion limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, flags, defaults) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=text)
        for flag in flags + _OUTPUT:
            sp.add_argument(flag, **_OPTIONS[flag])
        sp.set_defaults(**defaults)
    return parser


def _subcommand(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    (subparsers,) = parser._subparsers._group_actions
    return subparsers.choices[command]


def _actions(sub: argparse.ArgumentParser) -> dict:
    """A subcommand's options by flag, --help aside."""
    return {a.option_strings[0]: a for a in sub._actions if a.dest != argparse.SUPPRESS}


def _text(value) -> str:
    """A value as its flag's argument: a sequence as a comma list."""
    if isinstance(value, (list, tuple)):
        return ",".join(_text(v) for v in value)
    return str(value)


def _load_config(sub: argparse.ArgumentParser, path: str) -> None:
    """Make a config file's values the subcommand's defaults, so that flags
    still win.  Keys are the long flag names; each value is converted and
    checked by argparse as its flag's argument would be."""
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object of options")
    actions = _actions(sub)
    for key, value in config.items():
        action = actions.get("--" + key)
        if action is None or action.dest == "config":
            raise ValueError(f"unknown config key {key!r}")
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise ValueError(f"config key {key!r} takes true or false, got {value!r}")
        else:
            repeated = isinstance(action, _Repeated)
            items = value if repeated and isinstance(value, list) else [value]
            try:
                items = [sub._get_value(action, _text(item)) for item in items]
                for item in items:
                    sub._check_value(action, item)
            except argparse.ArgumentError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
            value = tuple(items) if repeated else items[0]
        sub.set_defaults(**{action.dest: value})


def _require(options: dict, *names: str) -> None:
    missing = [n for n in names if options.get(n) is None]
    if missing:
        actions = _actions(_subcommand(build_parser(), options["command"])).items()
        flags = [" or ".join(flag for flag, a in actions if a.dest == n) for n in missing]
        raise ValueError(f"missing required options: {', '.join(flags)}")


def _discrete_params(options: dict) -> discrete.DiscreteParams:
    _require(options, "lam", "mu", "nu", "eta")
    return discrete.DiscreteParams(options["lam"], options["mu"], options["nu"], options["eta"])


def _diffusion_params(options: dict) -> diffusion.DiffusionParams:
    _require(options, "lam_hat", "mu_hat", "sigma2", "nu", "eta")
    return diffusion.DiffusionParams(
        options["lam_hat"], options["mu_hat"], options["sigma2"], options["nu"], options["eta"]
    )


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
    out = options["out"]
    fmt = options["format"]
    full = options["full_precision"]
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


def rebuild_argv(params: dict) -> list[str]:
    """Reconstruct an argv equivalent to the run that produced ``params``.

    Each key goes back through the flag that sets it, as ``--flag=value`` so
    that negative values stay arguments; keys the subcommand has no flag for
    are skipped.
    """
    command = params["command"]
    # later flags win: t_grid is replayed by --t-grid, not --t
    by_dest = {a.dest: a for a in _actions(_subcommand(build_parser(), command)).values()}
    argv = [command]
    for key, value in params.items():
        action = by_dest.get(key)
        if action is None:
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv += [flag] if value else []
        elif isinstance(action, _Repeated):
            argv += [f"{flag}={_text(v)}" for v in value]
        else:
            argv.append(f"{flag}={_text(value)}")
    return argv


#: where a table goes and where its options came from, not what it holds
_UNRECORDED = ("config", "out", "trace_out")


def _provenance(options: dict, **resolved) -> dict:
    """The run's options at their resolved values, which rebuild_argv replays."""
    merged = {**options, **resolved}
    return {k: v for k, v in merged.items() if v is not None and k not in _UNRECORDED}


# ---------------------------------------------------------------------------
# subcommands


def cmd_transient(options: dict) -> int:
    _require(options, "t_grid")
    t_grid = options["t_grid"]
    if options["model"] == "discrete":
        p = _discrete_params(options)
        rows = []
        for t in t_grid:
            if t == 0.0:
                rows.append([0.0, 0, 1.0, 0.0])
                continue
            law = discrete.transient_distribution(p, t, window=(options["n_min"], options["n_max"]))
            rows += [[t, n, value, law.failure_mass] for n, value in law.probabilities.items()]
        write_table(["t", "n", "probability", "failure_mass"], rows, _provenance(options), options)
        return 0
    dp = _diffusion_params(options)
    if any(t <= 0.0 for t in t_grid):
        raise ValueError("the diffusion density needs t > 0 (t = 0 is a point mass at 0)")
    xs = options["x_grid"]
    if xs is None:
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
    write_table(["t", "x", "density", "failure_mass"], rows, _provenance(options, x_grid=xs), options)
    return 0


def cmd_steady(options: dict) -> int:
    if options["model"] == "discrete":
        p = _discrete_params(options)
        q = discrete.steady_failure(p)
        states = range(options["n_min"], options["n_max"] + 1)
        rows = [[n, discrete.steady_state(p, n), q] for n in states]
        write_table(["n", "probability", "failure_mass"], rows, _provenance(options), options)
        return 0
    dp = _diffusion_params(options)
    q = steady_failure_mass(dp.nu, dp.eta)
    xs = options["x_grid"]
    if xs is None:
        length = dp.sigma2 / (diffusion._decay_root(dp, dp.nu) - abs(dp.drift))
        xs = tuple(float(v) for v in np.linspace(-12.0 * length, 12.0 * length, 161))
    rows = [[x, diffusion.steady_density(dp, x), q] for x in xs]
    write_table(["x", "density", "failure_mass"], rows, _provenance(options, x_grid=xs), options)
    return 0


def cmd_moments(options: dict) -> int:
    _require(options, "t_grid")
    t_grid = options["t_grid"]
    if options["model"] == "discrete":
        p = _discrete_params(options)
        rows = [[t, discrete.mean_transient(p, t), discrete.variance_transient(p, t)] for t in t_grid]
    else:
        dp = _diffusion_params(options)
        rows = [[t, diffusion.mean_x(dp, t), diffusion.variance_x(dp, t)] for t in t_grid]
    write_table(["t", "mean", "variance"], rows, _provenance(options), options)
    return 0


def cmd_simulate(options: dict) -> int:
    _require(options, "seed", "reps", "t_grid")
    t_grid = tuple(sorted(options["t_grid"]))
    cfg = sim.SimConfig(
        seed=options["seed"],
        replications=options["reps"],
        horizon=max(t_grid),
        observation_times=t_grid,
    )
    parsed_stats = [_parse_stat(s) for s in options["stats"]]
    if options["model"] == "discrete":
        p = _discrete_params(options)
        traces = list(sim.simulate_discrete(p, cfg))
    else:
        dp = _diffusion_params(options)
        traces = list(sim.simulate_diffusion(dp, cfg))
    params = _provenance(options, t_grid=t_grid)
    if options["trace_out"]:
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
    eps_list = [eps for grid in options["epsilon"] for eps in grid]
    states = range(options["n_min"], options["n_max"] + 1)
    rows = []
    for eps in eps_list:
        for row in scaling.steady_comparison(dp, eps, states):
            rows.append([eps, row.n, row.scaled_pi, row.w_value, row.delta])
    params = _provenance(options, epsilon=eps_list)
    write_table(["epsilon", "n", "pi_over_eps", "w_value", "delta"], rows, params, options)
    return 0


def cmd_table1(options: dict) -> int:
    dp = _diffusion_params(options)
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
    write_table(columns, rows, _provenance(options), options, decimals=5)
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
        if args.config:
            _load_config(_subcommand(parser, args.command), args.config)
            args = parser.parse_args(argv)
        return DISPATCH[args.command](vars(args))
    except QuadratureError as exc:
        _emit_error("convergence", exc)
        return 3
    except (ValueError, OSError) as exc:
        _emit_error("validation", exc)
        return 2


def entrypoint() -> None:
    sys.exit(main())
