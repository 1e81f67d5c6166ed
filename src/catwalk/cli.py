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
import functools
import json
import math
import sys
from itertools import chain, compress, repeat
from operator import is_not
from typing import Iterable, Optional, Sequence

from . import diffusion, discrete, scaling
from .failure_cycle import check_time, check_window, steady_failure_mass
from .special import QuadratureError

__all__ = ["main", "entrypoint", "read_table", "rebuild_argv"]

TABLE1_EPSILONS = (0.1, 0.05, 0.01)
TABLE1_RANGE = range(-6, 7)
DEFAULT_STATS = ("failure-probability", "truncated-mean", "truncated-variance")
#: most points a start:stop:step grid may have
MAX_GRID_POINTS = 1_000_000


# ---------------------------------------------------------------------------
# option parsing


class _GridError(argparse.ArgumentTypeError, ValueError):
    """A malformed grid; argparse reports its message as the flag's error."""


def _parse_grid(spec: str) -> tuple[float, ...]:
    """Accept 'a,b,c' lists (one value alone is a one-point list) or
    'start:stop:step' ranges, whose points are np.arange(start,
    stop + 1e-9 step, step) bit for bit: point i >= 2 is start + i d with
    d = (start + step) - start."""
    text = spec.strip()
    if ":" not in text:
        return tuple(float(v) for v in text.split(","))
    parts = text.split(":")
    if len(parts) != 3:
        raise _GridError(f"grid range must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise _GridError(f"grid range must be finite, got {text!r}")
    if step <= 0.0:
        raise _GridError("grid step must be positive")
    count = (stop + step * 1e-9 - start) / step
    if count > MAX_GRID_POINTS:
        raise _GridError(f"grid range {text!r} has more than {MAX_GRID_POINTS} points")
    count = math.ceil(max(count, 0.0))
    if not count:
        raise _GridError(f"grid range {text!r} has no points")
    d = (start + step) - start
    return (start, start + step, *(start + i * d for i in range(2, count)))[:count]


def _linspace(lo: float, hi: float, n: int) -> tuple[float, ...]:
    """np.linspace(lo, hi, n) for n >= 2, bit for bit unless the step
    (hi - lo) / (n - 1) underflows to 0: point i is i step + lo, and the
    last point is hi."""
    step = (hi - lo) / (n - 1)
    return (*(i * step + lo for i in range(n - 1)), hi)


def _parse_time(text: str) -> tuple[float]:
    """The one-point time grid that ``--t`` stands for."""
    return (float(text),)


def _parse_stat(text: str, lattice: bool) -> tuple[str, Optional[float]]:
    from . import simulate as sim

    name, _, arg = text.partition(":")
    name = name.strip()
    return name, sim._statistic(name, float(arg) if arg else None, lattice)


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Nothing may change it: a config
    file's values reach a run as namespace defaults instead."""
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


def _subcommand(command: str) -> argparse.ArgumentParser:
    (subparsers,) = build_parser()._subparsers._group_actions
    return subparsers.choices[command]


def _actions(sub: argparse.ArgumentParser) -> dict:
    """A subcommand's options by flag, --help aside."""
    return {a.option_strings[0]: a for a in sub._actions if a.dest != argparse.SUPPRESS}


def _text(value) -> str:
    """A value as its flag's argument: a sequence as a comma list."""
    if isinstance(value, (list, tuple)):
        return ",".join(_text(v) for v in value)
    return str(value)


def _load_config(sub: argparse.ArgumentParser, path: str) -> dict:
    """A config file's values by option name, to stand in for the
    subcommand's defaults, so that flags still win.  Keys are the long flag
    names; each value is converted and checked by argparse as its flag's
    argument would be."""
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object of options")
    actions = _actions(sub)
    values = {}
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
        values[action.dest] = value
    return values


def _require(options: dict, *names: str) -> None:
    missing = [n for n in names if options.get(n) is None]
    if missing:
        actions = _actions(_subcommand(options["command"])).items()
        flags = [" or ".join(flag for flag, a in actions if a.dest == n) for n in missing]
        raise ValueError(f"missing required options: {', '.join(flags)}")


def _discrete_params(options: dict) -> discrete.DiscreteParams:
    _require(options, "lam", "mu", "nu", "eta")
    return discrete.DiscreteParams(
        options["lam"], options["mu"], options["nu"], options["eta"]
    )


def _states(options: dict) -> range:
    """The lattice states from --n-min to --n-max; ``ValueError`` if none."""
    n_min, n_max = check_window((options["n_min"], options["n_max"]))
    return range(n_min, n_max + 1)


def _diffusion_params(options: dict) -> diffusion.DiffusionParams:
    _require(options, "lam_hat", "mu_hat", "sigma2", "nu", "eta")
    return diffusion.DiffusionParams(
        options["lam_hat"], options["mu_hat"], options["sigma2"], options["nu"], options["eta"]
    )


# ---------------------------------------------------------------------------
# table output


class _Echo:
    """A file whose ``write`` hands its text back, so that a csv writer's
    ``writerow`` returns the row as csv writes it."""

    @staticmethod
    def write(text: str) -> str:
        return text


_csv_line = csv.writer(_Echo(), lineterminator="\n").writerow


def _csv_text(value, alone: bool) -> str:
    """A cell as csv writes it: quoted where its text needs quotes, and ""
    when it is empty and ``alone`` in its row."""
    return _csv_line((str(value),))[:-1] if alone else _csv_line((str(value), ""))[:-2]


def _csv_body(rows: list, width: int, float_code: str) -> str:
    """Every row at once.  Each cell type has one format code (``float_code``
    for a float, %d for an int, the empty field for None, csv's quoted text
    for anything else); the codes make one template, and one
    ``template % cells`` fills it."""
    cells = tuple(chain.from_iterable(rows))
    columns = [cells[j::width] for j in range(width)]
    kinds = [set(map(type, column)) for column in columns]
    alone = width == 1
    codes, texts = {}, set()
    for kind in set().union(*kinds):
        if issubclass(kind, float):
            codes[kind] = float_code
        elif kind is int:
            codes[kind] = "%d"
        elif kind is type(None):
            codes[kind] = _csv_text("", alone)
        else:
            codes[kind] = "%s"
            texts.add(kind)
    # each cell's code, then a comma, or a newline after a row's last cell;
    # a column of one type takes its code once
    parts = [","] * (2 * len(cells))
    parts[2 * width - 1::2 * width] = ["\n"] * len(rows)
    for j, (column, column_kinds) in enumerate(zip(columns, kinds)):
        if len(column_kinds) == 1:
            parts[2 * j::2 * width] = [codes[column_kinds.pop()]] * len(rows)
        else:
            parts[2 * j::2 * width] = map(codes.__getitem__, map(type, column))
    if type(None) in codes:
        cells = tuple(compress(cells, map(is_not, cells, repeat(None))))
    if texts:
        cells = tuple(_csv_text(v, alone) if type(v) in texts else v for v in cells)
    return "".join(parts) % cells


def _json_nested(value) -> str:
    # a value of the payload, laid out with indent 2 one level down
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")


def _json_rows(rows: list) -> str:
    """The rows as ``json.dumps(indent=2)`` lays them out one level down,
    every cell encoded by one call of the C encoder.  Encoded cells hold no
    raw newline, so "]" + separator + "[" only ever joins two rows."""
    if not rows:
        return "[]"
    within = ",\n      "
    text = json.dumps(rows, separators=(within, ": "))[2:-2]
    rows_text = text.replace("]" + within + "[", "\n    ],\n    [" + within[1:])
    return "[\n    [" + within[1:] + rows_text + "\n    ]\n  ]"


def write_table(
    columns: Sequence[str],
    rows: Iterable[Sequence],
    params: dict,
    options: dict,
    decimals: Optional[int] = None,
) -> None:
    """Write a table in one pass over its cells.  ``rows`` may be any
    iterable of rows of one cell per column, such as a ``zip`` of columns.
    CSV writes floats with %.6g, or repr under --full-precision, or with
    ``decimals`` fixed decimals; JSON writes them in full, or rounded to
    ``decimals``."""
    out = options["out"]
    width = len(columns)
    rows = list(rows)
    if not width or set(map(len, rows)) - {width}:
        raise ValueError(f"each row needs one cell for each of {width} columns")
    if options["format"] == "json":
        if decimals is not None:
            rows = [[round(v, decimals) if isinstance(v, float) else v for v in row]
                    for row in rows]
        text = (f'{{\n  "params": {_json_nested(params)},\n  "rows": {_json_rows(rows)},'
                f'\n  "schema": {_json_nested(list(columns))}\n}}\n')
    else:
        if decimals is not None:
            float_code = f"%.{decimals}f"
        else:
            float_code = "%r" if options["full_precision"] else "%.6g"
        text = (f"# catwalk-table v1\n# params {json.dumps(params, sort_keys=True)}\n"
                f"{_csv_line(columns)}{_csv_body(rows, width, float_code)}")
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
    by_dest = {a.dest: a for a in _actions(_subcommand(command)).values()}
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
        laws = discrete.transient_distributions(p, t_grid, (options["n_min"], options["n_max"]))
        rows = []
        for t, law in zip(t_grid, laws):
            if t == 0.0:
                rows.append([0.0, 0, 1.0, 0.0])
            else:
                states = law.probabilities
                rows += zip(repeat(t), states, states.values(), repeat(law.failure_mass))
        write_table(["t", "n", "probability", "failure_mass"], rows, _provenance(options), options)
        return 0
    dp = _diffusion_params(options)
    for t in t_grid:
        if t <= 0.0:
            raise ValueError("the diffusion density needs t > 0 (t = 0 is a point mass at 0)")
        check_time(t, positive=True)
    xs = options["x_grid"]
    if xs is None:
        t_ref = max(t_grid)
        sd = math.sqrt(dp.sigma2 * t_ref)
        lo = min(0.0, dp.drift * t_ref) - 8.0 * sd
        hi = max(0.0, dp.drift * t_ref) + 8.0 * sd
        xs = _linspace(lo, hi, 161)
    rows = []
    for t in t_grid:
        q = diffusion.failure_probability(dp, t)
        rows += zip(repeat(t), xs, diffusion.transient_densities(dp, xs, t), repeat(q))
    # the diffusion reads no lattice window, so its table records none
    params = _provenance(options, x_grid=xs, n_min=None, n_max=None)
    write_table(["t", "x", "density", "failure_mass"], rows, params, options)
    return 0


def cmd_steady(options: dict) -> int:
    if options["model"] == "discrete":
        p = _discrete_params(options)
        q = discrete.steady_failure(p)
        rows = [[n, discrete.steady_state(p, n), q] for n in _states(options)]
        write_table(["n", "probability", "failure_mass"], rows, _provenance(options), options)
        return 0
    dp = _diffusion_params(options)
    q = steady_failure_mass(dp.nu, dp.eta)
    xs = options["x_grid"]
    if xs is None:
        length = diffusion.steady_decay_length(dp)
        xs = _linspace(-12.0 * length, 12.0 * length, 161)
    rows = [[x, diffusion.steady_density(dp, x), q] for x in xs]
    params = _provenance(options, x_grid=xs, n_min=None, n_max=None)
    write_table(["x", "density", "failure_mass"], rows, params, options)
    return 0


def cmd_moments(options: dict) -> int:
    _require(options, "t_grid")
    t_grid = options["t_grid"]
    if options["model"] == "discrete":
        p = _discrete_params(options)
        rows = [[t, discrete.mean_transient(p, t), discrete.variance_transient(p, t)]
                for t in t_grid]
    else:
        dp = _diffusion_params(options)
        rows = [[t, diffusion.mean_x(dp, t), diffusion.variance_x(dp, t)]
                for t in t_grid]
    write_table(["t", "mean", "variance"], rows, _provenance(options), options)
    return 0


def cmd_simulate(options: dict) -> int:
    from . import simulate as sim

    _require(options, "seed", "reps", "t_grid")
    t_grid = tuple(sorted(options["t_grid"]))
    cfg = sim.SimConfig(
        seed=options["seed"],
        replications=options["reps"],
        horizon=max(t_grid),
        observation_times=t_grid,
    )
    parsed_stats = [_parse_stat(s, options["model"] == "discrete") for s in options["stats"]]
    if options["model"] == "discrete":
        p = _discrete_params(options)
        traces = list(sim.simulate_discrete(p, cfg))
    else:
        dp = _diffusion_params(options)
        traces = list(sim.simulate_diffusion(dp, cfg))
    params = _provenance(options, t_grid=t_grid)
    if options["trace_out"]:
        sim.export_traces(traces, options["trace_out"], params, cfg)
    estimate = sim._estimator(traces)
    rows = []
    for t in t_grid:
        for name, arg in parsed_stats:
            est = estimate(t, name, arg)
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
    states = _states(options)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            # the subcommand parses its own arguments again, over the file's
            # values: a subparser fills in its defaults in a fresh namespace
            sub = _subcommand(args.command)
            config = argparse.Namespace(command=args.command, **_load_config(sub, args.config))
            args = sub.parse_args(argv[argv.index(args.command) + 1:], namespace=config)
        return DISPATCH[args.command](vars(args))
    except QuadratureError as exc:
        _emit_error("convergence", exc)
        return 3
    except (ValueError, OSError) as exc:
        _emit_error("validation", exc)
        return 2


def entrypoint() -> None:
    sys.exit(main())
