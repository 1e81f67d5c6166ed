import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from itertools import chain
from pathlib import Path

import pytest

import catwalk
from catwalk import cli, scaling
from catwalk.diffusion import DiffusionParams
from catwalk.special import QuadratureError
from catwalk.simulate import _STATISTICS
from oracles import steady_density_by_mpmath, steady_state_by_mpmath, table_by_cells

TABLE1_ROW0 = (0.04516, 0.04588, 0.01593, 0.04552, 0.04588, 0.00793, 0.04581, 0.04588, 0.00158)
LATTICE = ["--lambda", "2", "--mu", "1", "--nu", "1", "--eta", "1"]
DIFFUSION = ["--lambda-hat", "3", "--mu-hat", "1", "--sigma2", "1", "--nu", "1", "--eta", "1"]

#: every subcommand with its default grids; the diffusion x-grids run negative
DEFAULT_RUNS = {
    "transient-discrete": ["transient", "--model", "discrete", *LATTICE, "--t", "1"],
    "transient-diffusion": ["transient", "--model", "diffusion", *DIFFUSION, "--t", "1"],
    "steady-discrete": ["steady", "--model", "discrete", *LATTICE],
    "steady-diffusion": ["steady", "--model", "diffusion", *DIFFUSION],
    "moments-discrete": ["moments", "--model", "discrete", *LATTICE, "--t-grid", "0:2:0.5"],
    "moments-diffusion": ["moments", "--model", "diffusion", *DIFFUSION, "--t-grid", "0:2:0.5"],
    "simulate": ["simulate", "--model", "diffusion", *DIFFUSION, "--seed", "3", "--reps", "200",
                 "--t-grid", "1,0.5"],
    "simulate-stats": ["simulate", *LATTICE, "--seed", "3", "--reps", "200", "--t", "1",
                       "--stat", "state-probability:-1", "--stat", "cdf:-0.5"],
    "compare": ["compare", *DIFFUSION],
    "table1": ["table1"],
}


def run(argv):
    return cli.main(argv)


class TestTable1:
    def test_reference_row_and_shape(self, tmp_path):
        out = tmp_path / "table1.csv"
        assert run(["table1", "--out", str(out)]) == 0
        table = cli.read_table(str(out))
        assert len(table["rows"]) == 13
        assert len(table["schema"]) == 10
        by_n = {int(row[0]): row[1:] for row in table["rows"]}
        for got, want in zip(by_n[0], TABLE1_ROW0):
            assert got == pytest.approx(want, abs=1.5e-5)

    def test_five_decimal_rounding(self, tmp_path, capsys):
        assert run(["table1"]) == 0
        body = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line and not line.startswith("#") and not line.startswith("n,")
        ]
        cell = body[0].split(",")[1]
        assert len(cell.split(".")[1]) == 5


class TestRoundTrip:
    def test_csv_reproduces_from_its_own_header(self, tmp_path):
        first = tmp_path / "steady.csv"
        argv = [
            "steady", "--model", "discrete", "--lambda", "2", "--mu", "1",
            "--nu", "1", "--eta", "1", "--n-min", "-3", "--n-max", "3",
            "--out", str(first),
        ]
        assert run(argv) == 0
        table = cli.read_table(str(first))
        assert table["params"]["lam"] == 2.0
        second = tmp_path / "again.csv"
        replay = cli.rebuild_argv(table["params"]) + ["--out", str(second)]
        assert run(replay) == 0
        again = cli.read_table(str(second))
        assert again["rows"] == table["rows"]
        assert again["schema"] == table["schema"]

    def test_json_round_trip_is_exact(self, tmp_path):
        first = tmp_path / "m.json"
        argv = [
            "moments", "--model", "diffusion", "--lambda-hat", "3", "--mu-hat", "1",
            "--sigma2", "1", "--nu", "1", "--eta", "1", "--t-grid", "0:2:0.5",
            "--format", "json", "--out", str(first),
        ]
        assert run(argv) == 0
        table = cli.read_table(str(first))
        second = tmp_path / "m2.json"
        assert run(cli.rebuild_argv(table["params"]) + ["--out", str(second)]) == 0
        assert cli.read_table(str(second))["rows"] == table["rows"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("run_name", sorted(DEFAULT_RUNS))
    def test_every_subcommand_replays_its_default_run(self, tmp_path, run_name, fmt):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(DEFAULT_RUNS[run_name] + ["--format", fmt, "--out", str(first)]) == 0
        table = cli.read_table(str(first))
        assert run(cli.rebuild_argv(table["params"]) + ["--out", str(second)]) == 0
        assert second.read_text() == first.read_text()

    @pytest.mark.parametrize("argv", [
        ["transient", "--model", "diffusion", *DIFFUSION, "--t", "1"],
        ["steady", "--model", "diffusion", *DIFFUSION, "--n-min", "3", "--n-max", "-3"],
    ], ids=["transient", "steady-with-an-inverted-window"])
    def test_diffusion_tables_record_no_lattice_window(self, tmp_path, argv):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(argv + ["--out", str(first)]) == 0
        params = cli.read_table(str(first))["params"]
        assert "n_min" not in params and "n_max" not in params
        assert run(cli.rebuild_argv(params) + ["--out", str(second)]) == 0
        assert second.read_text() == first.read_text()

    def test_read_table_skips_blank_records(self, tmp_path):
        # a blank line before the header row used to be read as an empty
        # schema, and the header as the first row
        first, spaced = tmp_path / "first.csv", tmp_path / "spaced.csv"
        assert run(DEFAULT_RUNS["steady-discrete"] + ["--out", str(first)]) == 0
        lines = first.read_text().splitlines(keepends=True)
        spaced.write_text("".join(line + "\n" for line in lines))
        assert cli.read_table(str(spaced)) == cli.read_table(str(first))

    def test_replay_skips_keys_the_subcommand_has_no_flag_for(self):
        # table1 headers written before it lost its epsilon key
        params = {"command": "table1", "epsilon": [0.1, 0.05, 0.01], "nu": 1.0, "format": "csv"}
        assert cli.rebuild_argv(params) == ["table1", "--nu=1.0", "--format=csv"]

    def test_simulate_reproduces_with_the_same_seed(self, tmp_path):
        argv = [
            "simulate", "--model", "discrete", "--lambda", "2", "--mu", "2",
            "--nu", "0.1", "--eta", "1", "--seed", "42", "--reps", "500",
            "--t-grid", "0.5,1", "--format", "json",
        ]
        first = tmp_path / "sim1.json"
        second = tmp_path / "sim2.json"
        assert run(argv + ["--out", str(first)]) == 0
        assert run(argv + ["--out", str(second)]) == 0
        assert cli.read_table(str(first))["rows"] == cli.read_table(str(second))["rows"]


#: a heavy-traffic lattice table of 20 times x 601 states, 12,020 rows
LARGE_LATTICE = ["transient", "--lambda", "5000", "--mu", "5000", "--nu", "0.1", "--eta", "1",
                 "--t-grid", "0.1:2:0.1", "--n-min", "-300", "--n-max", "300"]

#: (format, full_precision, decimals): the three float renderings in each format
RENDERINGS = [(fmt, full, decimals) for fmt in ("csv", "json")
              for full, decimals in ((False, None), (True, None), (False, 5))]

#: cells of every type a table may hold, floats at the edges of %.6g and repr:
#: floats, ints, None and the statistic names, the one text a table holds
CELLS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 123456.5, 999999.5, 1 / 3,
         -2.5e-7, 0, -7, 2**70, -(10**20), None, *_STATISTICS]
NAMES = ["t", "n", "x", "pi_over_eps_0.1", "standard_error"]


def _written(tmp_path, columns, rows, params, fmt, full, decimals):
    out = tmp_path / "table"
    cli.write_table(columns, rows, params,
                    {"out": str(out), "format": fmt, "full_precision": full}, decimals)
    return out.read_bytes().decode("utf-8")


class TestTableWriter:
    """The one-pass writer gives, byte for byte, the text of the reference
    writer in tests/oracles.py, which formats one cell and one row at a time."""

    PARAMS = {"command": "transient", "lam": 2.0, "t_grid": [0.0, 0.5], "stats": ["cdf"]}

    @pytest.mark.parametrize("fmt,full,decimals", RENDERINGS)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_tables_match_the_reference(self, tmp_path, seed, fmt, full, decimals):
        rng = random.Random(seed)
        for _ in range(60):
            width, height = rng.randint(2, 4), rng.randint(0, 6)
            columns = [rng.choice(NAMES) for _ in range(width)]
            rows = [[rng.choice(CELLS) for _ in range(width)] for _ in range(height)]
            expected = table_by_cells(columns, rows, self.PARAMS, fmt, full, decimals)
            assert _written(tmp_path, columns, rows, self.PARAMS, fmt, full, decimals) == expected

    TABLES = {
        "empty": (["t", "x"], []),
        "simulate-like": (
            ["t", "statistic", "arg", "estimate", "standard_error", "replications"],
            [(1.0, "state-probability", -1, 0.25, 0.0125, 200),
             (1.0, "cdf", -0.5, 0.5, None, 200),
             (1.0, "truncated-mean", None, 1.75, 0.031, 200)]),
        "every-cell": (["v"] * len(CELLS), [CELLS, CELLS[::-1]]),
    }

    @pytest.mark.parametrize("fmt,full,decimals", RENDERINGS)
    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_edge_tables_match_the_reference(self, tmp_path, name, fmt, full, decimals):
        columns, rows = self.TABLES[name]
        expected = table_by_cells(columns, rows, self.PARAMS, fmt, full, decimals)
        assert _written(tmp_path, columns, iter(rows), self.PARAMS, fmt, full, decimals) == expected

    @pytest.mark.parametrize("columns,rows", [([], []), (["n"], [(1.0,)]),
                                              (["t", "x"], [(1.0, 2.0), (1.0,)])])
    def test_a_row_must_fill_the_columns(self, tmp_path, columns, rows):
        with pytest.raises(ValueError, match="one cell for each of"):
            _written(tmp_path, columns, rows, self.PARAMS, "csv", False, None)

    @pytest.mark.parametrize("cell", [True, False, b"cdf", [1.0]])
    def test_a_cell_of_another_type_is_refused(self, tmp_path, cell):
        with pytest.raises(ValueError, match="cannot be of type"):
            _written(tmp_path, ["t", "v"], [(1.0, 2.0), (1.0, cell)], self.PARAMS, "csv", False,
                     None)

    @pytest.mark.parametrize("record", ['1.0,"cdf"', '"1.0",2.0'])
    def test_read_table_refuses_a_quoted_cell(self, tmp_path, record):
        path = tmp_path / "quoted.csv"
        path.write_text(f"# catwalk-table v1\n# params {{}}\nt,statistic\n{record}\n")
        with pytest.raises(ValueError, match="quoted cell"):
            cli.read_table(str(path))

    @pytest.mark.parametrize("variant", [[], ["--format", "json"], ["--full-precision"]],
                             ids=["csv", "json", "full-precision"])
    @pytest.mark.parametrize("run_name", [*sorted(DEFAULT_RUNS), "large-lattice"])
    def test_every_command_writes_the_reference_rendering(self, tmp_path, monkeypatch, run_name,
                                                          variant):
        write, calls = cli.write_table, []

        def capture(columns, rows, params, options, decimals=None):
            rows = list(rows)
            calls.append((columns, rows, params, options, decimals))
            write(columns, rows, params, options, decimals)

        monkeypatch.setattr(cli, "write_table", capture)
        out = tmp_path / "table"
        argv = DEFAULT_RUNS.get(run_name, LARGE_LATTICE)
        assert run(argv + variant + ["--out", str(out)]) == 0
        ((columns, rows, params, options, decimals),) = calls
        if run_name == "large-lattice":
            assert len(rows) == 12_020
        expected = table_by_cells(columns, rows, params, options["format"],
                                  options["full_precision"], decimals)
        assert out.read_bytes().decode("utf-8") == expected


class TestTransient:
    def test_time_zero_single_row(self, tmp_path):
        out = tmp_path / "t0.csv"
        argv = [
            "transient", "--model", "discrete", "--lambda", "2", "--mu", "2",
            "--nu", "0.1", "--eta", "1", "--t", "0", "--n-min", "-2", "--n-max", "2",
            "--out", str(out),
        ]
        assert run(argv) == 0
        rows = cli.read_table(str(out))["rows"]
        assert rows == [[0.0, 0.0, 1.0, 0.0]]

    def test_discrete_grid_carries_failure_mass(self, tmp_path):
        out = tmp_path / "grid.csv"
        argv = [
            "transient", "--model", "discrete", "--lambda", "2", "--mu", "2",
            "--nu", "0.1", "--eta", "1", "--t-grid", "0.5,1", "--n-min", "0",
            "--n-max", "2", "--format", "json", "--out", str(out),
        ]
        assert run(argv) == 0
        table = cli.read_table(str(out))
        assert table["schema"] == ["t", "n", "probability", "failure_mass"]
        assert len(table["rows"]) == 6
        from catwalk import discrete as d

        p = d.DiscreteParams(2.0, 2.0, 0.1, 1.0)
        for t, n, value, q in table["rows"]:
            assert value == pytest.approx(d.transient_probability(p, int(n), t), rel=1e-9)
            assert q == pytest.approx(d.failure_probability(p, t), rel=1e-12)

    def test_diffusion_density_table_mass(self, tmp_path):
        out = tmp_path / "density.json"
        argv = [
            "transient", "--model", "diffusion", "--lambda-hat", "3", "--mu-hat", "1",
            "--sigma2", "1", "--nu", "1", "--eta", "1", "--t", "1",
            "--format", "json", "--out", str(out),
        ]
        assert run(argv) == 0
        rows = cli.read_table(str(out))["rows"]
        import numpy as np

        xs = np.array([row[1] for row in rows])
        densities = np.array([row[2] for row in rows])
        assert float(np.trapezoid(densities, xs)) == pytest.approx(0.5677, abs=1e-3)

    def test_diffusion_rejects_time_zero(self, capsys):
        argv = [
            "transient", "--model", "diffusion", "--lambda-hat", "3", "--mu-hat", "1",
            "--sigma2", "1", "--nu", "1", "--eta", "1", "--t", "0",
        ]
        assert run(argv) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["type"] == "validation"

    def test_diffusion_rejects_non_finite_abscissas(self, capsys):
        argv = [
            "transient", "--model", "diffusion", "--lambda-hat", "3", "--mu-hat", "1",
            "--sigma2", "1", "--nu", "1", "--eta", "1", "--t", "1", "--x-grid", "nan,inf",
        ]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"]["type"] == "validation"
        assert "finite" in record["error"]["message"]


class TestMoments:
    def test_mean_increases_to_its_limit(self, tmp_path):
        out = tmp_path / "moments.csv"
        argv = [
            "moments", "--model", "discrete", "--lambda", "2", "--mu", "1",
            "--nu", "1", "--eta", "2", "--t-grid", "0:30:0.5", "--out", str(out),
        ]
        assert run(argv) == 0
        rows = cli.read_table(str(out))["rows"]
        means = [row[1] for row in rows]
        assert all(b >= a for a, b in zip(means, means[1:]))
        assert means[-1] == pytest.approx(2.0 / 3.0, abs=1e-6)

    @pytest.mark.parametrize("model", ["discrete", "diffusion"])
    def test_non_finite_time_is_a_validation_error(self, model, capsys):
        rates = LATTICE if model == "discrete" else DIFFUSION
        assert run(["moments", "--model", model, *rates, "--t-grid", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"]["type"] == "validation"
        assert "finite" in record["error"]["message"]


class TestSimulate:
    def test_zero_replications_is_a_validation_error(self, capsys):
        argv = [
            "simulate", "--model", "discrete", "--lambda", "2", "--mu", "2",
            "--nu", "0.1", "--eta", "1", "--seed", "7", "--reps", "0", "--t", "1",
        ]
        assert run(argv) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["type"] == "validation"
        assert "replications" in record["error"]["message"]

    def test_non_integral_state_is_a_validation_error(self, capsys):
        with pytest.raises(ValueError):
            cli._parse_stat("state-probability:2.7", True)
        assert cli._parse_stat("state-probability:-2.0", True) == ("state-probability", -2)
        argv = ["simulate", *LATTICE, "--seed", "7", "--reps", "10", "--t", "1",
                "--stat", "state-probability:2.7"]
        assert run(argv) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["type"] == "validation"
        assert "integer" in record["error"]["message"]

    def test_nan_threshold_is_a_validation_error(self, tmp_path, capsys):
        # a NaN threshold compares false with every state: the estimate would read 0
        log = tmp_path / "traces.log"
        argv = ["simulate", *LATTICE, "--seed", "7", "--reps", "10", "--t", "1",
                "--stat", "cdf:nan", "--trace-out", str(log)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"]["type"] == "validation"
        assert "nan" in record["error"]["message"]
        assert not log.exists()

    @pytest.mark.parametrize("nu,t,listed,message", [
        ("0.1", "1.5e6", True, "moves, more than the 4194304 one path may list"),
        ("0.1", "1e300", False, "needs about 2e+300 draws, more than the 67108864 one run may make"),
        ("10", "1e308", False, "needs about inf draws, more than the 67108864 one run may make"),
    ])
    def test_a_draw_budget_past_the_cap_is_a_validation_error(self, tmp_path, capsys, nu, t,
                                                              listed, message):
        # the paths at t = 1.5e6 fit a run's budget, but a path's 5.5e6 moves
        # are too many to list, so their trace export is refused before the
        # file is opened; NumPy used to refuse t = 1e300 with a bare "Maximum
        # allowed size exceeded", and t = 1e308 exited 1 with an OverflowError
        # traceback
        log = tmp_path / "traces.log"
        argv = ["simulate", "--lambda", "2", "--mu", "2", "--nu", nu, "--eta", "1",
                "--seed", "1", "--reps", "10", "--t", t]
        assert run(argv + ["--trace-out", str(log)] if listed else argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"]["type"] == "validation"
        assert message in record["error"]["message"]
        assert not log.exists()

    def test_counts_past_float64_integers_are_a_validation_error(self, capsys):
        # the inversion of such a mean would step by one where float64 cannot
        argv = ["simulate", "--lambda", "1e300", "--mu", "2", "--nu", "0.1", "--eta", "1",
                "--seed", "1", "--reps", "10", "--t", "1"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": {"type": "validation", "message": (
            "the lattice moves by t = 1.0 have a mean of 1e+300, more than the 4.5e+15 whose "
            "counts float64 holds exactly; shorten the horizon or lower the rates")}}

    def test_a_long_run_of_few_paths_is_refused_before_it_draws(self, capsys):
        # about 2.6e6 catastrophe/repair cycles a path: 20 paths took about 11 s
        argv = ["simulate", "--model", "diffusion", "--lambda-hat", "4.8645765731368195e-08",
                "--mu-hat", "2.1944176493854126", "--sigma2", "0.7312649502374293",
                "--nu", "3359.330264086182", "--eta", "161271220.74199507",
                "--t-grid", "87.704590818057,772.3274709940573", "--seed", "1", "--reps", "20",
                "--stat", "cdf:0.5"]
        began = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - began < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": {"type": "validation", "message": (
            "the simulation needs about 1.04e+08 draws, more than the 67108864 one run may "
            "make; shorten the horizon, lower the rates or draw fewer replications")}}

    def test_infinite_horizon_is_a_validation_error(self, capsys):
        # it used to exit 1 with an OverflowError traceback
        argv = ["simulate", "--lambda", "2", "--mu", "2", "--nu", "0.1", "--eta", "1",
                "--seed", "1", "--reps", "10", "--t", "inf"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [json.loads(line) for line in captured.err.splitlines()] == [{"error": {
            "type": "validation", "message": "horizon must be finite and positive, got inf"}}]

    def test_state_probability_on_the_diffusion_fails_before_any_path(self, tmp_path,
                                                                      monkeypatch, capsys):
        from catwalk import simulate as sim

        def unexpected(*args):
            raise AssertionError("a path was drawn")

        monkeypatch.setattr(sim, "_paths", unexpected)
        out, log = tmp_path / "sim.csv", tmp_path / "traces.log"
        argv = ["simulate", "--model", "diffusion", *DIFFUSION, "--seed", "1", "--reps", "200",
                "--t-grid", "0.5:4:0.5", "--stat", "state-probability:1",
                "--trace-out", str(log), "--out", str(out)]
        assert run(argv) == 2
        assert json.loads(capsys.readouterr().err) == {"error": {
            "type": "validation",
            "message": "state-probability is undefined for continuous-state traces; use cdf"}}
        assert not out.exists() and not log.exists()

    def test_the_table_gathers_its_paths_once(self, tmp_path, monkeypatch):
        from catwalk import discrete
        from catwalk import simulate as sim

        groups, sizes = sim._groups, []

        def counted(traces):
            sizes.append(len(traces))
            return groups(traces)

        monkeypatch.setattr(sim, "_groups", counted)
        out = tmp_path / "sim.json"
        argv = ["simulate", *LATTICE, "--seed", "9", "--reps", "300", "--t-grid", "0.5,1,2",
                "--stat", "truncated-mean", "--stat", "cdf:1", "--format", "json",
                "--out", str(out)]
        assert run(argv) == 0
        rows = cli.read_table(str(out))["rows"]
        assert len(rows) == 6 and sizes == [300]
        cfg = sim.SimConfig(seed=9, replications=300, horizon=2.0, observation_times=(0.5, 1, 2))
        traces = list(sim.simulate_discrete(discrete.DiscreteParams(2.0, 1.0, 1.0, 1.0), cfg))
        for t, name, arg, value, error, count in rows:
            est = sim.estimate(traces, t, name, arg)
            assert (value, error, count) == (est.value, est.standard_error, est.replications)

    def test_time_zero_rows_read_the_known_start(self, tmp_path):
        from catwalk import discrete
        from catwalk import simulate as sim

        argv = ["simulate", *LATTICE, "--seed", "9", "--reps", "300", "--stat", "truncated-mean",
                "--stat", "truncated-variance", "--stat", "state-probability:0", "--stat", "cdf:-1",
                "--format", "json"]
        with_zero, without = tmp_path / "with.json", tmp_path / "without.json"
        assert run([*argv, "--t-grid", "1,0,0.5", "--out", str(with_zero)]) == 0
        assert run([*argv, "--t-grid", "0.5,1", "--out", str(without)]) == 0
        rows = cli.read_table(str(with_zero))["rows"]
        assert [row for row in rows if row[0] != 0.0] == cli.read_table(str(without))["rows"]
        cfg = sim.SimConfig(seed=9, replications=300, horizon=1.0, observation_times=(0.5, 1.0))
        traces = list(sim.simulate_discrete(discrete.DiscreteParams(2.0, 1.0, 1.0, 1.0), cfg))
        zero = [row for row in rows if row[0] == 0.0]
        assert len(zero) == 4
        for t, name, arg, value, error, count in zero:
            est = sim.estimate(traces, 0.0, name, arg)
            assert (value, error, count) == (est.value, est.standard_error, est.replications)

    @pytest.mark.parametrize("grid", ["0", "0,0,1", "-1,0,1"])
    def test_a_grid_without_a_time_after_zero_to_draw_is_a_validation_error(self, grid, capsys):
        argv = ["simulate", *LATTICE, "--seed", "9", "--reps", "10", f"--t-grid={grid}"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "validation"

    def test_rows_and_trace_export(self, tmp_path):
        out = tmp_path / "sim.json"
        log = tmp_path / "traces.log"
        argv = [
            "simulate", "--model", "discrete", "--lambda", "2", "--mu", "2",
            "--nu", "0.1", "--eta", "1", "--seed", "9", "--reps", "200",
            "--t", "1", "--stat", "failure-probability", "--stat", "state-probability:0",
            "--trace-out", str(log), "--format", "json", "--out", str(out),
        ]
        assert run(argv) == 0
        table = cli.read_table(str(out))
        assert [row[1] for row in table["rows"]] == ["failure-probability", "state-probability"]
        assert table["rows"][1][2] == 0
        assert log.read_text().startswith("# catwalk-traces v1")


class TestCompare:
    def test_rows_match_library(self, tmp_path):
        out = tmp_path / "cmp.json"
        argv = [
            "compare", "--lambda-hat", "1", "--mu-hat", "2", "--sigma2", "9",
            "--nu", "1", "--eta", "0.25", "--epsilon", "0.1", "--n-min", "0",
            "--n-max", "1", "--format", "json", "--out", str(out),
        ]
        assert run(argv) == 0
        from catwalk import diffusion as f
        from catwalk import scaling as s

        table = cli.read_table(str(out))
        dp = f.DiffusionParams(1.0, 2.0, 9.0, 1.0, 0.25)
        rows = s.steady_comparison(dp, 0.1, range(0, 2))
        for parsed, row in zip(table["rows"], rows):
            assert parsed[2] == pytest.approx(row.scaled_pi, rel=1e-12)
            assert parsed[3] == pytest.approx(row.w_value, rel=1e-12)


class TestConfigFile:
    def test_flags_override_the_file(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "model": "discrete",
                    "lambda": 2.0,
                    "mu": 1.0,
                    "nu": 1.0,
                    "eta": 1.0,
                    "n-min": -1,
                    "n-max": 1,
                }
            )
        )
        assert run(["steady", "--config", str(config), "--mu", "2.0", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["mu"] == 2.0
        # lam = mu = 2 makes the stationary law symmetric
        by_n = {int(r[0]): r[1] for r in payload["rows"]}
        assert by_n[1] == pytest.approx(by_n[-1], rel=1e-12)

    def test_unknown_config_key_is_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"lamda": 1.0}))
        assert run(["steady", "--config", str(config)]) == 2


    @pytest.mark.parametrize(
        "config",
        [
            {"lambda": "two"},
            {"n-min": 1.5},
            {"n-min": "-1.0"},
            {"model": "lattice"},
            {"full-precision": "yes"},
            {"lam": 2.0},  # keys are flag names, not option names
            {"t_grid": [1.0]},
        ],
    )
    def test_bad_values_and_keys_are_validation_errors(self, tmp_path, capsys, config):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert run(["transient", "--config", str(path), *LATTICE, "--t", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "validation"

    def test_a_file_that_is_not_an_object_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps(["--lambda", 2.0]))
        assert run(["steady", "--config", str(path), *LATTICE]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == {
            "type": "validation", "message": "config file must hold a JSON object of options"}

    def test_values_convert_like_their_flags(self, tmp_path, capsys):
        flags = ["steady", "--model", "discrete", "--lambda", "2", "--mu", "1", "--nu", "1",
                 "--eta", "0.5", "--n-min", "-2", "--n-max", "2", "--full-precision"]
        assert run(flags) == 0
        by_flags = capsys.readouterr().out
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"model": "discrete", "lambda": "2", "mu": 1, "nu": 1.0,
                                      "eta": "0.5", "n-min": "-2", "n-max": 2,
                                      "full-precision": True}))
        assert run(["steady", "--config", str(config)]) == 0
        assert capsys.readouterr().out == by_flags
        assert "# params " in by_flags

    def test_repeated_flag_keys(self, tmp_path, capsys):
        argv = ["simulate", *LATTICE, "--seed", "5", "--reps", "50", "--t", "1", "--format", "json"]
        assert run(argv + ["--stat", "failure-probability", "--stat", "state-probability:0"]) == 0
        by_flags = json.loads(capsys.readouterr().out)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"stat": ["failure-probability", "state-probability:0"]}))
        assert run(argv + ["--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out) == by_flags
        # the flag's values replace the file's, as for any other option
        assert run(argv + ["--config", str(config), "--stat", "truncated-mean"]) == 0
        assert [row[1] for row in json.loads(capsys.readouterr().out)["rows"]] == ["truncated-mean"]


    def test_a_config_file_does_not_reach_the_next_run(self, tmp_path, capsys):
        # the parser is built once per process, so a file's values must not
        # become the defaults of a later run without it
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"model": "discrete", "lambda": 2.0, "mu": 1.0, "nu": 1.0,
                                      "eta": 1.0, "n-min": -1, "n-max": 1}))
        assert run(["steady", "--config", str(config), "--format", "json"]) == 0
        assert [row[0] for row in json.loads(capsys.readouterr().out)["rows"]] == [-1, 0, 1]
        assert run(["steady", "--model", "discrete"]) == 2
        assert "--lambda" in json.loads(capsys.readouterr().err)["error"]["message"]
        assert run(["steady", *LATTICE, "--format", "json"]) == 0
        assert [row[0] for row in json.loads(capsys.readouterr().out)["rows"]] == list(range(-6, 7))


class TestErrors:
    def test_invalid_rates_exit_code(self, capsys):
        argv = ["steady", "--model", "discrete", "--lambda", "2", "--mu", "-1",
                "--nu", "1", "--eta", "1"]
        assert run(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "validation"

    def test_missing_rates_exit_code(self, capsys):
        assert run(["steady", "--model", "discrete"]) == 2
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert "--lambda" in message

    @pytest.mark.parametrize("argv,code", [(["table1"], 0), (["steady", "--model", "discrete"], 2)],
                             ids=["success", "validation"])
    def test_entrypoint_exits_with_the_code_of_main(self, monkeypatch, capsys, argv, code):
        monkeypatch.setattr(sys, "argv", ["catwalk", *argv])
        with pytest.raises(SystemExit) as caught:
            cli.entrypoint()
        assert caught.value.code == code
        capsys.readouterr()

    def test_convergence_failure_exit_code(self, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise QuadratureError("did not converge", best_estimate=0.1, error_bound=1.0)

        monkeypatch.setattr("catwalk.discrete.transient_distributions", explode)
        argv = [
            "transient", "--model", "discrete", "--lambda", "2", "--mu", "2",
            "--nu", "0.1", "--eta", "1", "--t", "1",
        ]
        assert run(argv) == 3
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "convergence"

    @pytest.mark.parametrize("command", [["steady", "--model", "discrete", *LATTICE],
                                         ["compare", *DIFFUSION]], ids=["steady", "compare"])
    def test_empty_window_exit_code(self, capsys, command):
        assert run([*command, "--n-min", "3", "--n-max", "-3"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "validation", "message": "window must be nonempty, got (3, -3)"}

    @pytest.mark.parametrize("x_grid", [[], ["--x-grid", "0,1"]], ids=["default-x", "given-x"])
    @pytest.mark.parametrize("time", ["inf", "nan", "0.0", "-1.0"])
    def test_diffusion_time_is_checked_before_the_grid(self, capsys, x_grid, time):
        argv = ["transient", "--model", "diffusion", *DIFFUSION, "--t-grid", f"1,{time}", *x_grid]
        assert run(argv) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "validation"
        assert error["message"] == f"time must be finite and positive, got {time}"

    def test_compare_where_the_lattice_law_underflows(self, capsys):
        argv = ["compare", "--lambda-hat", "1e-60", "--mu-hat", "1e60", "--sigma2", "1",
                "--nu", "1", "--eta", "1", "--epsilon", "0.1"]
        assert run(argv) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "validation"
        assert "pi_5 underflows to 0 at epsilon = 0.1" in error["message"]

    def test_lattice_window_whose_generating_function_cancels(self, capsys):
        # RuntimeWarning is an error in this suite
        argv = ["transient", "--model", "discrete", "--lambda", "0.018277820501748192",
                "--mu", "326673717452475.56", "--nu", "9.549922805363571e-27",
                "--eta", "6.123332436345979e-12",
                "--t-grid", "0.012406393297907846,4.260004300365086e-06"]
        assert run(argv) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "validation"
        assert error["message"].startswith(
            "the lattice law at t = 4.260004300365086e-06 over the window [-5, 5]")

    def test_diffusion_at_a_huge_time_does_not_overflow(self, capsys):
        # RuntimeWarning is an error in this suite
        argv = ["transient", "--model", "diffusion", *DIFFUSION, "--t-grid", "1,1e300"]
        assert run(argv) == 0
        assert capsys.readouterr().err == ""


def _agrees(value: float, reference: float) -> bool:
    # to 1e-12, or both below the normal range, where float64 keeps no
    # relative precision
    return abs(value - reference) <= 1e-12 * abs(reference) + sys.float_info.min


class TestFloat64Limits:
    """The stationary laws where their closed forms used to overflow or
    underflow in float64: each run exits 0 with finite values that agree with
    the closed form in mpmath, or exits 2 naming the law."""

    @pytest.mark.parametrize("argv", [
        # (z + nu)(z + eta) overflowed, and the densities read nan
        ["--model", "discrete", "--lambda", "1", "--mu", "3", "--nu", "1e308", "--eta", "3"],
        ["--model", "diffusion", "--lambda-hat", "1", "--mu-hat", "3", "--sigma2", "1",
         "--nu", "1e308", "--eta", "3", "--x-grid", "0,1"],
        # drift**2 raised OverflowError
        ["--model", "diffusion", "--lambda-hat", "1e308", "--mu-hat", "1", "--sigma2", "1",
         "--nu", "1", "--eta", "1", "--x-grid", "0,1"],
    ], ids=["discrete-nu", "diffusion-nu", "diffusion-drift"])
    def test_steady(self, capsys, argv):
        assert run(["steady", *argv, "--format", "json"]) == 0
        table = json.loads(capsys.readouterr().out)
        params = table["params"]
        for place, value, _ in table["rows"]:
            assert math.isfinite(value)
            if params["model"] == "discrete":
                reference = steady_state_by_mpmath(params["lam"], params["mu"], params["nu"],
                                                   params["eta"], place)
            else:
                reference = steady_density_by_mpmath(params["lam_hat"], params["mu_hat"],
                                                     params["sigma2"], params["nu"],
                                                     params["eta"], place)
            assert _agrees(value, reference), (place, value, reference)

    def test_compare(self, capsys):
        # (lam - mu)**2 raised OverflowError; pi_-6 is 5e-325, below every float
        argv = ["compare", "--lambda-hat", "1", "--mu-hat", "1e308", "--sigma2", "1e-320",
                "--nu", "1e-17", "--eta", "1", "--epsilon", "5"]
        assert run(argv) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["type"] == "validation"
        assert "pi_-6 underflows to 0" in record["error"]["message"]
        p = scaling.scale_params(DiffusionParams(1.0, 1e308, 1e-320, 1e-17, 1.0), 5.0)
        assert steady_state_by_mpmath(p.lam, p.mu, p.nu, p.eta, -6) == 0.0

    def test_table1(self, capsys):
        # the lattice root underflowed to 0: ZeroDivisionError
        rates = (1e-320, 1e-320, 1e-320, 1e-320, 1e-17)
        argv = ["table1", *chain.from_iterable(zip(
            ["--lambda-hat", "--mu-hat", "--sigma2", "--nu", "--eta"], map(str, rates)))]
        assert run(argv + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        dp = DiffusionParams(*rates)
        for j, eps in enumerate(cli.TABLE1_EPSILONS):
            p = scaling.scale_params(dp, eps)
            for row, line in zip(scaling.steady_comparison(dp, eps, cli.TABLE1_RANGE), rows):
                pi = steady_state_by_mpmath(p.lam, p.mu, p.nu, p.eta, row.n)
                w = steady_density_by_mpmath(*rates, row.n * eps)
                assert _agrees(row.scaled_pi * eps, pi) and _agrees(row.w_value, w)
                assert line[1 + 3 * j:3 + 3 * j] == [round(row.scaled_pi, 5), round(row.w_value, 5)]


class TestGridParsing:
    def test_range_and_list_forms(self):
        assert cli._parse_grid("0:2:0.5") == (0.0, 0.5, 1.0, 1.5, 2.0)
        assert cli._parse_grid("1,2.5") == (1.0, 2.5)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            cli._parse_grid("0:1")
        with pytest.raises(ValueError):
            cli._parse_grid("0:1:-0.5")

    @pytest.mark.parametrize("spec", ["nan:1:0.5", "0:nan:0.5", "0:1:nan", "-inf:1:0.5",
                                      "0:inf:0.5", "0:-inf:1", "0:1:inf"])
    def test_non_finite_range_rejected(self, spec):
        with pytest.raises(ValueError, match="finite"):
            cli._parse_grid(spec)

    def test_huge_range_rejected_before_it_is_built(self):
        with pytest.raises(ValueError, match="points"):
            cli._parse_grid("0:1e12:1e-3")
        assert len(cli._parse_grid(f"1:{cli.MAX_GRID_POINTS}:1")) == cli.MAX_GRID_POINTS

    @pytest.mark.parametrize("spec,fault", [("0:1e12:1e-3", "more than 1000000 points"),
                                            ("0:-inf:1", "must be finite"),
                                            ("nan:1:1", "must be finite"),
                                            ("0:1:-1", "step must be positive"),
                                            ("5:1:1", "no points")])
    def test_bad_range_exits_2(self, spec, fault, tmp_path, capsys):
        # the parser's own message reaches stderr and the config record
        with pytest.raises(SystemExit) as done:
            run(["moments", *LATTICE, "--t-grid", spec])
        assert done.value.code == 2
        err = capsys.readouterr().err
        assert "--t-grid" in err and fault in err
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"t-grid": spec}))
        assert run(["moments", *LATTICE, "--config", str(config)]) == 2
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert "t-grid" in message and fault in message

    def test_grids_match_numpy_bit_for_bit(self):
        # the range form is np.arange(start, stop + 1e-9 step, step) and the
        # default abscissas np.linspace(lo, hi, n), to the last bit
        import numpy as np

        def bits(values):
            return [float(v).hex() for v in values]

        rng = np.random.default_rng(20240611)
        for _ in range(2000):
            start = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6, 6))
            step = float(10.0 ** rng.uniform(-6, 6))
            stretch = float(rng.choice([1.0, 1 - 1e-12, 1 + 1e-12]))
            stop = start + int(rng.integers(0, 300)) * step * stretch
            got = cli._parse_grid(f"{start!r}:{stop!r}:{step!r}")
            assert bits(got) == bits(np.arange(start, stop + step * 1e-9, step))
            hi = start + float(10.0 ** rng.uniform(-6, 6))
            n = int(rng.integers(2, 300))
            assert bits(cli._linspace(start, hi, n)) == bits(np.linspace(start, hi, n))


#: run in a fresh interpreter: import the CLI, optionally run one command with
#: its table sent to the null device and some library calls, and print the
#: SciPy modules then loaded and whether NumPy and csv were
_COLD_START = """
import json, os, sys
import catwalk, catwalk.cli
argv = json.loads(sys.argv[1])
if argv:
    assert catwalk.cli.main(argv + ["--out", os.devnull]) == 0
exec(sys.argv[2])
print(json.dumps([sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
                  "numpy" in sys.modules, "csv" in sys.modules]))
"""


def _cold_start(argv, code: str = "") -> tuple[set, bool, bool]:
    src = str(Path(catwalk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", _COLD_START, json.dumps(argv), code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    scipy, numpy, csv = json.loads(done.stdout)
    return set(scipy), numpy, csv


#: the subcommands whose every law is a closed form in scalar math
CLOSED_FORM_RUNS = ["table1", "steady-discrete", "steady-diffusion", "moments-discrete",
                    "moments-diffusion", "compare"]


#: every closed-form law of both models, through the model modules and scaling
_CLOSED_FORM_LAWS = """
import catwalk.diffusion as f, catwalk.discrete as d, catwalk.scaling as s
p = d.DiscreteParams(2.0, 1.0, 1.0, 2.0)
d.failure_probability(p, 1.0), d.steady_failure(p), d.steady_state(p, -2)
d.mean_transient(p, 1.0), d.variance_transient(p, 1.0), d.mean_peak_time(p)
d.asymptotic_mean(p), d.asymptotic_variance(p)
d.laplace_transforms(p, 0.5), d.laplace_pn(p, 3, 0.5)
dp = f.DiffusionParams(1.0, 2.0, 9.0, 1.0, 0.25)
f.failure_probability(dp, 1.0), f.steady_density(dp, -0.5), f.steady_decay_length(dp)
f.mean_x(dp, 1.0), f.variance_x(dp, 1.0), f.asymptotic_moments(dp)
f.laplace_density(dp, 0.5, 0.5), f.laplace_roots(dp, 0.5)
s.steady_comparison(dp, 0.05, range(-6, 7)), s.laplace_convergence(dp, 0.5, 0.5, [0.1, 0.01])
s.asymptotic_variance_gap(dp, 0.05)
"""


class TestColdStart:
    """The closed-form commands never load NumPy or csv; they, the simulator
    at moderate rates and the lattice transient law never load SciPy; the
    diffusion transient kernels and the lattice simulator's Poisson counts of
    large mean load scipy.special, and no library path loads scipy.integrate."""

    @pytest.mark.parametrize("name", ["import-only", *CLOSED_FORM_RUNS])
    def test_no_numpy(self, name):
        assert _cold_start(DEFAULT_RUNS.get(name, []))[1] is False

    @pytest.mark.parametrize("name", ["import-only", *CLOSED_FORM_RUNS])
    def test_no_csv(self, name):
        assert _cold_start(DEFAULT_RUNS.get(name, []))[2] is False

    @pytest.mark.parametrize(
        "name", ["import-only", *(n for n in DEFAULT_RUNS if n != "transient-diffusion")]
    )
    def test_no_scipy(self, name):
        assert _cold_start(DEFAULT_RUNS.get(name, []))[0] == set()

    @pytest.mark.parametrize("name", ["transient-diffusion"])
    def test_transient_loads_special_only(self, name):
        loaded, _, _ = _cold_start(DEFAULT_RUNS[name])
        assert "scipy.special" in loaded
        assert "scipy.integrate" not in loaded

    def test_heavy_traffic_simulate_loads_special_only(self):
        # its segments' Poisson means pass the summed inversion's threshold
        loaded, _, _ = _cold_start(["simulate", "--lambda", "5e4", "--mu", "5e4", "--nu", "0.1",
                                    "--eta", "1", "--seed", "3", "--reps", "200", "--t", "20"])
        assert "scipy.special" in loaded
        assert "scipy.integrate" not in loaded

    def test_closed_form_laws_do_not_load_numpy(self):
        loaded, numpy, _ = _cold_start([], _CLOSED_FORM_LAWS)
        assert loaded == set()
        assert numpy is False

    def test_slice_and_operating_mass_do_not_integrate(self):
        loaded, _, _ = _cold_start([], "from catwalk import diffusion as f\n"
                                    "dp = f.DiffusionParams(3.0, 1.0, 1.0, 0.1, 1.0)\n"
                                    "f.density_slice(dp, 1.0)\n"
                                    "f.on_mass(dp, 1.0)\n")
        assert "scipy.special" in loaded
        assert "scipy.integrate" not in loaded


def _readme_commands() -> list[list[str]]:
    """The arguments of each ``catwalk`` line of README.md's sh blocks, with
    continued lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in text.split("```sh\n")[1:]:
        for line in block.split("```")[0].replace("\\\n", " ").splitlines():
            if line.startswith("catwalk "):
                commands.append(shlex.split(line)[1:])
    return commands


class TestReadme:
    def test_the_library_example_runs(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (example,) = [block.split("```")[0] for block in text.split("```python\n")[1:]]
        exec(compile(example, "README.md", "exec"), {})

    def test_every_command_runs(self, tmp_path, monkeypatch, capsys):
        commands = _readme_commands()
        assert len(commands) == 24
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert run(argv) == 0, (argv, capsys.readouterr().err)
            if "--out" in argv:
                table = cli.read_table(argv[argv.index("--out") + 1])
                assert table["rows"], argv
        capsys.readouterr()


#: every message a fuzzed command inside the declared box may exit 2 with
_FUZZ_MESSAGES = [
    r"no stationary law without catastrophes \(nu > 0 required\)$",
    r"state-probability is undefined for continuous-state traces; use cdf$",
    r"t = \S+ is too long for the lattice law: ",
    r"the lattice law at t = \S+ over the window \[-5, 5\] is out of reach: ",
    r"the lattice law at t = \S+ needs an FFT of \d+ nodes, ",
    r"the truncated (mean|variance) is inf in float64 at these arguments$",
]


def _fuzzed_command(rng: random.Random, command: str, box=None) -> list[str]:
    """A random run of the command inside the declared box: rates log-uniform
    in [1e-12, 1e12] (nu = 0 one time in ten) and two times log-uniform in
    [1e-9, 1e9]; ``simulate`` draws 20 paths, with rates up to 1e2 and times
    up to 10, so that no run draws more than about 1e5 uniforms.  A ``box``
    (low, high) puts rates and times log-uniform in it instead."""
    rate_max, time_max = (1e2, 10.0) if command == "simulate" else (1e12, 1e9)
    rate_min, time_min = 1e-12, 1e-9
    if box is not None:
        (rate_min, rate_max), (time_min, time_max) = box, box

    def log_uniform(lo, hi):
        return repr(math.exp(rng.uniform(math.log(lo), math.log(hi))))

    if command in ("compare", "table1"):
        argv, model = [command], "diffusion"
    else:
        model = rng.choice(["discrete", "diffusion"])
        argv = [command, "--model", model]
    names = ["--lambda", "--mu"] if model == "discrete" else ["--lambda-hat", "--mu-hat", "--sigma2"]
    for name in names + ["--nu", "--eta"]:
        zero = name == "--nu" and rng.random() < 0.1
        argv += [name, "0" if zero else log_uniform(rate_min, rate_max)]
    if command in ("transient", "moments", "simulate"):
        argv += ["--t-grid", f"{log_uniform(time_min, time_max)},{log_uniform(time_min, time_max)}"]
    if command == "simulate":
        argv += ["--seed", str(rng.randrange(2**32)), "--reps", "20"]
        for statistic in rng.sample(_STATISTICS, 2):
            if statistic == "cdf":
                statistic += f":{rng.uniform(-3.0, 3.0)!r}"
            elif statistic == "state-probability":
                statistic += f":{rng.randrange(-3, 4)}"
            argv += ["--stat", statistic]
    return argv + ["--format", rng.choice(["csv", "json"])]


def _cells(text: str, fmt: str) -> list:
    if fmt == "json":
        return [cell for row in json.loads(text)["rows"] for cell in row]
    records = [line for line in text.splitlines() if line and not line.startswith("#")][1:]
    return [cli._read_cell(cell) for record in records for cell in record.split(",")]


class TestFuzz:
    """Seeded random commands inside the declared box, and ``moments`` over
    all of float64, under this suite's RuntimeWarning-as-error filter: each
    exits 0 with finite numbers in every numeric cell, or exits 2 with one
    validation record whose message is one catwalk writes.  A failure found
    here is mended, never excluded."""

    @pytest.mark.parametrize("seed,count,commands,box", [
        (1, 600, tuple(cli._SUBCOMMANDS), None),
        (2, 300, ("simulate",), None),
        (3, 300, ("moments",), (1e-300, 1e300)),
    ], ids=["every-command", "simulate", "moments-over-float64"])
    def test_every_run_exits_cleanly(self, capsys, seed, count, commands, box):
        rng = random.Random(seed)
        exits = []
        for _ in range(count):
            argv = _fuzzed_command(rng, rng.choice(commands), box)
            code = run(argv)
            captured = capsys.readouterr()
            exits.append(code)
            if code == 0:
                assert captured.err == "", argv
                numbers = [cell for cell in _cells(captured.out, argv[-1])
                           if cell is not None and cell not in _STATISTICS]
                assert all(type(cell) in (int, float) and math.isfinite(cell)
                           for cell in numbers), argv
            else:
                assert code == 2 and captured.out == "", (argv, code, captured.err)
                error = json.loads(captured.err)["error"]
                assert error["type"] == "validation", argv
                assert any(re.match(pattern, error["message"]) for pattern in _FUZZ_MESSAGES), \
                    (argv, error["message"])
        assert exits.count(0) > count // 2
