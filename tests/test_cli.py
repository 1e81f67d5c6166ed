import json
import math
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import catwalk
from catwalk import cli
from catwalk.special import QuadratureError
from oracles import table_by_cells

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

#: cells of every type a table may hold, floats at the edges of %.6g and repr
CELLS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 123456.5, 999999.5, 1 / 3,
         -2.5e-7, 0, -7, 2**70, -(10**20), None, True, False, "", "plain", "a,b", 'say "x"',
         "two\nlines", "cr\rlf", "50%", "%s%d"]
NAMES = ["t", "n", "", "x,y", 'q"', "two\nlines"]


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
            width, height = rng.randint(1, 4), rng.randint(0, 6)
            columns = [rng.choice(NAMES) for _ in range(width)]
            rows = [[rng.choice(CELLS) for _ in range(width)] for _ in range(height)]
            expected = table_by_cells(columns, rows, self.PARAMS, fmt, full, decimals)
            assert _written(tmp_path, columns, rows, self.PARAMS, fmt, full, decimals) == expected

    TABLES = {
        "empty": (["t", "x"], []),
        "one-column": (["n"], [[1.5], [None], [""], [3], ["a,b"]]),
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

    @pytest.mark.parametrize("columns,rows", [([], []), (["t", "x"], [(1.0, 2.0), (1.0,)])])
    def test_a_row_must_fill_the_columns(self, tmp_path, columns, rows):
        with pytest.raises(ValueError, match="one cell for each of"):
            _written(tmp_path, columns, rows, self.PARAMS, "csv", False, None)

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

        gather, sizes = sim._gather, []

        def counted(traces):
            sizes.append(len(traces))
            return gather(traces)

        monkeypatch.setattr(sim, "_gather", counted)
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
    @pytest.mark.parametrize("time", ["inf", "nan"])
    def test_diffusion_time_is_checked_before_the_grid(self, capsys, x_grid, time):
        argv = ["transient", "--model", "diffusion", *DIFFUSION, "--t-grid", f"1,{time}", *x_grid]
        assert run(argv) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "validation"
        assert error["message"] == f"time must be finite and positive, got {time}"

    def test_diffusion_at_a_huge_time_does_not_overflow(self, capsys):
        # RuntimeWarning is an error in this suite
        argv = ["transient", "--model", "diffusion", *DIFFUSION, "--t-grid", "1,1e300"]
        assert run(argv) == 0
        assert capsys.readouterr().err == ""


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
#: SciPy modules then loaded and whether NumPy was
_COLD_START = """
import json, os, sys
import catwalk, catwalk.cli
argv = json.loads(sys.argv[1])
if argv:
    assert catwalk.cli.main(argv + ["--out", os.devnull]) == 0
exec(sys.argv[2])
print(json.dumps([sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
                  "numpy" in sys.modules]))
"""


def _cold_start(argv, code: str = "") -> tuple[set, bool]:
    src = str(Path(catwalk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", _COLD_START, json.dumps(argv), code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    scipy, numpy = json.loads(done.stdout)
    return set(scipy), numpy


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
    """The closed-form commands never load NumPy; they, the simulator and the
    lattice transient law never load SciPy; the diffusion transient kernels
    load scipy.special, and no library path loads scipy.integrate."""

    @pytest.mark.parametrize("name", ["import-only", *CLOSED_FORM_RUNS])
    def test_no_numpy(self, name):
        assert _cold_start(DEFAULT_RUNS.get(name, []))[1] is False

    @pytest.mark.parametrize(
        "name", ["import-only", *(n for n in DEFAULT_RUNS if n != "transient-diffusion")]
    )
    def test_no_scipy(self, name):
        assert _cold_start(DEFAULT_RUNS.get(name, []))[0] == set()

    @pytest.mark.parametrize("name", ["transient-diffusion"])
    def test_transient_loads_special_only(self, name):
        loaded, _ = _cold_start(DEFAULT_RUNS[name])
        assert "scipy.special" in loaded
        assert "scipy.integrate" not in loaded

    def test_closed_form_laws_do_not_load_numpy(self):
        loaded, numpy = _cold_start([], _CLOSED_FORM_LAWS)
        assert loaded == set()
        assert numpy is False

    def test_slice_and_operating_mass_do_not_integrate(self):
        loaded, _ = _cold_start([], "from catwalk import diffusion as f\n"
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
    def test_every_command_runs(self, tmp_path, monkeypatch, capsys):
        commands = _readme_commands()
        assert len(commands) >= 8
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert run(argv) == 0, (argv, capsys.readouterr().err)
        capsys.readouterr()
