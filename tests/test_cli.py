import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catwalk
from catwalk import cli
from catwalk.special import QuadratureError

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
            cli._parse_stat("state-probability:2.7")
        assert cli._parse_stat("state-probability:-2.0") == ("state-probability", -2)
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

        monkeypatch.setattr("catwalk.cli.discrete.transient_distribution", explode)
        argv = [
            "transient", "--model", "discrete", "--lambda", "2", "--mu", "2",
            "--nu", "0.1", "--eta", "1", "--t", "1",
        ]
        assert run(argv) == 3
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "convergence"


class TestGridParsing:
    def test_range_and_list_forms(self):
        assert cli._parse_grid("0:2:0.5") == (0.0, 0.5, 1.0, 1.5, 2.0)
        assert cli._parse_grid("1,2.5") == (1.0, 2.5)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            cli._parse_grid("0:1")
        with pytest.raises(ValueError):
            cli._parse_grid("0:1:-0.5")


#: run in a fresh interpreter: import the CLI, optionally run one command with
#: its table sent to the null device and some library calls, and print the
#: SciPy modules then loaded
_COLD_START = """
import json, os, sys
import catwalk, catwalk.cli
argv = json.loads(sys.argv[1])
if argv:
    assert catwalk.cli.main(argv + ["--out", os.devnull]) == 0
exec(sys.argv[2])
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def _scipy_modules_after(argv, code: str = "") -> set:
    src = str(Path(catwalk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", _COLD_START, json.dumps(argv), code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


class TestColdStart:
    """The closed-form commands, the simulator and the lattice transient law
    never load SciPy; the diffusion transient kernels load scipy.special, and
    no library path loads scipy.integrate."""

    @pytest.mark.parametrize(
        "name", ["import-only", *(n for n in DEFAULT_RUNS if n != "transient-diffusion")]
    )
    def test_no_scipy(self, name):
        assert _scipy_modules_after(DEFAULT_RUNS.get(name, [])) == set()

    @pytest.mark.parametrize("name", ["transient-diffusion"])
    def test_transient_loads_special_only(self, name):
        loaded = _scipy_modules_after(DEFAULT_RUNS[name])
        assert "scipy.special" in loaded
        assert "scipy.integrate" not in loaded

    def test_slice_and_operating_mass_do_not_integrate(self):
        loaded = _scipy_modules_after([], "from catwalk import diffusion as f\n"
                                      "dp = f.DiffusionParams(3.0, 1.0, 1.0, 0.1, 1.0)\n"
                                      "f.density_slice(dp, 1.0)\n"
                                      "f.on_mass(dp, 1.0)\n")
        assert "scipy.special" in loaded
        assert "scipy.integrate" not in loaded
