import json

import pytest

from catwalk import cli
from catwalk.special import QuadratureError

TABLE1_ROW0 = (0.04516, 0.04588, 0.01593, 0.04552, 0.04588, 0.00793, 0.04581, 0.04588, 0.00158)


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
        assert cli._parse_grid(3) == (3.0,)
        assert cli._parse_grid([1, 2]) == (1.0, 2.0)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            cli._parse_grid("0:1")
        with pytest.raises(ValueError):
            cli._parse_grid("0:1:-0.5")
