"""Tests of the benchmark's own checks and steadiness mode.

Run from the root of a checkout:  python3 -m pytest perfbench
Each checker is shown a deliberately wrong value and must flag it.
"""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import steady  # noqa: E402
import workloads  # noqa: E402
from catwalk import cli, diffusion, discrete  # noqa: E402


@pytest.fixture(scope="module")
def window():
    p = discrete.DiscreteParams(2.0, 2.0, 0.1, 1.0)
    out = discrete.transient_distribution(p, 1.0)
    refs = (checks.failure_mass(p.nu, p.eta, 1.0), discrete.mean_transient(p, 1.0),
            discrete.variance_transient(p, 1.0))
    return out, refs


def test_window_check_passes_and_flags_wrong_mass(window):
    out, (failure, mean, var) = window
    assert checks.window(out.probabilities, out.tail_bound, failure, mean, var).ok
    wrong = dict(out.probabilities)
    wrong[0] += 1e-6
    verdict = checks.window(wrong, out.tail_bound, failure, mean, var)
    assert not verdict.ok and "mass defect" in verdict.detail


def test_window_check_flags_wrong_moments_and_tail(window):
    out, (failure, mean, var) = window
    assert not checks.window(out.probabilities, out.tail_bound, failure, mean + 1e-3, var).ok
    assert not checks.window(out.probabilities, out.tail_bound, failure, mean, var * 1.001).ok
    assert not checks.window(out.probabilities, 1e-9, failure, mean, var).ok


def test_slice_check_flags_wrong_mean_and_mass():
    dp = diffusion.DiffusionParams(3.0, 1.0, 1.0, 1.0, 1.0)
    out = diffusion.density_slice(dp, 1.0, n_points=201)
    failure = checks.failure_mass(dp.nu, dp.eta, 1.0)
    mean = diffusion.mean_x(dp, 1.0)
    var = diffusion.variance_x(dp, 1.0)
    args = (out.abscissas, out.values, out.tail_mass, failure, 1e-3)
    assert checks.density_slice(*args, mean, var).ok
    assert not checks.density_slice(*args, mean * 1.01, var).ok
    assert not checks.density_slice(*args, mean, var * 1.001).ok
    assert not checks.density_slice(out.abscissas, out.values * 1.01, out.tail_mass, failure,
                                    1e-3, mean, var).ok


def test_estimate_check_flags_value_many_standard_errors_away():
    assert checks.estimate(0.52, 0.01, 0.5).ok
    verdict = checks.estimate(0.60, 0.01, 0.5)
    assert not verdict.ok and verdict.z == pytest.approx(10.0)
    assert checks.estimate(0.0, 0.0, 1e-12).ok
    assert not checks.estimate(0.25, 0.0, 0.0).ok
    assert not checks.estimate(0.5, None, 0.5).ok


def test_table_check_flags_one_altered_cell(tmp_path):
    p = discrete.DiscreteParams(2.0, 1.0, 1.0, 2.0)
    path = tmp_path / "moments.csv"
    cli.main(["moments", "--lambda", "2", "--mu", "1", "--nu", "1", "--eta", "2",
              "--t-grid", "0:2:0.5", "--out", str(path)])
    text = path.read_text()
    expected = [[t, discrete.mean_transient(p, t), discrete.variance_transient(p, t)]
                for t in (0.0, 0.5, 1.0, 1.5, 2.0)]
    columns = ["t", "mean", "variance"]
    assert checks.table(text, columns, expected).ok
    wrong = [row[:] for row in expected]
    wrong[3][2] *= 1.001
    verdict = checks.table(text, columns, wrong)
    assert not verdict.ok and "row 3" in verdict.detail
    assert not checks.table(text, columns, expected[:-1]).ok
    assert not checks.table(text, ["t", "mean", "var"], expected).ok


def test_trace_file_check_flags_missing_record():
    text = "# catwalk-traces v1\n# params {}\n0\tevent\t0.5\tup\n0\tobs\t1.0\t1\n"
    assert checks.trace_file(text, 1, 1, 1).ok
    assert not checks.trace_file(text, 2, 1, 1).ok
    assert not checks.trace_file(text.replace("0.5", "half"), 1, 1, 1).ok


def test_references_agree_with_the_library_where_it_converges():
    dp = diffusion.DiffusionParams(2.0, 1.0, 0.5, 1.0, 1.0)
    for x in (0.0, 1e-3, -0.7, 2.5):
        value = diffusion.transient_density(dp, x, 3.0)
        assert workloads.density_reference(dp, x, 3.0) == pytest.approx(value, rel=1e-8)
    p = discrete.DiscreteParams(2.0, 1.5, 0.1, 1.0)
    for n in (-1, 0, 2):
        law = workloads.lattice_reference(p, n, [0.5, 4.0])
        assert law == pytest.approx([discrete.transient_probability(p, n, t) for t in (0.5, 4.0)],
                                    rel=1e-9)
    on = 1.0 - checks.failure_mass(dp.nu, dp.eta, 3.0)
    assert workloads.cdf_reference(dp, 60.0, 3.0) == pytest.approx(on, rel=1e-9)
    below = diffusion.on_mass(dp, 3.0) - workloads.cdf_reference(dp, 0.0, 3.0)
    assert below > 0.0


def test_nearest_rank_reports_samples_beyond():
    values = list(range(1, 41))
    assert run.nearest_rank(values, 75.0) == (30, 10)
    assert run.nearest_rank(values, 50.0) == (20, 20)


def _result(**overrides):
    spec = run.load_spec()
    metrics = {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in spec["end_to_end"]}
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    result.update(overrides)
    return spec, result


def test_validate_accepts_a_good_line_and_flags_wrong_values():
    spec, result = _result()
    assert steady.validate(result, spec) == []
    result["metrics"]["op_p75_ms"]["value"] = 0.0
    assert any("op_p75_ms" in p for p in steady.validate(result, spec))
    spec, result = _result()
    result["metrics"]["setup_s"]["unit"] = "ms"
    assert steady.validate(result, spec)
    spec, result = _result(correct=False)
    assert steady.validate(result, spec)
    spec, result = _result()
    del result["metrics"]["ops_per_s_p75"]
    assert steady.validate(result, spec)


def test_assess_flags_a_spread_beyond_the_bound():
    spec = run.load_spec()
    steady_values = [100.0, 101.0, 99.5, 100.4, 100.2, 99.8, 100.1, 100.3, 99.9, 100.0]
    values = {m["name"]: list(steady_values) for m in spec["end_to_end"]}
    assert all(r["flag"] == "ok" for r in steady.assess(values, spec))
    values["op_p75_ms"] = [100.0, 150.0, 60.0, 140.0, 70.0, 130.0, 100.0, 65.0, 145.0, 100.0]
    rows = {r["name"]: r for r in steady.assess(values, spec)}
    assert rows["op_p75_ms"]["flag"] == "OVER"
    median, q1, q3, share = steady.spread(values["op_p75_ms"])
    assert share == pytest.approx((q3 - q1) / median)
    assert math.isfinite(share)
    values["setup_s"] = list(values["op_p75_ms"])
    assert {r["name"]: r for r in steady.assess(values, spec)}["setup_s"]["flag"] == "OVER"


class _Op:
    label, known_defect, defect_detail = "window/strong-drift", "underflow", "tail_bound "

    def __init__(self, verdict):
        self.check = lambda out: (verdict, {})


def test_known_defect_excuses_only_its_documented_failure():
    record = run.Record()
    record.add(_Op(checks.Verdict(False, "tail_bound 1 > 1e-10, total mass 0.22")), 1, None, 0.1,
               False)
    assert (record.failed, record.unexpected) == (1, 0)
    record.add(_Op(checks.Verdict(False, "window mean 3 vs closed form 4")), 1, None, 0.1, False)
    assert (record.failed, record.unexpected) == (2, 1)
    record.add(_Op(checks.PASS), None, ValueError("boom"), 0.1, False)
    assert (record.failed, record.unexpected) == (3, 2)
