import ast
import gc
import hashlib
import math
import random
import types

import numpy as np
import pytest
from scipy import stats

from catwalk import discrete as d
from catwalk import diffusion as f
from catwalk import simulate as sim

SYMMETRIC = d.DiscreteParams(2.0, 2.0, 0.1, 1.0)
FIG4 = f.DiffusionParams(3.0, 1.0, 1.0, 1.0, 1.0)
#: about 930 events per path: 200 paths are drawn in 25 chunks of 8
HEAVY = d.DiscreteParams(460.0, 470.0, 1.0, 0.25)


def _config(seed=1234, reps=20_000, horizon=1.0, times=(1.0,)):
    return sim.SimConfig(seed=seed, replications=reps, horizon=horizon, observation_times=times)


def _one_path(params, cfg, replication):
    """Replication ``replication`` of the plan, drawn on its own."""
    return sim._paths(params, cfg, np.array([replication], dtype=np.uint64))[0]


def _reference_estimate(traces, t, statistic, arg=None):
    """(value, standard error) from each trace's observation tuple, one path at a time."""
    states = []
    for trace in traces:
        found = [state for when, state in trace.observations if abs(when - t) <= 1e-12 * max(1.0, t)]
        if not found:
            raise ValueError(f"time {t} is not observed")
        states.append(found[0])
    if statistic == "failure-probability":
        values = [1.0 if s == sim.FAILED else 0.0 for s in states]
    elif statistic == "state-probability":
        values = [1.0 if s == arg else 0.0 for s in states]
    elif statistic == "cdf":
        values = [1.0 if s != sim.FAILED and s <= arg else 0.0 for s in states]
    else:
        values = [0.0 if s == sim.FAILED else float(s) for s in states]
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    if statistic == "truncated-variance":
        fourth = math.fsum((v - mean) ** 4 for v in values) / n
        return var, math.sqrt(max(fourth - var * var, 0.0) / n)
    return mean, math.sqrt(var / n)


def _reference_export(traces):
    """The record lines of an export, written one path at a time."""
    lines = []
    for trace in traces:
        lines += [f"{trace.replication}\tevent\t{when!r}\t{kind}" for when, kind in trace.events]
        lines += [f"{trace.replication}\tobs\t{when!r}\t{state!r}" for when, state in trace.observations]
    return lines


def _exported_records(traces, tmp_path, cfg):
    target = tmp_path / "traces.log"
    sim.export_traces(traces, str(target), {"model": "test"}, cfg)
    return [line for line in target.read_text().splitlines() if not line.startswith("#")]


class TestSimConfig:
    def test_rejects_zero_replications(self):
        with pytest.raises(ValueError):
            _config(reps=0)

    def test_rejects_observations_outside_horizon(self):
        with pytest.raises(ValueError):
            _config(times=(0.5, 2.0))
        with pytest.raises(ValueError):
            _config(times=(0.0, 1.0))

    def test_rejects_unsorted_observations(self):
        with pytest.raises(ValueError):
            _config(times=(0.8, 0.4))

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, -1.0])
    def test_rejects_a_horizon_that_is_not_finite_and_positive(self, horizon):
        # an infinite horizon used to reach the cycle budget and overflow there
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            _config(horizon=horizon)

    def test_rejects_empty_observations(self):
        with pytest.raises(ValueError):
            _config(times=())

    def test_rejects_fractional_seed(self):
        # a float seed would silently run the streams of its integer part
        with pytest.raises(ValueError):
            _config(seed=1.5)

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_rejects_a_seed_outside_64_unsigned_bits(self, seed):
        with pytest.raises(ValueError, match="64 unsigned bits"):
            _config(seed=seed)

    def test_rejects_boolean_replications(self):
        with pytest.raises(ValueError):
            _config(reps=True)

    def test_rejects_fractional_replications(self):
        with pytest.raises(ValueError):
            _config(reps=2.5)

    def test_normalises_integral_numpy_values(self):
        cfg = _config(seed=np.uint64(7), reps=np.int64(3))
        assert type(cfg.seed) is int and type(cfg.replications) is int
        assert len(list(sim.simulate_discrete(SYMMETRIC, cfg))) == 3


class TestGenerator:
    @pytest.mark.parametrize(
        "counter, key, expected",
        [
            ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
            ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
            (
                (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
                (0xA4093822, 0x299F31D0),
                (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
            ),
        ],
    )
    def test_philox_known_answers(self, counter, key, expected):
        # Random123 known-answer vectors of Philox4x32-10
        assert tuple(int(word) for word in sim._philox(counter, key)) == expected

    def test_philox_on_broadcast_counters(self):
        # _uniforms passes a (1, D) index, a scalar stream and (R, 1) row
        # words; each (row, draw) must get the words of its counter alone,
        # and its two uniforms must be made from those words
        seed, stream, draws = 0x0123456789ABCDEF, sim._MOVES, 5
        replications = np.array([0, 1, 2**32 - 1, 2**32 + 5, 2**64 - 1], dtype=np.uint64)
        rows = replications[:, None]
        index = np.arange(draws, dtype=np.uint64)[None, :]
        key = (seed & 0xFFFFFFFF, seed >> 32)
        counters = (index, stream, rows & sim._WORD, rows >> 32)
        words = [np.asarray(word) for word in sim._philox(counters, key)]
        u, v = sim._uniforms(seed, replications, stream, draws)
        for r, replication in enumerate(replications.tolist()):
            for k in range(draws):
                counter = (k, stream, replication & 0xFFFFFFFF, replication >> 32)
                alone = [int(word) for word in sim._philox(counter, key)]
                assert [int(word[r, k]) for word in words] == alone
                c0, c1, c2, c3 = alone
                assert u[r, k] == (((c0 >> 5) << 26) + (c1 >> 6) + 1) * 2.0**-53
                assert v[r, k] == (((c2 >> 5) << 26) + (c3 >> 6) + 1) * 2.0**-53

    @pytest.mark.parametrize(
        "params",
        [d.DiscreteParams(3.0, 2.0, 1.0, 2.0), f.DiffusionParams(3.0, 1.0, 1.0, 1.0, 2.0)],
        ids=["lattice", "diffusion"],
    )
    def test_paths_do_not_depend_on_the_chunking(self, params):
        cfg = _config(reps=30, horizon=3.0, times=(0.5, 1.5, 3.0))
        indices = np.arange(cfg.replications, dtype=np.uint64)
        whole = sim._paths(params, cfg, indices)
        assert sum(len(trace.events) for trace in whole) > 30
        for size in (1, 7):
            chunked = [trace for first in range(0, cfg.replications, size)
                       for trace in sim._paths(params, cfg, indices[first:first + size])]
            assert chunked == whole
        simulate = sim.simulate_discrete if isinstance(params, d.DiscreteParams) else sim.simulate_diffusion
        assert list(simulate(params, cfg)) == whole


class TestPathStreamDigests:
    """sha256 of the events and observations of fixed batches, and of one
    trace export.  The chunking and order tests compare the sampler with
    itself; these hold it to the stream it drew when they were written, so a
    change that alters every path alike shows here.  The digests are never
    regenerated to make a change pass."""

    CASES = {
        "symmetric": (SYMMETRIC, dict(seed=51, reps=4000, horizon=1.0, times=(1.0,))),
        "heavy": (HEAVY, dict(seed=52, reps=200, horizon=1.0, times=(1.0,))),
        "no-catastrophes": (d.DiscreteParams(2.0, 1.0, 0.0, 1.0),
                            dict(seed=53, reps=500, horizon=2.0, times=(1.0, 2.0))),
        "five-times": (d.DiscreteParams(2.0, 1.0, 2.0, 3.0),
                       dict(seed=54, reps=600, horizon=4.0, times=(0.5, 1.0, 2.0, 3.0, 4.0))),
        "tiny-horizon": (SYMMETRIC, dict(seed=55, reps=4000, horizon=1e-12, times=(1e-12,))),
        "fig4": (FIG4, dict(seed=56, reps=4000, horizon=2.0, times=(0.5, 1.0, 2.0))),
        # frequent restarts between 40 observation times, over several chunks
        "restarts": (f.DiffusionParams(3.0, 1.0, 1.0, 4.0, 4.0),
                     dict(seed=57, reps=500, horizon=4.0, times=tuple(k / 10 for k in range(1, 41)))),
        # an empty skeleton: every observation chains from the one before
        "diffusion-no-catastrophes": (f.DiffusionParams(3.0, 1.0, 1.0, 0.0, 1.0),
                                      dict(seed=58, reps=500, horizon=3.0,
                                           times=(0.25, 0.5, 1.0, 2.0, 3.0))),
    }
    DIGESTS = {
        "symmetric": "085a10f221db5d43cc01fab7a54755c0e66c27d4ed193d06f3c4f95ca6246cc8",
        "heavy": "d5873730b3896d34e73f249005549c89dad88b66a32293beff1b5d2b2a1f0eb5",
        "no-catastrophes": "e5f0680f73e0ed5f64a6136a2329eca926dfa895f731015c381247e50bd0181c",
        "five-times": "654fe31c0039620126838ab9bcdba040b6ecf6af701fbc1940a65d7c21cbccce",
        "tiny-horizon": "e06960a4cd628dbfc7c1c7a3f7fa7cec3d3a573e6fbb45495bd9c47d3d8c6aa0",
        "fig4": "0a2400d1ada97966f0af1bea6abb08af17edfcf9f0f0b4bcf874adb659093109",
        "restarts": "0f61c3510396c7f0e622dd23a589240cd669b96a786b5dd494a236f0ac0a56e5",
        "diffusion-no-catastrophes": "c97e59f1bfee639296df39a5c81261308d2e2081a8ff7f53a72b75a4e7b4a336",
    }
    EXPORT_DIGEST = "9b2d2ae8e6c23fd158d25a2043eb42fddb627c3c225f371bf7c0e2acd22927d1"
    #: every statistic at t = 0 and at each observed time of "five-times",
    #: "fig4", "restarts" and a one-path batch of each model
    ESTIMATE_DIGEST = "d29ef6f22f9291d9c83d4a68bb0d0f0bf97f2050eb2115d5f42856adcecc2095"
    ESTIMATE_CASES = {
        "five-times": CASES["five-times"],
        "fig4": CASES["fig4"],
        "restarts": CASES["restarts"],
        "one-lattice-path": (CASES["five-times"][0], {**CASES["five-times"][1], "reps": 1}),
        "one-diffusion-path": (FIG4, {**CASES["fig4"][1], "reps": 1}),
    }

    @staticmethod
    def _traces(name, cases=CASES):
        params, plan = cases[name]
        simulate = sim.simulate_discrete if isinstance(params, d.DiscreteParams) else sim.simulate_diffusion
        cfg = _config(**plan)
        return list(simulate(params, cfg)), cfg

    @pytest.mark.parametrize("name", list(CASES))
    def test_paths_match_the_pinned_stream(self, name):
        traces, _ = self._traces(name)
        digest = hashlib.sha256()
        for trace in traces:
            digest.update(repr((trace.replication, trace.events, trace.observations)).encode())
        assert digest.hexdigest() == self.DIGESTS[name]

    def test_export_matches_the_pinned_file(self, tmp_path):
        traces, cfg = self._traces("five-times")
        target = tmp_path / "traces.log"
        sim.export_traces(traces, str(target), {"model": "discrete"}, cfg)
        assert hashlib.sha256(target.read_bytes()).hexdigest() == self.EXPORT_DIGEST

    def test_estimates_match_the_pinned_values(self):
        digest = hashlib.sha256()
        for name, (params, _) in self.ESTIMATE_CASES.items():
            traces, cfg = self._traces(name, self.ESTIMATE_CASES)
            statistics = [("failure-probability", None), ("truncated-mean", None),
                          ("truncated-variance", None), ("cdf", 0.0), ("cdf", 0.5), ("cdf", -1.5)]
            if isinstance(params, d.DiscreteParams):
                statistics += [("state-probability", n) for n in (-1, 0, 1, 2)]
            for t in (0.0, *cfg.observation_times):
                for statistic, arg in statistics:
                    est = sim.estimate(traces, t, statistic, arg)
                    digest.update(repr((t, statistic, arg, est.value, est.standard_error,
                                        est.replications)).encode())
        assert digest.hexdigest() == self.ESTIMATE_DIGEST


class TestObservationTypes:
    def test_states_are_python_values(self):
        p = d.DiscreteParams(2.0, 1.0, 1.0, 1.0)
        cfg = _config(reps=200, horizon=2.0, times=(1.0, 2.0))
        for model, traces in (("lattice", sim.simulate_discrete(p, cfg)),
                              ("diffusion", sim.simulate_diffusion(FIG4, cfg))):
            allowed = int if model == "lattice" else float
            kinds = set()
            for trace in traces:
                assert all(type(when) is float and type(kind) is str for when, kind in trace.events)
                for when, state in trace.observations:
                    assert type(when) is float
                    assert state == sim.FAILED or type(state) is allowed
                    kinds.add(type(state))
            assert kinds == {allowed, str}

    def test_exported_observations_parse_back(self, tmp_path):
        cfg = _config(reps=50, horizon=2.0, times=(1.0, 2.0))
        for model, traces in (("lattice", list(sim.simulate_discrete(SYMMETRIC, cfg))),
                              ("diffusion", list(sim.simulate_diffusion(FIG4, cfg)))):
            target = tmp_path / f"{model}.log"
            sim.export_traces(traces, str(target), {"model": model}, cfg)
            parsed = {}
            for line in target.read_text().splitlines():
                if line.startswith("#"):
                    continue
                index, record, when, value = line.split("\t")
                if record == "obs":
                    parsed.setdefault(int(index), []).append((float(when), ast.literal_eval(value)))
            assert parsed == {i: list(trace.observations) for i, trace in enumerate(traces)}


class TestTraceLegality:
    def test_event_times_strictly_increase(self):
        for trace in sim.simulate_discrete(SYMMETRIC, _config(reps=200, horizon=4.0, times=(4.0,))):
            times = [when for when, _ in trace.events]
            assert all(b > a for a, b in zip(times, times[1:]))

    def test_catastrophe_always_repaired_before_motion(self):
        p = d.DiscreteParams(2.0, 2.0, 2.0, 3.0)
        for trace in sim.simulate_discrete(p, _config(reps=300, horizon=3.0, times=(3.0,))):
            failed = False
            for _, kind in trace.events:
                if failed:
                    assert kind == "repair_done"
                    failed = False
                elif kind == "catastrophe":
                    failed = True

    @pytest.mark.parametrize(
        "params",
        [d.DiscreteParams(2.0, 1.0, 1.0, 2.0), f.DiffusionParams(3.0, 1.0, 1.0, 1.0, 2.0)],
        ids=["lattice", "diffusion"],
    )
    def test_state_restarts_at_zero_after_repair(self, params):
        # a diffusion level is not replayed from the events, only its failure flag
        lattice = isinstance(params, d.DiscreteParams)
        simulate = sim.simulate_discrete if lattice else sim.simulate_diffusion
        cfg = _config(reps=300, horizon=2.0, times=(0.5, 1.0, 1.5, 2.0))
        flags = set()
        for trace in simulate(params, cfg):
            state, failed = 0, False
            position = 0
            log = list(trace.events)
            for when, observed in trace.observations:
                while position < len(log) and log[position][0] <= when:
                    kind = log[position][1]
                    if kind == "up":
                        state += 1
                    elif kind == "down":
                        state -= 1
                    elif kind == "catastrophe":
                        failed = True
                    else:
                        failed, state = False, 0
                    position += 1
                flags.add(failed)
                if lattice or failed:
                    assert observed == (sim.FAILED if failed else state)
                else:
                    assert type(observed) is float
        assert flags == {False, True}

    def test_no_catastrophes_without_rate(self):
        p = d.DiscreteParams(2.0, 1.0, 0.0, 1.0)
        for trace in sim.simulate_discrete(p, _config(reps=100)):
            assert all(kind in ("up", "down") for _, kind in trace.events)
        dp = f.DiffusionParams(3.0, 1.0, 1.0, 0.0, 1.0)
        for trace in sim.simulate_diffusion(dp, _config(reps=100)):
            assert trace.events == ()


class TestDeterminism:
    def test_runs_are_bit_identical(self):
        cfg = _config(reps=50, times=(0.5, 1.0))
        first = list(sim.simulate_discrete(SYMMETRIC, cfg))
        second = list(sim.simulate_discrete(SYMMETRIC, cfg))
        assert first == second

    def test_replications_are_order_independent(self):
        cfg = _config(reps=10)
        batch = list(sim.simulate_discrete(SYMMETRIC, cfg))
        # drawing replication 7 on its own gives the same path as in the batch
        alone = _one_path(SYMMETRIC, cfg, 7)
        assert alone == batch[7]

    def test_short_budgets_are_doubled_without_changing_the_paths(self, monkeypatch):
        # with the sqrt that sizes the budgets patched to 0, the skeleton's
        # cycles and the moves' draws start at their bare means, which some of
        # 200 paths exceed, so both loops draw again at twice the size
        cfg = _config(reps=200, horizon=5.0, times=(2.5, 5.0))
        rows = np.arange(200, dtype=np.uint64)
        plain = sim._paths(SYMMETRIC, cfg, rows)
        sizes = {sim._SKELETON: [], sim._MOVES: []}
        uniforms = sim._uniforms

        def counted(seed, replications, stream, draws):
            sizes[stream].append(draws)
            return uniforms(seed, replications, stream, draws)

        monkeypatch.setattr(sim, "_uniforms", counted)
        unbudgeted = types.SimpleNamespace(**{**vars(math), "sqrt": lambda x: 0.0})
        monkeypatch.setattr(sim, "math", unbudgeted)
        assert sim._paths(SYMMETRIC, cfg, rows) == plain
        assert sizes == {sim._SKELETON: [2, 4], sim._MOVES: [24, 48]}

    def test_diffusion_runs_are_bit_identical(self):
        cfg = _config(reps=50)
        first = list(sim.simulate_diffusion(FIG4, cfg))
        second = list(sim.simulate_diffusion(FIG4, cfg))
        assert first == second


class TestPathTraceView:
    def test_two_runs_give_equal_traces_with_equal_hashes(self):
        cfg = _config(reps=40, horizon=2.0, times=(0.5, 2.0))
        for simulate, params in ((sim.simulate_discrete, SYMMETRIC), (sim.simulate_diffusion, FIG4)):
            first, second = list(simulate(params, cfg)), list(simulate(params, cfg))
            for a, b in zip(first, second):
                assert a is not b and a == b and hash(a) == hash(b)
            assert len(set(first) | set(second)) == len(set(first))

    def test_a_set_keeps_every_path_of_a_large_batch(self):
        # many lattice paths share their observations; their hashes must
        # still differ, or a set compares each path with all that share it
        # (an event-free path, which would equal another, has chance
        # e^{-20.5} here)
        cfg = _config(reps=4000, horizon=5.0, times=(1.0, 5.0))
        first = list(sim.simulate_discrete(SYMMETRIC, cfg))
        second = list(sim.simulate_discrete(SYMMETRIC, cfg))
        assert all(hash(a) == hash(b) for a, b in zip(first, second))
        assert len({trace.observations for trace in first}) < len(first) // 10
        assert len({hash(trace) for trace in first}) == len(first)
        assert len(set(first)) == len(first)
        assert set(first) == set(second)

    def test_different_replications_are_unequal(self):
        cfg = _config(reps=40, horizon=2.0, times=(0.5, 2.0))
        for traces in (list(sim.simulate_discrete(SYMMETRIC, cfg)),
                       list(sim.simulate_diffusion(FIG4, cfg))):
            assert [trace.replication for trace in traces] == list(range(40))
            assert len(set(traces)) == 40
            assert all(a != b for a, b in zip(traces, traces[1:]))

    def test_equality_and_repr(self):
        trace = _one_path(SYMMETRIC, _config(reps=10), 3)
        assert trace == trace
        assert (trace == 5) is False and trace != 5
        assert repr(trace).startswith("PathTrace(replication=3, events=")

    def test_repeated_reads_give_equal_tuples(self):
        for trace in sim.simulate_discrete(SYMMETRIC, _config(reps=30, horizon=3.0, times=(1.0, 3.0))):
            events, observations = trace.events, trace.observations
            assert type(events) is tuple and type(observations) is tuple
            assert trace.events == events and trace.observations == observations

    def test_views_are_read_only(self):
        trace = _one_path(SYMMETRIC, _config(reps=10), 3)
        for name in ("events", "observations", "replication"):
            with pytest.raises(AttributeError):
                setattr(trace, name, ())
        with pytest.raises(AttributeError):
            trace.label = "x"

    def test_one_path_diffusion_call_equals_the_batch_path(self):
        cfg = _config(reps=12, horizon=3.0, times=(0.5, 1.5, 3.0))
        batch = list(sim.simulate_diffusion(FIG4, cfg))
        alone = _one_path(FIG4, cfg, 9)
        assert alone == batch[9] and hash(alone) == hash(batch[9])
        assert alone.events == batch[9].events and alone.observations == batch[9].observations
        assert alone.replication == 9


class TestArraysAgainstScalarReference:
    """estimate and export_traces read arrays; here they meet a path-by-path reference."""

    STATISTICS = [("failure-probability", None), ("truncated-mean", None),
                  ("truncated-variance", None), ("state-probability", 1), ("cdf", 0.5)]

    @pytest.fixture(params=[1, sim._BLOCK_CHUNKS], ids=["block-per-chunk", "default-blocks"])
    def batches(self, request, monkeypatch):
        monkeypatch.setattr(sim, "_BLOCK_CHUNKS", request.param)
        wide = _config(seed=31, reps=600, horizon=2.0, times=(0.5, 1.0, 2.0))
        short = _config(seed=32, reps=150, horizon=1.0, times=(1.0,))
        heavy = _config(seed=33, reps=200)
        return {
            "wide": (list(sim.simulate_discrete(SYMMETRIC, wide)), wide),
            "short": (list(sim.simulate_discrete(SYMMETRIC, short)), short),
            "heavy": (list(sim.simulate_discrete(HEAVY, heavy)), heavy),
        }

    @staticmethod
    def _orders(traces):
        shuffled = list(traces)
        random.Random(5).shuffle(shuffled)
        return {"forward": traces, "reversed": traces[::-1], "shuffled": shuffled,
                "strided": traces[1::3], "generator": (trace for trace in traces)}

    def _check_estimates(self, traces, t):
        for statistic, arg in self.STATISTICS:
            reference = _reference_estimate(traces, t, statistic, arg)
            est = sim.estimate(traces, t, statistic, arg)
            assert (est.value, est.standard_error) == pytest.approx(reference, rel=1e-12, abs=1e-15)
            assert est.replications == len(traces)

    def test_estimates_in_any_order(self, batches):
        for name in ("wide", "heavy"):
            traces, cfg = batches[name]
            for order, given in self._orders(traces).items():
                listed = list(given)
                for t in cfg.observation_times:
                    self._check_estimates(listed, t)
                if order == "generator":
                    est = sim.estimate((trace for trace in traces), 1.0, "truncated-mean")
                    assert est == sim.estimate(traces, 1.0, "truncated-mean")

    def test_batches_with_different_grids(self, batches):
        wide, short = batches["wide"][0], batches["short"][0]
        joined = wide[::2] + short + wide[1::2]
        self._check_estimates(joined, 1.0)
        for missing in (0.5, 2.0):
            with pytest.raises(ValueError, match="not among the observation times"):
                sim.estimate(joined, missing, "truncated-mean")
        with pytest.raises(ValueError):
            _reference_estimate(joined, 0.5, "truncated-mean")

    def test_exports_in_any_order(self, batches, tmp_path):
        for name, (traces, cfg) in batches.items():
            for order, given in self._orders(traces).items():
                if name == "heavy" and order not in ("forward", "shuffled"):
                    continue  # 186k events per export: two orders cover both index paths
                listed = list(given)
                records = _exported_records(iter(listed) if order == "generator" else listed, tmp_path, cfg)
                assert records == _reference_export(listed), (name, order)
        wide, cfg = batches["wide"]
        joined = wide[::2] + batches["short"][0] + wide[1::2]
        assert _exported_records(joined, tmp_path, cfg) == _reference_export(joined)

    def test_export_spans_several_writes(self, batches, tmp_path, monkeypatch):
        monkeypatch.setattr(sim, "_EXPORT_RECORDS", 1000)
        traces, cfg = batches["heavy"]
        assert _exported_records(traces[::-1], tmp_path, cfg) == _reference_export(traces[::-1])


def _swap(i, j):
    def change(traces, other):
        traces[i], traces[j] = traces[j], traces[i]
    return change


def _replace(i):
    def change(traces, other):
        traces[i] = other[i]
    return change


class TestGatheredLayout:
    """estimate and export_traces keep a list's layout on its first trace;
    here the list changes in place between calls."""

    CHANGES = {
        "swap": _swap(3, 10),
        "swap-first": _swap(0, 1),
        "replace-from-another-batch": _replace(5),
        "append": lambda traces, other: traces.append(other[0]),
        "truncate": lambda traces, other: traces.__delitem__(slice(100, None)),
        "reverse": lambda traces, other: traces.reverse(),
    }

    @pytest.fixture(scope="class")
    def batches(self):
        # the batches differ in seed and grid, and both observe t = 1
        wide = list(sim.simulate_discrete(SYMMETRIC, _config(seed=41, reps=300, horizon=2.0,
                                                             times=(0.5, 1.0, 2.0))))
        other = list(sim.simulate_discrete(SYMMETRIC, _config(seed=42, reps=100)))
        return wide, other

    @staticmethod
    def _check(traces):
        for statistic, arg in TestArraysAgainstScalarReference.STATISTICS:
            est = sim.estimate(traces, 1.0, statistic, arg)
            reference = _reference_estimate(traces, 1.0, statistic, arg)
            assert (est.value, est.standard_error) == pytest.approx(reference, rel=1e-12, abs=1e-15)
            assert est.replications == len(traces)

    @pytest.mark.parametrize("change", list(CHANGES))
    def test_estimates_follow_a_list_changed_in_place(self, batches, change, tmp_path):
        wide, other = batches
        traces = list(wide)
        self._check(traces)
        self.CHANGES[change](traces, other)
        self._check(traces)
        self._check(traces)
        assert _exported_records(traces, tmp_path, _config()) == _reference_export(traces)
        traces.clear()
        with pytest.raises(ValueError, match="no traces"):
            sim.estimate(traces, 1.0, "truncated-mean")

    def test_lists_that_share_a_first_trace(self, batches):
        wide, _ = batches
        first, second = wide[:200], wide[:1] + wide[150:]
        for _ in range(3):
            self._check(first)
            self._check(second)

    def test_a_generator_reads_the_kept_layout(self, batches):
        wide, _ = batches
        traces = wide[::2]
        self._check(traces)
        est = sim.estimate((trace for trace in traces), 1.0, "truncated-mean")
        assert est == sim.estimate(traces, 1.0, "truncated-mean")

    def test_export_after_estimates(self, batches, tmp_path):
        wide, other = batches
        for traces in (list(wide), wide[1::3] + other[::2]):
            self._check(traces)
            assert _exported_records(traces, tmp_path, _config()) == _reference_export(traces)

    def test_equal_paths_of_another_replication_or_model(self, tmp_path):
        # a memo compares lists by equality; its hits must not stand in one
        # path for another of equal events and observations
        cfg = _config(seed=45, reps=50, times=(1.0,))
        frozen = list(sim.simulate_discrete(SYMMETRIC, _config(seed=45, reps=50, horizon=1e-12,
                                                               times=(1e-12,))))
        assert frozen[3].events == frozen[4].events == ()
        assert frozen[3].observations == frozen[4].observations
        before = sim.estimate(frozen, 1e-12, "truncated-mean")
        frozen[3] = frozen[4]
        assert _exported_records(frozen, tmp_path, cfg) == _reference_export(frozen)
        assert sim.estimate(frozen, 1e-12, "truncated-mean") == before
        # the same skeleton stream, no lattice moves: path 0 fails for good
        # before t = 1 on both models
        lattice = list(sim.simulate_discrete(d.DiscreteParams(1e-12, 1e-12, 5.0, 1e-6), cfg))
        diffusion = list(sim.simulate_diffusion(f.DiffusionParams(1.0, 1.0, 1.0, 5.0, 1e-6), cfg))
        assert lattice[0].events == diffusion[0].events and len(lattice[0].events) == 1
        assert lattice[0].observations == diffusion[0].observations == ((1.0, sim.FAILED),)
        assert lattice[0] != diffusion[0]
        sim.estimate(lattice, 1.0, "state-probability", 0)
        lattice[0] = diffusion[0]
        with pytest.raises(ValueError, match="undefined for continuous-state traces"):
            sim.estimate(lattice, 1.0, "state-probability", 0)

    def test_a_list_is_walked_once_until_it_changes(self, monkeypatch, tmp_path):
        walks = []

        def counted(traces):
            walks.append(len(traces))
            return layout(traces)

        layout = sim._layout
        monkeypatch.setattr(sim, "_layout", counted)
        traces = list(sim.simulate_discrete(SYMMETRIC, _config(seed=43, reps=400)))
        statistics = [("failure-probability", None), ("truncated-mean", None),
                      ("truncated-variance", None), ("cdf", 0.5)]
        statistics += [("state-probability", n) for n in range(-6, 6)]
        assert len(statistics) == 16

        def sixteen():
            for statistic, arg in statistics:
                sim.estimate(traces, 1.0, statistic, arg)

        sixteen()
        sim.export_traces(traces, str(tmp_path / "traces.log"), {}, _config())
        assert walks == [400]
        traces[7], traces[9] = traces[9], traces[7]
        sixteen()
        assert walks == [400, 400]
        traces.append(traces[0])  # the first trace would hold itself: no memo
        sixteen()
        assert walks == [400, 400] + [401] * 16

    def test_dropped_lists_leave_no_cycle(self, tmp_path):
        # the cyclic collector would hide a cycle; with it off, a list and its
        # blocks are freed by reference counting alone or not at all
        cfg = _config(seed=44, reps=300, horizon=2.0, times=(1.0, 2.0))
        gc.collect()
        gc.disable()
        try:
            traces = list(sim.simulate_discrete(SYMMETRIC, cfg))
            others = list(sim.simulate_diffusion(FIG4, cfg))
            for change in (lambda: None, traces.reverse, lambda: random.Random(6).shuffle(traces),
                           lambda: traces.extend(others[:5]), lambda: traces.insert(0, others[9])):
                change()
                for statistic in ("failure-probability", "truncated-mean", "truncated-variance"):
                    sim.estimate(traces, 1.0, statistic)
                    sim.estimate(traces[::-1], 1.0, statistic)
                sim.export_traces(traces, str(tmp_path / "traces.log"), {}, cfg)
            del traces, others, change
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDiscreteAgainstAnalytic:
    def test_failure_probability(self):
        p = d.DiscreteParams(1.0, 1.0, 1.0, 1.0)
        traces = sim.simulate_discrete(p, _config(seed=101, reps=20_000))
        est = sim.estimate(traces, 1.0, "failure-probability")
        target = d.failure_probability(p, 1.0)
        assert abs(est.value - target) <= 3.0 * est.standard_error

    def test_truncated_mean(self):
        p = d.DiscreteParams(2.0, 1.0, 0.5, 1.0)
        traces = sim.simulate_discrete(p, _config(seed=202, reps=20_000))
        est = sim.estimate(traces, 1.0, "truncated-mean")
        assert abs(est.value - d.mean_transient(p, 1.0)) <= 3.0 * est.standard_error

    def test_steady_regime_state_probability(self):
        p = d.DiscreteParams(2.0, 1.0, 1.0, 1.0)
        cfg = _config(seed=303, reps=2_000, horizon=200.0, times=(200.0,))
        traces = sim.simulate_discrete(p, cfg)
        est = sim.estimate(traces, 200.0, "state-probability", 0)
        assert abs(est.value - d.steady_state(p, 0)) <= 3.0 * est.standard_error

    def test_chi_square_fit_of_the_transient_law(self):
        # fixed-seed regression over the window [-8, 8] plus F plus the rest
        cfg = _config(seed=987654321, reps=100_000)
        states = [tr.observations[0][1] for tr in sim.simulate_discrete(SYMMETRIC, cfg)]
        categories = list(range(-8, 9)) + [sim.FAILED, "other"]
        counts = dict.fromkeys(categories, 0)
        for state in states:
            if state == sim.FAILED:
                counts[sim.FAILED] += 1
            elif isinstance(state, int) and -8 <= state <= 8:
                counts[state] += 1
            else:
                counts["other"] += 1
        expected = {n: d.transient_probability(SYMMETRIC, n, 1.0) for n in range(-8, 9)}
        expected[sim.FAILED] = d.failure_probability(SYMMETRIC, 1.0)
        expected["other"] = 1.0 - sum(expected.values())
        observed = np.array([counts[c] for c in categories], dtype=float)
        reference = np.array([expected[c] * cfg.replications for c in categories])
        _, p_value = stats.chisquare(observed, reference)
        assert p_value > 0.001


class TestDiffusionAgainstAnalytic:
    def test_pure_wiener_marginal(self):
        dp = f.DiffusionParams(3.0, 1.0, 1.5, 0.0, 1.0)
        traces = list(sim.simulate_diffusion(dp, _config(seed=404, reps=20_000)))
        mean = sim.estimate(traces, 1.0, "truncated-mean")
        var = sim.estimate(traces, 1.0, "truncated-variance")
        assert abs(mean.value - dp.drift) <= 3.0 * mean.standard_error
        assert abs(var.value - dp.sigma2) <= 3.0 * var.standard_error

    def test_reference_failure_mass_and_mean(self):
        traces = list(sim.simulate_diffusion(FIG4, _config(seed=505, reps=20_000)))
        q = sim.estimate(traces, 1.0, "failure-probability")
        mean = sim.estimate(traces, 1.0, "truncated-mean")
        assert abs(q.value - 0.432332) <= 3.0 * q.standard_error
        assert abs(mean.value - 0.865) <= 3.0 * mean.standard_error

    def test_cdf_estimate(self):
        traces = list(sim.simulate_diffusion(FIG4, _config(seed=606, reps=20_000)))
        est = sim.estimate(traces, 1.0, "cdf", 0.0)
        # P(X(1) <= 0, on) from the transient density
        expected, _ = __import__("scipy.integrate", fromlist=["quad"]).quad(
            lambda x: f.transient_density(FIG4, x, 1.0), -12.0, 0.0
        )
        assert abs(est.value - expected) <= 3.0 * est.standard_error


class TestDiffusionJointLaw:
    def test_wiener_covariance_across_observation_times(self):
        # an observation drawn independently of the previous one would give 0
        dp = f.DiffusionParams(3.0, 1.0, 1.5, 0.0, 1.0)
        traces = sim.simulate_diffusion(dp, _config(seed=808, reps=20_000, times=(0.5, 1.0)))
        x = np.array([[state for _, state in trace.observations] for trace in traces])
        products = (x[:, 0] - x[:, 0].mean()) * (x[:, 1] - x[:, 1].mean())
        se = products.std(ddof=1) / np.sqrt(len(products))
        assert abs(products.mean() - dp.sigma2 * 0.5) <= 3.0 * se

    def test_increment_without_events_is_gaussian(self):
        traces = sim.simulate_diffusion(FIG4, _config(seed=909, reps=20_000, times=(0.5, 1.0)))
        increments = []
        for trace in traces:
            (_, first), (_, second) = trace.observations
            quiet = not any(0.5 < when <= 1.0 for when, _ in trace.events)
            if first != sim.FAILED and quiet:
                increments.append(second - first)
        assert len(increments) > 5_000
        spread = np.sqrt(FIG4.sigma2 * 0.5)
        assert stats.kstest(increments, "norm", args=(FIG4.drift * 0.5, spread)).pvalue > 0.001


class TestEstimate:
    def test_single_replication_has_no_standard_error(self):
        traces = sim.simulate_discrete(SYMMETRIC, _config(reps=1))
        est = sim.estimate(traces, 1.0, "truncated-mean")
        assert est.standard_error is None
        assert est.replications == 1

    def test_time_zero_is_exact(self):
        # every path starts operating at 0, on either model; one path has no
        # standard error
        cases = [("failure-probability", None, 0.0), ("truncated-mean", None, 0.0),
                 ("truncated-variance", None, 0.0), ("cdf", 0.0, 1.0), ("cdf", 0.5, 1.0),
                 ("cdf", -0.5, 0.0)]
        lattice_cases = [("state-probability", 0, 1.0), ("state-probability", 1, 0.0),
                         ("state-probability", -1, 0.0)]
        for reps, error in ((5, 0.0), (1, None)):
            cfg = _config(reps=reps)
            runs = [(sim.simulate_discrete(SYMMETRIC, cfg), cases + lattice_cases),
                    (sim.simulate_diffusion(FIG4, cfg), cases)]
            for traces, statistics in runs:
                traces = list(traces)
                for statistic, arg, value in statistics:
                    assert (sim.estimate(traces, 0.0, statistic, arg)
                            == sim.EmpiricalEstimate(value, error, reps))

    def test_state_probability_rejected_on_diffusion_traces(self):
        # at t = 0 this used to return 1.0, and at an unobserved time it
        # reported the missing time
        traces = list(sim.simulate_diffusion(FIG4, _config(reps=10)))
        for t in (1.0, 0.0, 0.25):
            with pytest.raises(ValueError, match="undefined for continuous-state traces"):
                sim.estimate(traces, t, "state-probability", 0)

    def test_unknown_statistic_rejected(self):
        traces = list(sim.simulate_discrete(SYMMETRIC, _config(reps=5)))
        with pytest.raises(ValueError):
            sim.estimate(traces, 1.0, "median")

    @pytest.mark.parametrize("statistic", ["cdf", "state-probability"])
    def test_missing_argument_rejected(self, statistic):
        traces = list(sim.simulate_discrete(SYMMETRIC, _config(reps=5)))
        with pytest.raises(ValueError, match="requires an argument"):
            sim.estimate(traces, 1.0, statistic)

    def test_missing_time_rejected(self):
        traces = list(sim.simulate_discrete(SYMMETRIC, _config(reps=5)))
        with pytest.raises(ValueError):
            sim.estimate(traces, 0.25, "failure-probability")

    def test_no_traces_rejected(self):
        # this used to return nan after a RuntimeWarning
        for t in (0.0, 1.0):
            with pytest.raises(ValueError, match="no traces"):
                sim.estimate([], t, "failure-probability")
            with pytest.raises(ValueError, match="no traces"):
                sim.estimate(iter(()), t, "truncated-mean")

    def test_non_integral_state_rejected(self):
        # this used to return 0.0: no lattice state equals 0.5
        traces = list(sim.simulate_discrete(SYMMETRIC, _config(reps=50)))
        for arg in (0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="integer state"):
                sim.estimate(traces, 1.0, "state-probability", arg)
        assert (sim.estimate(traces, 1.0, "state-probability", 1.0)
                == sim.estimate(traces, 1.0, "state-probability", 1))

    def test_nan_threshold_rejected(self):
        # this used to return 0.0: every comparison with nan is false
        traces = list(sim.simulate_diffusion(FIG4, _config(reps=50)))
        for t in (0.0, 1.0):
            with pytest.raises(ValueError, match="nan"):
                sim.estimate(traces, t, "cdf", float("nan"))

    def test_cdf_on_discrete_traces(self):
        traces = list(sim.simulate_discrete(SYMMETRIC, _config(seed=707, reps=5_000)))
        est = sim.estimate(traces, 1.0, "cdf", 0.0)
        expected = sum(d.transient_probability(SYMMETRIC, n, 1.0) for n in range(-30, 1))
        assert abs(est.value - expected) <= 3.0 * est.standard_error


class TestExport:
    def test_round_trip_structure(self, tmp_path):
        cfg = _config(reps=4, times=(0.5, 1.0))
        traces = list(sim.simulate_discrete(SYMMETRIC, cfg))
        target = tmp_path / "traces.log"
        sim.export_traces(traces, str(target), {"model": "discrete", "lam": 2.0}, cfg)
        lines = target.read_text().splitlines()
        assert lines[0] == "# catwalk-traces v1"
        assert lines[1].startswith("# params ")
        assert "seed 1234" in lines[2]
        records = [line.split("\t") for line in lines if not line.startswith("#")]
        events = sum(1 for r in records if r[1] == "event")
        observations = sum(1 for r in records if r[1] == "obs")
        assert events == sum(len(t.events) for t in traces)
        assert observations == sum(len(t.observations) for t in traces)

    def test_records_carry_the_replication_index(self, tmp_path):
        cfg = _config(reps=30, horizon=2.0, times=(1.0, 2.0))
        traces = list(sim.simulate_discrete(SYMMETRIC, cfg))
        records = _exported_records(traces[::3], tmp_path, cfg)
        assert records == _reference_export(traces[::3])
        assert {int(line.split("\t")[0]) for line in records} == set(range(0, 30, 3))
        alone = _one_path(SYMMETRIC, cfg, 7)
        records = _exported_records([alone], tmp_path, cfg)
        assert records == _reference_export([traces[7]])
        assert {line.split("\t")[0] for line in records} == {"7"}

    def test_no_traces_write_the_header_only(self, tmp_path):
        cfg = _config(reps=4)
        target = tmp_path / "traces.log"
        sim.export_traces([], str(target), {"model": "discrete"}, cfg)
        assert target.read_text().splitlines() == [
            "# catwalk-traces v1",
            '# params {"model": "discrete"}',
            "# seed 1234 replications 4 horizon 1.0",
        ]
