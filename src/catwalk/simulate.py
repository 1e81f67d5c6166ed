"""Event-driven simulation of both models, usable as an independent oracle.

Both models share one catastrophe/repair skeleton: alternating Exp(nu)
operating and Exp(eta) repair durations.  Lattice moves are a rate-(lam + mu)
Poisson stream of up/down marks on the operating clock, which is exact in law
by superposition; a move at operating time s happens at real time s plus the
repair time completed before it.  Diffusion paths chain exact Gaussian
increments between the observation times of each operating period and restart
at 0 after every repair, so observed marginals carry no discretization bias.

Paths are drawn as arrays over bounded chunks of replications from a NumPy
Philox4x32-10 (Salmon et al. 2011).  Its key is the seed (two 32-bit words)
and its counter is (draw index, stream, replication low word, replication high
word), so draw k of a stream of replication i depends only on (seed, i,
stream, k): a path is the same whatever the batch size, the chunking or the
order of execution, and a single (seed, index) pair always reproduces it.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .discrete import DiscreteParams
from .diffusion import DiffusionParams

__all__ = [
    "FAILED",
    "SimConfig",
    "PathTrace",
    "EmpiricalEstimate",
    "simulate_discrete",
    "simulate_diffusion",
    "estimate",
    "export_traces",
]

#: observation marker for the failure state
FAILED = "F"

State = Union[int, float, str]


def _integral(name: str, value) -> int:
    # operator.index refuses floats; a bool would pass it as 0 or 1
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SimConfig:
    """Replication plan: master seed, count, horizon and observation grid."""

    seed: int
    replications: int
    horizon: float
    observation_times: tuple[float, ...]

    def __post_init__(self) -> None:
        seed = _integral("seed", self.seed)
        replications = _integral("replications", self.replications)
        if replications < 1:
            raise ValueError("replications must be >= 1")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        times = tuple(float(t) for t in self.observation_times)
        if not times:
            raise ValueError("at least one observation time is required")
        if any(not 0.0 < t <= self.horizon for t in times):
            raise ValueError("observation times must lie in (0, horizon]")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("observation times must be strictly increasing")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "replications", replications)
        object.__setattr__(self, "observation_times", times)


@dataclass(frozen=True)
class PathTrace:
    """One simulated path: event log plus state snapshots at observation times."""

    events: tuple[tuple[float, str], ...]
    observations: tuple[tuple[float, State], ...]


@dataclass(frozen=True)
class EmpiricalEstimate:
    """Monte Carlo point estimate; ``standard_error`` is None when a single
    replication makes the spread unestimable."""

    value: float
    standard_error: Optional[float]
    replications: int


# Philox4x32-10 multipliers and Weyl key increments
_PHILOX_M = (np.uint64(0xD2511F53), np.uint64(0xCD9E8D57))
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_WORD = np.uint64(0xFFFFFFFF)

# streams of the counter's second word
_SKELETON, _MOVES, _NORMALS = 0, 1, 2

# event codes, in the order a catastrophe and its repair sort
_UP, _DOWN, _CATASTROPHE, _REPAIR = 0, 1, 2, 3
_KINDS = np.array(["up", "down", "catastrophe", "repair_done"], dtype=object)
_STEPS = np.array([1, -1, 0, 0])

# uniform draws per chunk of replications: this bounds the sampler's memory,
# and small temporaries keep the heap from growing between long-lived traces
_CHUNK_DRAWS = 1 << 13


def _philox(counter, key):
    """Philox4x32-10 of four broadcastable arrays of 32-bit counter words under
    two 32-bit key words.  Words are held in uint64, so each product is exact."""
    c0, c1, c2, c3 = (np.asarray(word, dtype=np.uint64) for word in counter)
    k0, k1 = key
    for _ in range(10):
        p0 = c0 * _PHILOX_M[0]
        p1 = c2 * _PHILOX_M[1]
        c0, c1, c2, c3 = (
            (p1 >> 32) ^ c1 ^ np.uint64(k0),
            p1 & _WORD,
            (p0 >> 32) ^ c3 ^ np.uint64(k1),
            p0 & _WORD,
        )
        k0 = (k0 + _PHILOX_W[0]) & 0xFFFFFFFF
        k1 = (k1 + _PHILOX_W[1]) & 0xFFFFFFFF
    return c0, c1, c2, c3


def _unit(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    # 53 bits from two words, mapped to (0, 1] so that log never sees 0
    bits = ((high >> 5) << 26) + (low >> 6) + np.uint64(1)
    return bits.astype(np.float64) * 2.0**-53


def _uniforms(seed: int, replications: np.ndarray, stream: int, draws: int):
    """Draws 0..draws-1 of ``stream``: two (replications, draws) arrays of
    uniforms on (0, 1], both from the one Philox block of each draw."""
    rows = replications.astype(np.uint64)[:, None]
    index = np.arange(draws, dtype=np.uint64)[None, :]
    words = _philox(
        (index, stream, rows & _WORD, rows >> 32), (seed & 0xFFFFFFFF, seed >> 32)
    )
    return _unit(words[0], words[1]), _unit(words[2], words[3])


def _skeleton(seed: int, replications: np.ndarray, nu: float, eta: float, horizon: float):
    """Catastrophe/repair cycles of each replication, up to the last
    catastrophe before the horizon in any row.

    Returns (clock, downtime, fail, back): the operating time at each
    catastrophe, the repair time completed by the end of each repair, and the
    real times of each catastrophe and of its repair.
    """
    if nu == 0.0:
        none = np.empty((len(replications), 0))
        return none, none, none, none
    cycles = int(nu * horizon + 4.0 * math.sqrt(nu * horizon)) + 2
    while True:
        u, v = _uniforms(seed, replications, _SKELETON, cycles)
        clock = np.cumsum(-np.log(u), axis=1) / nu
        downtime = np.cumsum(-np.log(v), axis=1) / eta
        before = np.concatenate([np.zeros((len(replications), 1)), downtime[:, :-1]], axis=1)
        fail = clock + before
        if (fail[:, -1] >= horizon).all():
            break
        cycles *= 2
    used = int((fail < horizon).sum(axis=1).max())
    return clock[:, :used], downtime[:, :used], fail[:, :used], (clock + downtime)[:, :used]


def _lattice(p: DiscreteParams, cfg: SimConfig, replications: np.ndarray):
    """Events and observed states of a chunk of lattice paths: (times, codes)
    sorted per row in real time, and the observations as an object array."""
    horizon, rows = cfg.horizon, len(replications)
    clock, downtime, fail, back = _skeleton(cfg.seed, replications, p.nu, p.eta, horizon)
    # operating time elapsed by the horizon, with a margin against rounding
    operating = horizon - np.clip(np.minimum(back, horizon) - fail, 0.0, None).sum(axis=1)
    need = operating + 1e-9 * horizon
    rate = p.lam + p.mu
    mean = rate * float(need.max())
    draws = int(mean + 5.0 * math.sqrt(mean)) + 4
    while True:
        u, v = _uniforms(cfg.seed, replications, _MOVES, draws)
        moves = np.cumsum(-np.log(u), axis=1) / rate
        if (moves[:, -1] >= need).all():
            break
        draws *= 2
    draws = int((moves < need[:, None]).sum(axis=1).max())
    moves = moves[:, :draws]
    marks = np.where(v[:, :draws] * rate <= p.lam, _UP, _DOWN)

    cycles = clock.shape[1]
    times = np.concatenate([moves, fail, back], axis=1)
    codes = np.concatenate(
        [marks, np.full((rows, cycles), _CATASTROPHE), np.full((rows, cycles), _REPAIR)], axis=1
    )
    if cycles:
        # each repair takes no operating time, so it sorts right after its catastrophe
        order = np.argsort(np.concatenate([moves, clock, clock], axis=1), axis=1, kind="stable")
        times = np.take_along_axis(times, order, axis=1)
        codes = np.take_along_axis(codes, order, axis=1)
        # a move after j catastrophes happens once their j repairs are done
        after = np.cumsum(codes == _CATASTROPHE, axis=1)
        shift = np.concatenate([np.zeros((rows, 1)), downtime], axis=1)
        times = times + np.where(codes <= _DOWN, np.take_along_axis(shift, after, axis=1), 0.0)

    # history[:, p] is the p-th event, the path's start counting as a restart
    history = np.concatenate([np.full((rows, 1), _REPAIR), codes], axis=1)
    level = np.cumsum(_STEPS[history], axis=1)
    restart = np.where(history == _REPAIR, np.arange(history.shape[1]), 0)
    state = level - np.take_along_axis(level, np.maximum.accumulate(restart, axis=1), axis=1)

    observed = np.empty((rows, len(cfg.observation_times)), dtype=object)
    for column, when in enumerate(cfg.observation_times):
        # events strictly before an observation time form a prefix of each row
        seen = (times < when).sum(axis=1)[:, None]
        observed[:, column] = np.take_along_axis(state, seen, axis=1)[:, 0].tolist()
        failed = np.take_along_axis(history, seen, axis=1)[:, 0] == _CATASTROPHE
        observed[failed, column] = FAILED
    return times, codes, observed


def _diffusion(dp: DiffusionParams, cfg: SimConfig, replications: np.ndarray):
    """Events and observed values of a chunk of diffusion paths, laid out as
    in :func:`_lattice`."""
    rows = len(replications)
    _, _, fail, back = _skeleton(cfg.seed, replications, dp.nu, dp.eta, cfg.horizon)
    times = np.stack([fail, back], axis=2).reshape(rows, -1)
    codes = np.broadcast_to(np.tile([_CATASTROPHE, _REPAIR], fail.shape[1]), times.shape)

    u, v = _uniforms(cfg.seed, replications, _NORMALS, len(cfg.observation_times))
    normals = np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * math.pi * v)
    sigma = math.sqrt(dp.sigma2)
    observed = np.empty((rows, len(cfg.observation_times)), dtype=object)
    x = np.zeros(rows)
    previous = 0.0
    for column, when in enumerate(cfg.observation_times):
        # chain from the previous observation if no repair came in between
        restart = np.where(back < when, back, 0.0).max(axis=1, initial=0.0)
        chained = restart < previous
        gap = when - np.where(chained, previous, restart)
        x = np.where(chained, x, 0.0) + dp.drift * gap + sigma * np.sqrt(gap) * normals[:, column]
        observed[:, column] = x.tolist()
        observed[((fail < when) & (back >= when)).any(axis=1), column] = FAILED
        previous = when
    return times, codes, observed


def _paths(params: Union[DiscreteParams, DiffusionParams], cfg: SimConfig,
           replications: np.ndarray) -> list[PathTrace]:
    """The paths of the given replication indices, in that order."""
    sample = _lattice if isinstance(params, DiscreteParams) else _diffusion
    times, codes, observed = sample(params, cfg, replications)
    kept = times < cfg.horizon
    when = times[kept].tolist()
    kinds = _KINDS[codes[kept]].tolist()
    ends = np.cumsum(kept.sum(axis=1)).tolist()
    grid = cfg.observation_times
    traces = []
    start = 0
    for end, row in zip(ends, observed.tolist()):
        traces.append(PathTrace(tuple(zip(when[start:end], kinds[start:end])), tuple(zip(grid, row))))
        start = end
    return traces


def _simulate(params: Union[DiscreteParams, DiffusionParams], cfg: SimConfig) -> Iterator[PathTrace]:
    mean_cycles = params.nu * cfg.horizon
    per_path = 2.0 * mean_cycles + 4.0 * math.sqrt(mean_cycles) + len(cfg.observation_times) + 2.0
    if isinstance(params, DiscreteParams):
        per_path += (params.lam + params.mu) * cfg.horizon
    chunk = max(1, int(_CHUNK_DRAWS // per_path))
    for first in range(0, cfg.replications, chunk):
        replications = np.arange(first, min(first + chunk, cfg.replications), dtype=np.uint64)
        yield from _paths(params, cfg, replications)


def _discrete_path(p: DiscreteParams, cfg: SimConfig, replication: int) -> PathTrace:
    return _paths(p, cfg, np.array([replication], dtype=np.uint64))[0]


def simulate_discrete(p: DiscreteParams, cfg: SimConfig) -> Iterator[PathTrace]:
    """Exact CTMC paths of the discrete model, one per replication."""
    return _simulate(p, cfg)


def simulate_diffusion(dp: DiffusionParams, cfg: SimConfig) -> Iterator[PathTrace]:
    """Jump-diffusion paths with exact Gaussian marginals at the observation
    times (no Euler stepping)."""
    return _simulate(dp, cfg)


_STATISTICS = (
    "state-probability",
    "failure-probability",
    "truncated-mean",
    "truncated-variance",
    "cdf",
)


def _initial_value(statistic: str, arg: Optional[float]) -> float:
    # at t = 0 the state is 0 and operating by construction
    if statistic == "state-probability":
        return 1.0 if arg == 0 else 0.0
    if statistic == "failure-probability":
        return 0.0
    if statistic in ("truncated-mean", "truncated-variance"):
        return 0.0
    return 1.0 if arg is not None and arg >= 0.0 else 0.0


def estimate(
    traces: Iterable[PathTrace],
    t: float,
    statistic: str,
    arg: Optional[float] = None,
) -> EmpiricalEstimate:
    """Sample estimator with a replication-based standard error.

    ``arg`` is the state n for ``state-probability`` and the threshold x for
    ``cdf``; truncated statistics zero the state while under repair.  t = 0
    refers to the known initial condition and needs no observation.
    """
    if statistic not in _STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}, expected one of {_STATISTICS}")
    if statistic in ("state-probability", "cdf") and arg is None:
        raise ValueError(f"statistic {statistic!r} requires an argument")
    traces = list(traces)
    count = len(traces)
    if t == 0.0:
        return EmpiricalEstimate(_initial_value(statistic, arg), 0.0 if count > 1 else None, count)

    def state_at(trace: PathTrace) -> State:
        for when, state in trace.observations:
            if when == t or abs(when - t) <= 1e-12 * max(1.0, t):
                return state
        raise ValueError(f"time {t} is not among the observation times of the trace")

    states = [state_at(trace) for trace in traces]
    if statistic == "state-probability":
        if any(isinstance(s, float) and s != FAILED for s in states):
            raise ValueError(
                "state-probability is undefined for continuous-state traces; use cdf"
            )
        values = np.array([1.0 if s == arg else 0.0 for s in states])
    elif statistic == "failure-probability":
        values = np.array([1.0 if s == FAILED else 0.0 for s in states])
    elif statistic == "cdf":
        values = np.array(
            [1.0 if (s != FAILED and s <= arg) else 0.0 for s in states]
        )
    else:
        values = np.array([0.0 if s == FAILED else float(s) for s in states])

    if statistic == "truncated-variance":
        point = float(np.var(values, ddof=1)) if count > 1 else 0.0
        if count > 1:
            centered = values - values.mean()
            fourth = float(np.mean(centered**4))
            spread = max(fourth - point * point, 0.0)
            se = math.sqrt(spread / count)
        else:
            se = None
        return EmpiricalEstimate(point, se, count)

    point = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(count)) if count > 1 else None
    return EmpiricalEstimate(point, se, count)


def export_traces(
    traces: Iterable[PathTrace],
    path: str,
    params: dict,
    cfg: SimConfig,
) -> None:
    """Write one line-delimited file for the run.

    Header lines start with '#': a format tag, the model parameters as JSON,
    and the replication plan.  Then one record per line, tab separated:

        <replication> event <time> <kind>
        <replication> obs   <time> <state>
    """
    with open(path, "w", encoding="utf-8") as sink:
        sink.write("# catwalk-traces v1\n")
        sink.write(f"# params {json.dumps(params, sort_keys=True)}\n")
        sink.write(
            f"# seed {cfg.seed} replications {cfg.replications} horizon {cfg.horizon!r}\n"
        )
        for index, trace in enumerate(traces):
            for when, kind in trace.events:
                sink.write(f"{index}\tevent\t{when!r}\t{kind}\n")
            for when, state in trace.observations:
                sink.write(f"{index}\tobs\t{when!r}\t{state!r}\n")
