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

Paths are kept as arrays as well.  The event times and codes, the observed
values and the failure flags of a block of replications are columns of one
record, and each :class:`PathTrace` is a read-only view of one row of it whose
tuples are built only when read.  :func:`estimate` and :func:`export_traces`
read the columns without building them.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from itertools import accumulate, chain, cycle, groupby, repeat
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


@dataclass(eq=False, slots=True)
class _Block:
    """The paths of a block of replications, held as arrays; a block is
    drawn in one or more chunks.

    Row r is replication ``replications[r]``.  Its events before the horizon
    are ``times[bounds[r]:bounds[r + 1]]`` with their ``codes``, and its state
    at ``grid[c]`` is ``values[c, r]``, or the failure state where
    ``failed[c, r]``.  Lattice states are integers held as float64.
    """

    times: np.ndarray
    codes: np.ndarray
    bounds: np.ndarray
    replications: np.ndarray
    grid: tuple[float, ...]
    values: np.ndarray
    failed: np.ndarray
    lattice: bool

    def column(self, t: float) -> int:
        """The index of observation time t in the grid, to rounding."""
        for column, when in enumerate(self.grid):
            if when == t or abs(when - t) <= 1e-12 * max(1.0, t):
                return column
        raise ValueError(f"time {t} is not among the observation times of the trace")


class PathTrace:
    """One simulated path: event log plus state snapshots at observation times.

    A read-only view of one row of the arrays its block of replications was
    drawn into; only the simulators make one.  ``events`` and
    ``observations`` are built when read, and two traces are equal, and hash
    alike, when both of them are.
    """

    __slots__ = ("_block", "_row")

    def __init__(self, block: _Block, row: int) -> None:
        self._block = block
        self._row = row

    @property
    def replication(self) -> int:
        """The replication index: the path's place in its batch."""
        return int(self._block.replications[self._row])

    @property
    def events(self) -> tuple[tuple[float, str], ...]:
        """(time, kind) of each event before the horizon, in time order."""
        block = self._block
        start, end = block.bounds[self._row], block.bounds[self._row + 1]
        kinds = map(_KINDS.__getitem__, block.codes[start:end].tolist())
        return tuple(zip(block.times[start:end].tolist(), kinds))

    @property
    def observations(self) -> tuple[tuple[float, State], ...]:
        """(time, state) at each observation time: an ``int`` lattice state,
        a ``float`` diffusion level, or :data:`FAILED`."""
        block = self._block
        values = block.values[:, self._row].tolist()
        if block.lattice:
            values = map(int, values)
        failed = block.failed[:, self._row].tolist()
        return tuple(zip(block.grid, [FAILED if down else v for v, down in zip(values, failed)]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PathTrace):
            return NotImplemented
        if self._block is other._block and self._row == other._row:
            return True
        return self.events == other.events and self.observations == other.observations

    def __hash__(self) -> int:
        return hash((self.events, self.observations))

    def __repr__(self) -> str:
        return (f"PathTrace(replication={self.replication}, events={self.events}, "
                f"observations={self.observations})")


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
_KINDS = ("up", "down", "catastrophe", "repair_done")
_KIND_LINE_ENDS = np.array([f"\t{kind}\n" for kind in _KINDS], dtype=object)
_STEPS = np.array([1, -1, 0, 0])

# uniform draws per chunk of replications, which bounds the sampler's
# temporaries: a 4000-path lattice batch peaks at about 2 MB of arrays at 8k
# draws and 7 MB at 32k.  At 16k the benchmark's batches drew a few per cent
# faster for half a megabyte more peak memory, too little to move from 8k.
_CHUNK_DRAWS = 1 << 13
# chunks per block, the unit in which paths are kept: reading paths costs a
# few NumPy calls per block, so a block spans many chunks of long paths
_BLOCK_CHUNKS = 32


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
    sorted per row in real time, then (values, failed) with one row per
    observation time and one column per path."""
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

    values = np.empty((len(cfg.observation_times), rows))
    failed = np.empty(values.shape, dtype=bool)
    for column, when in enumerate(cfg.observation_times):
        # events strictly before an observation time form a prefix of each row
        seen = (times < when).sum(axis=1)[:, None]
        values[column] = np.take_along_axis(state, seen, axis=1)[:, 0]
        failed[column] = np.take_along_axis(history, seen, axis=1)[:, 0] == _CATASTROPHE
    return times, codes, values, failed


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
    values = np.empty((len(cfg.observation_times), rows))
    failed = np.empty(values.shape, dtype=bool)
    x = np.zeros(rows)
    previous = 0.0
    for column, when in enumerate(cfg.observation_times):
        # chain from the previous observation if no repair came in between
        restart = np.where(back < when, back, 0.0).max(axis=1, initial=0.0)
        chained = restart < previous
        gap = when - np.where(chained, previous, restart)
        x = np.where(chained, x, 0.0) + dp.drift * gap + sigma * np.sqrt(gap) * normals[:, column]
        values[column] = x
        failed[column] = ((fail < when) & (back >= when)).any(axis=1)
        previous = when
    return times, codes, values, failed


def _draw(params: Union[DiscreteParams, DiffusionParams], cfg: SimConfig,
          replications: np.ndarray):
    """One chunk: the times and codes of the events before the horizon, the
    number of them per path, and the observed values and failure flags."""
    sample = _lattice if isinstance(params, DiscreteParams) else _diffusion
    times, codes, values, failed = sample(params, cfg, replications)
    kept = times < cfg.horizon
    return times[kept], codes[kept].astype(np.int8), kept.sum(axis=1), values, failed


def _paths(params: Union[DiscreteParams, DiffusionParams], cfg: SimConfig,
           replications: np.ndarray, chunk: Optional[int] = None) -> list[PathTrace]:
    """The paths of the given replication indices, in that order, drawn in
    chunks of ``chunk`` replications (all at once by default) and kept as one
    block."""
    chunk = chunk or len(replications)
    parts = [_draw(params, cfg, replications[first:first + chunk])
             for first in range(0, len(replications), chunk)]
    times, codes, counts, values, failed = (np.concatenate(part, axis=-1) for part in zip(*parts))
    bounds = np.zeros(len(replications) + 1, dtype=np.intp)
    np.cumsum(counts, out=bounds[1:])
    block = _Block(times, codes, bounds, replications, cfg.observation_times, values, failed,
                   isinstance(params, DiscreteParams))
    return list(map(PathTrace, repeat(block), range(len(replications))))


def _simulate(params: Union[DiscreteParams, DiffusionParams], cfg: SimConfig) -> Iterator[PathTrace]:
    mean_cycles = params.nu * cfg.horizon
    per_path = 2.0 * mean_cycles + 4.0 * math.sqrt(mean_cycles) + len(cfg.observation_times) + 2.0
    if isinstance(params, DiscreteParams):
        per_path += (params.lam + params.mu) * cfg.horizon
    chunk = max(1, int(_CHUNK_DRAWS // per_path))
    size = chunk * _BLOCK_CHUNKS
    blocks = (np.arange(first, min(first + size, cfg.replications), dtype=np.uint64)
              for first in range(0, cfg.replications, size))
    return chain.from_iterable(_paths(params, cfg, replications, chunk) for replications in blocks)


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


def _statistic(statistic: str, arg: Optional[float]) -> Optional[float]:
    """The argument of a statistic, checked: ``state-probability`` takes an
    integral state, returned as ``int``, and ``cdf`` a threshold that is not
    NaN; the other statistics take none."""
    if statistic not in _STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}, expected one of {_STATISTICS}")
    if statistic in ("state-probability", "cdf") and arg is None:
        raise ValueError(f"statistic {statistic!r} requires an argument")
    if statistic == "state-probability":
        if not float(arg).is_integer():
            raise ValueError(f"state-probability takes an integer state, got {arg!r}")
        return int(arg)
    if statistic == "cdf" and math.isnan(arg):
        raise ValueError("the cdf threshold must be a number, got nan")
    return arg


def _initial_value(statistic: str, arg: Optional[float]) -> float:
    # at t = 0 the state is 0 and operating by construction
    if statistic == "state-probability":
        return 1.0 if arg == 0 else 0.0
    if statistic == "cdf":
        return 1.0 if arg >= 0.0 else 0.0
    return 0.0


def _gather(traces: list[PathTrace]) -> tuple[list[_Block], Union[slice, np.ndarray]]:
    """The distinct blocks of the traces, and where each trace's row lies
    when the rows of those blocks are laid end to end: a slice when the
    traces are consecutive rows of one block, else an index array.

    Neighbouring traces that share a block are taken as one run, so beyond
    one pass over the traces the work grows with the number of runs.
    """
    rows = [trace._row for trace in traces]
    start: dict = {}  # of each distinct block's rows
    offsets, lengths = [], []
    size = 0
    for block, run in groupby([trace._block for trace in traces]):
        if block not in start:
            start[block] = size
            size += len(block.replications)
        offsets.append(start[block])
        lengths.append(len(list(run)))
    if len(offsets) == 1 and rows == list(range(rows[0], rows[0] + len(rows))):
        return list(start), slice(rows[0], rows[0] + len(rows))
    return list(start), np.repeat(offsets, lengths) + np.array(rows, dtype=np.intp)


def _stacked(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays laid end to end, without a copy when there is one."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def estimate(
    traces: Iterable[PathTrace],
    t: float,
    statistic: str,
    arg: Optional[float] = None,
) -> EmpiricalEstimate:
    """Sample estimator with a replication-based standard error.

    ``arg`` is the state n for ``state-probability`` and the threshold x for
    ``cdf``; truncated statistics zero the state while under repair.  t = 0
    refers to the known initial condition and needs no observation.  No
    traces, a non-integral state or a NaN threshold raise ``ValueError``.
    """
    arg = _statistic(statistic, arg)
    traces = list(traces)
    count = len(traces)
    if count == 0:
        raise ValueError("no traces to estimate from")
    if t == 0.0:
        return EmpiricalEstimate(_initial_value(statistic, arg), 0.0 if count > 1 else None, count)

    blocks, at = _gather(traces)
    columns = [block.column(t) for block in blocks]
    states = _stacked([b.values[column] for b, column in zip(blocks, columns)])[at]
    failed = _stacked([b.failed[column] for b, column in zip(blocks, columns)])[at]
    if statistic == "state-probability":
        if not all(block.lattice for block in blocks):
            raise ValueError(
                "state-probability is undefined for continuous-state traces; use cdf"
            )
        values = (~failed & (states == arg)).astype(np.float64)
    elif statistic == "failure-probability":
        values = failed.astype(np.float64)
    elif statistic == "cdf":
        values = (~failed & (states <= arg)).astype(np.float64)
    else:
        values = np.where(failed, 0.0, states)

    if count == 1:
        return EmpiricalEstimate(0.0 if statistic == "truncated-variance" else float(values[0]),
                                 None, count)
    if statistic == "truncated-variance":
        point = float(np.var(values, ddof=1))
        centered = values - values.mean()
        fourth = float(np.mean(centered**4))
        return EmpiricalEstimate(point, math.sqrt(max(fourth - point * point, 0.0) / count), count)
    # values.mean() and values.std(ddof=1) bit for bit, from the same two sums
    # without the Python layers of those methods, which cost more than the
    # sums on a batch of a few hundred paths
    point = float(np.add.reduce(values) / count)
    centered = values - point
    spread = math.sqrt(float(np.add.reduce(centered * centered)) / (count - 1))
    return EmpiricalEstimate(point, spread / math.sqrt(count), count)


def _observation_text(block: _Block) -> np.ndarray:
    """The text "<time>\t<state>\n" of each observation, path by path."""
    states = (block.values.astype(np.int64) if block.lattice else block.values).T.astype(object)
    states[block.failed.T] = FAILED
    grid = cycle([f"{when!r}\t" for when in block.grid])
    return np.array([f"{when}{state!r}\n" for when, state in zip(grid, states.ravel().tolist())],
                    dtype=object)


def _ragged(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """first[i], first[i] + 1, ..., first[i] + count[i] - 1 for each i in turn."""
    ends = np.cumsum(count)
    return np.arange(ends[-1]) + np.repeat(first - (ends - count), count)


#: records formatted per write of an export
_EXPORT_RECORDS = 1 << 16


def export_traces(
    traces: Iterable[PathTrace],
    path: str,
    params: dict,
    cfg: SimConfig,
) -> None:
    """Write one line-delimited file for the run.

    Header lines start with '#': a format tag, the model parameters as JSON,
    and the replication plan.  Then one record per line, tab separated, each
    trace's events before its observations:

        <replication> event <time> <kind>
        <replication> obs   <time> <state>
    """
    traces = list(traces)
    with open(path, "w", encoding="utf-8") as sink:
        sink.write("# catwalk-traces v1\n")
        sink.write(f"# params {json.dumps(params, sort_keys=True)}\n")
        sink.write(
            f"# seed {cfg.seed} replications {cfg.replications} horizon {cfg.horizon!r}\n"
        )
        if not traces:
            return
        blocks, at = _gather(traces)
        # the blocks laid end to end: each trace's name, the first and the
        # number of its events, and the same of its observations
        names = np.array(list(map(str, _stacked([b.replications for b in blocks])[at].tolist())),
                         dtype=object)
        event_at = accumulate([len(b.times) for b in blocks], initial=0)
        event_first = _stacked([b.bounds[:-1] + s for b, s in zip(blocks, event_at)])[at]
        event_count = _stacked([np.diff(b.bounds) for b in blocks])[at]
        obs_at = accumulate([b.values.size for b in blocks], initial=0)
        obs_first = _stacked(
            [np.arange(s, s + b.values.size, len(b.grid)) for b, s in zip(blocks, obs_at)]
        )[at]
        obs_count = _stacked([np.full(len(b.replications), len(b.grid)) for b in blocks])[at]
        times = _stacked([b.times for b in blocks])
        kinds = _KIND_LINE_ENDS[_stacked([b.codes for b in blocks])]
        observed = _stacked([_observation_text(b) for b in blocks])
        event_prefix, obs_prefix = names + "\tevent\t", names + "\tobs\t"

        # one write per run of traces holding about _EXPORT_RECORDS lines,
        # each line in three pieces
        part = (np.cumsum(event_count + obs_count) - 1) // _EXPORT_RECORDS
        edges = [0, *(np.flatnonzero(np.diff(part)) + 1).tolist(), len(traces)]
        for lo, hi in zip(edges, edges[1:]):
            ev_count, ob_count = event_count[lo:hi], obs_count[lo:hi]
            events = _ragged(event_first[lo:hi], ev_count)
            pieces = np.empty((len(events) + ob_count.sum(), 3), dtype=object)
            # a trace's events follow the observations of the traces before it
            line = np.arange(len(events)) + np.repeat(np.cumsum(ob_count) - ob_count, ev_count)
            pieces[line, 0] = np.repeat(event_prefix[lo:hi], ev_count)
            pieces[line, 1] = list(map(repr, times[events].tolist()))
            pieces[line, 2] = kinds[events]
            line = np.arange(len(pieces) - len(events)) + np.repeat(np.cumsum(ev_count), ob_count)
            pieces[line, 0] = np.repeat(obs_prefix[lo:hi], ob_count)
            pieces[line, 1] = observed[_ragged(obs_first[lo:hi], ob_count)]
            pieces[line, 2] = ""
            sink.write("".join(pieces.ravel().tolist()))
