"""Event-driven simulation of both models, usable as an independent oracle.

Both models share one catastrophe/repair skeleton: alternating Exp(nu)
operating and Exp(eta) repair durations.  Lattice moves are a rate-(lam + mu)
Poisson stream of up/down marks on the operating clock, which is exact in law
by superposition; a move at operating time s happens at real time s plus the
repair time completed before it.  Events are placed by counting, not by
sorting: catastrophe j follows the moves at or before its operating time, and
a move follows the catastrophes strictly before it.  Diffusion paths restart
at 0 after every repair and chain exact Gaussian increments, built for all
observation times at once, so observed marginals carry no discretization
bias.  Both models are observed by one count of the skeleton's events.

Paths are drawn as arrays over bounded chunks of replications from a NumPy
Philox4x32-10 (Salmon et al. 2011).  Its key is the seed (two 32-bit words)
and its counter is (draw index, stream, replication low word, replication high
word), so draw k of a stream of replication i depends only on (seed, i,
stream, k): a path is the same whatever the batch size, the chunking or the
order of execution, and a single (seed, index) pair always reproduces it.

Paths are kept as arrays as well.  A run's paths are drawn into one block:
their event times and codes, observed values and failure flags are columns
of one record, and each :class:`PathTrace` is a read-only view of one row of
it whose tuples are built only when read.  :func:`estimate` and
:func:`export_traces` read any list of traces as runs of neighbouring traces
that share a block, and read each run's rows from the columns without
building them.  A block's own list of views is one run of all its rows, as
is known when it is drawn, so that layout is kept on the block's first view
with the views after it: a call on a list that still holds them, in order,
reads it after one list comparison.  Any other list is cut into runs by one
walk in Python on each call.  A block holds no view and only a first view
holds others, so no reference cycle forms: a list and its blocks are freed
when it is dropped.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from itertools import groupby, repeat
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .diffusion import DiffusionParams
from .discrete import DiscreteParams
from .failure_cycle import check_state, check_time

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
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and positive, got {self.horizon!r}")
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
    ``failed[c, r]``.  Lattice states are held as integers and diffusion
    levels as floats, so the dtype of ``values`` is the model of the paths.
    """

    times: np.ndarray
    codes: np.ndarray
    bounds: np.ndarray
    replications: np.ndarray
    grid: tuple[float, ...]
    values: np.ndarray
    failed: np.ndarray

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
    ``observations`` are built when read.  Two traces are equal when they are
    paths of the same model with the same replication, events and
    observations; the hash reads the event times from the block and the
    observations, and builds no event tuples.  A block's first view also
    holds, privately, the block's other views and their layout as one run
    (see the module's docstring), so while it lives, they do too.
    """

    __slots__ = ("_block", "_row", "_drawn")

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
        failed = block.failed[:, self._row].tolist()
        return tuple(zip(block.grid, [FAILED if down else v for v, down in zip(values, failed)]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PathTrace):
            return NotImplemented
        mine, theirs = self._block, other._block
        if mine is theirs and self._row == other._row:
            return True
        return (self.replication == other.replication and mine.values.dtype == theirs.values.dtype
                and self.events == other.events and self.observations == other.observations)

    def __hash__(self) -> int:
        # equal traces have equal event times, and so equal bytes once 0.0 is
        # added (it maps -0.0 to 0.0).  The observations alone are shared by
        # most lattice paths, and a set would compare each with all the others.
        block = self._block
        start, end = block.bounds[self._row], block.bounds[self._row + 1]
        return hash(((block.times[start:end] + 0.0).tobytes(), self.observations))

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


# Philox4x32-10 multipliers of the words c0 and c2, and Weyl key increments
_PHILOX_M = np.array([0xD2511F53, 0xCD9E8D57], dtype=np.uint64)
_PHILOX_W = np.array([0x9E3779B9, 0xBB67AE85], dtype=np.uint64)
_WORD = np.uint64(0xFFFFFFFF)

# streams of the counter's second word
_SKELETON, _MOVES, _NORMALS = 0, 1, 2

# event codes; a catastrophe comes right before its repair
_UP, _DOWN, _CATASTROPHE, _REPAIR = 0, 1, 2, 3
_KINDS = ("up", "down", "catastrophe", "repair_done")
_KIND_LINE_ENDS = np.array([f"\t{kind}\n" for kind in _KINDS], dtype=object)

# uniform draws per chunk of replications, which bounds the sampler's
# temporaries: a 4000-path lattice batch peaks at about 2 MB of arrays at 8k
# draws and 7 MB at 32k.  At 16k the benchmark's batches drew a few per cent
# faster for half a megabyte more peak memory, too little to move from 8k.
_CHUNK_DRAWS = 1 << 13
#: most draws (rows x draws per row) one array of uniforms may hold, at about
#: 56 bytes a draw while it is made: 240 times the 17,406 that the largest
#: array of the tests, README commands and benchmark asks for
MAX_DRAWS = 1 << 22
#: most draws a whole run may make, counted by the budget that sizes its
#: chunks, times the replications: 32 times the 2.12e6 of the largest run of
#: the tests, README commands and benchmark (2,000 paths of 1,060 draws)
MAX_RUN_DRAWS = 1 << 26


def _philox(counter, key):
    """Philox4x32-10 of four broadcastable arrays of 32-bit counter words under
    two 32-bit key words: one (4, ...) array of the output words.

    Words are held in uint64, so each product is exact.  Each round works in
    place on the pairs (c0, c2) and (c1, c3) of a buffer of the broadcast
    shape, so no round allocates.
    """
    shape = np.broadcast_shapes(*map(np.shape, counter))
    words = np.empty((4, *shape), dtype=np.uint64)
    for index, value in enumerate(counter):
        words[index] = value
    even, odd = words[0::2], words[1::2]
    product = np.empty(even.shape, dtype=np.uint64)
    crossed = product[::-1]  # (c2 * M1, c0 * M0): each product feeds the other pair
    pair = (2,) + (1,) * len(shape)
    multipliers = _PHILOX_M.reshape(pair)
    keys = np.array(key, dtype=np.uint64) + np.arange(10, dtype=np.uint64)[:, None] * _PHILOX_W
    for round_key in (keys & _WORD).reshape(10, *pair):
        np.multiply(even, multipliers, out=product)
        np.right_shift(crossed, 32, out=even)
        even ^= odd
        even ^= round_key
        np.bitwise_and(crossed, _WORD, out=odd)
    return words


def _uniforms(seed: int, replications: np.ndarray, stream: int, draws: int) -> np.ndarray:
    """Draws 0..draws-1 of ``stream``: a (2, replications, draws) array of
    uniforms on (0, 1], the two of a draw from its one Philox block.  More
    than MAX_DRAWS draws in all are a ``ValueError``, before any array is made."""
    if len(replications) * draws > MAX_DRAWS:
        raise ValueError(f"the simulation needs {len(replications)} x {draws:.3g} draws in one "
                         f"array, more than the {MAX_DRAWS} allowed; shorten the horizon or "
                         "lower the rates")
    rows = replications.astype(np.uint64)[:, None]
    index = np.arange(draws, dtype=np.uint64)[None, :]
    words = _philox(
        (index, stream, rows & _WORD, rows >> 32), (seed & 0xFFFFFFFF, seed >> 32)
    )
    # 53 bits from the words (c0, c1) and from (c2, c3), mapped to (0, 1] so
    # that log never sees 0
    high, low = words[0::2], words[1::2]
    high >>= 5
    high <<= 26
    low >>= 6
    high += low
    high += 1
    uniforms = high.astype(np.float64)
    uniforms *= 2.0**-53
    return uniforms


def _arrivals(uniforms: np.ndarray, rate) -> np.ndarray:
    """Arrival times at ``rate`` from the uniforms along the last axis,
    written over them: partial sums of the exponential gaps -log(u), over
    the rate."""
    # cumsum(log u) / -rate has the bits of cumsum(-log u) / rate, since
    # rounding is symmetric in sign, and saves a pass
    np.log(uniforms, out=uniforms)
    np.cumsum(uniforms, axis=-1, out=uniforms)
    uniforms /= -rate
    return uniforms


def _cycle_budget(nu: float, horizon: float) -> int:
    """Catastrophe/repair cycles first drawn per path."""
    return int(nu * horizon + 4.0 * math.sqrt(nu * horizon)) + 2


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
    cycles = _cycle_budget(nu, horizon)
    while True:
        durations = _uniforms(seed, replications, _SKELETON, cycles)
        clock, downtime = _arrivals(durations[0], nu), _arrivals(durations[1], eta)
        before = np.concatenate([np.zeros((len(replications), 1)), downtime[:, :-1]], axis=1)
        fail = clock + before
        if (fail[:, -1] >= horizon).all():
            break
        cycles *= 2
    used = int((fail < horizon).sum(axis=1).max())
    clock, downtime = clock[:, :used], downtime[:, :used]
    return clock, downtime, fail[:, :used], clock + downtime


def _ranks(entries: np.ndarray, probes: np.ndarray, side: str) -> np.ndarray:
    """np.searchsorted(entries[r], probes[r], side) for each row r of the
    entries, which are sorted along rows; ``probes`` holds sorted values per
    row, or one row of them for all.  The searches are one search over
    (row, value) pairs held as complex numbers, which NumPy orders
    lexicographically."""
    if probes.shape[-1] == 1:
        # with one probe a row, comparing costs less than building the keys
        below = entries < probes if side == "left" else entries <= probes
        return below.sum(axis=1, keepdims=True)
    rows, width = entries.shape
    row = np.arange(rows)[:, None]
    keys = np.empty(entries.shape, dtype=complex)
    keys.real, keys.imag = row, entries
    marks = np.empty(np.broadcast_shapes(probes.shape, row.shape), dtype=complex)
    marks.real, marks.imag = row, probes
    return np.searchsorted(keys.ravel(), marks.ravel(), side).reshape(marks.shape) - row * width


def _lattice(p: DiscreteParams, cfg: SimConfig, replications: np.ndarray, skeleton, repaired):
    """A chunk of lattice paths on their skeleton and its ``repaired`` counts:
    the times and codes of the events before the horizon, row after row in
    real time, the number of them per row, then the values with one row per
    observation time and one column per path."""
    horizon, rows = cfg.horizon, len(replications)
    clock, downtime, fail, back = skeleton
    # operating time elapsed by the horizon, with a margin against rounding
    operating = horizon - np.clip(np.minimum(back, horizon) - fail, 0.0, None).sum(axis=1)
    need = operating + 1e-9 * horizon
    rate = p.lam + p.mu
    mean = rate * float(need.max())
    draws = int(mean + 5.0 * math.sqrt(mean)) + 4
    while True:
        uniforms = _uniforms(cfg.seed, replications, _MOVES, draws)
        moves = _arrivals(uniforms[0], rate)
        if (moves[:, -1] >= need).all():
            break
        draws *= 2
    draws = int((moves < need[:, None]).sum(axis=1).max())
    moves = moves[:, :draws]
    down = uniforms[1, :, :draws] * rate > p.lam

    # catastrophe j comes after the ahead[:, j] moves at or before its clock;
    # a move after j catastrophes is shifted by the downtime of their repairs
    ahead = _ranks(moves, clock, "right")
    times = moves
    if clock.shape[1]:
        between = np.diff(ahead, axis=1, prepend=0, append=draws)
        shift = np.concatenate([np.zeros((rows, 1)), downtime], axis=1)
        times = moves + np.repeat(shift, between.ravel()).reshape(moves.shape)

    # the events before the horizon, rows laid end to end: catastrophe j and
    # then its repair go in after the ahead[:, j] moves of their row, which
    # are all kept, so among the kept moves they go in at first + ahead
    kept = times < horizon
    moved = kept.sum(axis=1)
    first = np.cumsum(moved) - moved
    marks = np.stack([fail, back], axis=2)
    marked = marks < horizon
    inserted = np.broadcast_to((first[:, None] + ahead)[:, :, None], marks.shape)[marked]
    inserted += np.arange(len(inserted))
    is_move = np.ones(len(inserted) + moved.sum(), dtype=bool)
    is_move[inserted] = False
    event_times = np.empty(len(is_move))
    event_times[is_move] = times[kept]
    event_times[inserted] = marks[marked]
    codes = np.empty(len(is_move), dtype=np.int8)
    codes[is_move] = down[kept]  # _UP is 0 and _DOWN is 1
    codes[inserted] = np.broadcast_to([_CATASTROPHE, _REPAIR], marks.shape)[marked]

    # the state at w is the sum of the steps of the moves from the last
    # repair before w, where the path restarted, up to w: their number less
    # twice the downs among them
    seen = _ranks(times, np.array(cfg.observation_times)[None, :], "left")
    row = np.arange(rows)[:, None]
    start = np.concatenate([np.zeros((rows, 1), dtype=np.intp), ahead], axis=1)[row, repaired]
    downs = np.zeros((rows, draws + 1), dtype=np.intp)
    np.cumsum(down, axis=1, out=downs[:, 1:])
    states = seen - start - 2 * (downs[row, seen] - downs[row, start])
    counts = moved + marked.sum(axis=(1, 2))
    return event_times, codes, counts, states.T


def _diffusion(dp: DiffusionParams, cfg: SimConfig, replications: np.ndarray, skeleton, repaired):
    """A chunk of diffusion paths on their skeleton, laid out as in
    :func:`_lattice`."""
    rows = len(replications)
    _, _, fail, back = skeleton
    times = np.stack([fail, back], axis=2).reshape(rows, -1)
    kept = times < cfg.horizon
    codes = np.broadcast_to(np.tile(np.int8([_CATASTROPHE, _REPAIR]), fail.shape[1]), times.shape)

    # (time, path) arrays from time 0, where every path is at 0: an increment
    # runs from the path's restart or the time before, whichever is later
    grid = np.array([0.0, *cfg.observation_times])[:, None]
    restart = np.concatenate([np.zeros((1, rows)), back.T])[repaired.T, np.arange(rows)]
    chained = restart < grid[:-1]
    gap = grid[1:] - np.where(chained, grid[:-1], restart)
    u, v = _uniforms(cfg.seed, replications, _NORMALS, len(gap))
    normals = np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * math.pi * v)
    step, noise = dp.drift * gap, math.sqrt(dp.sigma2) * np.sqrt(gap) * normals.T
    values = np.zeros((len(grid), rows))
    # not a cumsum, which would add x + (step + noise) and round otherwise
    for c in range(len(gap)):
        values[c + 1] = np.where(chained[c], values[c], 0.0) + step[c] + noise[c]
    return times[kept], codes[kept], kept.sum(axis=1), values[1:]


def _paths(params: Union[DiscreteParams, DiffusionParams], cfg: SimConfig,
           replications: np.ndarray, chunk: Optional[int] = None) -> list[PathTrace]:
    """The paths of the given replication indices, in that order, drawn in
    chunks of ``chunk`` replications (all at once by default) and kept as one
    block.  The skeleton is drawn for as many whole chunks at once as keep its
    first budget within _CHUNK_DRAWS draws, so that it holds no more than a
    chunk does, and is sliced per chunk."""
    chunk = chunk or len(replications)
    sample = _lattice if isinstance(params, DiscreteParams) else _diffusion
    span = chunk * max(1, _CHUNK_DRAWS // (chunk * _cycle_budget(params.nu, cfg.horizon)))
    grid = np.array(cfg.observation_times)[None, :]
    parts = []
    for first in range(0, len(replications), chunk):
        if first % span == 0:
            skeleton = _skeleton(cfg.seed, replications[first:first + span],
                                 params.nu, params.eta, cfg.horizon)
        # the chunk's rows, up to the last catastrophe before the horizon in any of them
        rows = slice(first % span, first % span + chunk)
        used = int((skeleton[2][rows] < cfg.horizon).sum(axis=1).max(initial=0))
        _, _, fail, back = sliced = [part[rows, :used] for part in skeleton]
        # a path at w last restarted at the last repair before w, and w falls
        # in a repair where more catastrophes than repairs come before it
        repaired = _ranks(back, grid, "left")
        parts.append((*sample(params, cfg, replications[first:first + chunk], sliced, repaired),
                      (_ranks(fail, grid, "left") > repaired).T))
    times, codes, counts, values, failed = (np.concatenate(part, axis=-1) for part in zip(*parts))
    bounds = np.zeros(len(replications) + 1, dtype=np.intp)
    np.cumsum(counts, out=bounds[1:])
    block = _Block(times, codes, bounds, replications, cfg.observation_times, values, failed)
    views = list(map(PathTrace, repeat(block), range(len(replications))))
    views[0]._drawn = views[1:], ((block, slice(0, len(views))),)
    return views


def _simulate(params: Union[DiscreteParams, DiffusionParams], cfg: SimConfig) -> Iterator[PathTrace]:
    mean_cycles = params.nu * cfg.horizon
    per_path = 2.0 * mean_cycles + 4.0 * math.sqrt(mean_cycles) + len(cfg.observation_times) + 2.0
    if isinstance(params, DiscreteParams):
        per_path += (params.lam + params.mu) * cfg.horizon
    # inf where the rates times the horizon overflow
    budget = per_path * cfg.replications
    if budget > MAX_RUN_DRAWS:
        raise ValueError(f"the simulation needs about {budget:.3g} draws, more than the "
                         f"{MAX_RUN_DRAWS} one run may make; shorten the horizon, lower the "
                         "rates or draw fewer replications")
    chunk = max(1, int(_CHUNK_DRAWS // per_path))
    return iter(_paths(params, cfg, np.arange(cfg.replications, dtype=np.uint64), chunk))


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


def _statistic(statistic: str, arg: Optional[float], lattice: bool) -> Optional[float]:
    """The argument of a statistic on paths of the lattice model or of the
    diffusion, checked: ``state-probability`` is defined on lattice paths
    only and takes an integral state, returned as ``int``, and ``cdf`` takes a
    threshold that is not NaN; the other statistics take none."""
    if statistic not in _STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}, expected one of {_STATISTICS}")
    if statistic in ("state-probability", "cdf") and arg is None:
        raise ValueError(f"statistic {statistic!r} requires an argument")
    if statistic == "state-probability":
        if not lattice:
            raise ValueError("state-probability is undefined for continuous-state traces; use cdf")
        return check_state(arg)
    if statistic == "cdf" and math.isnan(arg):
        raise ValueError("the cdf threshold must be a number, got nan")
    return arg


def _runs(traces: list[PathTrace]) -> Sequence[tuple[_Block, Union[slice, np.ndarray]]]:
    """The traces as runs of neighbouring traces that share a block, in list
    order: each run's block and the rows of it the run holds, in order.  A
    block's own list of views is read from its first view, where ``traces``
    still holds them; any other list is walked once.

    Comparing the lists passes over items that are the same objects without
    calling ``__eq__``; an item that is another object must equal its
    counterpart, a path of the same model and replication with the same
    values.
    """
    drawn = getattr(traces[0], "_drawn", None) if traces else None
    if drawn is not None and drawn[0] == traces[1:]:
        return drawn[1]
    return [(block, np.array([trace._row for trace in run], dtype=np.intp))
            for block, run in groupby(traces, operator.attrgetter("_block"))]


def _estimator(traces: Iterable[PathTrace]):
    """:func:`estimate` over fixed traces, as a function of (t, statistic,
    arg).  The traces are cut into runs once, so a table of estimates walks
    them at most once, not once a cell."""
    traces = list(traces)
    count = len(traces)
    runs = _runs(traces)
    lattice = all(block.values.dtype.kind == "i" for block, _ in runs)

    def estimate_at(t: float, statistic: str, arg: Optional[float] = None) -> EmpiricalEstimate:
        arg = _statistic(statistic, arg, lattice)
        check_time(t)
        if count == 0:
            raise ValueError("no traces to estimate from")
        if t == 0.0:
            # the known start: every path is operating at 0
            states, failed = np.zeros(count), np.zeros(count, dtype=bool)
        else:
            columns = [block.column(t) for block, _ in runs]
            states = [block.values[c, rows] for (block, rows), c in zip(runs, columns)]
            failed = [block.failed[c, rows] for (block, rows), c in zip(runs, columns)]
            if len(runs) == 1:
                states, failed = states[0], failed[0]
            else:
                states, failed = np.concatenate(states), np.concatenate(failed)
        if statistic == "state-probability":
            values = (~failed & (states == arg)).astype(np.float64)
        elif statistic == "failure-probability":
            values = failed.astype(np.float64)
        elif statistic == "cdf":
            values = (~failed & (states <= arg)).astype(np.float64)
        else:
            values = np.where(failed, 0.0, states)

        if count == 1:
            return EmpiricalEstimate(
                0.0 if statistic == "truncated-variance" else float(values[0]), None, count
            )
        # values.mean(), values.var(ddof=1) and np.mean(centered**4) bit for
        # bit, from the same sums without the Python layers of those methods,
        # which cost more than the sums on a batch of a few hundred paths
        mean = np.add.reduce(values) / count
        centered = values - mean
        square = float(np.add.reduce(centered * centered)) / (count - 1)
        if statistic == "truncated-variance":
            fourth = float(np.add.reduce(centered**4) / count)
            return EmpiricalEstimate(square, math.sqrt(max(fourth - square * square, 0.0) / count),
                                     count)
        return EmpiricalEstimate(float(mean), math.sqrt(square) / math.sqrt(count), count)

    return estimate_at


def estimate(
    traces: Iterable[PathTrace],
    t: float,
    statistic: str,
    arg: Optional[float] = None,
) -> EmpiricalEstimate:
    """Sample estimator with a replication-based standard error.

    ``arg`` is the state n for ``state-probability`` and the threshold x for
    ``cdf``; truncated statistics zero the state while under repair.  t = 0
    reads the known start, every path operating at 0, through the same
    statistics and model rule as an observed time.  No traces, a time that is
    not finite and nonnegative, a non-integral state, a NaN threshold or
    ``state-probability`` on diffusion paths raise ``ValueError``.
    """
    return _estimator(traces)(t, statistic, arg)


def _records(block: _Block, rows: np.ndarray) -> str:
    """The lines of the rows' records, row by row: each row's events, then
    its observations."""
    names = np.array(list(map(str, block.replications[rows].tolist())), dtype=object)
    first = block.bounds[rows]
    count = block.bounds[rows + 1] - first
    ends = np.cumsum(count)
    events = np.arange(ends[-1]) + np.repeat(first - (ends - count), count)
    width = len(block.grid)
    pieces = np.empty((len(events) + width * len(rows), 3), dtype=object)
    # a row's events follow the observations of the rows before it, and its
    # observations follow its events
    line = np.arange(len(events)) + np.repeat(width * np.arange(len(rows)), count)
    pieces[line, 0] = np.repeat(names + "\tevent\t", count)
    pieces[line, 1] = list(map(repr, block.times[events].tolist()))
    pieces[line, 2] = _KIND_LINE_ENDS[block.codes[events]]
    line = np.arange(width * len(rows)) + np.repeat(ends, width)
    pieces[line, 0] = np.repeat(names + "\tobs\t", width)
    pieces[line, 1] = np.tile([f"{when!r}\t" for when in block.grid], len(rows))
    states = block.values[:, rows].T.astype(object)
    states[block.failed[:, rows].T] = FAILED
    pieces[line, 2] = [f"{state!r}\n" for state in states.ravel().tolist()]
    return "".join(pieces.ravel().tolist())


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
        for block, rows in _runs(traces):
            rows = np.arange(len(block.replications))[rows]
            # one write per stretch of rows holding about _EXPORT_RECORDS lines
            part = (np.cumsum(np.diff(block.bounds)[rows] + len(block.grid)) - 1) // _EXPORT_RECORDS
            edges = [0, *(np.flatnonzero(np.diff(part)) + 1).tolist(), len(rows)]
            for lo, hi in zip(edges, edges[1:]):
                sink.write(_records(block, rows[lo:hi]))
