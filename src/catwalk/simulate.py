"""Event-driven simulation of both models, usable as an independent oracle.

Both models share one catastrophe/repair skeleton: alternating Exp(nu)
operating and Exp(eta) repair durations.  A path restarts at 0 after every
repair.  Its operating time is cut into segments at the catastrophes, the
repairs, the observation times and the horizon, and both models are observed
by one chain over the observation times: the state at one is the state at
the time before, or 0 where the path restarted since, plus the model's
increment over the segment between them.  The diffusion's increment is an
exact Gaussian, so observed marginals carry no discretization bias.  The
lattice walk's increment over a segment of length d is exactly Poisson(lam d)
ups less Poisson(mu d) downs, each count inverted from one uniform, so a path
costs O(cycles + observations) draws whatever the rates.  The segments that
end at a catastrophe or at the horizon get their counts as well, so the
number of a path's moves is known when it is drawn.  Given its counts, a
segment's moves fall at uniform order statistics, ups and downs in a
uniformly random arrangement, which is exact in law; their times are drawn
only when a path's events are read.

Paths are drawn as arrays over bounded chunks of replications from a NumPy
Philox4x32-10 (Salmon et al. 2011).  Its key is the seed (two 32-bit words)
and its counter is (draw index, stream, replication low word, replication high
word), so draw k of a stream of replication i depends only on (seed, i,
stream, k): a path is the same whatever the batch size, the chunking or the
order of execution, and a single (seed, index) pair always reproduces it.
That holds for the move times too, whichever rows are read together.

Paths are kept as arrays as well.  A run's paths are drawn into one block:
their catastrophe and repair times, the segments that hold their moves,
observed values and failure flags are columns of one record, and each
:class:`PathTrace` is a read-only view of one row of it whose tuples are
built, and whose move times are drawn, only when read.  Nothing drawn on a
read is kept, so memory stays bounded for any run.  :func:`estimate` and
:func:`export_traces` take a list of traces as given and read it by block:
for each block the list holds, the rows of it and their places in the list.
A block's own list of views is one group of all its rows, in order, as is
known when it is drawn, so the block's first view keeps a reference list of
the views, headed by a second view of row 0, with that group: a list that
still holds the views, in order, is read after one list comparison, which
passes over identical items in C and calls ``__eq__`` once, on its head.
Any other list is read by one walk in Python that takes each trace's block
and row, and one stable sort of its block labels; an estimate then gathers
each block's rows from its column once and scatters them into list order,
and an export formats each block's rows of each write in one call and puts
the lines in list order.  So no list pays per run of neighbours: on 4,000
lattice traces that alternate between two runs, an estimate took about
0.6 ms, against 0.03 ms on a run's own list, and an export about 21 ms, as
long as one of the same traces in drawing order (in-process medians on a
2-vCPU Xeon).  A
block holds no view, and the reference list holds no first view, so no
reference cycle forms: a list and its blocks are freed when it is dropped.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from itertools import repeat
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
# rows of a block, or places in a list: a slice, or an array of indices
_Index = Union[slice, np.ndarray]


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

    Row r is replication ``replications[r]`` of the run of ``seed``.  Its
    catastrophes and repairs before the horizon are
    ``times[bounds[r]:bounds[r + 1]]`` with their ``codes``.  Its lattice
    moves lie in the segments ``cuts[r]`` to ``cuts[r + 1]``, in time order,
    each with its ``starts``, ``lengths`` and counts of ``ups`` and
    ``downs``; ``tally[s]`` is the number of moves in the block's segments
    before segment s.  Its state at ``grid[c]`` is ``values[c, r]``, or the
    failure state where ``failed[c, r]``.  Lattice states are held as
    integers and diffusion levels as floats, so the dtype of ``values`` is the
    model of the paths.
    """

    seed: int
    replications: np.ndarray
    grid: tuple[float, ...]
    values: np.ndarray
    failed: np.ndarray
    times: np.ndarray
    codes: np.ndarray
    bounds: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    ups: np.ndarray
    downs: np.ndarray
    cuts: np.ndarray
    tally: np.ndarray

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
    ``observations`` are built when read, and a lattice path's move times are
    drawn then, from their own stream, and not kept.  Two traces are equal
    when they are paths of the same model with the same replication, events
    and observations; the hash reads the replication and the observations,
    and draws no moves.  A block's first view also holds, privately, a
    reference list of the block's views, headed by a second view of row 0
    in its own place, and their group (see the module's docstring), so while
    it lives, the other views do too.
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
        block, row = self._block, self._row
        if block.tally[block.cuts[row + 1]] - block.tally[block.cuts[row]] <= _ROW_MOVES:
            events = _row_events(block, row)
        else:
            times, codes, _ = _events(block, np.array([row]))
            events = zip(times.tolist(), codes.tolist())
        return tuple((when, _KINDS[code]) for when, code in events)

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
                and self.observations == other.observations and self.events == other.events)

    def __hash__(self) -> int:
        # the paths of a batch differ in replication, where most lattice paths
        # share their observations and a set would compare each with all the
        # others
        return hash((self.replication, self.observations))

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
_M0, _M1, _W0, _W1 = 0xD2511F53, 0xCD9E8D57, 0x9E3779B9, 0xBB67AE85
_PHILOX_M = np.array([_M0, _M1], dtype=np.uint64)
_PHILOX_W = np.array([_W0, _W1], dtype=np.uint64)
_WORD = np.uint64(0xFFFFFFFF)

# streams of the counter's second word: the skeleton, the lattice's move
# counts per segment, the diffusion's normals and the lattice's move times
_SKELETON, _COUNTS, _NORMALS, _MOVES = 0, 1, 2, 3

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
#: 56 bytes a draw while it is made, and most moves one path may list: 27
#: times the 151,551 of the largest array that the tests, the README commands
#: and the benchmark's tests ask for (one path of 1.5e5 cycles); the largest
#: path they list makes 1,043 moves
MAX_DRAWS = 1 << 22
#: most draws a whole run may make, counted by the budget that sizes its
#: chunks, times the replications: 22 times the 3.02e6 of the largest run of
#: the tests, README commands and the benchmark's tests (10 paths of 3.0e5)
MAX_RUN_DRAWS = 1 << 26
# Poisson means below this are inverted by summing the probabilities from 0,
# in NumPy; larger ones start from a normal quantile, corrected against
# SciPy's CDF, which costs less once the sum runs past a few dozen terms
_SUMMED_MEAN = 32.0
# most moves of a row that a view draws in Python integers, where a Philox
# block costs about 9 us, against about 350 us of NumPy calls for any row
_ROW_MOVES = 64
# the largest lam t or mu t of a lattice run: counts up to about this are
# integers in float64, where the correction steps by one
_MAX_MEAN = 2.0**52


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


def _philox_block(counter, key) -> tuple[int, int, int, int]:
    """:func:`_philox` of one counter in Python integers: the four words."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for _ in range(10):
        p0, p1 = _M0 * c0, _M1 * c2
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & 0xFFFFFFFF, (p0 >> 32) ^ c3 ^ k1, p0 & 0xFFFFFFFF
        k0, k1 = (k0 + _W0) & 0xFFFFFFFF, (k1 + _W1) & 0xFFFFFFFF
    return c0, c1, c2, c3


def _uniforms_at(seed: int, replications: np.ndarray, stream: int, index: np.ndarray) -> np.ndarray:
    """Draw ``index`` of ``stream`` of each replication, the two broadcast
    against each other: a (2, ...) array of uniforms on (0, 1], the two of a
    draw from its one Philox block."""
    rows = replications.astype(np.uint64)
    words = _philox(
        (index.astype(np.uint64), stream, rows & _WORD, rows >> 32),
        (seed & 0xFFFFFFFF, seed >> 32),
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


def _uniforms(seed: int, replications: np.ndarray, stream: int, draws: int) -> np.ndarray:
    """Draws 0..draws-1 of ``stream``: a (2, replications, draws) array of
    uniforms.  More than MAX_DRAWS draws in all are a ``ValueError``, before
    any array is made."""
    if len(replications) * draws > MAX_DRAWS:
        raise ValueError(f"the simulation needs {len(replications)} x {draws:.3g} draws in one "
                         f"array, more than the {MAX_DRAWS} allowed; shorten the horizon or "
                         "lower the rates")
    return _uniforms_at(seed, replications[:, None], stream, np.arange(draws)[None, :])


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


def _summed_quantiles(u: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Poisson quantiles of uniforms by summing the probabilities from 0, for
    means small enough that e^-mean is normal."""
    counts = np.zeros(len(u), dtype=np.int64)
    term = np.exp(-mean)
    left = np.flatnonzero(term < u)
    u, mean, term = u[left], mean[left], term[left]
    cdf = term.copy()
    k = 0
    while len(left):
        k += 1
        term *= mean / k
        grown = cdf + term
        # a sum that stops growing has reached float64's 1, which u = 1 may pass
        done = (grown >= u) | (grown == cdf)
        counts[left[done]] = k
        kept = ~done
        left, u, mean, term, cdf = left[kept], u[kept], mean[kept], term[kept], grown[kept]
    return counts


def _corrected_quantiles(u: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Poisson quantiles of uniforms from a Cornish-Fisher start, stepped by
    one against SciPy's Poisson CDF until it is the smallest count whose CDF
    reaches u."""
    from scipy.special import ndtri, pdtr

    z = ndtri(np.minimum(u, 1.0 - 2.0**-53))
    root = np.sqrt(mean)
    # the expansion's quantile of a count k falls near k + 1/2, so it is
    # rounded: the start is the quantile itself for nearly every u
    count = np.floor(mean + root * z + (z * z - 1.0) / 6.0 + z * (1.0 - z * z) / (72.0 * root)
                     + 0.5)
    np.maximum(count, 0.0, out=count)
    short = pdtr(count, mean) < u
    rise = np.flatnonzero(short)
    while len(rise):
        count[rise] += 1.0
        rise = rise[pdtr(count[rise], mean[rise]) < u[rise]]
    fall = np.flatnonzero(~short & (count > 0.0))
    while len(fall):
        fall = fall[pdtr(count[fall] - 1.0, mean[fall]) >= u[fall]]
        count[fall] -= 1.0
        fall = fall[count[fall] > 0.0]
    return count.astype(np.int64)


def _poisson(u: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """The Poisson quantile of each uniform at its mean, arrays of one shape:
    the smallest count k whose float64 CDF reaches u.  u = 1, whose quantile
    is infinite, gives a count whose CDF is 1 to a few ulps."""
    counts = np.empty(u.shape, dtype=np.int64)
    summed = mean < _SUMMED_MEAN
    counts[summed] = _summed_quantiles(u[summed], mean[summed])
    if not summed.all():
        counts[~summed] = _corrected_quantiles(u[~summed], mean[~summed])
    return counts


def _cycle_budget(nu: float, horizon: float) -> int:
    """Catastrophe/repair cycles first drawn per path."""
    return int(nu * horizon + 4.0 * math.sqrt(nu * horizon)) + 2


def _skeleton(seed: int, replications: np.ndarray, nu: float, eta: float, horizon: float):
    """Catastrophe/repair cycles of each replication, up to the last
    catastrophe before the horizon in any row: the real times of each
    catastrophe and of its repair."""
    if nu == 0.0:
        none = np.empty((len(replications), 0))
        return none, none
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
    return fail[:, :used], clock[:, :used] + downtime[:, :used]


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


def _pairs(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """(real, imag) pairs as complex numbers, which NumPy orders lexicographically."""
    keys = np.empty(len(real), dtype=complex)
    keys.real, keys.imag = real, imag
    return keys


def _lattice(p: DiscreteParams, cfg: SimConfig, replications: np.ndarray, fail, back, start, gap):
    """A chunk of lattice paths on their skeleton: the net steps of the
    segments that end at the observation times, one row per time, and the
    segments that hold moves, row after row in time order: their starts,
    lengths, ups and downs, and the chunk's row of each.

    Segment c < W ends at observation time c and runs from ``start[c]``; it
    holds no operating time (``gap[c]`` is 0) where that time falls in a
    repair.  Segment W + j ends at catastrophe j, or at the horizon after the
    last one, and runs from the later of the repair before it and the last
    observation time before its end.  Segment k's counts invert the two
    uniforms of draw k of the counts' stream."""
    horizon, width = cfg.horizon, len(gap)
    rows = len(replications)
    ticks = np.array([0.0, *cfg.observation_times])
    ends = np.minimum(np.concatenate([fail, np.full((rows, 1), horizon)], axis=1), horizon)
    after = np.minimum(np.concatenate([np.zeros((rows, 1)), back], axis=1), horizon)
    after = np.maximum(after, ticks[np.searchsorted(ticks, ends, "right") - 1])
    starts = np.concatenate([start.T, after], axis=1)
    lengths = np.concatenate([gap.T, ends - after], axis=1)
    u, v = _uniforms(cfg.seed, replications, _COUNTS, lengths.shape[1])
    ups, downs = _poisson(u, p.lam * lengths), _poisson(v, p.mu * lengths)
    steps = (ups[:, :width] - downs[:, :width]).T
    order = np.argsort(starts, axis=1, kind="stable")
    segments = [np.take_along_axis(part, order, axis=1) for part in (starts, lengths, ups, downs)]
    moved = segments[2] + segments[3] > 0
    return (steps,), (*(part[moved] for part in segments), np.nonzero(moved)[0])


def _diffusion(dp: DiffusionParams, cfg: SimConfig, replications: np.ndarray, fail, back, start, gap):
    """A chunk of diffusion paths, as in :func:`_lattice`: the drift and the
    noise of each observation's increment, and no segments."""
    u, v = _uniforms(cfg.seed, replications, _NORMALS, len(gap))
    normals = np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * math.pi * v)
    none, counts = np.empty(0), np.empty(0, dtype=np.int64)
    return ((dp.drift * gap, math.sqrt(dp.sigma2) * np.sqrt(gap) * normals.T),
            (none, none, counts, counts, counts))


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
    ticks = np.array([0.0, *cfg.observation_times])[:, None]
    parts = []
    for first in range(0, len(replications), chunk):
        if first % span == 0:
            skeleton = _skeleton(cfg.seed, replications[first:first + span],
                                 params.nu, params.eta, cfg.horizon)
        # the chunk's rows, up to the last catastrophe before the horizon in any of them
        rows = slice(first % span, first % span + chunk)
        used = int((skeleton[0][rows] < cfg.horizon).sum(axis=1).max(initial=0))
        fail, back = (part[rows, :used] for part in skeleton)
        indices = replications[first:first + chunk]
        # a path at w last restarted at the last repair before w, and w falls
        # in a repair where more catastrophes than repairs come before it
        repaired = _ranks(back, grid, "left")
        failed = (_ranks(fail, grid, "left") > repaired).T
        # the increment to w runs from the path's restart or the time before,
        # whichever is later, where every path is at 0 at time 0; it is void
        # where w falls in a repair, and no later increment chains from it
        restart = np.concatenate([np.zeros((1, len(indices))), back.T])[repaired.T,
                                                                         np.arange(len(indices))]
        chained = restart < ticks[:-1]
        start = np.where(chained, ticks[:-1], restart)
        gap = np.where(failed, 0.0, ticks[1:] - start)
        terms, segments = sample(params, cfg, indices, fail, back, start, gap)
        values = np.zeros((len(ticks), len(indices)), dtype=terms[0].dtype)
        # not a cumsum, which would add x + (step + noise) and round otherwise
        for c in range(len(gap)):
            values[c + 1] = np.where(chained[c], values[c], 0)
            for term in terms:
                values[c + 1] += term[c]
        marks = np.stack([fail, back], axis=2).reshape(len(indices), -1)
        kept = marks < cfg.horizon
        codes = np.broadcast_to(np.tile(np.int8([_CATASTROPHE, _REPAIR]), used), marks.shape)
        *segments, owners = segments
        parts.append((values[1:], failed, marks[kept], codes[kept], kept.sum(axis=1), *segments,
                      owners + first))
    values, failed, times, codes, marked, starts, lengths, ups, downs, owners = (
        np.concatenate(part, axis=-1) for part in zip(*parts))
    bounds, tally = (np.concatenate([[0], np.cumsum(part)]) for part in (marked, ups + downs))
    cuts = np.searchsorted(owners, np.arange(len(replications) + 1))
    block = _Block(cfg.seed, replications, cfg.observation_times, values, failed,
                   times, codes, bounds, starts, lengths, ups, downs, cuts, tally)
    views = list(map(PathTrace, repeat(block), range(len(replications))))
    # the views, headed by a second view of row 0 so that the first view
    # does not hold itself, and their one group
    reference = views.copy()
    reference[0] = PathTrace(block, 0)
    views[0]._drawn = reference, ((block, slice(None), slice(None)),)
    return views


def _simulate(params: Union[DiscreteParams, DiffusionParams], cfg: SimConfig) -> Iterator[PathTrace]:
    # the skeleton's cycles and a count draw for each segment: inf where the
    # rate times the horizon overflows
    mean_cycles = params.nu * cfg.horizon
    per_path = 2.0 * mean_cycles + 4.0 * math.sqrt(mean_cycles) + len(cfg.observation_times) + 2.0
    budget = per_path * cfg.replications
    if budget > MAX_RUN_DRAWS:
        raise ValueError(f"the simulation needs about {budget:.3g} draws, more than the "
                         f"{MAX_RUN_DRAWS} one run may make; shorten the horizon, lower the "
                         "rates or draw fewer replications")
    if isinstance(params, DiscreteParams):
        mean = max(params.lam, params.mu) * cfg.horizon
        if mean > _MAX_MEAN:
            raise ValueError(f"the lattice moves by t = {cfg.horizon!r} have a mean of {mean:.3g}, "
                             f"more than the {_MAX_MEAN:.3g} whose counts float64 holds exactly; "
                             "shorten the horizon or lower the rates")
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


def _groups(traces: list[PathTrace]) -> Sequence[tuple[_Block, _Index, _Index]]:
    """The traces grouped by block, in the order the blocks first appear:
    each group's block, the rows of it that the list holds and their places
    in the list, both in list order.  A block's own list of views is read
    from its first view, where ``traces`` still holds them; any other list
    is walked once.

    Comparing the lists passes over items that are the same objects without
    calling ``__eq__``; an item that is another object must equal its
    counterpart, a path of the same model and replication with the same
    values.
    """
    if not traces:
        return ()
    drawn = getattr(traces[0], "_drawn", None)
    if drawn is not None and traces == drawn[0]:
        return drawn[1]
    return _walk(traces)


def _walk(traces: list[PathTrace]) -> Sequence[tuple[_Block, _Index, _Index]]:
    """:func:`_groups` of a list that is not a block's own, from one walk
    that reads each trace's block and row.  The places of a block's traces
    are found by one stable sort of the list's block labels."""
    blocks = [trace._block for trace in traces]
    rows = np.array([trace._row for trace in traces], dtype=np.intp)
    if blocks.count(blocks[0]) == len(blocks):
        return ((blocks[0], rows, slice(None)),)
    label = {block: number for number, block in enumerate(dict.fromkeys(blocks))}
    labels = np.fromiter(map(label.__getitem__, blocks), dtype=np.intp, count=len(blocks))
    order = np.argsort(labels, kind="stable")
    cuts = np.searchsorted(labels[order], np.arange(len(label) + 1)).tolist()
    return tuple((block, rows[order[lo:hi]], order[lo:hi])
                 for block, lo, hi in zip(label, cuts, cuts[1:]))


def _estimator(traces: Iterable[PathTrace]):
    """:func:`estimate` over fixed traces, as a function of (t, statistic,
    arg).  A list is read as given, and any other iterable is listed once;
    the traces are grouped once, so a table of estimates walks them at most
    once, not once a cell."""
    traces = traces if isinstance(traces, list) else list(traces)
    count = len(traces)
    groups = _groups(traces)
    lattice = all(block.values.dtype.kind == "i" for block, _, _ in groups)

    def estimate_at(t: float, statistic: str, arg: Optional[float] = None) -> EmpiricalEstimate:
        arg = _statistic(statistic, arg, lattice)
        check_time(t)
        if count == 0:
            raise ValueError("no traces to estimate from")
        if t == 0.0:
            # the known start: every path is operating at 0
            states, failed = np.zeros(count), np.zeros(count, dtype=bool)
        else:
            parts = []
            for block, rows, places in groups:
                column = block.column(t)
                parts.append((places, block.values[column, rows], block.failed[column, rows]))
            if len(parts) == 1:
                _, states, failed = parts[0]
            else:
                # each group's column gathered, then scattered into list order
                states = np.empty(count, dtype=np.result_type(*(part[1] for part in parts)))
                failed = np.empty(count, dtype=bool)
                for places, values, down in parts:
                    states[places], failed[places] = values, down
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
        # values.mean() and values.var(ddof=1) bit for bit, from the same sums
        # without the Python layers of those methods, which cost more than the
        # sums on a batch of a few hundred paths; the fourth power is two
        # squarings, not libm pow, which cost most of a variance estimate
        mean = np.add.reduce(values) / count
        centered = values - mean
        squares = centered * centered
        square = float(np.add.reduce(squares)) / (count - 1)
        if statistic == "truncated-variance":
            fourth = float(np.add.reduce(squares * squares) / count)
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


def _spread(bounds: np.ndarray, rows: np.ndarray):
    """The entries ``bounds[r]:bounds[r + 1]`` of each of the rows, laid end
    to end, and the number of them per row."""
    first = bounds[rows]
    count = bounds[rows + 1] - first
    ends = np.cumsum(count)
    return np.arange(ends[-1]) + np.repeat(first - (ends - count), count), count


def _moves(block: _Block, rows: np.ndarray) -> np.ndarray:
    """The number of moves of each of the block's rows.  A row of more than
    MAX_DRAWS moves cannot be listed: a ``ValueError``."""
    moves = block.tally[block.cuts[rows + 1]] - block.tally[block.cuts[rows]]
    if len(moves) and moves.max() > MAX_DRAWS:
        worst = int(np.argmax(moves))
        raise ValueError(f"path {block.replications[rows[worst]]} makes {moves[worst]} moves, more "
                         f"than the {MAX_DRAWS} one path may list; shorten the horizon or lower "
                         "the rates")
    return moves


def _events(block: _Block, rows: np.ndarray):
    """The events before the horizon of the block's rows, row after row in
    time order: their times and codes, and the number of them per row.

    A segment's moves are drawn here: its N moves take the next N uniforms of
    their row's stream of move times, two to a Philox block, in the
    segment's time order.  Scaled to the segment and sorted, they are the
    move times; the first of them, in the order drawn, are its ups.
    """
    moves = _moves(block, rows)
    marks, marked = _spread(block.bounds, rows)
    times, codes = block.times[marks], block.codes[marks]
    total = int(moves.sum())
    if not total:
        return times, codes, marked
    segments, held = _spread(block.cuts, rows)
    ups, counts = block.ups[segments], block.ups[segments] + block.downs[segments]
    pairs = (moves + 1) // 2
    firsts = np.cumsum(pairs) - pairs
    index = np.arange(firsts[-1] + pairs[-1]) - np.repeat(firsts, pairs)
    uniforms = _uniforms_at(block.seed, np.repeat(block.replications[rows], pairs), _MOVES, index)
    # a row's uniforms run (u, v) block by block; the last v of an odd row is unused
    drawn = np.arange(total) + np.repeat(2 * firsts - (np.cumsum(moves) - moves), moves)
    uniforms = uniforms.T.ravel()[drawn]
    tallies = np.cumsum(counts) - counts
    segment = np.repeat(np.arange(len(segments)), counts)
    down = np.arange(total) >= np.repeat(tallies + ups, counts)
    order = np.argsort(_pairs(segment, uniforms))
    moved = np.repeat(block.starts[segments], counts) + uniforms * np.repeat(block.lengths[segments],
                                                                             counts)
    # a catastrophe or repair follows the moves of the segments that start
    # before it, which all lie before it
    ahead = np.searchsorted(_pairs(np.repeat(np.arange(len(rows)), held), block.starts[segments]),
                            _pairs(np.repeat(np.arange(len(rows)), marked), times))
    inserted = np.append(tallies, total)[ahead] + np.arange(len(marks))
    is_move = np.ones(total + len(marks), dtype=bool)
    is_move[inserted] = False
    event_times = np.empty(len(is_move))
    event_times[is_move] = moved[order]
    event_times[inserted] = times
    event_codes = np.empty(len(is_move), dtype=np.int8)
    event_codes[is_move] = down[order]  # _UP is 0 and _DOWN is 1
    event_codes[inserted] = codes
    return event_times, event_codes, marked + moves


def _row_events(block: _Block, row: int) -> list[tuple[float, int]]:
    """The events of one row, as :func:`_events` lists them, in Python floats
    and integers: for a row of few moves, a fraction of the cost of NumPy's
    calls."""
    first, last = block.cuts[row], block.cuts[row + 1]
    replication, seed = int(block.replications[row]), block.seed
    words, key = (replication & 0xFFFFFFFF, replication >> 32), (seed & 0xFFFFFFFF, seed >> 32)
    uniforms = []
    for index in range(int(block.tally[last] - block.tally[first] + 1) // 2):
        c0, c1, c2, c3 = _philox_block((index, _MOVES, *words), key)
        uniforms += ((((c0 >> 5) << 26) + (c1 >> 6) + 1) * 2.0**-53,
                     (((c2 >> 5) << 26) + (c3 >> 6) + 1) * 2.0**-53)
    drawn = iter(uniforms)
    segments = []
    for start, length, ups, downs in zip(*(part[first:last].tolist() for part in
                                           (block.starts, block.lengths, block.ups, block.downs))):
        ranked = sorted((u, int(k >= ups)) for k, u in zip(range(ups + downs), drawn))
        segments.append((start, [(start + u * length, down) for u, down in ranked]))
    events, ahead = [], 0
    lo, hi = block.bounds[row], block.bounds[row + 1]
    for when, code in zip(block.times[lo:hi].tolist(), block.codes[lo:hi].tolist()):
        while ahead < len(segments) and segments[ahead][0] < when:
            events += segments[ahead][1]
            ahead += 1
        events.append((when, code))
    for _, moves in segments[ahead:]:
        events += moves
    return events


def _records(block: _Block, rows: np.ndarray) -> np.ndarray:
    """The lines of the rows' records, row by row, each row's events, then
    its observations: a (lines, 3) array of the strings that make each line."""
    names = np.array(list(map(str, block.replications[rows].tolist())), dtype=object)
    times, codes, count = _events(block, rows)
    ends = np.cumsum(count)
    width = len(block.grid)
    pieces = np.empty((len(times) + width * len(rows), 3), dtype=object)
    # a row's events follow the observations of the rows before it, and its
    # observations follow its events
    line = np.arange(len(times)) + np.repeat(width * np.arange(len(rows)), count)
    pieces[line, 0] = np.repeat(names + "\tevent\t", count)
    pieces[line, 1] = list(map(repr, times.tolist()))
    pieces[line, 2] = _KIND_LINE_ENDS[codes]
    line = np.arange(width * len(rows)) + np.repeat(ends, width)
    pieces[line, 0] = np.repeat(names + "\tobs\t", width)
    pieces[line, 1] = np.tile([f"{when!r}\t" for when in block.grid], len(rows))
    states = block.values[:, rows].T.astype(object)
    states[block.failed[:, rows].T] = FAILED
    pieces[line, 2] = [f"{state!r}\n" for state in states.ravel().tolist()]
    return pieces


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

    A path of more than MAX_DRAWS moves cannot be listed: a ``ValueError``
    before the file is opened.  The move times are drawn one write at a time.
    """
    traces = traces if isinstance(traces, list) else list(traces)
    groups = [(block, np.arange(len(block.replications))[rows], np.arange(len(traces))[places])
              for block, rows, places in _groups(traces)]
    # each trace's record takes a line per event and per observation time
    lines = np.empty(len(traces), dtype=np.int64)
    for block, rows, places in groups:
        lines[places] = np.diff(block.bounds)[rows] + _moves(block, rows) + len(block.grid)
    bounds = np.concatenate([[0], np.cumsum(lines)])
    # one write per stretch of traces holding about _EXPORT_RECORDS lines, in
    # which each block's rows are formatted by one call
    part = (bounds[1:] - 1) // _EXPORT_RECORDS
    edges = [*np.flatnonzero(np.diff(part, prepend=-1)).tolist(), len(traces)]
    with open(path, "w", encoding="utf-8") as sink:
        sink.write("# catwalk-traces v1\n")
        sink.write(f"# params {json.dumps(params, sort_keys=True)}\n")
        sink.write(
            f"# seed {cfg.seed} replications {cfg.replications} horizon {cfg.horizon!r}\n"
        )
        for lo, hi in zip(edges, edges[1:]):
            parts = []
            for block, rows, places in groups:
                first, last = np.searchsorted(places, (lo, hi)).tolist()
                if first < last:
                    parts.append((places[first:last], _records(block, rows[first:last])))
            if len(parts) == 1:
                _, pieces = parts[0]
            else:
                # each block's lines put in list order
                pieces = np.empty((bounds[hi] - bounds[lo], 3), dtype=object)
                for places, records in parts:
                    pieces[_spread(bounds, places)[0] - bounds[lo]] = records
            sink.write("".join(pieces.ravel().tolist()))
