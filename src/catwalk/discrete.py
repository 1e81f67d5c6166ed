"""Exact laws of the bilateral birth-death walk with catastrophes and repairs.

The state space is the integers plus a failure state F.  While operating, the
walk steps +1 at rate lam and -1 at rate mu; catastrophes arrive at rate nu
and send the system to F; repairs take Exp(eta) and restart the walk at 0.
Starting at 0, the catastrophe-free transient law is the Skellam
distribution, with generating function e^{psi(z) t},
psi(z) = lam (z - 1) + mu (1/z - 1).  The operating law is its restart
convolution over the time u since the last restart,

    P_n(t) = e^{-nu t} P~_n(t) + eta int_0^t q(t - u) e^{-nu u} P~_n(u) du,

with q the failure mass, so its generating function is elementary:

    G(z, t) = sum_n P_n(t) z^n
            = e^{a t} + (eta nu / r) [(e^{a t} - 1) / a - (e^{a t} - e^{-r t}) / (a + r)],
    a = psi(z) - nu,  r = eta + nu.

A window of states is read off G by the trapezoid rule for the Cauchy
integral on a circle |z| = rho, one FFT of M nodes (Abate & Whitt 1992,
Numerical inversion of probability generating functions).  Its rounding
error is about eps G(rho) rho^{-n}, the Chernoff bound of state n, so a
group of states shares a radius while each member's bound there is within a
factor 10 of its least one.  The rule folds the states n +- M onto n, so M
is sized by a Chernoff bound of the law tilted to that radius: the folded
mass is below the rounding error.  The catastrophe-free law is the nu = 0
case.  The default window is the smallest one whose Chernoff bound on the
out-of-window mass is at most ``WINDOW_TAIL_TARGET``.  A grid of times is
inverted together (``transient_distributions``): every time keeps its own
radii, groups and FFT lengths, but each step runs once for all of them.

The closed-form laws (failure mass, stationary law, moments, transforms)
are elementary in the rates.  NumPy is imported only inside the functions of
the transient law, so the closed forms load without it.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .failure_cycle import (
    NoSteadyStateError,
    _long_run_moments,
    amplitude_over,
    asymptotic_moments,
    check_finite,
    check_rates,
    check_state,
    check_stationary,
    check_time,
    check_transform_variable,
    check_window,
    failure_mass,
    log_amplitude_over,
    rescaled,
    root_sum,
    steady_failure_mass,
    truncated_moments,
)
from .special import QuadratureError

# Not called here any more, but kept bound under these names: the traced
# benchmark run (perfbench/spans.py) wraps them in this module by name.
from .special import bessel_i_scaled, integrate_adaptive  # noqa: F401

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DiscreteParams",
    "DistributionSlice",
    "LaplaceRoots",
    "NoSteadyStateError",
    "failure_probability",
    "transient_probability",
    "transient_distribution",
    "transient_distributions",
    "default_window",
    "steady_state",
    "steady_failure",
    "mean_transient",
    "variance_transient",
    "asymptotic_mean",
    "asymptotic_variance",
    "mean_peak_time",
    "laplace_transforms",
    "laplace_pn",
]


#: a state is inverted on a radius whose Chernoff bound exceeds its least one
#: by at most this factor, in logarithms
_RADIUS_SLACK = math.log(10.0)
#: radius grids are refined until (s_{j+1} - s_j)(m_{j+1} - m_j) is at most
#: this, which puts the Legendre transform of log G within a quarter of it
_GRID_GAP = 0.5
#: complex step for the slope of log G
_STEP = 1e-20
#: the mass the FFT folds onto a state is held below eps times its Chernoff
#: bound, the rounding level, by a tilted Chernoff bound at these shifts
_FOLD = math.log(sys.float_info.epsilon)
_SHIFTS = tuple(2.0**k for k in range(-14, 4, 2))
#: expected events (lam + mu + nu) t past which the exponent of G, formed in
#: doubles, carries a rounding error above 1
_MAX_EVENTS = 1.0 / sys.float_info.epsilon
#: most states of a window and most nodes of one FFT: past either the lattice
#: law raises ``ValueError`` before it allocates.  An FFT's work arrays take
#: up to about 160 bytes a node, 0.7 GB at the cap; the largest FFT of the
#: README's examples (lam = 1e4, t = 20) has 2^18 nodes.
MAX_NODES = 1 << 22
#: nodes one batch works on: FFT nodes of the radius groups evaluated
#: together, and states of the times inverted together
_BATCH_NODES = 1 << 18


@dataclass(frozen=True)
class DiscreteParams:
    """Rates of the catastrophe-repair random walk (events per unit time).

    lam: rate of unit steps to the right
    mu:  rate of unit steps to the left
    nu:  catastrophe rate (any state jumps to the failure state F)
    eta: repair rate (Exp(eta) sojourn in F, then restart at 0)
    """

    lam: float
    mu: float
    nu: float
    eta: float

    def __post_init__(self) -> None:
        check_rates(self.nu, lam=self.lam, mu=self.mu, eta=self.eta)

    def swapped(self) -> "DiscreteParams":
        """Mirror walk with left/right rates exchanged."""
        return DiscreteParams(self.mu, self.lam, self.nu, self.eta)


def failure_probability(p: DiscreteParams, t: float) -> float:
    """Probability the system is under repair at time t."""
    return failure_mass(p.nu, p.eta, t)


def steady_failure(p: DiscreteParams) -> float:
    """Long-run probability of being under repair."""
    return steady_failure_mass(p.nu, p.eta)


def steady_state(p: DiscreteParams, n: int) -> float:
    """Long-run probability of state n; geometric on each side of the origin."""
    check_stationary(p.nu)
    return _scaled_transform(p, n, 0.0, f"the stationary probability of state {n}")


def mean_transient(p: DiscreteParams, t: float) -> float:
    """Mean of the state zeroed while under repair, E[N(t) 1{on}]."""
    return truncated_moments(p.nu, p.eta, t, p.lam - p.mu, p.lam + p.mu)[0]


def variance_transient(p: DiscreteParams, t: float) -> float:
    """Variance of the state zeroed while under repair, Var[N(t) 1{on}]."""
    return truncated_moments(p.nu, p.eta, t, p.lam - p.mu, p.lam + p.mu)[1]


def asymptotic_mean(p: DiscreteParams) -> float:
    """Long-run truncated mean, (lam-mu) eta / ((eta+nu) nu), also where the
    long-run variance is past float64."""
    mean, _ = _long_run_moments(p.nu, p.eta, p.lam - p.mu, p.lam + p.mu)
    return check_finite(mean, "the long-run truncated mean")


def asymptotic_variance(p: DiscreteParams) -> float:
    """Long-run truncated variance."""
    return asymptotic_moments(p.nu, p.eta, p.lam - p.mu, p.lam + p.mu)[1]


def mean_peak_time(p: DiscreteParams) -> Optional[float]:
    """Interior extremum of the truncated mean, or None when it is monotone.

    The mean has an interior peak only when repairs are slower than
    catastrophes (eta < nu) and the walk actually drifts (lam != mu).
    """
    if p.lam == p.mu or p.eta >= p.nu:
        return None
    return math.log(p.nu / (p.nu - p.eta)) / p.eta


@dataclass(frozen=True)
class LaplaceRoots:
    """Roots psi1 > psi2 of mu x^2 - (z + lam + mu + nu) x + lam = 0."""

    psi1: float
    psi2: float
    z: float


def _transform_root(lam: float, mu: float, nu: float, z: float) -> float:
    # sqrt((z+lam+mu+nu)^2 - 4 lam mu) rearranged to dodge the heavy-traffic
    # cancellation: (lam-mu)^2 + s (s + 2 (lam+mu)) with s = z + nu
    s = z + nu
    return root_sum(lam - mu, s, s + 2.0 * (lam + mu))


def _scaled_transform(p: DiscreteParams, n: int, z: float, law: str, over: float = 1.0) -> float:
    # z times the Laplace transform of P_n, for z >= 0, over ``over``: the
    # cycle's amplitude times the catastrophe-free resolvent at z + nu, which
    # is 1/root at the origin and falls geometrically on each side, by the
    # small quadratic root 2 lam/(total + root) for n > 0 and 2 mu/(total +
    # root) for n < 0 (rationalized).  At z = 0 it is the stationary law.
    # Both factors are at most 1, so their product is the one that can leave
    # the normal range; where it does and ``over`` < 1 may bring the quotient
    # back, the quotient is taken from logarithms, where nothing underflows.
    n = check_state(n)
    eta, lam, mu, nu, z = rescaled(law, p.eta, p.lam, p.mu, p.nu, z)
    root = _transform_root(lam, mu, nu, z)
    rate, total = (lam if n > 0 else mu), z + lam + mu + nu + root
    value = amplitude_over(root, nu, eta, z)
    if n:
        value *= (2.0 * rate / total) ** abs(n)
    if value >= sys.float_info.min or over >= 1.0 or (n and not rate):
        return value / over
    steps = abs(n) * (math.log(2.0 * rate) - math.log(total)) if n else 0.0
    return math.exp(log_amplitude_over(root, nu, eta, z) + steps - math.log(over))


def laplace_transforms(p: DiscreteParams, z: float) -> tuple[float, LaplaceRoots]:
    """Laplace transform of the origin probability P_0 and the geometric roots
    that extend it to every other state."""
    origin = laplace_pn(p, 0, z)
    law = "the lattice walk's geometric roots"
    _, lam, mu, nu, z_unit = rescaled(law, p.eta, p.lam, p.mu, p.nu, z)
    total = z_unit + lam + mu + nu + _transform_root(lam, mu, nu, z_unit)
    return origin, LaplaceRoots(
        psi1=check_finite(total / (2.0 * mu), law),
        psi2=2.0 * lam / total,
        z=z,
    )


def laplace_pn(p: DiscreteParams, n: int, z: float) -> float:
    """Laplace transform of P_n: the origin transform times psi2^n for n >= 1
    and psi1^n for n <= -1."""
    check_transform_variable(z)
    law = f"the Laplace transform of P_{n}"
    return check_finite(_scaled_transform(p, n, z, law, over=z), law)


def _check_horizon(p: DiscreteParams, t: float) -> None:
    check_time(t)
    events = (p.lam + p.mu + p.nu) * t
    if events > _MAX_EVENTS:
        raise ValueError(f"t = {t} is too long for the lattice law: (lam + mu + nu) t = "
                         f"{events:.3g} exceeds {_MAX_EVENTS:.3g}")


def _restart_integral(x, rate_t, scale, t):
    # e^{-scale} int_0^t e^{a u} (1 - e^{-r (t - u)}) du at x = a t and
    # rate_t = r t: t [(e^x - 1) / x - (e^x - e^{-r t}) / (x + r t)], each
    # quotient (e^x - e^y) / (x - y) in its expm1 form near its pole x = y;
    # rate_t, scale and t are arrays that broadcast against x
    import numpy as np
    y = rate_t[..., None] * np.array([0.0, -1.0])
    d = x[..., None] - y
    d = np.where(d == 0.0, 1e-300, d)  # expm1(d) / d -> 1
    low = np.exp(y - scale[..., None])
    near = np.abs(d) < 1.0
    high = np.exp(x - scale)[..., None]
    quotient = np.where(near, low * np.expm1(np.where(near, d, 0.0)), high - low) / d
    return t * (quotient[..., 0] - quotient[..., 1])


def _scaled_gf(p: DiscreteParams, t, s, theta):
    # (K, e^{-K} G(e^{s + i theta}, t)), broadcast over t, s and theta.  K is
    # at least the real exponent a(e^s) t, which bounds Re(a) t on the
    # circle, so nothing overflows; with catastrophes it is at least
    # min(0, log c), so G(e^s) e^{-K} >= c e^{-K} (restart integral) does not
    # underflow.
    import numpy as np
    neg = -s
    up, down = p.lam * np.exp(s), p.mu * np.exp(neg)
    real = (p.lam * np.expm1(s) + p.mu * np.expm1(neg) - p.nu) * t
    half = np.sin(0.5 * theta)
    x = (real - 2.0 * t * (up + down) * half * half) + 1j * (t * (up - down) * np.sin(theta))
    if p.nu == 0.0:
        return real, np.exp(x - real)
    rate = p.eta + p.nu
    weight = p.eta * p.nu / rate
    scale = np.maximum(real, min(0.0, math.log(weight)))
    restarts = _restart_integral(x, rate * t, scale, t)
    return scale, np.exp(x - scale) + weight * restarts


class _OutOfReach(ArithmeticError):
    """e^{-K} G came out 0, negative or NaN at the time it carries, so log G
    is out of reach: the restart quotients cancel where (eta + nu) t is
    tiny, or the complex step's phase is not small where the tilted mean is
    about 1 / _STEP."""


def _log_gf(p: DiscreteParams, t, s):
    # log G(e^s, t) and its slope in s, the mean of the law tilted by e^{ns},
    # from one complex step
    import numpy as np
    scale, g = _scaled_gf(p, t, s, _STEP)
    lost = ~(g.real > 0.0)
    if lost.any():
        raise _OutOfReach(float(np.broadcast_to(t, lost.shape)[lost][0]))
    return scale + np.log(g.real), g.imag / (g.real * _STEP)


def _radius_grid(p: DiscreteParams, times: np.ndarray, n_min: int, n_max: int) -> np.ndarray:
    # for each time, ascending radii s_j = log rho_j with L_j = log G(e^{s_j}),
    # whose tilted means m_j cover [n_min, n_max] and are refined where they
    # meet it, starting from the catastrophe-free saddles, where
    # (lam rho - mu / rho) t = n.  Every time is refined at once but alone:
    # the nodes are columns (row of times, s, L), ascending in s within
    # each row.
    import numpy as np
    t = times[:, None]
    n = np.array([n_min, n_max], dtype=float)
    root = np.log(np.abs(n) + np.sqrt(n * n + 4.0 * p.lam * p.mu * t * t))
    base = np.array([[math.log(2.0 * p.lam * v), math.log(2.0 * p.mu * v)] for v in times.tolist()])
    s = np.where(n >= 0, root - base[:, :1], base[:, 1:] - root)
    log_g, mean = _log_gf(p, t, s)
    # restarts pull the tilted mean towards 0, so the catastrophe-free saddles
    # can fall inside the window: push each end out until its mean clears
    # the window by all but 0.1, which moves L* by at most 0.005 / variance
    sign = np.array([-1.0, 1.0])
    step = np.full(s.shape, 0.25)
    while (push := sign * (mean - n) < -0.1).any():
        s[push] += (sign * step)[push]
        step[push] *= 2.0
        log_g[push], mean[push] = _log_gf(p, times[np.nonzero(push)[0]], s[push])
    keep = np.ones(s.shape, dtype=bool)
    keep[:, 1] = s[:, 0] != s[:, 1]
    nodes = np.array([np.nonzero(keep)[0], s[keep], log_g[keep], mean[keep]])
    while True:
        row, s, _, mean = nodes
        rise = nodes[:, 1:] - nodes[:, :-1]
        split = np.flatnonzero((rise[0] == 0.0) & (rise[1] * rise[3] > _GRID_GAP)
                               & (mean[1:] >= n_min) & (mean[:-1] <= n_max))
        if not split.size:
            return nodes[:3]
        new_row = np.repeat(row[split], 3)
        new = (s[split, None] + rise[1, split, None] * np.array([0.25, 0.5, 0.75])).ravel()
        new = np.array([new_row, new, *_log_gf(p, times[new_row.astype(np.intp)], new)])
        nodes = np.concatenate([nodes, new], axis=1)
        nodes = nodes[:, np.lexsort(nodes[1::-1])]


def _transient_window(p: DiscreteParams, times, n_min: int, n_max: int) -> np.ndarray:
    # P_n(t) for n_min <= n <= n_max, one row per time, computed with
    # lam >= mu and reflected otherwise, so swapping the rates mirrors the
    # law bit for bit
    import numpy as np
    times = np.array([float(t) for t in times])
    for t in times.tolist():
        _check_horizon(p, t)
    if n_max - n_min >= MAX_NODES:
        raise ValueError(f"window [{n_min}, {n_max}] has more than MAX_NODES = {MAX_NODES} states")
    mirror = p.lam < p.mu or (p.lam == p.mu and n_min + n_max < 0)
    walk, orders = ((p.swapped(), np.arange(-n_max, 1 - n_min)) if mirror
                    else (p, np.arange(n_min, n_max + 1)))
    out = np.zeros((times.size, orders.size))
    out[:, orders == 0] = 1.0
    live = np.flatnonzero(times > 0.0)
    # a time costs its window's states, but at least a few hundred nodes for
    # its radius grid and groups
    step = max(1, _BATCH_NODES // max(orders.size, 256))
    try:
        for batch in (live[i:i + step] for i in range(0, live.size, step)):
            out[batch] = _invert(walk, times[batch], orders)
    except _OutOfReach as lost:
        raise ValueError(f"the lattice law at t = {lost.args[0]} over the window [{n_min}, "
                         f"{n_max}] is out of reach: its generating function rounds to 0 or "
                         "below at a radius the inversion needs") from None
    return out[:, ::-1] if mirror else out


def _invert(p: DiscreteParams, times: np.ndarray, orders: np.ndarray) -> np.ndarray:
    # the window's states at each time t > 0, from a few FFTs per time
    import numpy as np
    nodes = _radius_grid(p, times, orders[0], orders[-1])
    row, s, log_g = nodes[0].astype(np.intp), nodes[1], nodes[2]
    # the radii as a (time, radius) table padded with L = inf
    col = np.arange(row.size) - np.searchsorted(row, row)
    shape = (times.size, col.max() + 1)
    radius, level = np.zeros(shape), np.full(shape, np.inf)
    radius[row, col], level[row, col] = s, log_g
    # L*(n) = max_j (n s_j - L_j) is attained at the first radius whose
    # chord slope to the next is not below n; the slopes below each integer
    # n are counted by a histogram over floor(slope) + 1, summed along n
    rise = nodes[:, 1:] - nodes[:, :-1]
    inner = np.flatnonzero(rise[0] == 0.0)
    slopes = rise[2, inner] / rise[1, inner]
    bucket = np.minimum(np.maximum(np.floor(slopes) + 1.0 - orders[0], 0), orders.size).astype(np.intp)
    span = orders.size + 1
    below = np.bincount(row[inner] * span + bucket, minlength=times.size * span)
    best = np.cumsum(below.reshape(times.size, span)[:, :-1], axis=1)
    rows = np.arange(times.size)[:, None]
    # f_n(s) = L(s) - n s, the log Chernoff bound of state n, exceeds its
    # least value by L(s) - n s + L*(n)
    conjugate = orders * radius[rows, best] - level[rows, best]
    return _fill(p, times, radius, level, orders, _radius_groups(radius, level, orders, conjugate))


def _radius_groups(radius, level, orders, conjugate):
    # runs of consecutive states of one time that share a radius: (row of
    # times, radius index, first state, end state) per group, found for
    # every time at once
    import numpy as np
    rows = np.arange(radius.shape[0])
    last, size = radius.shape[1] - 1, orders.size
    # one more state that no radius serves ends each time's last group
    orders = np.append(orders, orders[-1] + 1)
    conjugate = np.concatenate([conjugate, np.full((rows.size, 1), np.inf)], axis=1)
    start = np.zeros(rows.size, dtype=np.intp)
    found = []
    while (low := start.min()) < size:
        # the farthest radius the group's first state accepts, the states it
        # serves, then the radius that serves the group's two ends best; a
        # time whose groups are all found repeats its last one
        first = np.minimum(start, size - 1)
        lead = level - orders[first, None] * radius + conjugate[rows, first, None]
        k = last - (lead[:, ::-1] <= _RADIUS_SLACK).argmax(axis=1)
        excess = level[rows, k, None] - orders[low:] * radius[rows, k, None] + conjugate[:, low:]
        stop = low + ((excess > _RADIUS_SLACK) & (orders[low:] > orders[first, None])).argmax(axis=1)
        end = stop - 1
        trail = level - orders[end, None] * radius + conjugate[rows, end, None]
        found.append((start, np.maximum(lead, trail).argmin(axis=1), stop))
        start = stop
    start, k, stop = map(np.concatenate, zip(*found))
    keep = start < size
    return np.tile(rows, len(found))[keep], k[keep], start[keep], stop[keep]


def _fill(p: DiscreteParams, times, radius, level, orders, groups) -> np.ndarray:
    # each group's states by one FFT at its radius; the groups of one FFT
    # length are evaluated and transformed together
    import numpy as np
    row, k, first, stop = groups
    s, t = radius[row, k], times[row]
    sizes = _fft_sizes(p, t, s, level[row, k], orders[first], orders[stop - 1])
    # groups by FFT length, and their states, one entry each, in that order
    by_size = np.argsort(sizes, kind="stable")
    row, first, stop, s, t = (v[by_size] for v in (row, first, stop, s, t))
    sizes = sizes[by_size].tolist()
    length = stop - first
    offset = np.cumsum(length) - length
    member = np.repeat(np.arange(row.size), length)
    state = np.arange(member.size) - offset[member] + first[member]
    n = orders[state]
    bounds = [*offset.tolist(), member.size]
    tilted = np.empty(n.size)
    norm = np.empty(row.size)
    lo = 0
    while lo < len(sizes):
        size = sizes[lo]
        hi = bisect.bisect_right(sizes, size, lo)
        theta = (2.0 * math.pi / size) * np.arange(size // 2 + 1)
        step = max(1, _BATCH_NODES // size)
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            scale, g = _scaled_gf(p, t[a:b, None], s[a:b, None], theta)
            # the law tilted by rho^n / G(rho), with G(rho) = e^{scale} g[0]
            peak = g[:, 0].real
            law = np.fft.hfft(g / peak[:, None], size, axis=-1) / size
            norm[a:b] = scale[:, 0] + np.array([math.log(v) for v in peak.tolist()])
            at = slice(bounds[a], bounds[b])
            tilted[at] = law[member[at] - a, n[at] % size]
        lo = hi
    out = np.empty((times.size, orders.size))
    out[row[member], state] = tilted * np.exp(norm[member] - n * s[member])
    return out


def _fft_sizes(p: DiscreteParams, t, s, log_g, first, last) -> np.ndarray:
    # per group, the smallest power of two M at which the states n +- M
    # folded onto the states first..last at radius s are below
    # eps e^{f_n(s)}: for h > 0, the law tilted by e^{ns} / G(e^s) is below
    # e^{L(s +- h) - L(s) -+ h m} at m
    import numpy as np
    shifts = np.array(_SHIFTS)
    rise = _log_gf(p, t[:, None], s[:, None] + np.concatenate([shifts, -shifts]))[0]
    rise -= log_g[:, None]
    right = np.min((rise[:, :shifts.size] - first[:, None] * shifts - _FOLD) / shifts, axis=1)
    left = np.min((rise[:, shifts.size:] + last[:, None] * shifts - _FOLD) / shifts, axis=1)
    sizes = [1 << max(4, math.ceil(math.log2(max(need))))
             for need in zip(right.tolist(), left.tolist(), (last - first + 1).tolist())]
    for time, size in zip(t.tolist(), sizes):
        if size > MAX_NODES:
            raise ValueError(f"the lattice law at t = {time} needs an FFT of {size} nodes, "
                             f"more than MAX_NODES = {MAX_NODES}")
    return np.array(sizes)


def transient_probability(p: DiscreteParams, n: int, t: float) -> float:
    """P(system at state n at time t | started operating at 0).

    The no-catastrophe path plus the restart convolution over the time u
    since the last restart:

        P_n(t) = e^{-nu t} P~_n(t) + eta int_0^t q(t - u) e^{-nu u} P~_n(u) du,

    with q(s) = nu / (eta + nu) (1 - e^{-(eta + nu) s}) the failure mass.
    Inverted from the generating function in z (see the module notes) on a
    radius at the state's saddle point.  A one-state window of
    :func:`transient_distribution`.
    """
    n = check_state(n)
    return float(_transient_window(p, [t], n, n)[0, 0])


def _skellam_tail_chernoff(lam: float, mu: float, t: float, level: int) -> float:
    # bound on P(walk >= level at ANY time u <= t), exponential in level
    if level <= 0:
        return 1.0
    if t == 0.0:
        return 0.0
    root = (level + math.sqrt(level * level + 4.0 * t * t * lam * mu)) / (2.0 * t * lam)
    if root <= 1.0:
        return 1.0
    theta = math.log(root)
    growth = lam * (root - 1.0) + mu * (1.0 / root - 1.0)
    return math.exp(-theta * level + max(0.0, t * growth))


#: out-of-window mass the default window leaves, at most, split evenly
#: between the two tails
WINDOW_TAIL_TARGET = 1e-12


def _chernoff_level(lam: float, mu: float, t: float, target: float) -> int:
    # smallest level >= 1 whose uniform Chernoff tail bound is <= target; the
    # bound does not increase with the level, so double, then bisect
    low, high = 0, max(1, math.ceil((lam - mu) * t + math.sqrt((lam + mu) * t)))
    while _skellam_tail_chernoff(lam, mu, t, high) > target:
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        if _skellam_tail_chernoff(lam, mu, t, mid) > target:
            low = mid
        else:
            high = mid
    return high


def default_window(p: DiscreteParams, t: float) -> tuple[int, int]:
    """Smallest window (n_min, n_max) whose Chernoff bound on the mass outside
    it is at most ``WINDOW_TAIL_TARGET``.

    Each side is the inverse of the tail bound of :func:`transient_distribution`
    at half the target, so the window follows the drift, |lam - mu| t, plus
    O(sqrt((lam + mu) t)) on each side.
    """
    _check_horizon(p, t)
    half = 0.5 * WINDOW_TAIL_TARGET
    return (
        1 - _chernoff_level(p.mu, p.lam, t, half),
        _chernoff_level(p.lam, p.mu, t, half) - 1,
    )


@dataclass(frozen=True)
class DistributionSlice:
    """Transient distribution at a fixed time over an integer window."""

    time: float
    window: tuple[int, int]
    probabilities: dict[int, float]
    failure_mass: float
    tail_bound: float

    def total_mass(self) -> float:
        """Window mass plus failure mass; 1 minus at most ``tail_bound``."""
        return sum(self.probabilities.values()) + self.failure_mass


def transient_distribution(
    p: DiscreteParams,
    t: float,
    window: Optional[tuple[int, int]] = None,
) -> DistributionSlice:
    """Transient law over a window, with an out-of-window tail bound.

    The window defaults to :func:`default_window`.  Every state is inverted
    from the generating function in a few FFTs (see the module notes).

    The tail bound is a Chernoff bound on the catastrophe-free law, taken
    uniformly over the elapsed time; it dominates the full model because each
    restart contributes the same catastrophe-free tail with total weight at
    most one.  The window's mass is checked against it: a
    :class:`QuadratureError`, carrying the window's values, is raised when
    |1 - sum P_n - q(t)| exceeds the tail bound plus the per-state allowance
    sum (1e-10 P_n + 1e-14).
    """
    if window is None:
        window = default_window(p, t)
    return transient_distributions(p, [t], window)[0]


def transient_distributions(
    p: DiscreteParams, times, window: tuple[int, int]
) -> list[DistributionSlice]:
    """:func:`transient_distribution` at each of ``times`` over one window,
    in one batched pass; each slice equals the one-time call's.

    Every time has its own mass check; the first time, in order, that fails
    it raises the :class:`QuadratureError`.
    """
    n_min, n_max = window = check_window(window)
    times = [float(t) for t in times]
    slices = []
    for t, values in zip(times, _transient_window(p, times, n_min, n_max)):
        right = _skellam_tail_chernoff(p.lam, p.mu, t, n_max + 1)
        left = _skellam_tail_chernoff(p.mu, p.lam, t, 1 - n_min)
        tail_bound = min(1.0, left + right)
        failed = failure_probability(p, t)
        mass = math.fsum(values.tolist())
        defect = abs(1.0 - mass - failed)
        allowance = tail_bound + 1e-10 * mass + 1e-14 * values.size
        if defect > allowance:
            raise QuadratureError(f"window [{n_min}, {n_max}] at t={t} misses its mass: "
                                  f"|1 - sum P_n - q| = {defect:.3g} > {allowance:.3g}",
                                  values, defect)
        slices.append(DistributionSlice(
            time=t,
            window=window,
            probabilities=dict(zip(range(n_min, n_max + 1), values.tolist())),
            failure_mass=failed,
            tail_bound=tail_bound,
        ))
    return slices
