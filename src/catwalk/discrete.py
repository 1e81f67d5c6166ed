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
out-of-window mass is at most ``WINDOW_TAIL_TARGET``.

The parameters and the closed-form laws (failure mass, stationary law,
moments, transforms) live in :mod:`catwalk.discrete_closed`, which needs no
NumPy; they are re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .discrete_closed import (
    DiscreteParams,
    LaplaceRoots,
    asymptotic_mean,
    asymptotic_variance,
    failure_probability,
    laplace_pn,
    laplace_transforms,
    mean_peak_time,
    mean_transient,
    steady_failure,
    steady_state,
    variance_transient,
)
from .failure_cycle import NoSteadyStateError, check_state, check_time
from .special import QuadratureError

# Not called here any more, but kept bound under these names: the traced
# benchmark run (perfbench/spans.py) wraps them in this module by name.
from .special import bessel_i_scaled, integrate_adaptive  # noqa: F401

__all__ = [
    "DiscreteParams",
    "DistributionSlice",
    "LaplaceRoots",
    "NoSteadyStateError",
    "failure_probability",
    "skellam_probability",
    "transient_probability",
    "transient_distribution",
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
    "first_passage_density",
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
_FOLD = math.log(np.finfo(float).eps)
_SHIFTS = 2.0 ** np.arange(-14, 4, 2)
#: expected events (lam + mu + nu) t past which the exponent of G, formed in
#: doubles, carries a rounding error above 1
_MAX_EVENTS = 1.0 / np.finfo(float).eps


def _check_horizon(p: DiscreteParams, t: float) -> None:
    check_time(t)
    events = (p.lam + p.mu + p.nu) * t
    if events > _MAX_EVENTS:
        raise ValueError(f"t = {t} is too long for the lattice law: (lam + mu + nu) t = "
                         f"{events:.3g} exceeds {_MAX_EVENTS:.3g}")


def _restart_integral(x, rate_t, scale, t):
    # e^{-scale} int_0^t e^{a u} (1 - e^{-r (t - u)}) du at x = a t and
    # rate_t = r t: t [(e^x - 1) / x - (e^x - e^{-r t}) / (x + r t)], each
    # quotient (e^x - e^y) / (x - y) in its expm1 form near its pole x = y
    y = np.array([0.0, -rate_t])
    d = x[..., None] - y
    d = np.where(d == 0.0, 1e-300, d)  # expm1(d) / d -> 1
    low = np.exp(y - scale[..., None])
    near = np.abs(d) < 1.0
    high = np.exp(x - scale)[..., None]
    quotient = np.where(near, low * np.expm1(np.where(near, d, 0.0)), high - low) / d
    return t * (quotient[..., 0] - quotient[..., 1])


def _scaled_gf(p: DiscreteParams, t: float, s, theta):
    # (K, e^{-K} G(e^{s + i theta}, t)), broadcast over s and theta.  K is at
    # least the real exponent a(e^s) t, which bounds Re(a) t on the circle,
    # so nothing overflows; with catastrophes it is at least min(0, log c),
    # so G(e^s) e^{-K} >= c e^{-K} (restart integral) does not underflow.
    up, down = p.lam * np.exp(s), p.mu * np.exp(-s)
    real = (p.lam * np.expm1(s) + p.mu * np.expm1(-s) - p.nu) * t
    half = np.sin(0.5 * theta)
    x = (real - 2.0 * t * (up + down) * half * half) + 1j * (t * (up - down) * np.sin(theta))
    if p.nu == 0.0:
        return real, np.exp(x - real)
    rate = p.eta + p.nu
    weight = p.eta * p.nu / rate
    scale = np.maximum(real, min(0.0, math.log(weight)))
    restarts = _restart_integral(x, rate * t, scale, t)
    return scale, np.exp(x - scale) + weight * restarts


def _log_gf(p: DiscreteParams, t: float, s: np.ndarray):
    # log G(e^s, t) and its slope in s, the mean of the law tilted by e^{ns},
    # from one complex step
    scale, g = _scaled_gf(p, t, s, _STEP)
    return scale + np.log(g.real), g.imag / (g.real * _STEP)


def _radius_grid(p: DiscreteParams, t: float, n_min: int, n_max: int):
    # ascending radii s_j = log rho_j with L_j = log G(e^{s_j}), whose tilted
    # means m_j cover [n_min, n_max] and are refined where they meet it,
    # starting from the catastrophe-free saddles, where (lam rho - mu / rho) t = n
    n = np.array([n_min, n_max], dtype=float)
    root = np.log(np.abs(n) + np.sqrt(n * n + 4.0 * p.lam * p.mu * t * t))
    s = np.where(n >= 0, root - math.log(2.0 * p.lam * t), math.log(2.0 * p.mu * t) - root)
    log_g, mean = _log_gf(p, t, s)
    # restarts pull the tilted mean towards 0, so the catastrophe-free saddles
    # can fall inside the window: push each end out until its mean clears
    # the window by all but 0.1, which moves L* by at most 0.005 / variance
    for end, sign, target in ((0, -1.0, n_min), (1, 1.0, n_max)):
        step = 0.25
        while sign * (mean[end] - target) < -0.1:
            s[end] += sign * step
            step *= 2.0
            log_g[end], mean[end] = (v[0] for v in _log_gf(p, t, s[end:end + 1]))
    if s[0] == s[1]:
        return s[:1], log_g[:1]
    while True:
        gap = np.diff(s) * np.diff(mean)
        split = np.flatnonzero((gap > _GRID_GAP) & (mean[1:] >= n_min) & (mean[:-1] <= n_max))
        if not split.size:
            return s, log_g
        new = (s[split, None] + np.diff(s)[split, None] * np.array([0.25, 0.5, 0.75])).ravel()
        merged = [np.concatenate(pair) for pair in zip((s, log_g, mean), (new, *_log_gf(p, t, new)))]
        order = np.argsort(merged[0])
        s, log_g, mean = (v[order] for v in merged)


def _transient_window(p: DiscreteParams, t: float, n_min: int, n_max: int) -> np.ndarray:
    # P_n(t) for n_min <= n <= n_max, computed with lam >= mu and reflected
    # otherwise, so swapping the rates mirrors the law bit for bit
    _check_horizon(p, t)
    if p.lam < p.mu or (p.lam == p.mu and n_min + n_max < 0):
        return _transient_window(p.swapped(), t, -n_max, -n_min)[::-1]
    orders = np.arange(n_min, n_max + 1)
    if t == 0.0:
        return (orders == 0).astype(float)
    s, log_g = _radius_grid(p, t, n_min, n_max)
    # L*(n) = max_j (n s_j - L_j), attained where the chord slopes pass n;
    # f_n(s) = L(s) - n s, the log Chernoff bound of state n, exceeds its
    # least value by L(s) - n s + L*(n)
    best = np.searchsorted(np.diff(log_g) / np.diff(s), orders)
    conjugate = orders * s[best] - log_g[best]
    out = np.empty(orders.size)
    first = 0
    while first < orders.size:
        # the farthest radius the group's first state accepts, the states it
        # serves, then the radius that serves the group's two ends best
        lead = log_g - orders[first] * s + conjugate[first]
        k = np.flatnonzero(lead <= _RADIUS_SLACK)[-1]
        excess = log_g[k] - orders[first + 1:] * s[k] + conjugate[first + 1:]
        beyond = np.flatnonzero(excess > _RADIUS_SLACK)
        stop = first + 1 + (beyond[0] if beyond.size else excess.size)
        trail = log_g - orders[stop - 1] * s + conjugate[stop - 1]
        k = np.argmin(np.maximum(lead, trail))
        n = orders[first:stop]
        size = _fft_size(p, t, s[k], log_g[k], n[0], n[-1])
        scale, g = _scaled_gf(p, t, s[k], (2.0 * math.pi / size) * np.arange(size // 2 + 1))
        # the law tilted by rho^n / G(rho), with G(rho) = e^{scale} g[0]
        tilted = np.fft.hfft(g / g[0].real, size) / size
        out[first:stop] = tilted[n % size] * np.exp(scale + math.log(g[0].real) - n * s[k])
        first = stop
    return out


def _fft_size(p: DiscreteParams, t: float, s: float, log_g: float, first: int, last: int) -> int:
    # the smallest power of two M at which the states n +- M folded onto the
    # states first..last at radius s are below eps e^{f_n(s)}: for h > 0, the
    # law tilted by e^{ns} / G(e^s) is below e^{L(s +- h) - L(s) -+ h m} at m
    rise = _log_gf(p, t, s + np.concatenate([_SHIFTS, -_SHIFTS]))[0] - log_g
    right = np.min((rise[:_SHIFTS.size] - first * _SHIFTS - _FOLD) / _SHIFTS)
    left = np.min((rise[_SHIFTS.size:] + last * _SHIFTS - _FOLD) / _SHIFTS)
    return 1 << max(4, math.ceil(math.log2(max(right, left, last - first + 1))))


def skellam_probability(p: DiscreteParams, n: int, t: float) -> float:
    """Catastrophe-free transient law: P(walk at n at time t | started at 0),
    the nu = 0 case of :func:`transient_probability`."""
    return transient_probability(replace(p, nu=0.0), n, t)


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
    return float(_transient_window(p, t, n, n)[0])


def first_passage_density(p: DiscreteParams, n: int, t: float) -> float:
    """Density of the first hitting time of level n for the catastrophe-free
    walk started at 0: |n| / t times the Skellam law."""
    if n == 0:
        raise ValueError("first-passage level must be nonzero")
    check_time(t, positive=True)
    return abs(n) / t * skellam_probability(p, n, t)


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
    n_min, n_max = window = tuple(map(check_state, window))
    if n_min > n_max:
        raise ValueError(f"window must be nonempty, got {window}")
    values = _transient_window(p, t, n_min, n_max)
    right = _skellam_tail_chernoff(p.lam, p.mu, t, n_max + 1)
    left = _skellam_tail_chernoff(p.mu, p.lam, t, 1 - n_min)
    tail_bound = min(1.0, left + right)
    failed = failure_probability(p, t)
    mass = math.fsum(values.tolist())
    defect = abs(1.0 - mass - failed)
    allowance = tail_bound + 1e-10 * mass + 1e-14 * values.size
    if defect > allowance:
        raise QuadratureError(f"window [{n_min}, {n_max}] at t={t} misses its mass: "
                              f"|1 - sum P_n - q| = {defect:.3g} > {allowance:.3g}", values, defect)
    return DistributionSlice(
        time=t,
        window=window,
        probabilities=dict(zip(range(n_min, n_max + 1), values.tolist())),
        failure_mass=failed,
        tail_bound=tail_bound,
    )
