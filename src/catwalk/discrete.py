"""Exact laws of the bilateral birth-death walk with catastrophes and repairs.

The state space is the integers plus a failure state F.  While operating, the
walk steps +1 at rate lam and -1 at rate mu; catastrophes arrive at rate nu
and send the system to F; repairs take Exp(eta) and restart the walk at 0.
Starting at 0, the catastrophe-free transient law is the Skellam distribution

    P~_n(t) = e^{-(lam+mu) t} beta^n I_n(alpha t),
    alpha = 2 sqrt(lam mu),  beta = sqrt(lam / mu),

and every transient quantity of the full model is a repair-cycle convolution
of it.  All Bessel factors are evaluated in log space, through
log(e^{-x} I_n(x)) (``special.log_bessel_i_scaled``), with the exponent
n log(beta) - (lam + mu - alpha) u combined before one exponential.  That
keeps the heavy-traffic regime (lam + mu ~ 1e5) overflow-free, because
lam + mu >= alpha always, and keeps strongly drifting walks (lam >> mu, n in
the thousands) from underflowing, because beta^n is applied to the logarithm
of a Bessel factor far below the double range.

The transient law is computed a whole window of states at a time, in one
positive restart integral per state,

    P_n(t) = e^{-nu t} P~_n(t) + eta int_0^t q(t - u) e^{-nu u} P~_n(u) du,

with q the failure mass, on adaptive Gauss-Kronrod panels shared by every
state of the window (``special.integrate_batch``) and graded towards u = t,
where q(t - u) rises on the scale 1/(eta + nu).  Each state's restart term,
the second one above, is held to the ``QuadratureSpec`` tolerances on its
own.  The default window is the
smallest one whose Chernoff bound on the out-of-window mass is at most
``WINDOW_TAIL_TARGET``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .failure_cycle import (
    NoSteadyStateError,
    failure_mass,
    relaxation_profile,
    steady_failure_mass,
    truncated_second_moment,
)
from .special import (
    DEFAULT_QUADRATURE,
    QuadratureError,
    QuadratureSpec,
    integrate_batch,
    log_bessel_i_scaled,
)

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
        for name in ("lam", "mu", "nu", "eta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"rate {name} must be finite, got {value!r}")
        if self.lam <= 0.0 or self.mu <= 0.0 or self.eta <= 0.0:
            raise ValueError("lam, mu and eta must be strictly positive")
        if self.nu < 0.0:
            raise ValueError("nu must be nonnegative")

    @property
    def alpha(self) -> float:
        """2 sqrt(lam mu): argument scale of the Bessel kernel."""
        return 2.0 * math.sqrt(self.lam * self.mu)

    @property
    def beta(self) -> float:
        """sqrt(lam / mu): geometric asymmetry factor."""
        return math.sqrt(self.lam / self.mu)

    @property
    def log_beta(self) -> float:
        # written as a difference so swapping lam and mu negates it exactly,
        # which makes the n -> -n reflection bit-identical
        return 0.5 * (math.log(self.lam) - math.log(self.mu))

    @property
    def damping(self) -> float:
        """lam + mu - alpha = (sqrt(lam) - sqrt(mu))^2, the residual decay rate
        left over once the Bessel factor is scaled; free of cancellation."""
        return (math.sqrt(self.lam) - math.sqrt(self.mu)) ** 2

    def swapped(self) -> "DiscreteParams":
        """Mirror walk with left/right rates exchanged."""
        return DiscreteParams(self.mu, self.lam, self.nu, self.eta)


def failure_probability(p: DiscreteParams, t: float) -> float:
    """Probability the system is under repair at time t."""
    return failure_mass(p.nu, p.eta, t)


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")


def _skellam_law(p: DiscreteParams, orders: np.ndarray, u: np.ndarray, decay: float = 0.0):
    # e^{-decay u} P~_n(u) for orders n (rows) and times u > 0 (columns), with
    # the whole exponent summed in log space before one exponential
    log_value = (
        orders[:, None] * p.log_beta
        - (p.damping + decay) * u[None, :]
        + log_bessel_i_scaled(orders[:, None], p.alpha * u[None, :])
    )
    return np.exp(log_value)


def _transient_window(
    p: DiscreteParams, t: float, n_min: int, n_max: int, quad: QuadratureSpec
) -> np.ndarray:
    # P_n(t) for n_min <= n <= n_max: the no-catastrophe path plus one
    # positive restart integral per state, all states on shared panels
    _check_time(t)
    orders = np.arange(n_min, n_max + 1)
    if t == 0.0:
        return (orders == 0).astype(float)
    survived = _skellam_law(p, orders, np.array([t]), decay=p.nu)[:, 0]
    if p.nu == 0.0:
        return survived
    rate = p.nu + p.eta
    weight = p.eta * p.nu / rate

    def restart(u, rows):
        # eta q(t - u), so the tolerances bound the restart term of P_n itself
        failed = weight * -np.expm1(-rate * (t - u))
        return failed * _skellam_law(p, orders[rows], u, decay=p.nu)

    # q(t - u) rises from 0 on the scale 1/rate, which can be far below the
    # node spacing of a panel reaching u = t: grade the first panels towards
    # t geometrically so the rule sees that rise
    edges, lag = [t], 1.0 / rate
    while lag <= 0.5 * t:
        edges.insert(0, t - lag)
        lag *= 2.0
    try:
        integral, _ = integrate_batch(restart, orders.size, [0.0, *edges], quad)
    except QuadratureError as exc:
        raise QuadratureError(
            f"restart convolution at t={t} over states [{n_min}, {n_max}]: {exc}",
            best_estimate=survived + exc.best_estimate,
            error_bound=exc.error_bound,
        ) from exc
    return survived + integral


def skellam_probability(p: DiscreteParams, n: int, t: float) -> float:
    """Catastrophe-free transient law: P(walk at n at time t | started at 0)."""
    _check_time(t)
    if t == 0.0:
        return 1.0 if n == 0 else 0.0
    return float(_skellam_law(p, np.array([n]), np.array([t]))[0, 0])


def transient_probability(
    p: DiscreteParams,
    n: int,
    t: float,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """P(system at state n at time t | started operating at 0).

    The no-catastrophe path plus the restart convolution over the time u
    since the last restart:

        P_n(t) = e^{-nu t} P~_n(t) + eta int_0^t q(t - u) e^{-nu u} P~_n(u) du,

    with q(s) = nu / (eta + nu) (1 - e^{-(eta + nu) s}) the failure mass.
    The integrand is nonnegative, so the integral carries no cancellation;
    it is held to the tolerances of ``quad``.  A one-state window of
    :func:`transient_distribution`.
    """
    return float(_transient_window(p, t, n, n, quad)[0])


def first_passage_density(p: DiscreteParams, n: int, t: float) -> float:
    """Density of the first hitting time of level n for the catastrophe-free
    walk started at 0: |n| / t times the Skellam law."""
    if n == 0:
        raise ValueError("first-passage level must be nonzero")
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")
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
    _check_time(t)
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
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> DistributionSlice:
    """Transient law over a window, with an out-of-window tail bound.

    The window defaults to :func:`default_window`.  Every state is computed
    in one batch (see :func:`transient_probability` for the law and for what
    ``quad`` governs); a :class:`QuadratureError` carries the window's best
    estimates and error bounds as arrays over the states.

    The tail bound is a Chernoff bound on the catastrophe-free law, taken
    uniformly over the elapsed time; it dominates the full model because each
    restart contributes the same catastrophe-free tail with total weight at
    most one.
    """
    if window is None:
        window = default_window(p, t)
    n_min, n_max = window
    if n_min > n_max:
        raise ValueError(f"window must be nonempty, got {window}")
    values = _transient_window(p, t, n_min, n_max, quad)
    right = _skellam_tail_chernoff(p.lam, p.mu, t, n_max + 1)
    left = _skellam_tail_chernoff(p.mu, p.lam, t, 1 - n_min)
    return DistributionSlice(
        time=t,
        window=window,
        probabilities=dict(zip(range(n_min, n_max + 1), values.tolist())),
        failure_mass=failure_probability(p, t),
        tail_bound=min(1.0, left + right),
    )


def _steady_root(p: DiscreteParams) -> float:
    # sqrt((lam+mu+nu)^2 - 4 lam mu) rearranged to dodge the heavy-traffic
    # cancellation: (lam-mu)^2 + nu (nu + 2 (lam+mu))
    return math.sqrt((p.lam - p.mu) ** 2 + p.nu * (p.nu + 2.0 * (p.lam + p.mu)))


def steady_failure(p: DiscreteParams) -> float:
    """Long-run probability of being under repair."""
    return steady_failure_mass(p.nu, p.eta)


def steady_state(p: DiscreteParams, n: int) -> float:
    """Long-run probability of state n; geometric on each side of the origin."""
    if p.nu <= 0.0:
        raise NoSteadyStateError(
            "the walk has no stationary law without catastrophes (nu > 0 required)"
        )
    q = steady_failure_mass(p.nu, p.eta)
    root = _steady_root(p)
    at_origin = (1.0 - q) * p.nu / root
    if n == 0:
        return at_origin
    total = p.lam + p.mu + p.nu
    # the small quadratic root, rationalized: (total - root)/(2 mu) = 2 lam/(total + root)
    if n > 0:
        ratio = 2.0 * p.lam / (total + root)
    else:
        ratio = 2.0 * p.mu / (total + root)
    return at_origin * ratio ** abs(n)


def mean_transient(p: DiscreteParams, t: float) -> float:
    """Mean of the state zeroed while under repair, E[N(t) 1{on}]."""
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if p.nu == 0.0:
        return (p.lam - p.mu) * t
    prefactor = (p.lam - p.mu) * p.eta / ((p.eta + p.nu) * p.nu)
    return prefactor * relaxation_profile(p.nu, p.eta, t)


def variance_transient(p: DiscreteParams, t: float) -> float:
    """Variance of the state zeroed while under repair, Var[N(t) 1{on}].

    The failure-free walk has second moment (lam+mu) t + (lam-mu)^2 t^2; its
    restart convolution is an elementary exponential-polynomial integral, so
    the result is closed form.
    """
    second = truncated_second_moment(
        p.nu, p.eta, t, linear=p.lam + p.mu, quadratic=(p.lam - p.mu) ** 2
    )
    mean = mean_transient(p, t)
    return second - mean * mean


def asymptotic_mean(p: DiscreteParams) -> float:
    """Long-run truncated mean, (lam-mu) eta / ((eta+nu) nu)."""
    if p.nu <= 0.0:
        raise NoSteadyStateError("asymptotic moments require nu > 0")
    return (p.lam - p.mu) * p.eta / ((p.eta + p.nu) * p.nu)


def asymptotic_variance(p: DiscreteParams) -> float:
    """Long-run truncated variance."""
    if p.nu <= 0.0:
        raise NoSteadyStateError("asymptotic moments require nu > 0")
    drift2 = (p.lam - p.mu) ** 2
    first = (p.lam + p.mu) * p.eta / ((p.eta + p.nu) * p.nu)
    second = drift2 * p.eta * (2.0 * p.nu + p.eta) / ((p.eta + p.nu) ** 2 * p.nu**2)
    return first + second


def mean_peak_time(p: DiscreteParams) -> Optional[float]:
    """Interior extremum of the truncated mean, or None when it is monotone.

    The mean has an interior peak only when repairs are slower than
    catastrophes (eta < nu) and the walk actually drifts (lam != mu).
    """
    if p.lam == p.mu:
        return None
    if p.eta >= p.nu:
        return None
    return math.log(p.nu / (p.nu - p.eta)) / p.eta


@dataclass(frozen=True)
class LaplaceRoots:
    """Roots psi1 > psi2 of mu x^2 - (z + lam + mu + nu) x + lam = 0."""

    psi1: float
    psi2: float
    z: float


def _transform_root(p: DiscreteParams, z: float) -> float:
    s = z + p.nu
    return math.sqrt((p.lam - p.mu) ** 2 + s * (s + 2.0 * (p.lam + p.mu)))


def laplace_transforms(p: DiscreteParams, z: float) -> tuple[float, LaplaceRoots]:
    """Laplace transform of the origin probability P_0 and the geometric roots
    that extend it to every other state."""
    if z <= 0.0:
        raise ValueError(f"transform variable must be positive, got {z}")
    root = _transform_root(p, z)
    total = z + p.lam + p.mu + p.nu
    origin = (1.0 + p.eta * p.nu / (z * (z + p.eta + p.nu))) / root
    roots = LaplaceRoots(
        psi1=(total + root) / (2.0 * p.mu),
        psi2=2.0 * p.lam / (total + root),
        z=z,
    )
    return origin, roots


def laplace_pn(p: DiscreteParams, n: int, z: float) -> float:
    """Laplace transform of P_n: the origin transform times psi2^n for n >= 1
    and psi1^n for n <= -1."""
    origin, roots = laplace_transforms(p, z)
    if n == 0:
        return origin
    if n > 0:
        return origin * roots.psi2**n
    return origin * roots.psi1**n
