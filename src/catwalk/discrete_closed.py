"""The lattice walk's parameters and its closed-form laws: the failure mass,
the stationary law, the truncated moments and the Laplace transforms.

Each of these is elementary in the rates, so this module needs no NumPy;
the command line prints them without loading it.  The transient law, which
is inverted from its generating function by FFT, lives in
:mod:`catwalk.discrete`, which re-exports every name here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .failure_cycle import (
    asymptotic_moments,
    check_rates,
    check_state,
    check_stationary,
    check_transform_variable,
    failure_mass,
    steady_failure_mass,
    transform_amplitude,
    truncated_moments,
)

__all__ = [
    "DiscreteParams",
    "LaplaceRoots",
    "failure_probability",
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
    return _scaled_transform(p, n, 0.0)


def mean_transient(p: DiscreteParams, t: float) -> float:
    """Mean of the state zeroed while under repair, E[N(t) 1{on}]."""
    return truncated_moments(p.nu, p.eta, t, p.lam - p.mu, p.lam + p.mu)[0]


def variance_transient(p: DiscreteParams, t: float) -> float:
    """Variance of the state zeroed while under repair, Var[N(t) 1{on}]."""
    return truncated_moments(p.nu, p.eta, t, p.lam - p.mu, p.lam + p.mu)[1]


def asymptotic_mean(p: DiscreteParams) -> float:
    """Long-run truncated mean, (lam-mu) eta / ((eta+nu) nu)."""
    return asymptotic_moments(p.nu, p.eta, p.lam - p.mu, p.lam + p.mu)[0]


def asymptotic_variance(p: DiscreteParams) -> float:
    """Long-run truncated variance."""
    return asymptotic_moments(p.nu, p.eta, p.lam - p.mu, p.lam + p.mu)[1]


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
    # sqrt((z+lam+mu+nu)^2 - 4 lam mu) rearranged to dodge the heavy-traffic
    # cancellation: (lam-mu)^2 + s (s + 2 (lam+mu)) with s = z + nu
    s = z + p.nu
    return math.sqrt((p.lam - p.mu) ** 2 + s * (s + 2.0 * (p.lam + p.mu)))


def _scaled_transform(p: DiscreteParams, n: int, z: float) -> float:
    # z times the Laplace transform of P_n, for z >= 0: the cycle's amplitude
    # times the catastrophe-free resolvent at z + nu, which is 1/root at the
    # origin and falls geometrically on each side, by the small quadratic
    # root 2 lam/(total + root) for n > 0 and 2 mu/(total + root) for n < 0
    # (rationalized).  At z = 0 it is the stationary law.
    n = check_state(n)
    root = _transform_root(p, z)
    origin = transform_amplitude(p.nu, p.eta, z) / root
    if n == 0:
        return origin
    rate = p.lam if n > 0 else p.mu
    return origin * (2.0 * rate / (z + p.lam + p.mu + p.nu + root)) ** abs(n)


def laplace_transforms(p: DiscreteParams, z: float) -> tuple[float, LaplaceRoots]:
    """Laplace transform of the origin probability P_0 and the geometric roots
    that extend it to every other state."""
    origin = laplace_pn(p, 0, z)
    root = _transform_root(p, z)
    total = z + p.lam + p.mu + p.nu
    return origin, LaplaceRoots(
        psi1=(total + root) / (2.0 * p.mu),
        psi2=2.0 * p.lam / (total + root),
        z=z,
    )


def laplace_pn(p: DiscreteParams, n: int, z: float) -> float:
    """Laplace transform of P_n: the origin transform times psi2^n for n >= 1
    and psi1^n for n <= -1."""
    check_transform_variable(z)
    return _scaled_transform(p, n, z) / z
