"""The jump-diffusion's parameters and its closed-form laws: the failure
mass, the stationary density, the truncated moments and the Laplace
transform of the density.

Each of these is elementary in the rates, so this module needs no NumPy;
the command line prints them without loading it.  The transient density and
its slices, which use NumPy and SciPy's error functions, live in
:mod:`catwalk.diffusion`, which re-exports every name here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .failure_cycle import (
    asymptotic_moments as _cycle_asymptotic_moments,
    check_level,
    check_rates,
    check_stationary,
    check_transform_variable,
    failure_mass,
    transform_amplitude,
    truncated_moments,
)

__all__ = [
    "DiffusionParams",
    "PointMass",
    "DIRAC_AT_ORIGIN",
    "failure_probability",
    "laplace_density",
    "laplace_roots",
    "steady_density",
    "steady_decay_length",
    "mean_x",
    "variance_x",
    "asymptotic_moments",
]


@dataclass(frozen=True)
class DiffusionParams:
    """Drift components, variance and failure-cycle rates of the jump-diffusion.

    lam_hat: upward drift component (space per time)
    mu_hat:  downward drift component
    sigma2:  infinitesimal variance (space^2 per time)
    nu:      catastrophe rate
    eta:     repair rate
    """

    lam_hat: float
    mu_hat: float
    sigma2: float
    nu: float
    eta: float

    def __post_init__(self) -> None:
        check_rates(self.nu, lam_hat=self.lam_hat, mu_hat=self.mu_hat, sigma2=self.sigma2,
                    eta=self.eta)

    @property
    def drift(self) -> float:
        return self.lam_hat - self.mu_hat


@dataclass(frozen=True)
class PointMass:
    """Degenerate law concentrated at one point (the t = 0 initial condition)."""

    location: float


DIRAC_AT_ORIGIN = PointMass(0.0)


def failure_probability(dp: DiffusionParams, t: float) -> float:
    """Probability of being under repair at time t (atom at F)."""
    return failure_mass(dp.nu, dp.eta, t)


def _decay_root(dp: DiffusionParams, rate: float) -> float:
    # r = sqrt(drift^2 + 2 sigma2 rate): at catastrophe rate plus transform
    # variable ``rate``, densities fall off as exp((drift x - r |x|) / sigma2)
    return math.sqrt(dp.drift**2 + 2.0 * dp.sigma2 * rate)


def laplace_roots(dp: DiffusionParams, z: float) -> tuple[float, float]:
    """Roots w1 > 0 > w2 of sigma2 w^2 - 2 drift w - 2 (z + nu) = 0, the decay
    exponents of the transform density on each side of the origin."""
    check_transform_variable(z)
    root = _decay_root(dp, z + dp.nu)
    return (dp.drift + root) / dp.sigma2, (dp.drift - root) / dp.sigma2


def _scaled_transform(dp: DiffusionParams, x: float, z: float) -> float:
    # z times the Laplace transform of the density at x, for z >= 0: the
    # failure-free resolvent at z + nu times the cycle's amplitude.  At z = 0
    # it is the stationary density.
    root = _decay_root(dp, z + dp.nu)
    amplitude = transform_amplitude(dp.nu, dp.eta, z)
    return amplitude / root * math.exp((dp.drift * x - root * abs(x)) / dp.sigma2)


def laplace_density(dp: DiffusionParams, x: float, z: float) -> float:
    """Laplace transform in time of the transient density, in closed form."""
    check_transform_variable(z)
    check_level(x)
    return _scaled_transform(dp, x, z) / z


def steady_density(dp: DiffusionParams, x: float) -> float:
    """Long-run density: bilateral asymmetric exponential around the origin."""
    check_stationary(dp.nu)
    check_level(x)
    return _scaled_transform(dp, x, 0.0)


def steady_decay_length(dp: DiffusionParams) -> float:
    """Decay length of the stationary density on the drift's side, the longer
    of its two: there it falls off as exp(-|x| / length)."""
    check_stationary(dp.nu)
    return dp.sigma2 / (_decay_root(dp, dp.nu) - abs(dp.drift))


def mean_x(dp: DiffusionParams, t: float) -> float:
    """Truncated mean E[X(t) 1{on}]."""
    return truncated_moments(dp.nu, dp.eta, t, dp.drift, dp.sigma2)[0]


def variance_x(dp: DiffusionParams, t: float) -> float:
    """Truncated variance Var[X(t) 1{on}], fully closed form."""
    return truncated_moments(dp.nu, dp.eta, t, dp.drift, dp.sigma2)[1]


def asymptotic_moments(dp: DiffusionParams) -> tuple[float, float]:
    """Long-run truncated mean and variance."""
    return _cycle_asymptotic_moments(dp.nu, dp.eta, dp.drift, dp.sigma2)
