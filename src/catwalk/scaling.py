"""Bridge between the lattice model and its jump-diffusion limit.

The lattice is rescaled to spacing epsilon with rates

    lam = lam_hat / eps + sigma2 / (2 eps^2),
    mu  = mu_hat  / eps + sigma2 / (2 eps^2),

while the failure-cycle rates pass through unchanged.  As eps shrinks, lattice
probabilities divided by eps approach the diffusion densities; the functions
here quantify that agreement (stationary laws, Laplace transforms, moments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import diffusion
from .diffusion import DiffusionParams
from .discrete import DiscreteParams, asymptotic_variance, laplace_pn, steady_state

__all__ = [
    "ComparisonRow",
    "scale_params",
    "steady_comparison",
    "laplace_convergence",
    "asymptotic_variance_gap",
]


def scale_params(dp: DiffusionParams, epsilon: float) -> DiscreteParams:
    """Lattice rates induced by spacing epsilon."""
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    try:
        shared = dp.sigma2 / (2.0 * epsilon * epsilon)
    except ZeroDivisionError:
        raise ValueError(f"epsilon^2 underflows to 0 at epsilon = {epsilon}") from None
    return DiscreteParams(
        lam=dp.lam_hat / epsilon + shared,
        mu=dp.mu_hat / epsilon + shared,
        nu=dp.nu,
        eta=dp.eta,
    )


@dataclass(frozen=True)
class ComparisonRow:
    """One line of a stationary-law comparison at lattice site n.

    delta is the relative difference (w_value*eps - pi_n) / pi_n with pi_n the
    lattice stationary probability, so scaled_pi and w_value agree when delta
    is small.
    """

    n: int
    scaled_pi: float
    w_value: float
    delta: float


def steady_comparison(
    dp: DiffusionParams, epsilon: float, n_range: Iterable[int]
) -> list[ComparisonRow]:
    """Stationary lattice probabilities over eps against the stationary
    density at the matching points.  ``ValueError`` where pi_n underflows
    to 0, which leaves delta undefined."""
    p = scale_params(dp, epsilon)
    rows = []
    for n in n_range:
        pi = steady_state(p, n)
        if pi == 0.0:
            raise ValueError(f"the lattice pi_{n} underflows to 0 at epsilon = {epsilon}, "
                             "so delta = (w eps - pi) / pi is undefined")
        w = diffusion.steady_density(dp, n * epsilon)
        rows.append(
            ComparisonRow(n=n, scaled_pi=pi / epsilon, w_value=w, delta=(w * epsilon - pi) / pi)
        )
    return rows


def laplace_convergence(
    dp: DiffusionParams,
    z: float,
    x: float,
    eps_list: Sequence[float],
) -> list[tuple[float, float]]:
    """Per-epsilon gaps |P_n*(z)/eps - f*(x,z)| with n the lattice site nearest
    x/eps (round half to even).  The gaps shrink as eps does."""
    target = diffusion.laplace_density(dp, x, z)
    gaps = []
    for epsilon in eps_list:
        p = scale_params(dp, epsilon)
        n = round(x / epsilon)
        gaps.append((epsilon, abs(laplace_pn(p, n, z) / epsilon - target)))
    return gaps


def asymptotic_variance_gap(dp: DiffusionParams, epsilon: float) -> tuple[float, float]:
    """Finite-spacing gap between the rescaled lattice variance limit and the
    diffusion variance limit, together with its exact closed form.

    eps^2 V_N(inf) - V_X(inf) = (lam_hat + mu_hat) eps eta / ((eta + nu) nu):
    the lattice carries (lam+mu) eps^2 = sigma2 + (lam_hat + mu_hat) eps where
    the diffusion carries sigma2, so the limits agree only as eps -> 0.
    """
    p = scale_params(dp, epsilon)
    _, diffusion_limit = diffusion.asymptotic_moments(dp)
    gap = epsilon * epsilon * asymptotic_variance(p) - diffusion_limit
    predicted = (dp.lam_hat + dp.mu_hat) * epsilon * dp.eta / ((dp.eta + dp.nu) * dp.nu)
    return gap, predicted
