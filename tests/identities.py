"""Verification-only identities: each recomputes a law of the package a
second way, through the package's own functions, and returns the residual.

They are consistency checks of the library rather than independent oracles
(see ``oracles.py``), so they live with the tests instead of in the library.
"""

from __future__ import annotations

import math
from typing import Sequence

from catwalk import diffusion, discrete, scaling
from catwalk.diffusion import DiffusionParams
from catwalk.discrete import DiscreteParams
from catwalk.special import DEFAULT_QUADRATURE, QuadratureSpec, integrate_adaptive


def transient_probability_renewal(
    p: DiscreteParams,
    n: int,
    t: float,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Same law as :func:`catwalk.discrete.transient_probability` for n != 0,
    computed through the last visit to the origin:

        P_n(t) = int_0^t P_0(u) e^{-nu (t-u)} g_n(t - u) du,

    where g_n is the catastrophe-free first-passage density.  The integrand is
    0/0 at u = t; the closing interval of width 1e-8 t is replaced by the
    leading small-time behaviour of g_n instead of being sampled.
    """
    if n == 0:
        raise ValueError("renewal representation requires n != 0")
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")

    def integrand(u: float) -> float:
        lag = t - u
        if lag <= 0.0:
            return 0.0
        return (
            discrete.transient_probability(p, 0, u)
            * math.exp(-p.nu * lag)
            * discrete.first_passage_density(p, n, lag)
        )

    closing = 1e-8 * t
    body, _ = integrate_adaptive(integrand, 0.0, t - closing, quad)
    # g_n(s) ~ |n| (alpha/2)^{|n|} beta^n s^{|n|-1} / |n|! for s -> 0, so the
    # closing interval contributes P_0(t) (alpha closing / 2)^{|n|} beta^n / |n|!
    m = abs(n)
    log_tip = m * math.log(p.alpha * closing / 2.0) + n * p.log_beta - math.lgamma(m + 1)
    tip = math.exp(log_tip) * discrete.transient_probability(p, 0, t)
    return body + tip


def renewal_check(
    dp: DiffusionParams,
    x: float,
    t: float,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Residual of the last-visit-to-the-origin identity

        f(x,t) = int_0^t f(0,tau) e^{-nu (t-tau)} g(x, t-tau) dtau,  x != 0,

    with g the failure-free first-passage density.  Both sides are computed
    independently; the return value is their absolute difference.
    """
    if x == 0.0:
        raise ValueError("the renewal identity needs x != 0")
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")
    direct = diffusion.transient_density(dp, x, t)

    def integrand(tau: float) -> float:
        lag = t - tau
        if tau <= 0.0 or lag <= 0.0:
            return 0.0
        origin = diffusion.transient_density(dp, 0.0, tau)
        return origin * math.exp(-dp.nu * lag) * diffusion.fpt_density_wiener(dp, x, lag)

    # f(0,tau) blows up like 1/sqrt(tau) at tau = 0; tau = s^2 flattens it
    mid = 0.5 * t
    head, _ = integrate_adaptive(
        lambda s: 0.0 if s <= 0.0 else 2.0 * s * integrand(s * s),
        0.0,
        math.sqrt(mid),
        quad,
    )
    tail, _ = integrate_adaptive(integrand, mid, t, quad)
    return abs(direct - (head + tail))


def operating_mass_by_quadrature(dp: DiffusionParams, t: float) -> float:
    """Integral over x of :func:`catwalk.diffusion.transient_density` at time
    t > 0, which should equal ``diffusion.on_mass`` = 1 - q(t).

    The density has a kink at the origin, flanked on the side against the
    drift by an exponential tail of width sigma2 / (2 |c|), and its
    failure-free part is a Gaussian of width sigma sqrt(t) at c t.  The
    support, 12 such widths beyond both, is cut at 0 and c t, with break
    points spaced geometrically towards each of them from either side, and
    each piece is integrated adaptively.
    """
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")
    centre = dp.drift * t
    spread = 12.0 * math.sqrt(dp.sigma2 * t)
    lo, hi = min(0.0, centre) - spread, max(0.0, centre) + spread
    points = {lo, hi}
    for anchor in (0.0, centre):
        for width in [0.0] + [spread * 10.0 ** (-k / 2) for k in range(19)]:
            points.update((anchor - width, anchor + width))
    edges = sorted(p for p in points if lo <= p <= hi)
    spec = QuadratureSpec(1e-12, 1e-16)
    return math.fsum(
        integrate_adaptive(lambda x: diffusion.transient_density(dp, x, t), a, b, spec).value
        for a, b in zip(edges[:-1], edges[1:])
    )


def rate_invariance_check(
    dp: DiffusionParams,
    epsilon: float,
    h: float,
    n_grid: Sequence[int] = tuple(range(-10, 11)),
) -> float:
    """Residual of the rescaling family (eps, drift components, sigma) -> h
    multiples.

    Scaling eps, lam_hat, mu_hat and sigma (so sigma2 by h^2) leaves the
    induced lattice rates unchanged and preserves the per-site stationary
    mass, W_h(n eps_h) eps_h = W(n eps) eps.  Returns the largest violation:
    relative for the rates, absolute for the mass products.
    """
    if h <= 0.0:
        raise ValueError(f"h must be positive, got {h}")
    scaled = DiffusionParams(
        lam_hat=dp.lam_hat * h,
        mu_hat=dp.mu_hat * h,
        sigma2=dp.sigma2 * h * h,
        nu=dp.nu,
        eta=dp.eta,
    )
    eps_h = epsilon * h
    base_rates = scaling.scale_params(dp, epsilon)
    moved_rates = scaling.scale_params(scaled, eps_h)
    residual = max(
        abs(moved_rates.lam - base_rates.lam) / base_rates.lam,
        abs(moved_rates.mu - base_rates.mu) / base_rates.mu,
    )
    for n in n_grid:
        base = diffusion.steady_density(dp, n * epsilon) * epsilon
        moved = diffusion.steady_density(scaled, n * eps_h) * eps_h
        residual = max(residual, abs(moved - base))
    return residual


def mean_correspondence_check(
    dp: DiffusionParams, epsilon: float, t_grid: Sequence[float]
) -> float:
    """Max over the grid of |lattice mean - diffusion mean / eps|.

    The identity is exact algebra (the lattice drift is drift/eps), so the
    residual is pure floating-point noise.
    """
    p = scaling.scale_params(dp, epsilon)
    return max(
        abs(discrete.mean_transient(p, t) - diffusion.mean_x(dp, t) / epsilon) for t in t_grid
    )
