"""Analytic laws of the jump-diffusion limit: Wiener motion between failures.

The process drifts like a Wiener process with drift lam_hat - mu_hat and
infinitesimal variance sigma2 until a catastrophe (rate nu) sends it to the
failure state F; after an Exp(eta) repair it restarts from 0.  Its law has a
density on the reals plus an atom at F whose mass is the same failure mass as
in the discrete model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .failure_cycle import (
    NoSteadyStateError,
    failure_mass as _cycle_failure_mass,
    relaxation_profile,
)
from .special import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    integrate_adaptive,
    integrate_batch,
)

__all__ = [
    "DiffusionParams",
    "DensitySlice",
    "PointMass",
    "DIRAC_AT_ORIGIN",
    "failure_probability",
    "wiener_density",
    "transient_density",
    "on_mass",
    "density_slice",
    "laplace_density",
    "laplace_roots",
    "steady_density",
    "mean_x",
    "variance_x",
    "asymptotic_moments",
    "fpt_density_wiener",
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
        for name in ("lam_hat", "mu_hat", "sigma2", "nu", "eta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.lam_hat <= 0.0 or self.mu_hat <= 0.0:
            raise ValueError("drift components lam_hat and mu_hat must be positive")
        if self.sigma2 <= 0.0:
            raise ValueError("sigma2 must be positive")
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if self.nu < 0.0:
            raise ValueError("nu must be nonnegative")

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
    return _cycle_failure_mass(dp.nu, dp.eta, t)


def _gaussian(dp: DiffusionParams, offset, t: float):
    # failure-free kernel at displacement ``offset`` from its mean; numpy
    # arithmetic so that scalar and vector callers get identical bits
    var = dp.sigma2 * t
    return np.exp(-offset * offset / (2.0 * var)) / np.sqrt(2.0 * math.pi * var)


def wiener_density(dp: DiffusionParams, x: float, t: float, x0: float = 0.0) -> float:
    """Failure-free transition density: Gaussian with mean x0 + drift*t and
    variance sigma2*t."""
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")
    return float(_gaussian(dp, x - x0 - dp.drift * t, t))


#: |beta^2| below which the lag integral is summed as a series in beta^2
_SERIES_RADIUS = 1e-2
_SERIES_TERMS = 7
#: erfcx derivatives: forward recurrence up to this alpha, continued fraction above
_FORWARD_LIMIT = 3.0
_FRACTION_DEPTH = 48
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def _erfcx_derivatives(alpha: np.ndarray, count: int) -> list:
    """erfcx and its first ``count`` derivatives at alpha >= 0.

    They obey y_{n+1} = 2 alpha y_n + 2 n y_{n-1} with y_1 = 2 alpha y_0 -
    2/sqrt(pi).  That recurrence is stable forward only for small alpha; for
    large alpha the derivatives are its minimal solution, so their ratios
    y_n / y_{n-1} = 2n / (y_{n+1} / y_n - 2 alpha) come from a continued
    fraction run backward from zero.
    """
    from scipy.special import erfcx

    ys = [erfcx(alpha)] + [np.empty_like(alpha) for _ in range(count)]
    low = alpha <= _FORWARD_LIMIT
    a, prev = alpha[low], ys[0][low]
    cur = 2.0 * a * prev - _TWO_OVER_SQRT_PI
    ys[1][low] = cur
    for n in range(1, count):
        prev, cur = cur, 2.0 * a * cur + 2.0 * n * prev
        ys[n + 1][low] = cur
    high = ~low
    a = alpha[high]
    ratio = np.zeros_like(a)
    ratios = {}
    for n in range(_FRACTION_DEPTH, 0, -1):
        ratio = 2.0 * n / (ratio - 2.0 * a)
        if n <= count:
            ratios[n] = ratio
    value = ys[0][high]
    for n in range(1, count + 1):
        value = value * ratios[n]
        ys[n][high] = value
    return ys


def _lag_integral(
    dp: DiffusionParams, x: np.ndarray, t: float, a: float, exponent: np.ndarray, fold: float
) -> np.ndarray:
    """e^{fold} K_a, with K_a in the erfcx form given in transient_density.

    ``exponent`` is -(x - c t)^2 / (2 sigma2 t) - a t + fold, so that e^{fold}
    never has to be formed on its own.  The bracket over 2 beta is an even
    function of beta: for beta^2 < 0 it is -Im erfcx(alpha + i gamma) / gamma
    with gamma = sqrt(-beta^2) (Faddeeva w), and near beta = 0 it is summed
    from the Taylor series of erfcx about alpha, which avoids the cancellation
    in the bracket.  Where alpha < beta, erfcx(alpha - beta) would overflow,
    so that term keeps erfc and its own exponent.
    """
    from scipy.special import erfc, erfcx, wofz

    c, s2 = dp.drift, dp.sigma2
    scale = math.sqrt(2.0 * s2 * t)
    alpha = np.abs(x) / scale
    r2 = c * c + 2.0 * a * s2
    beta2 = r2 * t / (2.0 * s2)
    growth = np.exp(exponent)
    if abs(beta2) < _SERIES_RADIUS:
        # bracket / (2 beta) = -sum_k erfcx^{(2k+1)}(alpha) beta^{2k} / (2k+1)!
        ys = _erfcx_derivatives(alpha, 2 * _SERIES_TERMS - 1)
        total = np.zeros_like(alpha)
        term = 1.0
        for k in range(_SERIES_TERMS):
            total -= term * ys[2 * k + 1]
            term *= beta2 / ((2 * k + 2) * (2 * k + 3))
        return growth * (t / scale) * total
    if beta2 < 0.0:
        rho = math.sqrt(-r2)
        gamma = math.sqrt(-beta2)
        return -growth * wofz(-gamma + 1j * alpha).imag / rho
    r = math.sqrt(r2)
    beta = math.sqrt(beta2)
    out = np.empty_like(alpha)
    far = alpha >= beta
    out[far] = growth[far] * (erfcx(alpha[far] - beta) - erfcx(alpha[far] + beta))
    near = ~far
    if near.any():
        # own exponent (c x - |x| r) / sigma2, written without cancellation
        # when c x >= 0
        xs = x[near]
        spread = np.abs(xs)
        own = np.where(c * xs >= 0.0, -2.0 * a * spread / (abs(c) + r),
                       -spread * (abs(c) + r) / s2)
        out[near] = (np.exp(own + fold) * erfc(alpha[near] - beta)
                     - growth[near] * erfcx(alpha[near] + beta))
    return out / (2.0 * r)


def _density(dp: DiffusionParams, x: np.ndarray, t: float) -> np.ndarray:
    # operating density at time t > 0 for an array of abscissas
    finite = np.isfinite(x)
    if not finite.all():
        raise ValueError(f"x must be finite, got {float(x[~finite][0])!r}")
    offset = x - dp.drift * t
    base = _gaussian(dp, offset, t) * math.exp(-dp.nu * t)
    if dp.nu == 0.0:
        return base
    # e^{-nu t} times the Gaussian shape: the exponent of K_nu, and of
    # e^{-(eta+nu) t} K_{-eta} once the repair factor is folded in
    exponent = -offset * offset / (2.0 * dp.sigma2 * t) - dp.nu * t
    weight = dp.eta * dp.nu / (dp.eta + dp.nu)
    restarts = _lag_integral(dp, x, t, dp.nu, exponent, 0.0) - _lag_integral(
        dp, x, t, -dp.eta, exponent, -(dp.eta + dp.nu) * t
    )
    return base + weight * restarts


def transient_density(dp: DiffusionParams, x: float, t: float) -> Union[float, PointMass]:
    """Density of the operating state at time t, started at 0.

    At t = 0 the law is a unit point mass at the origin, returned as the
    tagged :data:`DIRAC_AT_ORIGIN` value instead of a number.  Otherwise

        f(x,t) = e^{-nu t} w(x,t) + eta nu/(eta+nu) [K_nu - e^{-(eta+nu) t} K_{-eta}],
        K_a = int_0^t e^{-a s} w(x,s) ds
            = exp(-(x - c t)^2 / (2 sigma2 t) - a t)
              * [erfcx(alpha - beta) - erfcx(alpha + beta)] / (2 r),

    with w the failure-free Gaussian kernel, c the drift,
    r = sqrt(c^2 + 2 a sigma2), alpha = |x| / sqrt(2 sigma2 t) and
    beta = r sqrt(t / (2 sigma2)).  Both lag integrals are evaluated in
    closed form (scaled complementary error function, and the Faddeeva
    function where r^2 < 0), with no quadrature.
    """
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        return DIRAC_AT_ORIGIN
    return float(_density(dp, np.array([float(x)]), t)[0])


def _support_bounds(dp: DiffusionParams, t: float, widths: float = 12.0) -> tuple[float, float]:
    # restart components have means between 0 and drift*t and spread at most
    # sqrt(sigma2 t); beyond `widths` standard deviations the mass is dust
    sd = math.sqrt(dp.sigma2 * t)
    lo = min(0.0, dp.drift * t) - widths * sd
    hi = max(0.0, dp.drift * t) + widths * sd
    return lo, hi


def on_mass(
    dp: DiffusionParams,
    t: float,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Total operating mass integral of the transient density at time t.

    Integrates the closed-form density adaptively (to ``quad``), with a
    panel edge at the derivative kink at the origin and each pass over the
    panels' nodes in one vectorised call; equals 1 minus the failure mass up
    to quadrature error.
    """
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")
    lo, hi = _support_bounds(dp, t)
    value, _ = integrate_batch(lambda x, rows: _density(dp, x, t)[None, :], 1, [lo, 0.0, hi], quad)
    return float(value[0])


def _gaussian_outside(dp: DiffusionParams, s: float, lo: float, hi: float) -> float:
    # failure-free mass outside [lo, hi] after elapsed time s
    sd = math.sqrt(dp.sigma2 * s)
    mean = dp.drift * s
    upper = 0.5 * math.erfc((hi - mean) / (sd * math.sqrt(2.0)))
    lower = 0.5 * math.erfc((mean - lo) / (sd * math.sqrt(2.0)))
    return upper + lower


@dataclass(frozen=True)
class DensitySlice:
    """Sampled transient density at a fixed time.

    ``tail_mass`` is the analytically integrated mass outside the abscissa
    range, so trapezoid mass + tail_mass + failure_mass reconstructs 1 up to
    the declared ``mass_tolerance`` (trapezoid discretization error).
    Treat the arrays as immutable.
    """

    time: float
    abscissas: np.ndarray
    values: np.ndarray
    failure_mass: float
    tail_mass: float
    mass_tolerance: float

    def trapezoid_mass(self) -> float:
        return float(np.trapezoid(self.values, self.abscissas)) + self.tail_mass


def density_slice(
    dp: DiffusionParams,
    t: float,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
    n_points: int = 801,
    span_sds: float = 8.0,
) -> DensitySlice:
    """Uniform grid over the failure-free mean +- span_sds standard deviations,
    with analytic closure of the two exponential-type tails.

    The grid values come from the closed-form density in one vectorised
    evaluation; ``quad`` governs only the restart integral of the tail mass.
    """
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")
    sd = math.sqrt(dp.sigma2 * t)
    center = dp.drift * t
    xs = np.linspace(center - span_sds * sd, center + span_sds * sd, n_points)
    values = _density(dp, xs, t)
    lo, hi = float(xs[0]), float(xs[-1])
    tail = math.exp(-dp.nu * t) * _gaussian_outside(dp, t, lo, hi)
    if dp.nu > 0.0:
        restart_tail, _ = integrate_adaptive(
            lambda tau: 0.0
            if tau >= t
            else _cycle_failure_mass(dp.nu, dp.eta, tau)
            * math.exp(-dp.nu * (t - tau))
            * _gaussian_outside(dp, t - tau, lo, hi),
            0.0,
            t,
            quad,
        )
        tail += dp.eta * restart_tail
    return DensitySlice(
        time=t,
        abscissas=xs,
        values=values,
        failure_mass=failure_probability(dp, t),
        tail_mass=tail,
        mass_tolerance=1e-4,
    )


def _decay_root(dp: DiffusionParams, rate: float) -> float:
    # r = sqrt(drift^2 + 2 sigma2 rate): at catastrophe rate plus transform
    # variable ``rate``, densities fall off as exp((drift x - r |x|) / sigma2)
    return math.sqrt(dp.drift**2 + 2.0 * dp.sigma2 * rate)


def laplace_roots(dp: DiffusionParams, z: float) -> tuple[float, float]:
    """Roots w1 > 0 > w2 of sigma2 w^2 - 2 drift w - 2 (z + nu) = 0, the decay
    exponents of the transform density on each side of the origin."""
    if z <= 0.0:
        raise ValueError(f"transform variable must be positive, got {z}")
    root = _decay_root(dp, z + dp.nu)
    return (dp.drift + root) / dp.sigma2, (dp.drift - root) / dp.sigma2


def laplace_density(dp: DiffusionParams, x: float, z: float) -> float:
    """Laplace transform in time of the transient density, in closed form."""
    if z <= 0.0:
        raise ValueError(f"transform variable must be positive, got {z}")
    root = _decay_root(dp, z + dp.nu)
    amplitude = (z + dp.nu) * (z + dp.eta) / (z * (z + dp.eta + dp.nu) * root)
    return amplitude * math.exp((dp.drift * x - root * abs(x)) / dp.sigma2)


def steady_density(dp: DiffusionParams, x: float) -> float:
    """Long-run density: bilateral asymmetric exponential around the origin."""
    if dp.nu <= 0.0:
        raise NoSteadyStateError(
            "the diffusion has no stationary law without catastrophes (nu > 0 required)"
        )
    root = _decay_root(dp, dp.nu)
    weight = dp.eta * dp.nu / (dp.eta + dp.nu)
    return weight / root * math.exp((dp.drift * x - root * abs(x)) / dp.sigma2)


def mean_x(dp: DiffusionParams, t: float) -> float:
    """Truncated mean E[X(t) 1{on}]."""
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if dp.nu == 0.0:
        return dp.drift * t
    prefactor = dp.drift * dp.eta / ((dp.eta + dp.nu) * dp.nu)
    return prefactor * relaxation_profile(dp.nu, dp.eta, t)


def variance_x(dp: DiffusionParams, t: float) -> float:
    """Truncated variance Var[X(t) 1{on}], fully closed form."""
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    nu, eta = dp.nu, dp.eta
    if nu == 0.0:
        return dp.sigma2 * t
    diffusive = dp.sigma2 * eta / ((eta + nu) * nu) * relaxation_profile(nu, eta, t)
    decay = math.exp(-nu * t)
    repair_gap = -math.expm1(-eta * t)
    braces = (
        -2.0 * nu**2 * decay * repair_gap * (nu**2 + eta * nu + eta**2)
        + 2.0 * nu * eta**3 * (-math.expm1(-nu * t))
        + eta**4
        + 2.0 * eta * nu * (eta + nu) * (nu**2 - eta**2) * t * decay
        - math.exp(-2.0 * nu * t) * (nu**2 - eta**2 - nu**2 * math.exp(-eta * t)) ** 2
    )
    return diffusive + dp.drift**2 / ((eta + nu) ** 2 * nu**2 * eta**2) * braces


def asymptotic_moments(dp: DiffusionParams) -> tuple[float, float]:
    """Long-run truncated mean and variance."""
    if dp.nu <= 0.0:
        raise NoSteadyStateError("asymptotic moments require nu > 0")
    nu, eta = dp.nu, dp.eta
    mean_limit = dp.drift * eta / ((eta + nu) * nu)
    var_limit = dp.sigma2 * eta / ((eta + nu) * nu) + dp.drift**2 * eta * (
        2.0 * nu + eta
    ) / ((eta + nu) ** 2 * nu**2)
    return mean_limit, var_limit


def fpt_density_wiener(
    dp: DiffusionParams, x: float, t: float, x0: float = 0.0
) -> float:
    """First-passage-time density of the failure-free motion from x0 to x."""
    if x == x0:
        raise ValueError("first-passage target must differ from the start point")
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")
    return abs(x - x0) / t * wiener_density(dp, x, t, x0)

