"""Analytic laws of the jump-diffusion limit: Wiener motion between failures.

The process drifts like a Wiener process with drift lam_hat - mu_hat and
infinitesimal variance sigma2 until a catastrophe (rate nu) sends it to the
failure state F; after an Exp(eta) repair it restarts from 0.  Its law has a
density on the reals plus an atom at F whose mass is the same failure mass as
in the discrete model.

The closed-form laws (failure mass, stationary density, moments, transforms)
are elementary in the rates.  NumPy and SciPy are imported only inside the
functions of the transient density, so the closed forms load without them.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .failure_cycle import (
    NoSteadyStateError,
    amplitude_over,
    asymptotic_moments as _cycle_asymptotic_moments,
    check_finite,
    check_level,
    check_rates,
    check_stationary,
    check_time,
    check_transform_variable,
    failure_mass,
    log_amplitude_over,
    rescaled,
    root_sum,
    truncated_moments,
)

# Not called here any more, but kept bound under this name: the traced
# benchmark run (perfbench/spans.py) wraps it in this module by name.
from .special import integrate_adaptive  # noqa: F401

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DiffusionParams",
    "DensitySlice",
    "NoSteadyStateError",
    "failure_probability",
    "transient_density",
    "transient_densities",
    "on_mass",
    "density_slice",
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


def failure_probability(dp: DiffusionParams, t: float) -> float:
    """Probability of being under repair at time t (atom at F)."""
    return failure_mass(dp.nu, dp.eta, t)


def _rescaled(dp: DiffusionParams, z: float, law: str) -> tuple[float, ...]:
    # (eta, drift, sigma2, nu, z) in the time unit of failure_cycle.rescaled
    eta, lam_hat, mu_hat, sigma2, nu, z = rescaled(
        law, dp.eta, dp.lam_hat, dp.mu_hat, dp.sigma2, dp.nu, z
    )
    return eta, lam_hat - mu_hat, sigma2, nu, z


def _decay_root(drift: float, sigma2: float, rate: float) -> float:
    # r = sqrt(drift^2 + 2 sigma2 rate): at catastrophe rate plus transform
    # variable ``rate``, densities fall off as exp((drift x - r |x|) / sigma2)
    return root_sum(drift, 2.0 * sigma2, rate)


def _drift_side_rate(drift: float, rate: float, root: float) -> float:
    # (r - |drift|) / sigma2, the decay rate on the drift's side, as
    # 2 rate / (r + |drift|): the difference cancels once 2 sigma2 rate is
    # small against drift^2, as rate -> 0 (steady_decay_length is its inverse)
    return 2.0 * rate / (root + abs(drift))


def laplace_roots(dp: DiffusionParams, z: float) -> tuple[float, float]:
    """Roots w1 > 0 > w2 of sigma2 w^2 - 2 drift w - 2 (z + nu) = 0, the decay
    exponents of the transform density on each side of the origin."""
    check_transform_variable(z)
    law = "the diffusion's decay exponents"
    _, drift, sigma2, nu, z = _rescaled(dp, z, law)
    root = _decay_root(drift, sigma2, z + nu)
    far = check_finite((abs(drift) + root) / sigma2, law)
    near = _drift_side_rate(drift, z + nu, root)
    return (near, -far) if drift < 0.0 else (far, -near)


def _scaled_transform(dp: DiffusionParams, x: float, z: float, law: str, over: float = 1.0) -> float:
    # z times the Laplace transform of the density at x, for z >= 0, over
    # ``over``: the failure-free resolvent at z + nu times the cycle's
    # amplitude.  At z = 0 it is the stationary density.  Where the product
    # leaves the normal range and ``over`` < 1 may bring the quotient back,
    # the quotient is taken from logarithms, where nothing underflows.
    eta, drift, sigma2, nu, z = _rescaled(dp, z, law)
    root = _decay_root(drift, sigma2, z + nu)
    if drift * x > 0.0:
        exponent = -_drift_side_rate(drift, z + nu, root) * abs(x)
    else:
        exponent = (drift * x - root * abs(x)) / sigma2
    value = amplitude_over(root, nu, eta, z) * math.exp(exponent)
    if value >= sys.float_info.min or over >= 1.0:
        return value / over
    return math.exp(log_amplitude_over(root, nu, eta, z) + exponent - math.log(over))


def laplace_density(dp: DiffusionParams, x: float, z: float) -> float:
    """Laplace transform in time of the transient density, in closed form."""
    check_transform_variable(z)
    check_level(x)
    law = f"the Laplace transform of the density at x = {x}"
    return check_finite(_scaled_transform(dp, x, z, law, over=z), law)


def steady_density(dp: DiffusionParams, x: float) -> float:
    """Long-run density: bilateral asymmetric exponential around the origin."""
    check_stationary(dp.nu)
    check_level(x)
    law = f"the stationary density at x = {x}"
    return check_finite(_scaled_transform(dp, x, 0.0, law), law)


def steady_decay_length(dp: DiffusionParams) -> float:
    """Decay length of the stationary density on the drift's side, the longer
    of its two: there it falls off as exp(-|x| / length)."""
    check_stationary(dp.nu)
    law = "the stationary decay length"
    _, drift, sigma2, nu, _ = _rescaled(dp, 0.0, law)
    return check_finite((_decay_root(drift, sigma2, nu) + abs(drift)) / (2.0 * nu), law)


def mean_x(dp: DiffusionParams, t: float) -> float:
    """Truncated mean E[X(t) 1{on}]."""
    return truncated_moments(dp.nu, dp.eta, t, dp.drift, dp.sigma2)[0]


def variance_x(dp: DiffusionParams, t: float) -> float:
    """Truncated variance Var[X(t) 1{on}], fully closed form."""
    return truncated_moments(dp.nu, dp.eta, t, dp.drift, dp.sigma2)[1]


def asymptotic_moments(dp: DiffusionParams) -> tuple[float, float]:
    """Long-run truncated mean and variance."""
    return _cycle_asymptotic_moments(dp.nu, dp.eta, dp.drift, dp.sigma2)


def _gaussian_exponent(dp: DiffusionParams, offset, t: float):
    # -offset^2 / (2 sigma2 t) as -z^2 with z = offset / sqrt(2 sigma2 t),
    # since offset^2 overflows at huge times; |z| is capped at 1e150, where
    # e^{-z^2} is 0 in doubles anyway
    import numpy as np
    z = np.minimum(np.abs(offset) / math.sqrt(2.0 * dp.sigma2 * t), 1e150)
    return -z * z


def _gaussian(dp: DiffusionParams, offset, t: float):
    # failure-free kernel at an array of displacements ``offset`` from its mean
    import numpy as np
    var = dp.sigma2 * t
    return np.exp(_gaussian_exponent(dp, offset, t)) / np.sqrt(2.0 * math.pi * var)


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
    import numpy as np
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


def _lag_integrals(
    dp: DiffusionParams, x: np.ndarray, t: float, a: float, exponent: np.ndarray, fold: float
) -> tuple[np.ndarray, np.ndarray]:
    """e^{fold} K_a and e^{fold} L_a, the lag integrals of the kernel and of
    its first-passage density |x|/s w(x,s) to level x:

        K_a = e^{E} [erfcx(alpha - beta) - erfcx(alpha + beta)] / (2 r),
        L_a = int_0^t e^{-a s} |x|/s w(x,s) ds
            = e^{E} [erfcx(alpha - beta) + erfcx(alpha + beta)] / 2,

    with E = -(x - c t)^2 / (2 sigma2 t) - a t and the rest as in
    transient_density.  ``exponent`` is E + fold, so that e^{fold} never has
    to be formed on its own.  Both brackets are even functions of beta.  Near
    beta = 0 they are summed from the Taylor series of erfcx about alpha,
    which avoids the cancellation in the difference; for real beta the series
    also takes each lane where beta / alpha is small.  For beta^2 < 0, with
    w = erfcx(alpha + i gamma) (Faddeeva w), gamma = sqrt(-beta^2) and
    rho = sqrt(-r^2), the difference over 2 r is -Im w / rho and the sum is
    2 Re w.  Where alpha < beta, erfcx(alpha - beta) would overflow, so that
    term keeps erfc and its own exponent.
    """
    import numpy as np
    from scipy.special import erfc, erfcx, wofz

    c, s2 = dp.drift, dp.sigma2
    scale = math.sqrt(2.0 * s2 * t)
    alpha = np.abs(x) / scale
    r2 = c * c + 2.0 * a * s2
    beta2 = r2 * t / (2.0 * s2)
    growth = np.exp(exponent)
    cutoff = math.sqrt(abs(beta2) / _SERIES_RADIUS)
    if beta2 < 0.0 and cutoff >= 1.0:
        rho = math.sqrt(-r2)
        gamma = math.sqrt(-beta2)
        w = wofz(-gamma + 1j * alpha)
        return -growth * w.imag / rho, growth * w.real
    kernel, passage = np.empty_like(alpha), np.empty_like(alpha)
    # the series converges like (beta / alpha)^{2k} for large alpha: it takes
    # the lanes where beta^2 is small against max(1, alpha^2)
    series = alpha > cutoff if cutoff >= 1.0 else np.ones(alpha.shape, dtype=bool)
    if series.any():
        # difference / (2 beta) = -sum_k erfcx^{(2k+1)}(alpha) beta^{2k} / (2k+1)!
        # sum / 2 = sum_k erfcx^{(2k)}(alpha) beta^{2k} / (2k)!
        ys = _erfcx_derivatives(alpha[series], 2 * _SERIES_TERMS - 1)
        odd, even = 0.0, 0.0
        odd_term = even_term = 1.0
        for k in range(_SERIES_TERMS):
            # past beta^2 ~ 1e53 a term factor overflows; the derivative it
            # multiplies has underflowed to 0, and the terms from there on are
            # below (beta / alpha)^{2k} <= 0.01^k of the first, so the sum stops
            if odd_term < math.inf:
                odd -= odd_term * ys[2 * k + 1]
                odd_term *= beta2 / ((2 * k + 2) * (2 * k + 3))
            if even_term < math.inf:
                even += even_term * ys[2 * k]
                even_term *= beta2 / ((2 * k + 1) * (2 * k + 2))
        kernel[series] = growth[series] * (t / scale) * odd
        passage[series] = growth[series] * even
        if cutoff < 1.0:
            return kernel, passage
    r = math.sqrt(r2)
    beta = math.sqrt(beta2)
    # lanes by alpha: near below beta, far up to the cutoff (10 beta), series above
    far = (alpha >= beta) & ~series
    if far.any():
        lower, upper, scaled = erfcx(alpha[far] - beta), erfcx(alpha[far] + beta), growth[far]
        kernel[far] = scaled * (lower - upper) / (2.0 * r)
        passage[far] = 0.5 * scaled * (lower + upper)
    near = alpha < beta
    if near.any():
        # own exponent (c x - |x| r) / sigma2, written without cancellation
        # when c x >= 0
        xs = x[near]
        spread = np.abs(xs)
        own = np.where(c * xs >= 0.0, -2.0 * a * spread / (abs(c) + r),
                       -spread * (abs(c) + r) / s2)
        lower = np.exp(own + fold) * erfc(alpha[near] - beta)
        upper = growth[near] * erfcx(alpha[near] + beta)
        kernel[near] = (lower - upper) / (2.0 * r)
        passage[near] = 0.5 * (lower + upper)
    return kernel, passage


def _restart_lags(dp: DiffusionParams, x: np.ndarray, t: float) -> tuple:
    """The lag integrals (K, L) of _lag_integrals at x for a = nu, and for
    a = -eta times the repair factor e^{-(eta+nu) t}."""
    # e^{-nu t} times the Gaussian shape: the exponent of K_nu, and of
    # e^{-(eta+nu) t} K_{-eta} once the repair factor is folded in
    exponent = _gaussian_exponent(dp, x - dp.drift * t, t) - dp.nu * t
    return (_lag_integrals(dp, x, t, dp.nu, exponent, 0.0),
            _lag_integrals(dp, x, t, -dp.eta, exponent, -(dp.eta + dp.nu) * t))


def _density(dp: DiffusionParams, x: np.ndarray, t: float, lags=None) -> np.ndarray:
    # operating density at time t > 0 for an array of abscissas, given their
    # _restart_lags or computing them
    import numpy as np
    finite = np.isfinite(x)
    if not finite.all():
        check_level(float(x[~finite][0]))
    base = _gaussian(dp, x - dp.drift * t, t) * math.exp(-dp.nu * t)
    if dp.nu == 0.0:
        return base
    (catastrophe, _), (repair, _) = _restart_lags(dp, x, t) if lags is None else lags
    weight = dp.eta * dp.nu / (dp.eta + dp.nu)
    return base + weight * (catastrophe - repair)


def transient_density(dp: DiffusionParams, x: float, t: float) -> float:
    """Density of the operating state at time t > 0, started at 0.

    At t = 0 the law is a unit point mass at the origin, which has no
    density, so t = 0 raises ``ValueError`` as it does for every density of
    this module.  For t > 0

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
    return transient_densities(dp, [x], t)[0]


def transient_densities(dp: DiffusionParams, xs: Sequence[float], t: float) -> list[float]:
    """The transient density at each abscissa of ``xs`` at one time t > 0,
    in one vectorised evaluation."""
    import numpy as np
    check_time(t, positive=True)
    return _density(dp, np.array(xs, dtype=float), t).tolist()


def on_mass(dp: DiffusionParams, t: float) -> float:
    """Total operating mass at time t: the integral of the transient density
    over the reals, which is exactly 1 minus the failure mass."""
    check_time(t, positive=True)
    return 1.0 - failure_probability(dp, t)


def _tail_mass(dp: DiffusionParams, xs: np.ndarray, t: float, lags) -> float:
    """Operating mass outside [xs[0], xs[-1]] at time t > 0, in closed form
    from the _restart_lags ``lags`` at xs.

    With U(s) = P(W_s > h) for the failure-free motion, the mass above h is

        e^{-nu t} U(t) + eta nu/(eta+nu) [M_nu - e^{-(eta+nu) t} M_{-eta}],
        M_a = int_0^t e^{-a s} U(s) ds
            = [U(0+) - e^{-a t} U(t) + int_0^t e^{-a s} U'(s) ds] / a,

    and U'(s) = (sgn(h) |h|/s + c) w(h,s) / 2, so that the last integral is
    (sgn(h) L_a + c K_a) / 2 with the lag integrals at x = h.  The 1/a
    cancels against the weights and the U(t) terms cancel between the three
    parts, leaving no division by nu.  The mass below lo is the same for the
    mirrored motion (c -> -c, h = -lo); K_a and L_a depend on c and x only
    through |x|, c x and (x - c t)^2, so both tails take the lags at
    x = (hi, lo), with the drift's sign carried alongside.
    """
    import numpy as np
    c, nu, eta = dp.drift, dp.nu, dp.eta
    ends = [-1, 0]
    side = np.sign(xs[ends]) * [1.0, -1.0]
    drift = np.array([c, -c])
    # e^{fold} int_0^t e^{-a s} U'(s) ds for each side, at a = nu and a = -eta
    catastrophe, repair = (0.5 * (side * passage[ends] + drift * kernel[ends])
                           for kernel, passage in lags)
    decay = math.exp(-(eta + nu) * t)
    start = 0.5 * (1.0 - side)  # U(0+)
    mass = ((eta + nu * decay) * start + eta * catastrophe + nu * repair) / (eta + nu)
    return float(mass.sum())


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
        import numpy as np
        return float(np.trapezoid(self.values, self.abscissas)) + self.tail_mass


def density_slice(
    dp: DiffusionParams,
    t: float,
    n_points: int = 801,
) -> DensitySlice:
    """Uniform grid over the failure-free mean +- 8 standard deviations,
    with analytic closure of the two exponential-type tails.

    The grid values come from the closed-form density in one vectorised
    evaluation, and the mass outside the grid in closed form from the same
    lag integrals at its two ends (``_tail_mass``).  ``n_points`` is an
    integer from 2 to the lattice's ``MAX_NODES``, checked before any
    array is allocated.
    """
    import numpy as np
    from .discrete import MAX_NODES
    check_time(t, positive=True)
    try:
        count = operator.index(n_points)
    except TypeError:
        count = 0
    if not 2 <= count <= MAX_NODES:
        raise ValueError(f"n_points must be an integer from 2 to {MAX_NODES}, got {n_points!r}")
    sd = math.sqrt(dp.sigma2 * t)
    center = dp.drift * t
    xs = np.linspace(center - 8.0 * sd, center + 8.0 * sd, count)
    lags = _restart_lags(dp, xs, t)
    return DensitySlice(
        time=t,
        abscissas=xs,
        values=_density(dp, xs, t, lags),
        failure_mass=failure_probability(dp, t),
        tail_mass=_tail_mass(dp, xs, t, lags),
        mass_tolerance=1e-4,
    )
