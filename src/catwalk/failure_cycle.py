"""The catastrophe/repair cycle that the lattice walk and its diffusion limit
share, and every law that depends on the models only through it.

While operating, either model moves like its catastrophe-free motion, whose
mean and variance at time s are drift*s and spread*s (drift = lam - mu and
spread = lam + mu for the lattice, drift = lam_hat - mu_hat and
spread = sigma2 for the diffusion).  Catastrophes arrive at rate nu and send
the system to the failure state; a repair takes Exp(eta) and restarts the
motion at the origin.

- The failure mass q(t) and its limit nu / (eta + nu).
- The age A of the current operating period, on the event that the system
  operates, has an atom e^{-nu t} at A = t and the density
  eta q(t - a) e^{-nu a} on 0 < a < t.  Given A the state is the
  catastrophe-free motion at time A, so, with X zeroed while under repair,

      E[X 1{on}]   = drift E[A 1{on}],
      Var[X 1{on}] = spread E[A 1{on}] + drift^2 Var[A 1{on}]

  (``truncated_moments``, and ``asymptotic_moments`` for t -> infinity).
- In Laplace space the restart convolution is a product: z times the
  transform of the operating law is the catastrophe-free resolvent at
  z + nu times the cycle's amplitude (z + nu)(z + eta) / (z + eta + nu)
  (``amplitude_over``).  At z = 0 that product is the stationary law (the
  final-value theorem).  Both are the same in any time unit, so both
  models evaluate them at ``rescaled`` rates, where no sum overflows, and
  take their decay roots by ``root_sum``.

The argument rules of both models' public laws live here too, one per kind
of argument: ``check_rates``, ``check_time``, ``check_state`` (a lattice
state), ``check_window`` (a lattice window), ``check_level`` (a diffusion
level), ``check_transform_variable`` (z) and ``check_stationary`` (nu > 0,
for the laws that need catastrophes); ``check_finite`` refuses a value that
float64 cannot hold.
"""

from __future__ import annotations

import math
import sys

__all__ = [
    "NoSteadyStateError",
    "check_rates",
    "check_time",
    "check_state",
    "check_window",
    "check_level",
    "check_transform_variable",
    "check_stationary",
    "check_finite",
    "failure_mass",
    "steady_failure_mass",
    "truncated_moments",
    "asymptotic_moments",
]


class NoSteadyStateError(ValueError):
    """The model admits no stationary law (needs a positive catastrophe rate)."""


def check_time(t: float, positive: bool = False) -> None:
    """Raise ``ValueError`` unless t is finite and nonnegative, or positive
    where the law needs t > 0."""
    if not (math.isfinite(t) and (t > 0.0 if positive else t >= 0.0)):
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"time must be finite and {kind}, got {t}")


def check_rates(nu: float, **rates: float) -> None:
    """Raise ``ValueError`` unless the catastrophe rate nu is finite and
    nonnegative and every other rate is finite and positive."""
    for name, value in rates.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if not (math.isfinite(nu) and nu >= 0.0):
        raise ValueError(f"nu must be finite and nonnegative, got {nu!r}")


def check_state(n: float) -> int:
    """The lattice state n as an ``int``; ``ValueError`` unless n is integral."""
    if not float(n).is_integer():
        raise ValueError(f"expected an integer state, got {n!r}")
    return int(n)


def check_window(window: tuple[float, float]) -> tuple[int, int]:
    """The lattice window (n_min, n_max) as ``int`` states; ``ValueError``
    unless both are integral and n_min <= n_max."""
    n_min, n_max = window = tuple(map(check_state, window))
    if n_min > n_max:
        raise ValueError(f"window must be nonempty, got {window}")
    return window


def check_level(x: float) -> None:
    """Raise ``ValueError`` unless the diffusion level x is finite."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")


def check_transform_variable(z: float) -> None:
    """Raise ``ValueError`` unless the Laplace variable z is finite and
    positive."""
    if not (math.isfinite(z) and z > 0.0):
        raise ValueError(f"transform variable must be finite and positive, got {z}")


def check_stationary(nu: float) -> None:
    """Raise ``NoSteadyStateError`` unless nu > 0: without catastrophes
    neither model has a stationary law."""
    if not nu > 0.0:
        raise NoSteadyStateError("no stationary law without catastrophes (nu > 0 required)")


def _check_motion(nu: float, eta: float, drift: float, spread: float) -> None:
    # the cycle's rates and the catastrophe-free motion's drift and spread
    check_rates(nu, eta=eta, spread=spread)
    if not math.isfinite(drift):
        raise ValueError(f"drift must be finite, got {drift!r}")


def failure_mass(nu: float, eta: float, t: float) -> float:
    """Probability of being under repair at time t, starting operational."""
    check_rates(nu, eta=eta)
    check_time(t)
    if nu == 0.0:
        return 0.0
    rate = eta + nu
    return -(nu / rate) * math.expm1(-rate * t)


def steady_failure_mass(nu: float, eta: float) -> float:
    check_stationary(nu)
    check_rates(nu, eta=eta)
    return nu / (eta + nu)


def _age_powers(c: float) -> tuple[float, float, float]:
    # J_k(c) = int_0^1 u^k e^{-c u} du, k = 0, 1, 2, for 0 <= c <= inf: the power series
    # below c = 1 (each J_k > 0.1), else J_k = (k J_{k-1} - e^{-c}) / c, losing two bits at most
    if c < 1.0:
        term, j0, j1, j2 = 1.0, 1.0, 0.5, 1.0 / 3.0
        for m in range(1, 20):
            term *= -c / m
            j0, j1, j2 = j0 + term / (m + 1), j1 + term / (m + 2), j2 + term / (m + 3)
        return j0, j1, j2
    decay, j0 = math.exp(-c), -math.expm1(-c) / c
    j1 = (j0 - decay) / c
    return j0, j1, (2.0 * j1 - decay) / c


def _restart_powers(x: float, y: float) -> tuple[float, float, float]:
    # J_0(x) and D_k = int_0^1 u^k e^{-xu} (1 - e^{-(x+y)(1-u)}) du, k = 1, 2: the restarted age
    # law in u = A/t over x eta/(eta+nu), at x = nu t, y = eta t.  Past x + y = 1, J_k(x) minus
    # e^{-x} int (1-v)^k e^{-yv} dv keeps a fair share of J_k(x); below, the series in u
    j0, j1, j2 = _age_powers(x)
    if x + y > 1.0:
        (k0, k1, k2), decay = _age_powers(y), math.exp(-x)
        return j0, j1 - decay * (k0 - k1), j2 - decay * (k0 - 2.0 * k1 + k2)
    up, down, lost = 1.0, math.exp(-x - y), -math.expm1(-x - y)
    d1, d2 = lost / 2.0, lost / 3.0
    for m in range(1, 20):
        up, down = up * -x / m, down * y / m
        d1, d2 = d1 + (up - down) / (m + 2), d2 + (up - down) / (m + 3)
    return j0, d1, d2


def truncated_moments(
    nu: float, eta: float, t: float, drift: float, spread: float
) -> tuple[float, float]:
    """(E[X(t) 1{on}], Var[X(t) 1{on}]) for a catastrophe-free motion with
    mean drift*s and variance spread*s: (drift m, spread m + drift^2 v) with
    m = E[A 1{on}] and v = Var[A 1{on}].  With p = e^{-nu t}, A 1{on} is t
    with chance p and otherwise Y, the age since the last restart (0 while
    under repair), so v = (1 - p) t^2 [p (1 - E[Y / t])^2 + Var[Y / t]],
    where neither part cancels as nu t -> 0.  Each term is one product of
    factors in nu t, eta t and a = eta / (eta + nu), p as four factors
    e^{-nu t / 4}, so a moment holds wherever it is a float, p past its
    underflow included.  The terms in p are at most a few (nu t)^2 p / a of
    the long-run moments, below 2^-800 past nu t = 2048 for any float64
    rates, which are returned there.  ``ValueError`` names a moment float64
    cannot hold, as :func:`asymptotic_moments` does.
    """
    _check_motion(nu, eta, drift, spread)
    check_time(t)
    if (x := nu * t) > 2048.0:
        mean, variance = _long_run_moments(nu, eta, drift, spread)
    else:
        lost, d1, d2 = _restart_powers(x, eta * t)  # lost = (1 - p) / x
        big = max(nu, eta)
        under = (lost, big, 1.0 + min(nu, eta) / big)  # lost (eta + nu)
        mean_y = _quotient((eta, d1), under)  # E[Y / t | restarted] = a D_1 / lost
        ratio = _quotient((eta, d1, d1), (d2, *under)) if d2 else 0.0  # mean_y^2 / second moment
        head = (t, *(math.exp(-0.25 * x),) * 4)  # E[A 1{no catastrophe}] = t p
        tail = (t, nu, t, lost, eta, d1)  # E[Y 1{restarted}] = t x a D_1, over under
        mean, variance = (_quotient((w, *head), ()) + _quotient((w, *tail), under)
                          for w in (drift, spread))
        variance += (_quotient((drift, drift, t, nu, t, lost, (1.0 - mean_y) ** 2, *head), ())
                     + _quotient((drift, drift, t, *tail[:-1], d2, 1.0 - ratio), under))
    variance = check_finite(variance, "the truncated variance")
    return check_finite(mean, "the truncated mean"), variance


def _quotient(over: tuple, under: tuple) -> float:
    # prod(over) / prod(under) for finite factors, those under nonzero, from
    # their mantissas and binary exponents, so that no partial product leaves
    # the range of float64 before the result does; inf where it overflows
    mantissa, exponent = 1.0, 0
    for factor in over:
        m, e = math.frexp(factor)
        mantissa, exponent = mantissa * m, exponent + e
    for factor in under:
        m, e = math.frexp(factor)
        mantissa, exponent = mantissa / m, exponent - e
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.copysign(math.inf, mantissa)


def _long_run_moments(nu: float, eta: float, drift: float, spread: float) -> tuple[float, float]:
    # asymptotic_moments unchecked, either moment possibly inf, so that a
    # finite mean is returned where only the variance is past float64
    check_stationary(nu)
    _check_motion(nu, eta, drift, spread)
    big = max(nu, eta)
    total = 1.0 + min(nu, eta) / big  # (eta + nu) / big
    under = (nu, big, total)  # nu (eta + nu)
    variance = (_quotient((spread, eta), under)
                + _quotient((drift, drift, eta, 1.0 + nu / big / total), (nu, *under)))
    return _quotient((drift, eta), under), variance


def asymptotic_moments(nu: float, eta: float, drift: float, spread: float) -> tuple[float, float]:
    """Long-run truncated mean and variance, truncated_moments as
    t -> infinity:

        (drift m, spread m + (drift / nu)^2 a (1 + r)),  m = a / nu,

    with a = eta / (eta + nu) and r = nu / (eta + nu).  Since
    1 - r^2 = a (1 + r), nothing cancels, and each term is one quotient of
    its factors, taken so that it holds wherever the term does.
    ``ValueError`` names a moment that float64 cannot hold; the variance is
    at least the mean's square, so it is the one named first."""
    mean, variance = _long_run_moments(nu, eta, drift, spread)
    variance = check_finite(variance, "the long-run truncated variance")
    return check_finite(mean, "the long-run truncated mean"), variance


def amplitude_over(root: float, nu: float, eta: float, z: float) -> float:
    """The cycle's amplitude (z + nu)(z + eta) / (z + eta + nu) over root,
    for z >= 0 and root > 0, unchecked, with eta allowed its limits 0 and
    inf.  Where (z + nu)(z + eta) leaves the normal range, the smaller of
    z + nu and z + eta goes over root first and then over one plus a ratio
    of at most 1, so that nothing is rounded below the normal range before
    the division."""
    s, e = z + nu, z + eta
    product = s * e
    if sys.float_info.min <= product < math.inf:
        return product / (e + nu) / root
    return s / root / (1.0 + nu / e) if e >= s else e / root / (1.0 + eta / s)


def log_amplitude_over(root: float, nu: float, eta: float, z: float) -> float:
    """log amplitude_over(root, nu, eta, z) for z > 0, from the logarithms of
    its fallback's factors, so that it holds where that value leaves the
    normal range."""
    s, e = z + nu, z + eta
    if e >= s:
        return math.log(s) - math.log(root) - math.log1p(nu / e)
    return math.log(e) - math.log(root) - math.log1p(eta / s)


def check_finite(value: float, law: str) -> float:
    """``value``, or ``ValueError`` naming ``law`` where it is not finite."""
    if not math.isfinite(value):
        raise ValueError(f"{law} is {value} in float64 at these arguments")
    return value


def rescaled(law: str, eta: float, *rates: float) -> tuple[float, ...]:
    """eta and the rates (a transform variable among them) times 2^-k, where
    k brings the largest rate down to 2^1018 if it is larger and up into
    [1/2, 1) if it is smaller, and is 0 otherwise.  Stationary laws, z times
    the transforms and lengths in space are the same in any time unit.  In
    this one no sum of a few rates overflows, and small rates lie as far
    above underflow as that allows.  eta takes no part in choosing k: it
    enters only through ``amplitude_over``, which takes its limits 0 and
    inf.  ``ValueError`` naming ``law`` where a positive rate would scale
    to 0."""
    _, k = math.frexp(max(rates))
    k = k - 1018 if k > 1018 else min(k, 0)
    if not k:
        return (eta, *rates)
    scaled = tuple(math.ldexp(rate, -k) for rate in rates)
    if any(rate and not s for rate, s in zip(rates, scaled)):
        raise ValueError(f"{law}: the rates {rates} span more than float64 can hold")
    return (math.ldexp(eta, -k) if math.frexp(eta)[1] - k <= 1024 else math.inf, *scaled)


def root_sum(gap: float, a: float, b: float) -> float:
    """sqrt(gap^2 + a b) for a, b >= 0: as written where the sum is a normal
    float, else as hypot(gap, sqrt(a) sqrt(b)), which cannot overflow before
    the result does and whose square roots lift subnormal factors back into
    the normal range."""
    if abs(gap) < 2.0**511:  # gap**2 raises OverflowError past 2^512
        square = gap**2 + a * b
        if sys.float_info.min <= square < math.inf:
            return math.sqrt(square)
    return math.hypot(gap, math.sqrt(a) * math.sqrt(b))
