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
  z + nu times ``transform_amplitude``.  At z = 0 that product is the
  stationary law (the final-value theorem).  Both are the same in any time
  unit, so both models evaluate them at ``rescaled`` rates, where no sum
  overflows, and take their decay roots by ``root_sum``.

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
    "transform_amplitude",
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


def check_transform_variable(z: float, positive: bool = True) -> None:
    """Raise ``ValueError`` unless the Laplace variable z is finite and
    positive, or nonnegative where z = 0 (the stationary limit) is allowed."""
    if not (math.isfinite(z) and (z > 0.0 if positive else z >= 0.0)):
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"transform variable must be finite and {kind}, got {z}")


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


def _age_integral(k: int, a: float, t: float, damp: float = 0.0) -> float:
    # e^{-damp t} * integral of e^{a s} s^k over [0, t] for k = 1, 2, with
    # damp >= a so the growing exponential never materializes
    at = a * t
    if abs(at) < 0.25:
        # sum_j a^j t^{j+k+1} / (j! (j+k+1)): the series avoids the 0/0 at a ~ 0
        total, coeff = 0.0, t * t if k == 1 else t * t * t
        for j in range(0, 26):
            term = coeff / (j + k + 1)
            total += term
            if abs(term) <= 1e-18 * abs(total):
                break
            coeff *= a * t / (j + 1)
        return math.exp(-damp * t) * total
    # (e^{at} P_k(at) + C_k) / a^{k+1}
    if k == 1:
        poly, const, power = at - 1.0, 1.0, a * a
    else:
        poly, const, power = at * at - 2.0 * at + 2.0, -2.0, a * a * a
    return (math.exp((a - damp) * t) * poly + const * math.exp(-damp * t)) / power


def _restarted_age_moments(nu: float, eta: float, t: float) -> tuple[float, float]:
    # E[A^k 1{on, restarted}] for k = 1, 2: the age density
    # eta q(t - a) e^{-nu a} = w e^{-nu a} (1 - e^{-r (t - a)}) integrated
    # against a and a^2, with w = eta nu / r and r = eta + nu
    rate = eta + nu
    weight = eta * nu / rate
    first = _age_integral(1, -nu, t) - _age_integral(1, eta, t, rate)
    second = _age_integral(2, -nu, t) - _age_integral(2, eta, t, rate)
    return weight * first, weight * second


def truncated_moments(
    nu: float, eta: float, t: float, drift: float, spread: float
) -> tuple[float, float]:
    """(E[X(t) 1{on}], Var[X(t) 1{on}]) for a catastrophe-free motion with
    mean drift*s and variance spread*s: (drift m, spread m + drift^2 v) with
    m = E[A 1{on}] and v = Var[A 1{on}] = E[A^2 1{on}] - m^2.

    v is taken from a mixture: with p = e^{-nu t} the chance of no
    catastrophe, A 1{on} is t with chance p and otherwise Y, the age since
    the last restart (0 while under repair), so

        v = p (1 - p) (t - E[Y])^2 + (1 - p) Var[Y].

    Neither part cancels as nu t -> 0, where m^2 and E[A^2 1{on}] agree to
    ever more digits: Y spreads over [0, t], so Var[Y] is not small against
    E[Y^2].
    """
    _check_motion(nu, eta, drift, spread)
    check_time(t)
    intact, lost = math.exp(-nu * t), -math.expm1(-nu * t)
    if lost == 0.0:
        return drift * t, spread * t
    first, second = _restarted_age_moments(nu, eta, t)
    mean_y = first / lost
    m = intact * t + first
    v = intact * lost * (t - mean_y) ** 2 + (second - first * mean_y)
    return drift * m, spread * m + drift * drift * v


def asymptotic_moments(nu: float, eta: float, drift: float, spread: float) -> tuple[float, float]:
    """Long-run truncated mean and variance: truncated_moments as t -> infinity."""
    check_stationary(nu)
    _check_motion(nu, eta, drift, spread)
    m = eta / ((eta + nu) * nu)
    return drift * m, spread * m + drift * drift * eta * (2.0 * nu + eta) / ((eta + nu) * nu) ** 2


def transform_amplitude(nu: float, eta: float, z: float) -> float:
    """z + eta nu / (z + eta + nu) = (z + nu)(z + eta) / (z + eta + nu), for
    z >= 0: z times the Laplace transform of the operating law, over the
    catastrophe-free resolvent at z + nu.  At z = 0 it is eta nu / (eta + nu)."""
    check_rates(nu, eta=eta)
    check_transform_variable(z, positive=False)
    return amplitude_over(1.0, nu, eta, z)


def amplitude_over(root: float, nu: float, eta: float, z: float) -> float:
    """transform_amplitude(nu, eta, z) / root for root > 0, unchecked, with
    eta allowed its limits 0 and inf.  Where (z + nu)(z + eta) leaves the
    normal range, the smaller of z + nu and z + eta goes over root first and
    then over one plus a ratio of at most 1, so that nothing is rounded
    below the normal range before the division."""
    s, e = z + nu, z + eta
    product = s * e
    if sys.float_info.min <= product < math.inf:
        return product / (e + nu) / root
    return s / root / (1.0 + nu / e) if e >= s else e / root / (1.0 + eta / s)


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
