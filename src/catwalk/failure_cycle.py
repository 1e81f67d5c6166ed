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
  stationary law (the final-value theorem).

Every public function of either model that takes a time checks it with
``check_time``.
"""

from __future__ import annotations

import math

__all__ = [
    "NoSteadyStateError",
    "check_time",
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


def failure_mass(nu: float, eta: float, t: float) -> float:
    """Probability of being under repair at time t, starting operational."""
    check_time(t)
    if nu == 0.0:
        return 0.0
    rate = eta + nu
    return -(nu / rate) * math.expm1(-rate * t)


def steady_failure_mass(nu: float, eta: float) -> float:
    if nu <= 0.0:
        raise NoSteadyStateError("stationary failure mass requires a positive catastrophe rate")
    return nu / (eta + nu)


def _int_exp_s(a: float, t: float) -> float:
    # integral of e^{a s} s over [0, t]; series branch avoids the 0/0 at a ~ 0
    at = a * t
    if abs(at) < 0.25:
        # sum_k a^k t^{k+2} / (k! (k+2))
        total, coeff = 0.0, t * t
        for k in range(0, 26):
            term = coeff / (k + 2)
            total += term
            if abs(term) <= 1e-18 * abs(total):
                break
            coeff *= a * t / (k + 1)
        return total
    return (math.exp(at) * (at - 1.0) + 1.0) / (a * a)


def _int_exp_s2(a: float, t: float) -> float:
    # integral of e^{a s} s^2 over [0, t]
    at = a * t
    if abs(at) < 0.25:
        total, coeff = 0.0, t * t * t
        for k in range(0, 26):
            term = coeff / (k + 3)
            total += term
            if abs(term) <= 1e-18 * abs(total):
                break
            coeff *= a * t / (k + 1)
        return total
    return (math.exp(at) * (at * at - 2.0 * at + 2.0) - 2.0) / (a * a * a)


def _int_exp_s_damped(a: float, damp: float, t: float) -> float:
    # e^{-damp t} * integral of e^{a s} s over [0, t], for damp >= a so the
    # growing exponential never materializes
    at = a * t
    if abs(at) < 0.25:
        return math.exp(-damp * t) * _int_exp_s(a, t)
    return (math.exp((a - damp) * t) * (at - 1.0) + math.exp(-damp * t)) / (a * a)


def _int_exp_s2_damped(a: float, damp: float, t: float) -> float:
    # e^{-damp t} * integral of e^{a s} s^2 over [0, t]
    at = a * t
    if abs(at) < 0.25:
        return math.exp(-damp * t) * _int_exp_s2(a, t)
    return (
        math.exp((a - damp) * t) * (at * at - 2.0 * at + 2.0) - 2.0 * math.exp(-damp * t)
    ) / (a * a * a)


def _restarted_age_moments(nu: float, eta: float, t: float) -> tuple[float, float]:
    # E[A^k 1{on, restarted}] for k = 1, 2: the age density
    # eta q(t - a) e^{-nu a} = w e^{-nu a} (1 - e^{-r (t - a)}) integrated
    # against a and a^2, with w = eta nu / r and r = eta + nu
    rate = eta + nu
    weight = eta * nu / rate
    first = _int_exp_s(-nu, t) - _int_exp_s_damped(eta, rate, t)
    second = _int_exp_s2(-nu, t) - _int_exp_s2_damped(eta, rate, t)
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
    if nu <= 0.0:
        raise NoSteadyStateError("asymptotic moments require nu > 0")
    m = eta / ((eta + nu) * nu)
    return drift * m, spread * m + drift * drift * eta * (2.0 * nu + eta) / ((eta + nu) * nu) ** 2


def transform_amplitude(nu: float, eta: float, z: float) -> float:
    """z + eta nu / (z + eta + nu) = (z + nu)(z + eta) / (z + eta + nu), for
    z >= 0: z times the Laplace transform of the operating law, over the
    catastrophe-free resolvent at z + nu.  At z = 0 it is eta nu / (eta + nu)."""
    return (z + nu) * (z + eta) / (z + eta + nu)
