"""Numerical primitives and the package's typed numerical error.

``QuadratureError`` is raised when a result misses its declared tolerance;
the lattice window's mass check raises it, and the command line reports it
as a convergence error.

No law of the package integrates numerically: the lattice laws are inverted
from their generating function and the diffusion laws are closed forms.  Two
primitives remain, each held to its contract by the tests: the overflow-safe
product e^{-x} I_n(x) (``bessel_i_scaled``, 1e-12 relative), and an adaptive
integral over a finite interval with explicit tolerances and an error
estimate (``integrate_adaptive``, QUADPACK), which the tests use as a
reference.  The traced benchmark run wraps both by name where the model
modules bind them.  SciPy is imported inside the functions that call it, so
that the package starts without loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "QuadResult",
    "bessel_i_scaled",
    "integrate_adaptive",
]

# Orders are supported far beyond this, but accuracy is only asserted by the
# test suite up to |n| = 1e5 and x = 1e7.
MAX_TESTED_ORDER = 100_000


def bessel_i_scaled(n: int, x: float) -> float:
    """Return e^{-x} I_n(x) for integer order n and x >= 0.

    The scaled product lies in [0, 1] and stays finite for arguments up to
    at least 1e7, where the raw Bessel function would overflow long before.
    Negative orders use the symmetry I_{-n} = I_n.
    """
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"bessel_i_scaled requires finite x >= 0, got {x!r}")
    n = abs(int(n))
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    from scipy.special import ive

    # AMOS ive is exponentially scaled already; clamp stray -0.0.
    value = float(ive(n, x))
    return value if value > 0.0 else 0.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance budget for one adaptive integral."""

    relative_tolerance: float = 1e-10
    absolute_tolerance: float = 1e-14
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not (self.relative_tolerance > 0.0 and self.absolute_tolerance > 0.0):
            raise ValueError("quadrature tolerances must be strictly positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


#: Default budget used by the model modules when the caller does not care.
DEFAULT_QUADRATURE = QuadratureSpec()


class QuadResult(NamedTuple):
    value: float
    error_estimate: float


class QuadratureError(RuntimeError):
    """A numerical result missed its declared tolerance: an adaptive
    subdivision budget ran out, or a lattice window failed its mass check.

    Carries the best available estimate and its error bound so a caller can
    decide whether the partial answer is still usable: floats for one
    integral, and for a window its values (one per state) with the mass
    defect.
    """

    def __init__(self, message: str, best_estimate, error_bound):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_bound = error_bound


def integrate_adaptive(
    integrand: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> QuadResult:
    """Integrate ``integrand`` over [a, b] to the tolerances in ``spec``.

    Returns the estimate together with the achieved error estimate.  Raises
    :class:`QuadratureError` if the subdivision budget runs out before the
    requested tolerance is met.
    """
    if not a <= b:
        raise ValueError(f"integration bounds must satisfy a <= b, got ({a}, {b})")
    if a == b:
        return QuadResult(0.0, 0.0)
    from scipy.integrate import quad

    value, abserr, info, *message = quad(
        integrand,
        a,
        b,
        epsabs=spec.absolute_tolerance,
        epsrel=spec.relative_tolerance,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    if message:
        tol = max(spec.absolute_tolerance, spec.relative_tolerance * abs(value))
        # QUADPACK round-off warnings still deliver the tolerance in practice;
        # only treat the result as failed when the reported bound misses it.
        if abserr > tol:
            raise QuadratureError(
                f"quadrature did not converge on [{a}, {b}]: {message[0]}",
                best_estimate=value,
                error_bound=abserr,
            )
    return QuadResult(value, abserr)
