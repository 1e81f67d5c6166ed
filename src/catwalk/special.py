"""Scaled modified Bessel evaluation and adaptive quadrature.

Two primitives with their numerical contracts: the overflow-safe product
e^{-x} I_n(x) (``bessel_i_scaled``, 1e-12 relative), kept validated though
the lattice laws are now inverted from their generating function, and
adaptive integrals over finite intervals with user-controlled tolerances
and an honest error estimate (``integrate_adaptive`` for one integrand,
``integrate_batch`` for many on shared panels), which the diffusion model
uses.  SciPy is imported inside the functions that call it, so that the
closed-form laws and the command line start without loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "QuadResult",
    "bessel_i_scaled",
    "integrate_adaptive",
    "integrate_batch",
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
    integral, arrays with one entry per integral for a batch, and for a
    window its values (one per state) with the mass defect.
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


# 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK qk21): nodes ascending,
# Kronrod weights, and the embedded 10-point Gauss weights (0 off its nodes)
_GK_HALF_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_GK_HALF_KRONROD = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
])
_GK_HALF_GAUSS = np.array([
    0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338,
])
_GK_NODES = np.concatenate([-_GK_HALF_NODES, [0.0], _GK_HALF_NODES[::-1]])
_GK_KRONROD = np.concatenate([_GK_HALF_KRONROD, [0.149445554002916905664936468389821],
                              _GK_HALF_KRONROD[::-1]])
_GK_GAUSS = np.concatenate([_GK_HALF_GAUSS, [0.0], _GK_HALF_GAUSS[::-1]])
_EPS = np.finfo(float).eps


#: integrand values computed per call, at most (or one row's worth, when
#: that is more); bounds the working memory whatever the number of rows
_VALUES_PER_CALL = 1 << 12


def _gk21_panels(integrand, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray):
    # integral and QUADPACK error estimate on each panel for each row: two
    # arrays of shape (panels, rows), computed a block of rows at a time
    step = max(1, _VALUES_PER_CALL // (lo.size * _GK_NODES.size))
    blocks = [_gk21_chunk(integrand, lo, hi, rows[j:j + step]) for j in range(0, rows.size, step)]
    return tuple(np.concatenate(parts, axis=1) for parts in zip(*blocks))


def _gk21_chunk(integrand, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray):
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES
    values = integrand(nodes.ravel(), rows).reshape(len(rows), len(lo), _GK_NODES.size)
    # one multiply-and-sum per row keeps each row's rounding independent of
    # the other rows
    kronrod = (values * _GK_KRONROD).sum(axis=-1)
    gauss = (values * _GK_GAUSS).sum(axis=-1)
    spread = (np.abs(values - 0.5 * kronrod[..., None]) * _GK_KRONROD).sum(axis=-1)
    magnitude = (np.abs(values) * _GK_KRONROD).sum(axis=-1)
    half = half[None, :]
    raw = np.abs(kronrod - gauss) * half
    spread *= half
    positive = spread > 0.0
    ratio = 200.0 * raw / np.where(positive, spread, 1.0)
    error = np.where(positive, spread * np.minimum(1.0, ratio) ** 1.5, raw)
    error = np.maximum(50.0 * _EPS * magnitude * half, error)
    return (kronrod * half).T, error.T


def integrate_batch(
    integrand: Callable[[np.ndarray, np.ndarray], np.ndarray],
    count: int,
    edges,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate ``count`` integrands over [a, b] on shared panels.

    ``integrand(u, rows)`` returns an array of shape ``(len(rows), len(u))``:
    integrands number ``rows`` (an index array) at the nodes ``u``.  The
    first panels are cut at ``edges``, ascending from a to b; a caller that
    knows where an integrand changes faster than the node spacing can see
    puts edges there, as for QUADPACK's break points.  Panels carry a
    21-point Gauss-Kronrod rule with QUADPACK's error estimate.
    Each integrand is tested on its own, error_i <= max(atol, rtol |I_i|)
    with the tolerances of ``spec``, and drops out once it passes; while
    any is left, every panel whose share of some remaining integrand's error
    exceeds its share of [a, b] is bisected, for all remaining integrands at
    once.  Returns the integrals and their error estimates.  Raises
    :class:`QuadratureError`, carrying both as arrays, when the panels would
    exceed ``spec.max_subdivisions``.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[0], edges[-1]
    if not np.all(edges[1:] >= edges[:-1]):
        raise ValueError(f"panel edges must be ascending, got {edges}")
    value, error = np.zeros(count), np.zeros(count)
    if a == b or count == 0:
        return value, error
    rows = np.arange(count)
    lo, hi = edges[:-1][edges[1:] > edges[:-1]], edges[1:][edges[1:] > edges[:-1]]
    panel_value, panel_error = _gk21_panels(integrand, lo, hi, rows)
    while True:
        # sums over the panel axis run panel by panel, the same for every row
        value[rows] = panel_value.sum(axis=0)
        error[rows] = panel_error.sum(axis=0)
        tolerance = np.maximum(spec.absolute_tolerance, spec.relative_tolerance * np.abs(value[rows]))
        open_ = error[rows] > tolerance
        if not open_.any():
            return value, error
        rows, tolerance = rows[open_], tolerance[open_]
        panel_value, panel_error = panel_value[:, open_], panel_error[:, open_]
        share = (hi - lo) / (b - a)
        split = (panel_error > share[:, None] * tolerance).any(axis=1)
        if not split.any():  # every panel meets its share up to rounding: split the worst
            split[np.argmax(panel_error.max(axis=1))] = True
        if lo.size + np.count_nonzero(split) > spec.max_subdivisions:
            raise QuadratureError(
                f"{rows.size} of {count} integrals did not converge on [{a}, {b}] "
                f"within {spec.max_subdivisions} subintervals",
                best_estimate=value,
                error_bound=error,
            )
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_value, new_error = _gk21_panels(integrand, new_lo, new_hi, rows)
        keep = ~split
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        panel_value = np.concatenate([panel_value[keep], new_value])
        panel_error = np.concatenate([panel_error[keep], new_error])
