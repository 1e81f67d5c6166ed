"""Scaled modified Bessel evaluation and adaptive quadrature.

Every analytic formula in this package is expressed in terms of the
overflow-safe product e^{-x} I_n(x) (``bessel_i_scaled``, and its logarithm
``log_bessel_i_scaled`` for whole arrays of orders and arguments) and of
adaptive integrals over finite intervals (``integrate_adaptive`` for one
integrand, ``integrate_batch`` for many integrands on shared panels).
Keeping these primitives in one place pins down the numerical contracts the
model modules rely on: 1e-12 relative accuracy for the Bessel kernel, and
user-controlled tolerances with an honest error estimate for the integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, ive

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "QuadResult",
    "bessel_i_scaled",
    "log_bessel_i_scaled",
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
    Negative orders use the symmetry I_{-n} = I_n.  The exponential of
    :func:`log_bessel_i_scaled`.
    """
    return float(np.exp(log_bessel_i_scaled(int(n), x)))


#: AMOS ive is used down to this value; below it the expansions take over,
#: well above the subnormal range where ive loses digits and then underflows
IVE_FLOOR = 1e-280
_LOG_IVE_FLOOR = math.log(IVE_FLOOR)
#: the power series is used where x^2/4 <= this times (n + 1); its fourth
#: term is then below 4e-14 relative
_SERIES_REACH = 1e-3


def log_bessel_i_scaled(n, x) -> np.ndarray:
    """Return log(e^{-x} I_n(x)) for integer orders n and arguments x >= 0,
    broadcast against each other (-inf where the value is 0: n != 0, x = 0).

    Where e^{-x} I_n(x) is at least ``IVE_FLOOR`` it is AMOS ``ive``.  Below
    that, ``ive`` underflows long before the logarithm does, and the value
    comes from Olver's uniform expansion (DLMF 10.41.3, four correction
    terms) or, for arguments tiny against the order, from the power series.
    Which entries ``ive`` would underflow on is read off the leading Olver
    exponent first, so ``ive`` is not called on them.
    """
    order, x = np.broadcast_arrays(np.abs(np.asarray(n, dtype=float)), np.asarray(x, dtype=float))
    shape = order.shape
    order, x = order.ravel(), x.ravel()
    if not np.all(np.isfinite(x) & (x >= 0.0)):
        raise ValueError("log_bessel_i_scaled requires finite x >= 0")
    out = np.where(order == 0.0, 0.0, -np.inf)  # the values at x = 0
    positive = x > 0.0
    out[positive] = _log_bessel_positive(order[positive], x[positive])
    return out.reshape(shape)


def _log_bessel_positive(order: np.ndarray, x: np.ndarray) -> np.ndarray:
    radius = np.hypot(order, x)
    with np.errstate(over="ignore"):  # n / x = inf at subnormal x: the exponent is -inf
        leading = order * order / (radius + x) - order * np.arcsinh(order / x)
    leading -= 0.5 * np.log(2.0 * math.pi * radius)
    out = np.empty(order.shape)
    # the correction terms of the expansion change the exponent by < 0.1
    low = leading < _LOG_IVE_FLOOR - 1.0
    direct = np.flatnonzero(~low)
    if direct.size:
        value = ive(order[direct], x[direct])
        ok = value >= IVE_FLOOR
        out[direct[ok]] = np.log(value[ok])
        low[direct[~ok]] = True
    below = np.flatnonzero(low)
    if below.size:
        nb, xb = order[below], x[below]
        out[below] = np.where(
            xb * xb <= 4.0 * _SERIES_REACH * (nb + 1.0),
            _log_series(nb, xb),
            leading[below] + _olver_correction(nb, nb / radius[below]),
        )
    return out


def _log_series(n: np.ndarray, x: np.ndarray) -> np.ndarray:
    # log of e^{-x} (x/2)^n / n! * 0F1(; n+1; x^2/4), three series terms
    r = 0.25 * x * x
    tail = r / (n + 1.0) * (1.0 + r / (2.0 * (n + 2.0)) * (1.0 + r / (3.0 * (n + 3.0))))
    return n * np.log(0.5 * x) - gammaln(n + 1.0) - x + np.log1p(tail)


def _olver_correction(n: np.ndarray, p: np.ndarray) -> np.ndarray:
    # log(sum_k U_k(p) / n^k), k <= 4, DLMF 10.41.10
    p2 = p * p
    u1 = p * (3.0 - 5.0 * p2) / 24.0
    u2 = p2 * (81.0 + p2 * (-462.0 + p2 * 385.0)) / 1152.0
    u3 = p * p2 * (30375.0 + p2 * (-369603.0 + p2 * (765765.0 - p2 * 425425.0))) / 414720.0
    u4 = p2 * p2 * (
        4465125.0
        + p2 * (-94121676.0 + p2 * (349922430.0 + p2 * (-446185740.0 + p2 * 185910725.0)))
    ) / 39813120.0
    inv = 1.0 / n
    return np.log1p(inv * (u1 + inv * (u2 + inv * (u3 + inv * u4))))


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
    """Adaptive subdivision budget exhausted without meeting the tolerance.

    Carries the best available estimate and its error bound so a caller can
    decide whether the partial answer is still usable: floats for one
    integral, arrays with one entry per integral for a batch.
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
