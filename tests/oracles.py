"""Independent oracles used by the test suite.

Everything here deliberately avoids the code paths under test: the Bessel
oracle is a high-precision power series, integrals are brute-force midpoint
sums or scipy.quad over analytically rewritten integrands, the lattice law
is a restart convolution over Skellam laws convolved from Poisson masses,
the diffusion density and the mass outside a density slice are restart
convolutions integrated in mpmath, both models' stationary laws and Laplace
transforms and the diffusion's transform roots come from their
characteristic quadratics in 50-digit mpmath, the truncated moments integrate the law of the age of the operating period
in mpmath, the diffusion's truncated variance is also available in the
paper's expanded closed form, and the hitting probability comes from an
absorbing-chain linear solve.  The CLI's tables are checked against a writer
that formats them cell by cell through the csv module and the pure-Python
JSON encoder.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from typing import Optional, Sequence

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_banded
from scipy.special import gammaln


def bessel_series_scaled(n: int, x: float, dps: int = 40) -> float:
    """Power series sum_k (x/2)^{2k+n} / (k! (k+n)!), times e^{-x}, evaluated
    in high-precision arithmetic."""
    n = abs(n)
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        total = mpmath.mpf(0)
        k = 0
        while True:
            term = (xm / 2) ** (2 * k + n) / (mpmath.factorial(k) * mpmath.factorial(k + n))
            total += term
            if k > 4 and term < total * mpmath.mpf(10) ** (-dps - 5):
                break
            k += 1
        return float(total * mpmath.exp(-xm))


def bessel_reference_scaled(n: int, x: float, dps: int = 40, log: bool = False) -> float:
    """mpmath's own Bessel implementation, scaled; an independent algorithm
    usable at arguments where the plain series is too slow.  With ``log``,
    returns log(e^{-x} I_n(x)), which stays finite far below the double
    range."""
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        value = mpmath.besseli(abs(n), xm, maxterms=10**6)
        if log:
            return float(mpmath.log(value) - xm)
        return float(value * mpmath.exp(-xm))


def _poisson_masses(mean: float) -> np.ndarray:
    # Poisson(mean) masses at 0, 1, ..., far enough that the rest is < 1e-40
    count = int(mean + 20.0 * math.sqrt(mean) + 60.0)
    k = np.arange(count, dtype=float)
    return np.exp(k * math.log(mean) - mean - gammaln(k + 1.0))


def skellam_by_poisson(lam: float, mu: float, u: float, n_min: int, n_max: int) -> np.ndarray:
    """P(N1 - N2 = n) for n_min <= n <= n_max, N1 ~ Poisson(lam u) and
    N2 ~ Poisson(mu u) independent: a direct (not FFT) convolution of the two
    mass vectors, so every entry is a sum of positive terms and keeps its
    relative accuracy however small it is."""
    up, down = _poisson_masses(lam * u), _poisson_masses(mu * u)
    # law[j] = P(N1 - N2 = j - (len(down) - 1))
    law = np.convolve(up, down[::-1])
    offset = len(down) - 1
    out = np.zeros(n_max - n_min + 1)
    for i, n in enumerate(range(n_min, n_max + 1)):
        if 0 <= n + offset < len(law):
            out[i] = law[n + offset]
    return out


def lattice_law_by_convolution(
    lam: float, mu: float, nu: float, eta: float, t: float, n_min: int, n_max: int,
) -> np.ndarray:
    """P_n(t) for n_min <= n <= n_max from the restart convolution in the
    time s since the last restart,

        P_n(t) = e^{-nu t} Sk_n(t) + eta int_0^t q(t - s) e^{-nu s} Sk_n(s) ds,

    q the failure mass, Sk the Skellam law from ``skellam_by_poisson``, and
    the integral a composite 20-point Gauss-Legendre rule on equal panels.
    As a function of s, Sk_n peaks where the walk's mean reaches n, with a
    width of about sqrt(s / (lam + mu)) or more, so at least
    sqrt((lam + mu) t) panels (and never fewer than 32) keep a few nodes on
    every peak.  The first panel is cut geometrically towards s = 0, where
    the law at the origin falls off like (lam + mu) s^(-1/2) once s exceeds
    1/(lam + mu), and the last towards s = t, where q(t - s) rises from 0 on
    the scale 1/(eta + nu).
    """
    nodes, weights = np.polynomial.legendre.leggauss(20)
    rate = nu + eta
    total = math.exp(-nu * t) * skellam_by_poisson(lam, mu, t, n_min, n_max)
    panels = max(32, math.ceil(math.sqrt((lam + mu) * t)))
    width = t / panels
    graded = [width * 0.5**j for j in range(40, 0, -1)]
    edges = (
        [0.0] + graded + [width * k for k in range(1, panels)]
        + [t - g for g in reversed(graded)] + [t]
    )
    for lo, hi in zip(edges[:-1], edges[1:]):
        for node, weight in zip(nodes, weights):
            s = lo + 0.5 * (hi - lo) * (node + 1.0)
            failed = nu / rate * -math.expm1(-rate * (t - s))
            factor = eta * 0.5 * (hi - lo) * weight * failed * math.exp(-nu * s)
            total += factor * skellam_by_poisson(lam, mu, s, n_min, n_max)
    return total


def midpoint_integral(f_vec, a: float, b: float, panels: int = 10**6) -> float:
    """Dense fixed midpoint rule; ``f_vec`` must accept numpy arrays."""
    mids = a + (np.arange(panels) + 0.5) * (b - a) / panels
    return float(np.sum(f_vec(mids)) * (b - a) / panels)


def hitting_probability(lam: float, mu: float, n: int = 1, truncation: int = 2000) -> float:
    """P(the catastrophe-free walk ever reaches level n from 0), from the
    absorbing chain on [-truncation, n] (absorbing at both ends)."""
    if n != 1:
        raise NotImplementedError("oracle implemented for level 1")
    size = truncation  # unknowns at sites -truncation+1 .. 0
    bands = np.zeros((3, size))
    rhs = np.zeros(size)
    bands[1, :] = lam + mu
    bands[0, 1:] = -lam  # superdiagonal: neighbor to the right
    bands[2, :-1] = -mu  # subdiagonal: neighbor to the left
    rhs[-1] = lam  # site 0 borders the absorbing target at +1
    solution = solve_banded((1, 1), bands, rhs)
    return float(solution[-1])


def density_by_mpmath(
    lam_hat: float,
    mu_hat: float,
    sigma2: float,
    nu: float,
    eta: float,
    x: float,
    t: float,
    dps: int = 32,
) -> float:
    """Operating density of the jump-diffusion from its restart convolution

        f(x,t) = e^{-nu t} w(x,t) + eta int_0^t q(t-s) e^{-nu s} w(x,s) ds,

    integrated by tanh-sinh in u = sqrt(s), where 2 u w(x, u^2) has no
    endpoint singularity.  In u the lag integrand is exp(-A/u^2 - B u^2) times
    smooth factors: it peaks at the saddle u*^2 = |x| / sqrt(c^2 + 2 nu sigma2)
    with width sigma / (2 sqrt(c^2 + 2 nu sigma2)), and the repair factor q
    turns on within 1/(eta+nu) of the upper end.  Panels of one width next
    to the saddle, widening geometrically away from it, and panels shrinking
    eightfold towards the upper end (where the integrand peaks when the
    saddle lies beyond t) resolve narrow kernels, far tails and fast repairs.
    """
    with mpmath.workdps(dps):
        c = mpmath.mpf(lam_hat) - mpmath.mpf(mu_hat)
        s2, nu_, eta_ = mpmath.mpf(sigma2), mpmath.mpf(nu), mpmath.mpf(eta)
        xm, tm = mpmath.mpf(x), mpmath.mpf(t)
        rate = eta_ + nu_

        def kernel(s):
            return mpmath.exp(-((xm - c * s) ** 2) / (2 * s2 * s)) / mpmath.sqrt(2 * mpmath.pi * s2 * s)

        base = mpmath.exp(-nu_ * tm) * kernel(tm)
        if nu_ == 0:
            return float(base)

        def integrand(u):
            if u == 0:
                return mpmath.mpf(0)
            s = u * u
            q = nu_ / rate * -mpmath.expm1(-rate * (tm - s))
            return q * mpmath.exp(-nu_ * s) * 2 * u * kernel(s)

        root = mpmath.sqrt(c * c + 2 * nu_ * s2)
        top = mpmath.sqrt(tm)
        saddle = mpmath.sqrt(abs(xm) / root)
        width = mpmath.sqrt(s2) / (2 * root)
        points = {mpmath.mpf(0), top}
        for k in (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128, 256, 512, 1024):
            points.update((saddle - k * width, saddle + k * width))
        for k in (1, 10, 100):
            points.add(mpmath.sqrt(max(tm - k / rate, 0)))
        for k in range(1, 40, 3):
            points.add(mpmath.sqrt(tm - tm / mpmath.mpf(2) ** k))
        grid = sorted(p for p in points if 0 <= p <= top)
        # mpmath.quad stops on an absolute error estimate: integrate the
        # integrand relative to its largest sampled value, so that far-tail
        # densities of 1e-80 are resolved as finely as those of order one
        peak = max(integrand(p) for p in grid)
        if peak == 0:
            return float(base)
        integral = peak * mpmath.quad(lambda u: integrand(u) / peak, grid)
        return float(base + eta_ * integral)


def laplace_roots_by_mpmath(lam_hat: float, mu_hat: float, sigma2: float, rate: float,
                            dps: int = 50) -> tuple:
    """The roots w1 > 0 > w2 of sigma2 w^2 - 2 (lam_hat - mu_hat) w - 2 rate = 0
    by the quadratic formula in ``dps`` digits, as mpmath numbers.  The root
    on the drift's side loses about log10(drift^2 / rate) digits to
    cancellation, which 50 digits leave to spare down to rate ~ 1e-30."""
    with mpmath.workdps(dps):
        c = mpmath.mpf(lam_hat) - mpmath.mpf(mu_hat)
        s2 = mpmath.mpf(sigma2)
        root = mpmath.sqrt(c * c + 2 * s2 * mpmath.mpf(rate))
        return (c + root) / s2, (c - root) / s2


def _diffusion_scaled_transform(lam_hat, mu_hat, sigma2, nu, eta, x, z):
    """z times the Laplace transform at z >= 0 of the jump-diffusion's density
    at x, in the working precision: the two-sided exponential that decays at
    the roots of the characteristic equation at rate s = z + nu, e^{w1 x}
    below 0 and e^{w2 x} above, of mass (z + eta) / (z + eta + nu).  At
    z = 0 it is the stationary density.  The root on the drift's side,
    (drift -+ r) / sigma2 with r = sqrt(drift^2 + 2 sigma2 s), is taken as
    -+2 s / (r + |drift|), which cancels nothing."""
    c = mpmath.mpf(lam_hat) - mpmath.mpf(mu_hat)
    s2, nu_, eta_, z_, xm = map(mpmath.mpf, (sigma2, nu, eta, z, x))
    s = z_ + nu_
    root = mpmath.sqrt(c * c + 2 * s2 * s)
    near, far = 2 * s / (root + abs(c)), (root + abs(c)) / s2
    w1, w2 = (near, -far) if c < 0 else (far, -near)
    scale = (z_ + eta_) / (z_ + eta_ + nu_) / (1 / w1 - 1 / w2)
    return scale * mpmath.exp((w2 if xm > 0 else w1) * xm)


def steady_density_by_mpmath(lam_hat: float, mu_hat: float, sigma2: float, nu: float,
                             eta: float, x: float, dps: int = 50) -> float:
    """Stationary density of the jump-diffusion in ``dps`` digits."""
    with mpmath.workdps(dps):
        return float(_diffusion_scaled_transform(lam_hat, mu_hat, sigma2, nu, eta, x, 0))


def density_transform_by_mpmath(lam_hat: float, mu_hat: float, sigma2: float, nu: float,
                                eta: float, x: float, z: float, dps: int = 50) -> float:
    """Laplace transform at z > 0 of the jump-diffusion's density at x, in
    ``dps`` digits."""
    with mpmath.workdps(dps):
        return float(_diffusion_scaled_transform(lam_hat, mu_hat, sigma2, nu, eta, x, z) / z)


def _lattice_scaled_transform(lam, mu, nu, eta, n, z):
    """z times the Laplace transform at z >= 0 of the lattice walk's P_n, in
    the working precision: the cycle's amplitude (z + nu)(z + eta) /
    (z + eta + nu) over R = sqrt((z + lam + mu + nu)^2 - 4 lam mu), times
    (2 rate / (z + lam + mu + nu + R))^|n| with rate lam above the origin and
    mu below.  At z = 0 it is the stationary law.  R^2 is summed as
    (lam - mu)^2 + s (s + 2 (lam + mu)) with s = z + nu, which cancels
    nothing."""
    lam_, mu_, nu_, eta_, z_ = map(mpmath.mpf, (lam, mu, nu, eta, z))
    s = z_ + nu_
    root = mpmath.sqrt((lam_ - mu_) ** 2 + s * (s + 2 * (lam_ + mu_)))
    ratio = 2 * (lam_ if n > 0 else mu_) / (lam_ + mu_ + s + root)
    return s * (z_ + eta_) / (z_ + eta_ + nu_) / root * ratio ** abs(n)


def steady_state_by_mpmath(lam: float, mu: float, nu: float, eta: float, n: int,
                           dps: int = 50) -> float:
    """Stationary probability of lattice state n in ``dps`` digits."""
    with mpmath.workdps(dps):
        return float(_lattice_scaled_transform(lam, mu, nu, eta, n, 0))


def lattice_transform_by_mpmath(lam: float, mu: float, nu: float, eta: float, n: int, z: float,
                                dps: int = 50) -> float:
    """Laplace transform at z > 0 of the lattice walk's P_n, in ``dps`` digits."""
    with mpmath.workdps(dps):
        return float(_lattice_scaled_transform(lam, mu, nu, eta, n, z) / z)


def slice_tail_by_mpmath(
    lam_hat: float,
    mu_hat: float,
    sigma2: float,
    nu: float,
    eta: float,
    t: float,
    lo: float,
    hi: float,
    dps: int = 24,
) -> float:
    """Operating mass outside [lo, hi] at time t from the restart convolution
    of the failure-free normal law,

        T = e^{-nu t} G(t) + eta int_0^t q(t-s) e^{-nu s} G(s) ds,
        G(s) = P(W_s > hi) + P(W_s < lo),  W_s ~ N(c s, sigma2 s),

    q the failure mass, integrated by tanh-sinh in the time s since the last
    restart, one tail at a time.  A tail switches on or off where its level
    meets the mean, s* = h / c, over a width sigma sqrt(s*) / |c|: panels of
    that width next to s*, widening geometrically away from it, panels
    shrinking geometrically towards both ends, and panels on the scale
    1/(eta+nu) of q next to s = t resolve narrow kernels and fast repairs.
    """
    with mpmath.workdps(dps):
        c = mpmath.mpf(lam_hat) - mpmath.mpf(mu_hat)
        sd = mpmath.sqrt(mpmath.mpf(sigma2))
        nu_, eta_, tm = mpmath.mpf(nu), mpmath.mpf(eta), mpmath.mpf(t)
        rate = eta_ + nu_

        def above(s):
            return mpmath.ncdf((c * s - hi) / (sd * mpmath.sqrt(s)))

        def below(s):
            return mpmath.ncdf((lo - c * s) / (sd * mpmath.sqrt(s)))

        total = mpmath.exp(-nu_ * tm) * (above(tm) + below(tm))
        if nu_ == 0:
            return float(total)
        for level, tail in ((hi, above), (lo, below)):

            def integrand(s, tail=tail):
                if s == 0:
                    return mpmath.mpf(0)
                q = nu_ / rate * -mpmath.expm1(-rate * (tm - s))
                return q * mpmath.exp(-nu_ * s) * tail(s)

            points = {mpmath.mpf(0), tm}
            for k in (1, 2, 4, 8, 16, 32, 48):
                points.update((tm / mpmath.mpf(2) ** k, tm - tm / mpmath.mpf(2) ** k))
            for k in (1, 3, 10, 30, 100):
                points.add(tm - k / rate)
            if c != 0 and 0 < level / c < tm:
                crossing = level / c
                width = sd * mpmath.sqrt(crossing) / abs(c)
                for k in (0, 1, 2, 4, 8, 16, 64, 256, 4096):
                    points.update((crossing - k * width, crossing + k * width))
            grid = sorted(p for p in points if 0 <= p <= tm)
            # relative to the largest sampled value, as in density_by_mpmath
            peak = max(integrand(p) for p in grid)
            if peak > 0:
                total += eta_ * peak * mpmath.quad(lambda s: integrand(s) / peak, grid)
        return float(total)


def second_moment_by_quadrature(
    nu: float, eta: float, t: float, linear: float, quadratic: float
) -> float:
    """Restart convolution of the failure-free second moment, evaluated by
    quadrature on the defining integral instead of in closed form."""

    def q(tau: float) -> float:
        return nu / (eta + nu) * -math.expm1(-(eta + nu) * tau)

    def m2(s: float) -> float:
        return linear * s + quadratic * s * s

    base = math.exp(-nu * t) * m2(t)
    if nu == 0.0:
        return base
    integral, _ = quad(
        lambda tau: q(tau) * math.exp(-nu * (t - tau)) * m2(t - tau),
        0.0,
        t,
        epsabs=1e-13,
        epsrel=1e-12,
        limit=400,
    )
    return base + eta * integral


@functools.lru_cache(maxsize=None)
def _age_moments_by_mpmath(nu: float, eta: float, t: float):
    # E[A 1{on}] and Var[A 1{on}] as mpmath numbers; the variance is
    # integrated about the mean, so nothing cancels
    with mpmath.workdps(20):
        nu_, eta_, tm = mpmath.mpf(nu), mpmath.mpf(eta), mpmath.mpf(t)
        if nu_ == 0:
            return tm, mpmath.mpf(0)
        rate = eta_ + nu_
        intact = mpmath.exp(-nu_ * tm)
        off = nu_ / rate * -mpmath.expm1(-rate * tm)

        def density(a):
            return eta_ * -mpmath.expm1(-rate * (tm - a)) * nu_ / rate * mpmath.exp(-nu_ * a)

        points = {mpmath.mpf(0), tm}
        for k in range(1, 50, 6):
            points.update((tm / mpmath.mpf(2) ** k, tm - tm / mpmath.mpf(2) ** k))
        grid = sorted(points)
        mean = intact * tm + mpmath.quad(lambda a: a * density(a), grid, method="gauss-legendre")
        spread = mpmath.quad(lambda a: (a - mean) ** 2 * density(a), grid, method="gauss-legendre")
        return mean, intact * (tm - mean) ** 2 + off * mean**2 + spread


def truncated_moments_by_mpmath(
    nu: float, eta: float, t: float, drift: float, spread: float
) -> tuple[float, float]:
    """Truncated mean and variance, E[X(t) 1{on}] and Var[X(t) 1{on}], of
    either model from the law of the age A of the current operating period,

        P(A in da, on) = e^{-nu t} delta(a - t) da + eta q(t - a) e^{-nu a} da,

    0 < a <= t, q the failure mass.  Given A the state has mean drift*A and
    variance spread*A, so the mean is drift E[A 1{on}] and the variance
    spread E[A 1{on}] + drift^2 Var[A 1{on}].  Both age moments are
    Gauss-Legendre integrals in 20-digit mpmath, on panels halving
    geometrically towards both ends (the repair factor switches on within
    1/(eta+nu) of a = t, the catastrophe factor decays within 1/nu of
    a = 0), and agree with a 50-digit tanh-sinh run to 1e-16.
    """
    mean, spread_age = _age_moments_by_mpmath(nu, eta, t)
    return float(drift * mean), float(spread * mean + drift**2 * spread_age)


def asymptotic_moments_by_mpmath(nu: float, eta: float, drift: float, spread: float,
                                 dps: int = 50) -> tuple[float, float]:
    """Long-run truncated mean and variance of either model in ``dps``
    digits, in the expanded closed form drift m and
    spread m + drift^2 eta (2 nu + eta) / ((eta + nu) nu)^2 with
    m = eta / ((eta + nu) nu); mpmath's exponents do not overflow."""
    with mpmath.workdps(dps):
        nu_, eta_, drift_, spread_ = map(mpmath.mpf, (nu, eta, drift, spread))
        m = eta_ / ((eta_ + nu_) * nu_)
        return (float(drift_ * m),
                float(spread_ * m + drift_**2 * eta_ * (2 * nu_ + eta_) / ((eta_ + nu_) * nu_) ** 2))


def printed_variance(nu: float, eta: float, t: float, drift: float, sigma2: float) -> float:
    """The diffusion's truncated variance Var[X(t) 1{on}] in the paper's
    expanded closed form, for nu > 0.  It cancels as nu t -> 0: at
    (drift 2, sigma2 1, nu 1e-6, eta 1), t = 1e-3, it gives 5.56e-4 against
    1.00e-3."""
    decay = math.exp(-nu * t)
    repair_gap = -math.expm1(-eta * t)
    profile = -math.expm1(-nu * t) + (nu / eta) ** 2 * decay * repair_gap
    diffusive = sigma2 * eta / ((eta + nu) * nu) * profile
    braces = (
        -2.0 * nu**2 * decay * repair_gap * (nu**2 + eta * nu + eta**2)
        + 2.0 * nu * eta**3 * (-math.expm1(-nu * t))
        + eta**4
        + 2.0 * eta * nu * (eta + nu) * (nu**2 - eta**2) * t * decay
        - math.exp(-2.0 * nu * t) * (nu**2 - eta**2 - nu**2 * math.exp(-eta * t)) ** 2
    )
    return diffusive + drift**2 / ((eta + nu) ** 2 * nu**2 * eta**2) * braces


def _format_cell(value, full_precision: bool, decimals: Optional[int]) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if decimals is not None:
            return f"{value:.{decimals}f}"
        if full_precision:
            return repr(value)
        return f"{value:.6g}"
    return str(value)


def table_by_cells(
    columns: Sequence[str],
    rows: Sequence[Sequence],
    params: dict,
    fmt: str = "csv",
    full_precision: bool = False,
    decimals: Optional[int] = None,
) -> str:
    """The text of a CLI table, written one cell and one row at a time: each
    cell through ``_format_cell`` and ``csv.writer`` (CSV), or the whole
    payload through ``json.dumps(indent=2)`` (JSON)."""
    if fmt == "json":
        if decimals is not None:
            rows = [
                [round(v, decimals) if isinstance(v, float) else v for v in row]
                for row in rows
            ]
        payload = {"params": params, "schema": list(columns), "rows": [list(r) for r in rows]}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    buffer = io.StringIO()
    buffer.write("# catwalk-table v1\n")
    buffer.write(f"# params {json.dumps(params, sort_keys=True)}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(v, full_precision, decimals) for v in row])
    return buffer.getvalue()
