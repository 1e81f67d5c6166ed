"""The lattice law in its hard regimes, against oracles that share no code
with ``catwalk.discrete``: mpmath's ``besseli`` for the log-space Bessel
kernel, ``scipy.stats.skellam`` for the catastrophe-free law, and a restart
convolution over Skellam laws convolved from Poisson masses
(``oracles.lattice_law_by_convolution``) for whole default windows.

Bounds.  1e-12 relative wherever AMOS ``ive`` is representable
(e^{-x} I_n(x) >= ``special.IVE_FLOOR``), the bound of the kernel tests in
``test_special.py``.  Where ``ive`` underflows, the kernel is the logarithm
of a number far below the double range, and the Skellam law is the
exponential of n log(beta) plus that logarithm: two terms of size about 3e3
(up to 6e3 on this grid) that cancel to an exponent of order one.  Rounding
each to its last bit moves the exponent by about 3e3 * 1.1e-16 each, up to
~1.5e-12 relative in the value (seen at n = 3000, lam/mu = 50), so the
bound there is 1e-11.  The windows are held to the quadrature contract
instead, |error| <= 1e-10 P + 1e-14 per state.
"""

import math

import numpy as np
import pytest
from scipy.stats import skellam

from catwalk import discrete as d
from catwalk.special import IVE_FLOOR, log_bessel_i_scaled
from oracles import bessel_reference_scaled, lattice_law_by_convolution

REPRESENTABLE_RTOL = 1e-12
UNDERFLOW_RTOL = 1e-11

# the benchmark's four lattice regimes: (rates, t)
REGIMES = {
    "moderate": ((2.0, 2.0, 0.1, 1.0), 5.0),
    "long-horizon": ((2.0, 2.0, 0.1, 1.0), 50.0),
    "heavy-traffic": ((460.0, 470.0, 1.0, 0.25), 1.0),
    "strong-drift": ((200.0, 1.0, 0.1, 1.0), 5.0),
}

# fast repairs and rare catastrophes: the failure mass q(t - u) rises on the
# scale 1/eta = 1e-3, far below the node spacing of a panel reaching u = t
WINDOWS = {
    **REGIMES,
    "fast-repair": ((2.0, 2.0, 1e-3, 1e3), 5.0),
    "fast-repair-strong-drift": ((200.0, 1.0, 1e-3, 1e3), 5.0),
}

STRONG_X = 2.0 * math.sqrt(200.0) * 5.0  # Bessel argument of the strong-drift walk at t = 5


def _rtol(log_reference: float) -> float:
    return REPRESENTABLE_RTOL if log_reference >= math.log(IVE_FLOOR) else UNDERFLOW_RTOL


class TestLogKernel:
    @pytest.mark.parametrize(
        "n,x",
        [
            # ive representable
            (0, 1e-300), (1, 1e-3), (5, 0.1), (135, 1.0), (200, 28.0), (440, STRONG_X),
            (200, 930.0), (2000, 1e6),
            # ive underflows: Olver's expansion at the strong-drift orders ...
            (700, STRONG_X), (1000, STRONG_X), (1300, STRONG_X), (2000, 2.0 * math.sqrt(50.0) * 40.8),
            (3000, 1e3), (1000, 10.0),
            # ... and the power series for arguments tiny against the order
            (3, 1e-93), (10, 1e-28), (30, 1e-10), (40, 1e-100),
        ],
    )
    def test_against_mpmath(self, n, x):
        reference = bessel_reference_scaled(n, x, log=True)
        value = float(log_bessel_i_scaled(n, x))
        # an absolute error in the logarithm is a relative error in the value
        assert abs(value - reference) <= _rtol(reference)

    @pytest.mark.parametrize("n", [3, 50, 132, 140, 500, 3000])
    def test_across_the_ive_floor(self, n):
        # arguments where e^{-x} I_n(x) crosses IVE_FLOOR: both sides agree
        lo, hi = 1e-300, 1e7
        for _ in range(120):
            mid = math.sqrt(lo * hi)
            if bessel_reference_scaled(n, mid, dps=20, log=True) < math.log(IVE_FLOOR):
                lo = mid
            else:
                hi = mid
        for x in (0.99 * hi, hi, 1.01 * hi):
            reference = bessel_reference_scaled(n, x, log=True)
            assert abs(float(log_bessel_i_scaled(n, x)) - reference) <= _rtol(reference)

    def test_reflection_is_exact(self):
        orders = np.arange(-50, 51)
        values = log_bessel_i_scaled(orders[:, None], np.array([1e-3, 1.0, 300.0]))
        assert np.array_equal(values, values[::-1])


def _skellam_cases():
    cases = [(200.0, 1.0, 5.0, n) for n in list(range(112, 1300, 61)) + [2300]]
    cases += [(50.0, 1.0, 40.8, n) for n in (1000, 1500, 2000, 2040, 2500, 3000)]
    cases += [(460.0, 470.0, 1.0, n) for n in (-220, -100, 0, 100, 220)]
    cases += [(3.0, 1.5, 2.0, n) for n in (-5, 0, 5, 20)]
    return cases


class TestSkellamAgainstScipy:
    @pytest.mark.parametrize(
        "lam,mu,n,t,expected",
        [(200.0, 1.0, 1000, 5.0, 0.0124), (50.0, 1.0, 2000, 40.8, 0.0087)],
    )
    def test_strong_drift_at_the_mode(self, lam, mu, n, t, expected):
        # both returned 0.0 when the kernel was ive alone
        p = d.DiscreteParams(lam, mu, 0.0, 1.0)
        value = d.skellam_probability(p, n, t)
        assert value == pytest.approx(skellam.pmf(n, lam * t, mu * t), rel=UNDERFLOW_RTOL)
        assert round(value, 4) == expected

    @pytest.mark.parametrize("lam,mu,t,n", _skellam_cases())
    def test_grid(self, lam, mu, t, n):
        p = d.DiscreteParams(lam, mu, 0.0, 1.0)
        reference = skellam.pmf(n, lam * t, mu * t)
        value = d.skellam_probability(p, n, t)
        assert reference >= 1e-300
        assert value > 0.0
        log_kernel = bessel_reference_scaled(n, p.alpha * t, dps=20, log=True)
        assert value == pytest.approx(reference, rel=_rtol(log_kernel))

    def test_tiny_argument_far_order_is_not_zero(self):
        # e^{-x} I_30(x) ~ 4e-342 at x = 1e-10, but beta^30 = 1e90 lifts the law
        p = d.DiscreteParams(1e6, 1.0, 0.0, 1.0)
        value = d.skellam_probability(p, 30, 5e-14)
        reference = skellam.pmf(30, 1e6 * 5e-14, 5e-14)
        assert value == pytest.approx(reference, rel=UNDERFLOW_RTOL)


class TestWindowsAgainstConvolution:
    @pytest.mark.parametrize("label", sorted(WINDOWS))
    def test_every_state_of_the_default_window(self, label):
        rates, t = WINDOWS[label]
        p = d.DiscreteParams(*rates)
        law = d.transient_distribution(p, t)
        n_min, n_max = law.window
        values = np.array([law.probabilities[n] for n in range(n_min, n_max + 1)])
        reference = lattice_law_by_convolution(*rates, t, n_min, n_max, panels=32)
        assert np.all(np.abs(values - reference) <= 1e-10 * reference + 1e-14)
        assert np.all(values[reference >= 1e-300] > 0.0)
        assert law.tail_bound <= d.WINDOW_TAIL_TARGET
        assert law.total_mass() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("label", ["heavy-traffic", "strong-drift"])
    def test_rate_swap_mirrors_the_window_exactly(self, label):
        rates, t = REGIMES[label]
        p = d.DiscreteParams(*rates)
        law, mirror = d.transient_distribution(p, t), d.transient_distribution(p.swapped(), t)
        n_min, n_max = law.window
        assert mirror.window == (-n_max, -n_min)
        assert all(law.probabilities[n] == mirror.probabilities[-n] for n in range(n_min, n_max + 1))
