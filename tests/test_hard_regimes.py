"""The lattice law in its hard regimes, against oracles that share no code
with ``catwalk.discrete``: ``scipy.stats.skellam`` for the catastrophe-free
law, mpmath's ``besseli`` for the size of its Bessel factor, and a restart
convolution over Skellam laws convolved from Poisson masses
(``oracles.lattice_law_by_convolution``) for whole default windows.

Bounds.  The catastrophe-free law is held to 1e-12 relative where its
Bessel factor e^{-x} I_n(x) is at least ``IVE_FLOOR`` (the range of AMOS
``ive``), and to 1e-11 below it, where strongly drifting walks put orders in
the thousands against arguments in the hundreds.  The inversion's worst
error on this grid is about 1.3e-13.  The windows are held to
|error| <= 1e-10 P + 1e-14 per state.

Contract.  Every default window over a grid of drifts closes its mass to
1 - q(t) within its tail bound, and its mean and variance match the closed
forms ``mean_transient`` and ``variance_transient``.
"""

import math

import numpy as np
import pytest
from scipy.stats import skellam

from catwalk import discrete as d
from oracles import bessel_reference_scaled, lattice_law_by_convolution

REPRESENTABLE_RTOL = 1e-12
UNDERFLOW_RTOL = 1e-11
IVE_FLOOR = 1e-280

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
    # restarts dominate and the law has geometric tails: the law tilted to a
    # tail state's saddle is wide, so the FFT must be longer than the window
    "restart-dominated": ((3.0, 1.0, 100.0, 100.0), 3.0),
}

def _rtol(log_reference: float) -> float:
    return REPRESENTABLE_RTOL if log_reference >= math.log(IVE_FLOOR) else UNDERFLOW_RTOL


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
        value = d.transient_probability(p, n, t)
        assert value == pytest.approx(skellam.pmf(n, lam * t, mu * t), rel=UNDERFLOW_RTOL)
        assert round(value, 4) == expected

    @pytest.mark.parametrize("lam,mu,t,n", _skellam_cases())
    def test_grid(self, lam, mu, t, n):
        p = d.DiscreteParams(lam, mu, 0.0, 1.0)
        reference = skellam.pmf(n, lam * t, mu * t)
        value = d.transient_probability(p, n, t)
        assert reference >= 1e-300
        assert value > 0.0
        log_kernel = bessel_reference_scaled(n, 2.0 * math.sqrt(lam * mu) * t, dps=20, log=True)
        assert value == pytest.approx(reference, rel=_rtol(log_kernel))

    def test_tiny_argument_far_order_is_not_zero(self):
        # e^{-x} I_30(x) ~ 4e-342 at x = 1e-10, but beta^30 = 1e90 lifts the law
        p = d.DiscreteParams(1e6, 1.0, 0.0, 1.0)
        value = d.transient_probability(p, 30, 5e-14)
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
        reference = lattice_law_by_convolution(*rates, t, n_min, n_max)
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


# (lam, t) with mu = 1, nu = 0.1, eta = 1: drift ratios up to 3000, where
# the restart mixture puts most states in a flat plateau far below the mode
DRIFTS = [(lam, t) for lam in (1.0, 10.0, 200.0, 1000.0, 3000.0) for t in (1.0, 5.0)]


class TestWindowContract:
    """A default window has every state within tolerance or raises: its mass,
    mean and variance match closed forms that share no code with it."""

    @pytest.mark.parametrize("lam,t", DRIFTS)
    def test_mass_mean_and_variance(self, lam, t):
        p = d.DiscreteParams(lam, 1.0, 0.1, 1.0)
        law = d.transient_distribution(p, t)
        states = np.array(list(law.probabilities), dtype=float)
        values = np.array(list(law.probabilities.values()))
        mass = math.fsum(values)
        slack = 1e-10 * mass + 1e-14 * values.size
        assert abs(1.0 - d.failure_probability(p, t) - mass) <= law.tail_bound + slack
        mean = math.fsum(states * values)
        variance = math.fsum(states * states * values) - mean * mean
        assert mean == pytest.approx(d.mean_transient(p, t), rel=1e-10, abs=1e-10)
        assert variance == pytest.approx(d.variance_transient(p, t), rel=1e-10)

    def test_plateau_state_under_strong_drift(self):
        # the restart mixture's plateau: n = 211 is a state the shared-panel
        # quadrature returned as 3.5e-15 against a true 2.99667e-5, and
        # n = 470 one that the oracle on 32 panels missed by 1.85e-7
        rates, t = (3000.0, 1.0, 0.1, 1.0), 5.0
        reference = lattice_law_by_convolution(*rates, t, 211, 470)
        for n in (211, 470):
            value = d.transient_probability(d.DiscreteParams(*rates), n, t)
            assert value == pytest.approx(reference[n - 211], rel=1e-10)
