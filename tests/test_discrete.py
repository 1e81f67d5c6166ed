import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

from catwalk import discrete as d
from catwalk.special import QuadratureError, integrate_adaptive
from identities import lattice_first_passage_density, transient_probability_renewal
from oracles import (
    bessel_series_scaled,
    hitting_probability,
    lattice_law_by_convolution,
    second_moment_by_quadrature,
    skellam_by_poisson,
)

# frozen from the power-series oracle
E2_I1_2 = 0.21526928924893765916   # e^-2 I_1(2)
E4_I0_4 = 0.2070019212239866979    # e^-4 I_0(4)
Q_11_AT_1 = 0.43233235838169365405  # (1/2)(1 - e^-2)

SYMMETRIC = d.DiscreteParams(lam=2.0, mu=2.0, nu=0.1, eta=1.0)
# its catastrophe-free walk, whose law is the Skellam law
SYMMETRIC_FREE = replace(SYMMETRIC, nu=0.0)
DRIFTING = d.DiscreteParams(lam=2.0, mu=1.0, nu=1.0, eta=1.0)
# drifts 1 a unit of time through operating periods of mean 1 / nu = 10
DRIFTING_SLOWLY = d.DiscreteParams(lam=2.0, mu=1.0, nu=0.1, eta=1.0)

rates = st.floats(min_value=0.05, max_value=50.0)


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": 0.0, "mu": 1.0, "nu": 0.1, "eta": 1.0},
            {"lam": 1.0, "mu": -2.0, "nu": 0.1, "eta": 1.0},
            {"lam": 1.0, "mu": 1.0, "nu": -0.1, "eta": 1.0},
            {"lam": 1.0, "mu": 1.0, "nu": 0.1, "eta": 0.0},
            {"lam": math.inf, "mu": 1.0, "nu": 0.1, "eta": 1.0},
        ],
    )
    def test_rejects_bad_rates(self, kwargs):
        with pytest.raises(ValueError):
            d.DiscreteParams(**kwargs)


class TestFailureProbability:
    def test_starts_at_zero(self):
        assert d.failure_probability(DRIFTING, 0.0) == 0.0

    def test_zero_without_catastrophes(self):
        p = d.DiscreteParams(2.0, 1.0, 0.0, 1.0)
        assert d.failure_probability(p, 3.7) == 0.0

    def test_unit_rates_value(self):
        p = d.DiscreteParams(1.0, 1.0, 1.0, 1.0)
        assert d.failure_probability(p, 1.0) == pytest.approx(Q_11_AT_1, rel=1e-14)
        # complement is the operating mass 0.5677 (4 dp)
        assert round(1.0 - d.failure_probability(p, 1.0), 4) == 0.5677

    @given(t=st.floats(min_value=0.0, max_value=100.0), nu=rates, eta=rates)
    def test_bounded_and_monotone(self, t, nu, eta):
        p = d.DiscreteParams(1.0, 1.0, nu, eta)
        q = d.failure_probability(p, t)
        assert 0.0 <= q <= nu / (eta + nu)
        assert d.failure_probability(p, t + 0.1) >= q


class TestSkellam:
    """The nu = 0 law of ``transient_probability``."""

    def test_initial_condition(self):
        assert d.transient_probability(SYMMETRIC_FREE, 0, 0.0) == 1.0
        assert d.transient_probability(SYMMETRIC_FREE, 3, 0.0) == 0.0

    def test_symmetric_rates_symmetric_law(self):
        for n in (1, 2, 7):
            assert d.transient_probability(SYMMETRIC_FREE, n, 1.3) == d.transient_probability(
                SYMMETRIC_FREE, -n, 1.3
            )

    def test_center_value_against_series_oracle(self):
        assert d.transient_probability(SYMMETRIC_FREE, 0, 1.0) == pytest.approx(
            E4_I0_4, rel=1e-13)

    @pytest.mark.parametrize("n,t", [(1, 0.5), (-2, 1.7), (4, 3.0)])
    def test_oracle_at_asymmetric_rates(self, n, t):
        lam, mu = 3.0, 1.5
        p = d.DiscreteParams(lam, mu, 0.0, 1.0)
        # (lam/mu)^{n/2} e^{-(sqrt(lam) - sqrt(mu))^2 t} e^{-x} I_n(x), x = 2 sqrt(lam mu) t
        expected = (
            math.sqrt(lam / mu) ** n
            * math.exp(-((math.sqrt(lam) - math.sqrt(mu)) ** 2) * t)
            * bessel_series_scaled(n, 2.0 * math.sqrt(lam * mu) * t)
        )
        assert d.transient_probability(p, n, t) == pytest.approx(expected, rel=1e-12)

    @given(
        n=st.integers(min_value=-30, max_value=30),
        t=st.floats(min_value=1e-3, max_value=20.0),
        lam=rates,
        mu=rates,
    )
    def test_is_a_probability(self, n, t, lam, mu):
        p = d.DiscreteParams(lam, mu, 0.0, 1.0)
        value = d.transient_probability(p, n, t)
        assert 0.0 <= value <= 1.0


class TestTransientProbability:
    def test_initial_condition(self):
        assert d.transient_probability(SYMMETRIC, 0, 0.0) == 1.0
        assert d.transient_probability(SYMMETRIC, -1, 0.0) == 0.0

    def test_no_catastrophes_reduces_to_skellam(self):
        # against the direct Poisson convolution, not the Bessel form
        p = d.DiscreteParams(2.0, 1.0, 0.0, 1.0)
        for n, t in ((0, 1.0), (3, 0.4), (-2, 2.0)):
            expected = skellam_by_poisson(p.lam, p.mu, t, n, n)[0]
            assert d.transient_probability(p, n, t) == pytest.approx(expected, rel=1e-12)

    def test_normalization_with_failure_mass(self):
        q = d.failure_probability(SYMMETRIC, 1.0)
        total = sum(
            d.transient_probability(SYMMETRIC, n, 1.0) for n in range(-40, 41)
        )
        assert total + q == pytest.approx(1.0, abs=1e-8)

    def test_rate_swap_reflects_the_law_exactly(self):
        p = d.DiscreteParams(3.0, 1.2, 0.4, 0.7)
        swapped = p.swapped()
        for n in (-3, -1, 0, 2, 5):
            for t in (0.3, 1.0, 2.5):
                assert d.transient_probability(p, n, t) == d.transient_probability(
                    swapped, -n, t
                )

    def test_forward_equations_residual(self):
        # central difference in t against the generator at sampled states
        p = SYMMETRIC
        h = 1e-5
        for n, t in ((0, 0.4), (1, 1.1), (-3, 0.8)):
            up = d.transient_probability(p, n, t + h)
            down = d.transient_probability(p, n, t - h)
            derivative = (up - down) / (2.0 * h)
            rhs = (
                -(p.lam + p.mu + p.nu) * d.transient_probability(p, n, t)
                + p.lam * d.transient_probability(p, n - 1, t)
                + p.mu * d.transient_probability(p, n + 1, t)
            )
            if n == 0:
                rhs += p.eta * d.failure_probability(p, t)
            assert derivative == pytest.approx(rhs, abs=1e-4)

    def test_converges_to_steady_state(self):
        gaps = [
            max(
                abs(d.transient_probability(DRIFTING, n, t) - d.steady_state(DRIFTING, n))
                for n in (-2, 0, 1)
            )
            for t in (5.0, 8.0, 12.0, 20.0)
        ]
        assert gaps == sorted(gaps, reverse=True)
        late = max(
            abs(d.transient_probability(DRIFTING, n, 50.0) - d.steady_state(DRIFTING, n))
            for n in (-2, -1, 0, 1, 2)
        )
        assert late < 1e-6


class TestRenewalRepresentation:
    def test_matches_direct_form(self):
        for n in (1, -2, 5):
            for t in (0.5, 2.0):
                direct = d.transient_probability(SYMMETRIC, n, t)
                renewal = transient_probability_renewal(SYMMETRIC, n, t)
                assert renewal == pytest.approx(direct, abs=1e-8)

    def test_collapses_to_skellam_without_catastrophes(self):
        p = d.DiscreteParams(1.0, 1.0, 0.0, 1.0)
        value = transient_probability_renewal(p, 1, 1.0)
        assert value == pytest.approx(E2_I1_2, abs=1e-9)

    def test_far_level_at_small_time_is_negligible(self):
        value = transient_probability_renewal(SYMMETRIC, 5, 0.01)
        bound = d.transient_probability(SYMMETRIC_FREE, 5, 0.01)
        assert value <= bound + 1e-15
        assert bound < 1e-10

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            transient_probability_renewal(SYMMETRIC, 0, 1.0)


class TestTransientDistribution:
    def test_initial_slice(self):
        slice_ = d.transient_distribution(SYMMETRIC, 0.0, window=(-2, 2))
        assert slice_.probabilities[0] == 1.0
        assert all(slice_.probabilities[n] == 0.0 for n in (-2, -1, 1, 2))
        assert slice_.failure_mass == 0.0

    def test_default_window_closes_the_mass(self):
        slice_ = d.transient_distribution(SYMMETRIC, 1.0)
        assert slice_.tail_bound < 1e-10
        assert slice_.total_mass() == pytest.approx(1.0, abs=1e-8)

    def test_swap_reflects_slice(self):
        lhs = d.transient_distribution(
            d.DiscreteParams(3.0, 1.0, 0.2, 1.0), 0.7, window=(-4, 4)
        )
        rhs = d.transient_distribution(
            d.DiscreteParams(1.0, 3.0, 0.2, 1.0), 0.7, window=(-4, 4)
        )
        for n in range(-4, 5):
            assert lhs.probabilities[n] == rhs.probabilities[-n]

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            d.transient_distribution(SYMMETRIC, 1.0, window=(3, -3))

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError):
            d.transient_distribution(SYMMETRIC, t)
        with pytest.raises(ValueError):
            d.transient_distribution(SYMMETRIC, t, window=(-2, 2))
        with pytest.raises(ValueError):
            d.transient_probability(SYMMETRIC, 0, t)

    @pytest.mark.parametrize("t", [1e300, 1e30])
    def test_rejects_a_horizon_beyond_double_precision(self, t):
        # (lam + mu + nu) t past 1/eps: the exponent of G has no digit left
        with pytest.raises(ValueError, match="too long"):
            d.transient_probability(DRIFTING, 1, t)
        with pytest.raises(ValueError, match="too long"):
            d.transient_distribution(DRIFTING, t)

    def test_lost_state_fails_the_mass_check(self, monkeypatch):
        inversion = d._transient_window
        mode = d.transient_probability(SYMMETRIC, 0, 1.0)

        def drop_the_mode(p, times, n_min, n_max):
            values, tails = inversion(p, times, n_min, n_max)
            values[np.arange(len(values)), np.argmax(values, axis=1)] = 0.0
            return values, tails

        monkeypatch.setattr(d, "_transient_window", drop_the_mode)
        window = d.default_window(SYMMETRIC, 1.0)
        with pytest.raises(QuadratureError) as caught:
            d.transient_distribution(SYMMETRIC, 1.0)
        err = caught.value
        assert err.best_estimate.shape == (window[1] - window[0] + 1,)
        assert np.min(err.best_estimate) == 0.0
        # the defect is the dropped state's mass
        assert err.error_bound == pytest.approx(mode, rel=1e-9)

    def test_a_window_without_the_origin_bounds_its_tail_by_one(self):
        # every path starts at 0, outside the window: no radius of the
        # inversion lies on the side that holds the origin, so that side is
        # bounded by 1, which holds the mass the window misses, and the mass
        # check passes
        slice_ = d.transient_distribution(SYMMETRIC, 1.0, (3, 5))
        assert 1.0 - slice_.total_mass() <= slice_.tail_bound == 1.0
        for n in range(3, 6):
            assert slice_.probabilities[n] == pytest.approx(
                d.transient_probability(SYMMETRIC, n, 1.0), rel=1e-10)
        assert slice_.total_mass() < 1.0

    def test_explicit_window_is_honoured(self):
        slice_ = d.transient_distribution(DRIFTING, 2.0, window=(-3, 7))
        assert slice_.window == (-3, 7)
        assert sorted(slice_.probabilities) == list(range(-3, 8))

    def test_ordinary_windows_past_a_lowered_cap_raise(self, monkeypatch):
        # the strong-drift default window has 1,245 states and FFTs of up to
        # 2^11 nodes; under a cap of 2^10 both its window and, for a window
        # of one state, its FFT are refused before anything is allocated
        p = d.DiscreteParams(200.0, 1.0, 0.1, 1.0)
        window = d.default_window(p, 5.0)
        d.transient_distribution(p, 5.0, window)
        monkeypatch.setattr(d, "MAX_NODES", 1 << 10)
        with pytest.raises(ValueError, match="more than MAX_NODES = 1024 states"):
            d.transient_distribution(p, 5.0, window)
        with pytest.raises(ValueError, match="needs an FFT of 2048 nodes"):
            d.transient_distributions(p, [1.0, 5.0], (50, 50))

    def test_a_long_horizon_without_catastrophes_is_refused(self):
        # at t = 1e12 one state needs an FFT of 2^27 nodes, gigabytes of
        # work arrays, and the default window 1e12 states
        p = d.DiscreteParams(2.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="needs an FFT of 134217728 nodes"):
            d.transient_probability(p, 0, 1e12)
        with pytest.raises(ValueError, match="more than MAX_NODES"):
            d.transient_distribution(p, 1e12)


class TestBatchedTimes:
    """``transient_distributions`` inverts a grid of times in one pass.
    Batching must not couple the times: each slice is the one-time call's,
    and each meets the per-state contract against the convolution oracle."""

    @pytest.mark.parametrize("seed", range(6))
    def test_each_slice_is_the_one_time_call(self, seed):
        rng = np.random.default_rng(seed)
        lam, mu = sorted(10.0 ** rng.uniform(-0.5, 1.2, size=2))
        if seed % 2:
            lam, mu = mu, lam  # lam < mu takes the mirrored path
        nu, eta = 10.0 ** rng.uniform(-2.0, 0.5, size=2)
        p = d.DiscreteParams(lam, mu, nu, eta)
        times = [0.0, *np.sort(10.0 ** rng.uniform(-2.0, 0.7, size=5)).tolist()]
        centre = int(rng.integers(-4, 5))
        for window in (d.default_window(p, times[-1]), (centre - 3, centre + 6)):
            batch = d.transient_distributions(p, times, window)
            assert [law.time for law in batch] == times
            for t, law in zip(times, batch):
                alone = d.transient_distribution(p, t, window)
                values = np.array(list(law.probabilities.values()))
                single = np.array(list(alone.probabilities.values()))
                assert np.all(np.abs(values - single) <= 1e-14 * single)
                assert (law.window, law.failure_mass, law.tail_bound) == (
                    alone.window, alone.failure_mass, alone.tail_bound)
                if t > 0.0:
                    reference = lattice_law_by_convolution(lam, mu, nu, eta, t, *window)
                    assert np.all(np.abs(values - reference) <= 1e-10 * reference + 1e-14)

    def test_the_first_failing_time_names_itself(self, monkeypatch):
        inversion = d._transient_window

        def drop_the_last_mode(p, times, n_min, n_max):
            values, tails = inversion(p, times, n_min, n_max)
            values[-1, np.argmax(values[-1])] = 0.0
            return values, tails

        monkeypatch.setattr(d, "_transient_window", drop_the_last_mode)
        with pytest.raises(QuadratureError, match=r"at t=2\.0 misses its mass"):
            d.transient_distributions(SYMMETRIC, [0.5, 1.0, 2.0], (-20, 20))

    def test_small_batches_give_the_same_slices(self, monkeypatch):
        # one time per batch of times, one radius group per FFT batch
        times = np.linspace(0.0, 6.0, 25).tolist()
        whole = d.transient_distributions(DRIFTING, times, (-4, 9))
        monkeypatch.setattr(d, "_BATCH_NODES", 64)
        assert d.transient_distributions(DRIFTING, times, (-4, 9)) == whole

    def test_no_times_give_no_slices(self):
        assert d.transient_distributions(SYMMETRIC, [], (-2, 2)) == []


class TestDefaultWindow:
    def test_tail_bound_meets_the_target(self):
        for p, t in ((SYMMETRIC, 5.0), (SYMMETRIC, 50.0), (DRIFTING, 3.0)):
            slice_ = d.transient_distribution(p, t)
            assert slice_.tail_bound <= d.WINDOW_TAIL_TARGET

    def test_smallest_such_window(self):
        # each side is the least level whose best bound e^{L(s) - N s} is at
        # most half the target, with L(s) = log G(e^s, t) summed from the
        # convolution oracle's law; one state less and the best bound is not
        rates, t = (200.0, 1.0, 0.1, 1.0), 5.0
        n_min, n_max = d.default_window(d.DiscreteParams(*rates), t)
        first = n_min - 300
        law = lattice_law_by_convolution(*rates, t, first, n_max + 300)
        states = np.arange(first, first + law.size)

        def least_bound(level, side):
            # log min over s of G(e^s) e^{-s level} on the side's half line
            return minimize_scalar(lambda u: logsumexp(side * u * (states - level), b=law),
                                   bounds=(0.0, 10.0), method="bounded",
                                   options={"xatol": 1e-12}).fun

        half = math.log(0.5 * d.WINDOW_TAIL_TARGET)
        assert least_bound(n_max + 1, 1.0) <= half < least_bound(n_max, 1.0)
        assert least_bound(n_min - 1, -1.0) <= half < least_bound(n_min, -1.0)

    def test_follows_the_drift(self):
        # drift 199 per unit time: the window sits to the right of the origin
        n_min, n_max = d.default_window(d.DiscreteParams(200.0, 1.0, 0.1, 1.0), 5.0)
        assert 199.0 * 5.0 < n_max < 199.0 * 5.0 + 12.0 * math.sqrt(201.0 * 5.0)
        assert -20 < n_min < 0
        assert d.default_window(d.DiscreteParams(1.0, 200.0, 0.1, 1.0), 5.0) == (-n_max, -n_min)

    def test_grows_like_the_spread(self):
        # symmetric walk: width ~ sqrt((lam + mu) t), not lam + mu times t.
        # Where catastrophes are rare it doubles as t quadruples; restarts
        # (nu t = 4 at the later time) hold it below that
        def widths(nu):
            return [d.default_window(d.DiscreteParams(5e4, 5e4, nu, 1.0), t)[1] for t in (1.0, 4.0)]

        rare, restarted = widths(1e-3), widths(1.0)
        assert rare[1] == pytest.approx(2.0 * rare[0], rel=0.05)
        assert rare[0] < 12.0 * math.sqrt(1e5)
        assert restarted[0] <= rare[0] and 1.5 * restarted[0] < restarted[1] < 2.0 * restarted[0]

    def test_a_long_horizon_stops_at_the_stationary_reach(self):
        # restarts hold the law near the origin: the window stops growing
        # and the slice is the stationary law (it was 1e9 states wide when a
        # catastrophe-free bound sized it)
        law = d.transient_distribution(DRIFTING_SLOWLY, 1e9)
        assert law.window == d.default_window(DRIFTING_SLOWLY, 1e4) == (-38, 369)
        assert law.tail_bound <= d.WINDOW_TAIL_TARGET
        assert max(abs(value - d.steady_state(DRIFTING_SLOWLY, n))
                   for n, value in law.probabilities.items()) <= 1e-15
        assert law.failure_mass == pytest.approx(d.steady_failure(DRIFTING_SLOWLY), abs=1e-15)

    def test_the_tail_bound_is_the_laws_own(self):
        # the catastrophe-free bound reported 1.0 for this window, where the
        # mass outside it is below 1e-14
        law = d.transient_distribution(DRIFTING_SLOWLY, 1e4, (-39, 370))
        assert law.tail_bound < 1e-11

    def test_time_zero_is_the_origin(self):
        assert d.default_window(DRIFTING, 0.0) == (0, 0)


class TestSteadyState:
    def test_reference_scale_values(self):
        p = d.DiscreteParams(45100.0, 45200.0, 1.0, 0.25)
        assert d.steady_state(p, 0) / 0.01 == pytest.approx(0.04581, abs=1.5e-5)
        assert d.steady_state(p, 1) / 0.01 == pytest.approx(0.04554, abs=1.5e-5)

    def test_geometric_series_close_to_one(self):
        p = DRIFTING
        q = d.steady_failure(p)
        pi0 = d.steady_state(p, 0)
        up = d.steady_state(p, 1) / pi0
        down = d.steady_state(p, -1) / pi0
        total = pi0 * (1.0 + up / (1.0 - up) + down / (1.0 - down)) + q
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_requires_catastrophes(self):
        p = d.DiscreteParams(2.0, 1.0, 0.0, 1.0)
        with pytest.raises(d.NoSteadyStateError):
            d.steady_state(p, 0)
        with pytest.raises(d.NoSteadyStateError):
            d.steady_failure(p)

    @given(lam=rates, mu=rates, nu=st.floats(min_value=0.01, max_value=10.0), eta=rates)
    def test_ratios_inside_unit_interval(self, lam, mu, nu, eta):
        p = d.DiscreteParams(lam, mu, nu, eta)
        pi0 = d.steady_state(p, 0)
        assert 0.0 < pi0 < 1.0
        assert 0.0 < d.steady_state(p, 1) < pi0
        assert 0.0 < d.steady_state(p, -1) < pi0


class TestMoments:
    def test_start_at_zero(self):
        assert d.mean_transient(DRIFTING, 0.0) == 0.0
        assert d.variance_transient(DRIFTING, 0.0) == 0.0

    def test_no_catastrophe_limits(self):
        p = d.DiscreteParams(2.0, 1.0, 0.0, 1.0)
        assert d.mean_transient(p, 3.0) == pytest.approx(3.0)
        assert d.variance_transient(p, 3.0) == pytest.approx(9.0)

    def test_mean_relaxes_to_asymptote(self):
        # unit drift, eta = nu = 1: the long-run truncated mean is 1/2
        assert d.asymptotic_mean(DRIFTING) == pytest.approx(0.5, rel=1e-14)
        assert d.mean_transient(DRIFTING, 1e3) == pytest.approx(0.5, abs=1e-6)

    def test_variance_relaxes_to_asymptote(self):
        assert d.asymptotic_variance(DRIFTING) == pytest.approx(2.25, rel=1e-14)
        assert d.variance_transient(DRIFTING, 1e3) == pytest.approx(2.25, abs=1e-6)

    @pytest.mark.parametrize("t", [0.3, 1.0, 3.0])
    def test_variance_against_quadrature_convolution(self, t):
        p = DRIFTING
        second = second_moment_by_quadrature(
            p.nu, p.eta, t, linear=p.lam + p.mu, quadratic=(p.lam - p.mu) ** 2
        )
        expected = second - d.mean_transient(p, t) ** 2
        assert d.variance_transient(p, t) == pytest.approx(expected, rel=1e-9)

    @given(t=st.floats(min_value=0.0, max_value=50.0))
    def test_variance_nonnegative(self, t):
        assert d.variance_transient(DRIFTING, t) >= -1e-12


class TestMeanPeakTime:
    def test_slow_repair_gives_interior_peak(self):
        p = d.DiscreteParams(2.0, 1.0, 1.0, 0.25)
        assert d.mean_peak_time(p) == pytest.approx(1.1507282898071237, rel=1e-12)

    def test_fast_repair_is_monotone(self):
        assert d.mean_peak_time(d.DiscreteParams(2.0, 1.0, 1.0, 1.0)) is None
        assert d.mean_peak_time(d.DiscreteParams(2.0, 1.0, 1.0, 2.0)) is None

    def test_equal_rates_have_no_peak(self):
        assert d.mean_peak_time(d.DiscreteParams(2.0, 2.0, 1.0, 0.25)) is None

    def test_the_peak_is_a_sign_change_of_the_slope(self):
        p = d.DiscreteParams(2.0, 1.0, 1.0, 0.5)
        peak = d.mean_peak_time(p)
        h = 1e-3
        before = d.mean_transient(p, peak) - d.mean_transient(p, peak - h)
        after = d.mean_transient(p, peak + h) - d.mean_transient(p, peak)
        assert before > 0.0 > after


class TestLaplace:
    @given(
        lam=rates,
        mu=rates,
        nu=st.floats(min_value=0.0, max_value=10.0),
        z=st.floats(min_value=0.01, max_value=20.0),
    )
    def test_vieta_identities(self, lam, mu, nu, z):
        p = d.DiscreteParams(lam, mu, nu, 1.0)
        _, roots = d.laplace_transforms(p, z)
        assert roots.psi1 > roots.psi2 > 0.0
        assert roots.psi1 * roots.psi2 == pytest.approx(lam / mu, rel=1e-12)
        assert roots.psi1 + roots.psi2 == pytest.approx(
            (z + lam + mu + nu) / mu, rel=1e-12
        )

    def test_final_value_recovers_steady_state(self):
        z = 1e-6
        origin, _ = d.laplace_transforms(DRIFTING, z)
        assert z * origin == pytest.approx(d.steady_state(DRIFTING, 0), abs=1e-4)

    def test_matches_time_domain_transform(self):
        z = 1.0
        horizon = math.log(1.0 / (1e-9 * z)) / z
        numeric, _ = integrate_adaptive(
            lambda t: math.exp(-z * t) * d.transient_probability(SYMMETRIC, 0, t),
            0.0,
            horizon,
        )
        origin, _ = d.laplace_transforms(SYMMETRIC, z)
        assert numeric == pytest.approx(origin, rel=1e-6)

    def test_off_origin_transform_decays_both_ways(self):
        origin, roots = d.laplace_transforms(DRIFTING, 0.7)
        assert d.laplace_pn(DRIFTING, 0, 0.7) == origin
        assert d.laplace_pn(DRIFTING, 2, 0.7) == pytest.approx(
            origin * roots.psi2**2, rel=1e-14
        )
        assert d.laplace_pn(DRIFTING, -2, 0.7) == pytest.approx(
            origin * roots.psi1**-2, rel=1e-14
        )

    def test_rejects_nonpositive_z(self):
        with pytest.raises(ValueError):
            d.laplace_transforms(DRIFTING, 0.0)


class TestFirstPassage:
    """``identities.lattice_first_passage_density``, which the renewal
    identity integrates."""

    def test_unit_level_value(self):
        p = d.DiscreteParams(1.0, 1.0, 0.0, 1.0)
        assert lattice_first_passage_density(p, 1, 1.0) == pytest.approx(E2_I1_2, rel=1e-13)

    @given(
        n=st.integers(min_value=-10, max_value=10).filter(lambda v: v != 0),
        t=st.floats(min_value=1e-3, max_value=30.0),
    )
    def test_nonnegative(self, n, t):
        assert lattice_first_passage_density(DRIFTING, n, t) >= 0.0

    @pytest.mark.parametrize("lam,mu", [(1.0, 2.0), (2.0, 1.0)])
    def test_total_mass_is_the_hitting_probability(self, lam, mu):
        p = d.DiscreteParams(lam, mu, 0.0, 1.0)
        total, _ = quad(
            lambda t: lattice_first_passage_density(p, 1, t), 0.0, np.inf, limit=500
        )
        assert total == pytest.approx(min(1.0, lam / mu), abs=1e-7)
        assert total == pytest.approx(hitting_probability(lam, mu), abs=1e-7)

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            lattice_first_passage_density(DRIFTING, 0, 1.0)
