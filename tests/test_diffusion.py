import math
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from catwalk import diffusion as f
from catwalk.discrete import MAX_NODES
from catwalk.special import QuadratureSpec, integrate_adaptive
from identities import operating_mass_by_quadrature, renewal_check, wiener_first_passage_density
from oracles import (
    density_by_mpmath,
    laplace_roots_by_mpmath,
    printed_variance,
    second_moment_by_quadrature,
    slice_tail_by_mpmath,
    steady_density_by_mpmath,
)

# parameters behind the reference density plots: drift 2, unit variance
FIG4 = f.DiffusionParams(lam_hat=3.0, mu_hat=1.0, sigma2=1.0, nu=1.0, eta=1.0)
# its failure-free motion, whose density is the Wiener one
FIG4_FREE = replace(FIG4, nu=0.0)
# parameters behind the stationary comparison table: drift -1, sigma2 9
TABLE = f.DiffusionParams(lam_hat=1.0, mu_hat=2.0, sigma2=9.0, nu=1.0, eta=0.25)
# nu -> 0 against drift 2 and its mirror: 2 sigma2 nu rounds away next to
# drift^2, and the drift's side decays over a length of 1e17
RARE = f.DiffusionParams(lam_hat=2.0, mu_hat=1.0, sigma2=1.0, nu=1e-17, eta=1.0)
RARE_MIRROR = f.DiffusionParams(lam_hat=1.0, mu_hat=2.0, sigma2=1.0, nu=1e-17, eta=1.0)

positive = st.floats(min_value=0.05, max_value=20.0)


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam_hat": 0.0, "mu_hat": 1.0, "sigma2": 1.0, "nu": 1.0, "eta": 1.0},
            {"lam_hat": 1.0, "mu_hat": -1.0, "sigma2": 1.0, "nu": 1.0, "eta": 1.0},
            {"lam_hat": 1.0, "mu_hat": 1.0, "sigma2": 0.0, "nu": 1.0, "eta": 1.0},
            {"lam_hat": 1.0, "mu_hat": 1.0, "sigma2": 1.0, "nu": -0.5, "eta": 1.0},
            {"lam_hat": 1.0, "mu_hat": 1.0, "sigma2": 1.0, "nu": 1.0, "eta": 0.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            f.DiffusionParams(**kwargs)

    def test_drift_sign_is_free(self):
        assert f.DiffusionParams(1.0, 2.0, 1.0, 1.0, 1.0).drift == -1.0


class TestWienerDensity:
    """The nu = 0 density of ``transient_density``."""

    def test_mode_value(self):
        t = 0.8
        mode = FIG4.drift * t
        assert f.transient_density(FIG4_FREE, mode, t) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi * FIG4.sigma2 * t), rel=1e-14
        )

    def test_integrates_to_one(self):
        total, _ = quad(lambda x: f.transient_density(FIG4_FREE, x, 1.3), -np.inf, np.inf)
        assert total == pytest.approx(1.0, rel=1e-10)

    @given(x=st.floats(min_value=-5.0, max_value=5.0), t=st.floats(min_value=0.05, max_value=5.0))
    def test_reversal_identity(self, x, t):
        # w(x,t|0) = exp(2 drift x / sigma2) w(0,t|x), and w(0,t|x) = w(-x,t|0)
        lhs = f.transient_density(FIG4_FREE, x, t)
        rhs = math.exp(2.0 * FIG4.drift * x / FIG4.sigma2) * f.transient_density(FIG4_FREE, -x, t)
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            f.transient_density(FIG4_FREE, 0.0, 0.0)


class TestTransientDensity:
    def test_time_zero_is_a_point_mass(self):
        # which has no density
        with pytest.raises(ValueError, match="time must be finite and positive"):
            f.transient_density(FIG4, 0.3, 0.0)

    def test_no_catastrophes_is_pure_gaussian(self):
        dp = f.DiffusionParams(3.0, 1.0, 1.0, 0.0, 1.0)
        for x in (-1.0, 0.0, 2.0):
            gaussian = f._gaussian(dp, np.array([x - dp.drift]), 1.0)[0]
            assert f.transient_density(dp, x, 1.0) == gaussian

    @pytest.mark.parametrize(
        "nu,mass",
        [(1.0, 0.5677), (0.5, 0.7410), (0.1, 0.9394)],
    )
    def test_total_mass_reference_values(self, nu, mass):
        dp = f.DiffusionParams(3.0, 1.0, 1.0, nu, 1.0)
        assert operating_mass_by_quadrature(dp, 1.0) == pytest.approx(mass, abs=5e-4)

    def test_mass_complements_failure_mass(self):
        for t in (0.25, 1.0, 4.0):
            assert operating_mass_by_quadrature(FIG4, t) == pytest.approx(
                1.0 - f.failure_probability(FIG4, t), abs=1e-6
            )

    @pytest.mark.parametrize(
        "params,t",
        [((3.0, 1.0, 1e-4, 0.1, 1.0), 10.0), ((2.0, 1.0, 1e-6, 1.0, 1.0), 10.0)],
        ids=["small-variance", "narrow"],
    )
    def test_narrow_density_integrates_to_the_operating_mass(self, params, t):
        # the exponential tail against the drift at 0 has width sigma2 / 2c,
        # far below sigma sqrt(t): a quadrature blind to it misses 1e-6
        dp = f.DiffusionParams(*params)
        assert operating_mass_by_quadrature(dp, t) == pytest.approx(
            1.0 - f.failure_probability(dp, t), abs=1e-10
        )

    def test_on_mass_is_the_complement_of_the_failure_mass(self):
        for dp in (FIG4, TABLE, f.DiffusionParams(3.0, 1.0, 1.0, 0.0, 1.0)):
            for t in (1e-3, 1.0, 50.0):
                assert f.on_mass(dp, t) == 1.0 - f.failure_probability(dp, t)

    def test_drift_reversal_mirrors_the_density(self):
        mirrored = f.DiffusionParams(FIG4.mu_hat, FIG4.lam_hat, FIG4.sigma2, FIG4.nu, FIG4.eta)
        for x in (-2.0, -0.5, 0.0, 1.0, 3.0):
            assert f.transient_density(FIG4, x, 1.0) == f.transient_density(mirrored, -x, 1.0)

    def test_nonnegative_everywhere(self):
        for x in np.linspace(-4.0, 6.0, 21):
            assert f.transient_density(FIG4, float(x), 0.7) >= 0.0

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_abscissa(self, x):
        with pytest.raises(ValueError):
            f.transient_density(FIG4, x, 1.0)

    def test_slice_values_are_the_pointwise_density(self):
        slice_ = f.density_slice(TABLE, 2.0, n_points=41)
        for x, value in zip(slice_.abscissas, slice_.values):
            assert value == pytest.approx(f.transient_density(TABLE, float(x), 2.0), rel=1e-14)

    @pytest.mark.parametrize("dp", [FIG4, TABLE, f.DiffusionParams(3.0, 1.0, 1.0, 0.0, 1.0)])
    def test_a_grid_of_densities_is_the_pointwise_density(self, dp):
        xs = np.linspace(-40.0, 40.0, 161).tolist()
        assert f.transient_densities(dp, xs, 1.3) == [f.transient_density(dp, x, 1.3) for x in xs]
        assert f.transient_densities(dp, (), 1.3) == []

    def test_long_run_pointwise_limit_is_the_steady_density(self):
        # t = 50 / min(nu, eta)
        for x in np.linspace(-3.0, 3.0, 13):
            assert abs(
                f.transient_density(FIG4, float(x), 50.0) - f.steady_density(FIG4, float(x))
            ) < 1e-6


# (lam_hat, mu_hat, sigma2, nu, eta), x, t in the regimes where a density
# quadrature loses its way: narrow kernels, long horizons with far tails, fast
# repairs, rare catastrophes, and both signs of c^2 - 2 eta sigma2 (the
# parameters of the stationary table have it negative; 3, 1, 1, 1, 2 zero)
HARD_POINTS = {
    "narrow-origin": ((2.0, 1.0, 1e-6, 1.0, 1.0), 0.0, 10.0),
    "narrow-near-origin": ((2.0, 1.0, 1e-6, 1.0, 1.0), 1e-3, 10.0),
    "narrow-mid": ((2.0, 1.0, 1e-6, 1.0, 1.0), 5.0, 10.0),
    "small-variance-origin": ((2.0, 1.0, 1e-4, 1.0, 1.0), 0.0, 3.0),
    "small-variance-below-mean": ((2.0, 1.0, 1e-4, 1.0, 1.0), 2.9, 3.0),
    "long-horizon-far-left": ((2.0, 1.0, 1.0, 0.05, 0.05), -50.0, 200.0),
    "long-horizon-origin": ((2.0, 1.0, 1.0, 0.05, 0.05), 0.0, 200.0),
    "long-horizon-far-right": ((2.0, 1.0, 1.0, 0.05, 0.05), 260.0, 200.0),
    "fast-repair": ((3.0, 1.0, 1.0, 1.0, 1e3), 0.5, 1.0),
    "rare-catastrophe": ((3.0, 1.0, 1.0, 1e-6, 1.0), 2.0, 1.0),
    "complex-root": ((1.0, 2.0, 9.0, 1.0, 0.25), -0.06, 1.0),
    "complex-root-tail": ((1.0, 2.0, 9.0, 1.0, 0.25), 3.0, 5.0),
    "zero-root-origin": ((3.0, 1.0, 1.0, 1.0, 2.0), 0.0, 1.0),
    "zero-root-tail": ((3.0, 1.0, 1.0, 1.0, 2.0), 4.0, 0.1),
    "short-time": ((1.0, 1.0, 1.0, 1.0, 1.0), 0.05, 1e-3),
    "short-time-tail": ((1.0, 1.0, 1.0, 1.0, 1.0), 0.2, 1e-3),
}


class TestHardRegimes:
    @pytest.mark.parametrize("params,x,t", HARD_POINTS.values(), ids=HARD_POINTS.keys())
    def test_matches_the_mpmath_restart_convolution(self, params, x, t):
        expected = density_by_mpmath(*params, x, t)
        assert f.transient_density(f.DiffusionParams(*params), x, t) == pytest.approx(
            expected, rel=1e-10, abs=0.0
        )

    @given(
        drift=st.floats(min_value=-4.0, max_value=4.0),
        sigma2=st.floats(min_value=1e-6, max_value=1e2),
        nu=st.floats(min_value=1e-3, max_value=1e3),
        eta=st.floats(min_value=1e-3, max_value=1e3),
        t=st.floats(min_value=1e-3, max_value=300.0),
        x=st.floats(min_value=-1e3, max_value=1e3),
    )
    def test_finite_and_nonnegative_over_a_wide_box(self, drift, sigma2, nu, eta, t, x):
        dp = f.DiffusionParams(5.0 + drift, 5.0, sigma2, nu, eta)
        value = f.transient_density(dp, x, t)
        assert math.isfinite(value) and value >= 0.0

    @pytest.mark.parametrize("dp", [FIG4, TABLE], ids=["fig4", "table"])
    def test_huge_times_do_not_overflow(self, dp):
        # the suite turns RuntimeWarning into an error, so an overflow in the
        # Gaussian exponent fails here; at t = 1e300 the density is the
        # stationary one near the origin and 0 at the failure-free mean
        xs = [-1.0, 0.0, 1.0]
        steady = [f.steady_density(dp, x) for x in xs]
        assert f.transient_densities(dp, xs, 1e300) == pytest.approx(steady, rel=1e-12)
        assert f.transient_densities(dp, [-1e300, dp.drift * 1e300], 1e300) == [0.0, 0.0]
        assert f.transient_densities(dp, [-1e300, 1e300], 1.0) == [0.0, 0.0]
        assert f.transient_density(replace(dp, nu=0.0), dp.drift * 1e300, 1.0) == 0.0
        piece = f.density_slice(dp, 1e300)
        assert piece.trapezoid_mass() + piece.failure_mass == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("params,x,t", [
        ((3.0, 1.0, 1.0, 1.0, 1.0), 1e200, 1e120),
        ((3.0, 1.0, 1.0, 1.0, 1.0), 1e303, 1e300),
        ((1.0, 1.0, 1e-6, 1e-3, 1e3), 1e300, 1e300),
    ])
    def test_series_lanes_at_huge_beta(self, params, x, t):
        # the lag integrals take their series here with beta^2 above 1e53,
        # where an inf * 0 product would be NaN and a RuntimeWarning
        assert f.transient_densities(f.DiffusionParams(*params), [x], t) == [0.0]


class TestLagBrackets:
    """erfcx(alpha - beta) -/+ erfcx(alpha + beta) far out, where beta / alpha
    is small and the difference cancels, against 120-digit mpmath.  Forming
    exp(z^2) erfc(z) costs mpmath about 2 log10(alpha) digits, so 50 digits
    give inf at alpha = 1e30.  Past beta^2 ~ 1e53 the series' term factors
    overflow while the erfcx derivatives they multiply underflow to 0."""

    @pytest.mark.parametrize(
        "alpha,beta2",
        [(alpha, beta2) for alpha in (1e3, 1e6) for beta2 in (0.01, 0.1, -0.1)]
        + [(1e30, 1e56), (1e40, 1e70)],
    )
    def test_scaled_brackets(self, alpha, beta2):
        # sigma2 = 1 and t = 1/2 make alpha = |x| and beta^2 = r^2 / 4
        drift, a = (2.0 * math.sqrt(beta2), 0.0) if beta2 > 0 else (0.0, 2.0 * beta2)
        dp = f.DiffusionParams(1.0 + drift, 1.0, 1.0, 1.0, 1.0)
        kernel, passage = f._lag_integrals(dp, np.array([alpha]), 0.5, a, np.zeros(1), 0.0)
        with mpmath.workdps(120):
            r = mpmath.sqrt(mpmath.mpf(4 * beta2))
            beta = r / 2
            lower, upper = (mpmath.exp(z * z) * mpmath.erfc(z) for z in (alpha - beta, alpha + beta))
            difference = complex((lower - upper) / (2 * r)).real
            total = complex((lower + upper) / 2).real
        assert kernel[0] == pytest.approx(difference, rel=1e-12, abs=0.0)
        assert passage[0] == pytest.approx(total, rel=1e-12, abs=0.0)


class TestLaplaceDensity:
    def test_roots_straddle_zero(self):
        for dp, z in ((FIG4, 1.0), (RARE, 1e-18), (RARE_MIRROR, 1e-18)):
            w1, w2 = f.laplace_roots(dp, z)
            assert w2 < 0.0 < w1
            # roots of sigma2 w^2 - 2 drift w - 2 (z + nu) = 0; at nu -> 0 the
            # drift's side used to cancel to 0
            rate = z + dp.nu
            for w, want in zip((w1, w2), laplace_roots_by_mpmath(dp.lam_hat, dp.mu_hat,
                                                                 dp.sigma2, rate)):
                assert dp.sigma2 * w * w - 2.0 * dp.drift * w - 2.0 * rate == pytest.approx(
                    0.0, abs=1e-10
                )
                assert w == pytest.approx(float(want), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("z", [0.3, 1.0, 4.0])
    def test_space_integral_closed_form(self, z):
        dp = FIG4
        numeric, _ = quad(lambda x: f.laplace_density(dp, x, z), -np.inf, np.inf)
        expected = (z + dp.eta) / (z * (z + dp.eta + dp.nu))
        assert numeric == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("x,z", [(0.0, 1.0), (1.0, 1.0), (-1.0, 2.0)])
    def test_matches_time_domain_transform(self, x, z):
        horizon = 40.0 / z
        spec = QuadratureSpec(1e-9, 1e-12, 2000)

        def integrand(t: float) -> float:
            if t <= 0.0:
                return 0.0
            return math.exp(-z * t) * f.transient_density(FIG4, x, t)

        if x == 0.0:
            # 1/sqrt(t) blow-up at the origin; flatten with t = s^2
            head, _ = integrate_adaptive(
                lambda s: 0.0 if s <= 0.0 else 2.0 * s * integrand(s * s), 0.0, 1.0, spec
            )
            tail, _ = integrate_adaptive(integrand, 1.0, horizon, spec)
            numeric = head + tail
        else:
            numeric, _ = integrate_adaptive(integrand, 0.0, horizon, spec)
        assert numeric == pytest.approx(f.laplace_density(FIG4, x, z), rel=1e-5)

    def test_small_z_limit_is_the_steady_density(self):
        z = 1e-6
        for x in (0.0, 1.0, -1.0):
            assert z * f.laplace_density(FIG4, x, z) == pytest.approx(
                f.steady_density(FIG4, x), abs=1e-4
            )


class TestSteadyDensity:
    def test_reference_values(self):
        assert f.steady_density(TABLE, 0.0) == pytest.approx(0.04588, abs=1.5e-5)
        assert f.steady_density(TABLE, -0.06) == pytest.approx(0.04487, abs=1.5e-5)

    def test_integral_is_the_operating_mass(self):
        numeric, _ = quad(lambda x: f.steady_density(TABLE, x), -np.inf, np.inf)
        assert numeric == pytest.approx(TABLE.eta / (TABLE.eta + TABLE.nu), rel=1e-9)

    def test_requires_catastrophes(self):
        dp = f.DiffusionParams(3.0, 1.0, 1.0, 0.0, 1.0)
        with pytest.raises(f.NoSteadyStateError):
            f.steady_density(dp, 0.0)
        with pytest.raises(f.NoSteadyStateError):
            f.steady_decay_length(dp)

    @pytest.mark.parametrize("dp", [FIG4, TABLE, RARE, RARE_MIRROR])
    def test_decay_length_is_the_slower_tail(self, dp):
        # at nu -> 0 the length used to divide by zero, and the density to
        # stay flat on the drift's side
        length = f.steady_decay_length(dp)
        for side in (1.0, -1.0):
            if side * dp.drift > 0.0:
                far, near = (f.steady_density(dp, side * k * length) for k in (2.0, 1.0))
                assert far / near == pytest.approx(math.exp(-1.0), rel=1e-12)
            else:
                # the other side falls off faster, by x = length to 0 as nu -> 0
                far, near = (f.steady_density(dp, side * k) for k in (2.0, 1.0))
                assert far / near < math.exp(-1.0 / length)
            for x in (side * length, side * 5.0 * length, side):
                want = steady_density_by_mpmath(dp.lam_hat, dp.mu_hat, dp.sigma2, dp.nu, dp.eta, x)
                assert f.steady_density(dp, x) == pytest.approx(want, rel=1e-14, abs=0.0)


class TestMoments:
    def test_start_at_zero(self):
        assert f.mean_x(FIG4, 0.0) == 0.0
        assert f.variance_x(FIG4, 0.0) == 0.0

    @pytest.mark.parametrize(
        "nu,mean,variance",
        [(1.0, 0.865, 1.283), (0.5, 1.305, 1.469), (0.1, 1.834, 1.198)],
    )
    def test_reference_values_at_unit_time(self, nu, mean, variance):
        dp = f.DiffusionParams(3.0, 1.0, 1.0, nu, 1.0)
        assert f.mean_x(dp, 1.0) == pytest.approx(mean, abs=1e-3)
        assert f.variance_x(dp, 1.0) == pytest.approx(variance, abs=1e-3)

    def test_no_catastrophe_limits(self):
        dp = f.DiffusionParams(3.0, 1.0, 2.0, 0.0, 1.0)
        assert f.mean_x(dp, 1.5) == pytest.approx(3.0)
        assert f.variance_x(dp, 1.5) == pytest.approx(3.0)

    @given(
        t=st.floats(min_value=0.01, max_value=30.0),
        nu=positive,
        eta=positive,
        drift=st.floats(min_value=-1.9, max_value=4.0),
    )
    def test_printed_variance_equals_convolution_form(self, t, nu, eta, drift):
        # same law derived two ways: the paper's expanded closed form against
        # the age-law form in variance_x
        dp = f.DiffusionParams(2.0 + drift, 2.0, 1.7, nu, eta)
        expected = printed_variance(nu, eta, t, dp.drift, dp.sigma2)
        assert f.variance_x(dp, t) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_variance_against_quadrature_convolution(self, t):
        second = second_moment_by_quadrature(
            FIG4.nu, FIG4.eta, t, linear=FIG4.sigma2, quadratic=FIG4.drift**2
        )
        expected = second - f.mean_x(FIG4, t) ** 2
        assert f.variance_x(FIG4, t) == pytest.approx(expected, rel=1e-8)


class TestAsymptoticMoments:
    def test_mean_limit_reference(self):
        mean_limit, _ = f.asymptotic_moments(FIG4)
        assert mean_limit == pytest.approx(1.0, rel=1e-14)

    def test_transients_decay_to_the_limits(self):
        mean_limit, var_limit = f.asymptotic_moments(FIG4)
        assert f.mean_x(FIG4, 1e3) == pytest.approx(mean_limit, abs=1e-9)
        assert f.variance_x(FIG4, 1e3) == pytest.approx(var_limit, abs=1e-8)

    def test_steady_density_first_moment_matches(self):
        mean_limit, _ = f.asymptotic_moments(FIG4)
        numeric, _ = quad(lambda x: x * f.steady_density(FIG4, x), -np.inf, np.inf)
        assert numeric == pytest.approx(mean_limit, rel=1e-9)

    def test_requires_catastrophes(self):
        dp = f.DiffusionParams(3.0, 1.0, 1.0, 0.0, 1.0)
        with pytest.raises(f.NoSteadyStateError):
            f.asymptotic_moments(dp)


class TestFirstPassage:
    """``identities.wiener_first_passage_density``, which the renewal check
    integrates."""

    @given(
        x=st.floats(min_value=-4.0, max_value=4.0).filter(lambda v: abs(v) > 1e-3),
        t=st.floats(min_value=0.01, max_value=10.0),
    )
    def test_nonnegative(self, x, t):
        assert wiener_first_passage_density(FIG4, x, t) >= 0.0

    def test_certain_passage_on_the_drift_side(self):
        # drift 2 > 0 and target x = 1 > 0: passage is certain
        total, _ = quad(lambda t: wiener_first_passage_density(FIG4, 1.0, t), 0.0, np.inf)
        assert total == pytest.approx(1.0, rel=1e-8)

    def test_rejects_target_equal_to_start(self):
        with pytest.raises(ValueError):
            wiener_first_passage_density(FIG4, 0.0, 1.0)


class TestRenewalCheck:
    def test_residual_small_at_reference_point(self):
        assert renewal_check(FIG4, 1.0, 1.0) < 1e-6

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            renewal_check(FIG4, 0.0, 1.0)


# (lam_hat, mu_hat, sigma2, nu, eta), t for the mass outside a slice: the
# benchmark's three slices, c^2 - 2 eta sigma2 < 0 (the stationary table),
# rare catastrophes, fast repairs, a narrow kernel, and long horizons whose
# grid leaves out the origin (the lower tail then starts at 1)
SLICE_TAILS = {
    "nu=1": ((3.0, 1.0, 1.0, 1.0, 1.0), 1.0),
    "nu=0.5": ((3.0, 1.0, 1.0, 0.5, 1.0), 1.0),
    "nu=0.1": ((3.0, 1.0, 1.0, 0.1, 1.0), 1.0),
    "complex-root": ((1.0, 2.0, 9.0, 1.0, 0.25), 2.0),
    "rare-catastrophe": ((3.0, 1.0, 1.0, 1e-6, 1.0), 1.0),
    "fast-repair": ((3.0, 1.0, 1.0, 1.0, 1e3), 1.0),
    "narrow": ((2.0, 1.0, 1e-6, 1.0, 1.0), 10.0),
    "long-horizon": ((2.0, 0.1, 1.0, 0.1, 1.0), 50.0),
    "long-horizon-rare-catastrophe": ((3.0, 1.0, 1.0, 1e-6, 1.0), 100.0),
}


class TestDensitySlice:
    def test_mass_identity_within_declared_tolerance(self):
        slice_ = f.density_slice(FIG4, 1.0)
        assert len(slice_.abscissas) == 801
        total = slice_.trapezoid_mass() + slice_.failure_mass
        assert abs(total - 1.0) < slice_.mass_tolerance

    def test_values_nonnegative(self):
        slice_ = f.density_slice(FIG4, 0.5, n_points=201)
        assert np.all(slice_.values >= 0.0)

    def test_rejects_time_zero(self):
        with pytest.raises(ValueError):
            f.density_slice(FIG4, 0.0)

    @pytest.mark.parametrize("n_points", [0, 1])
    def test_rejects_fewer_than_two_points(self, n_points):
        with pytest.raises(ValueError, match="n_points"):
            f.density_slice(FIG4, 1.0, n_points=n_points)

    @pytest.mark.parametrize("n_points", [2.5, "801"])
    def test_rejects_a_count_that_is_not_an_integer(self, n_points):
        with pytest.raises(ValueError, match="n_points must be an integer"):
            f.density_slice(FIG4, 1.0, n_points=n_points)

    def test_rejects_more_points_than_max_nodes_before_allocating(self):
        # NumPy reports its buffers to tracemalloc; the grid alone would be 32 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"from 2 to {MAX_NODES}"):
                f.density_slice(FIG4, 1.0, n_points=MAX_NODES + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("params,t", SLICE_TAILS.values(), ids=SLICE_TAILS.keys())
    def test_tail_mass_matches_the_restart_convolution(self, params, t):
        slice_ = f.density_slice(f.DiffusionParams(*params), t, n_points=3)
        lo, hi = float(slice_.abscissas[0]), float(slice_.abscissas[-1])
        reference = slice_tail_by_mpmath(*params, t, lo, hi)
        assert abs(slice_.tail_mass - reference) <= 1e-10 * reference + 1e-17

    @pytest.mark.parametrize("params,t", SLICE_TAILS.values(), ids=SLICE_TAILS.keys())
    def test_tail_mass_through_the_bulk_matches_the_restart_convolution(self, params, t):
        # a grid of +-1 sd about the failure-free mean cuts through the bulk of the law
        dp = f.DiffusionParams(*params)
        sd, center = math.sqrt(dp.sigma2 * t), dp.drift * t
        xs = np.linspace(center - sd, center + sd, 3)
        tail = f._tail_mass(dp, xs, t, f._restart_lags(dp, xs, t))
        reference = slice_tail_by_mpmath(*params, t, float(xs[0]), float(xs[-1]))
        assert abs(tail - reference) <= 1e-10 * reference + 1e-17
