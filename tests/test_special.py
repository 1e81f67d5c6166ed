import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from catwalk.special import (
    QuadratureError,
    QuadratureSpec,
    bessel_i_scaled,
    integrate_adaptive,
)
from oracles import bessel_reference_scaled, bessel_series_scaled, midpoint_integral

# frozen from the power-series oracle (bessel_series_scaled)
E2_I1_2 = 0.21526928924893765916

# bessel_reference_scaled(n, x) at its 40 digits, computed once because
# mpmath takes about 12 s for it: e^{-x} I_n(x) is e^{-24521.46...} there
# (its log=True value), below the double range, so the reference is 0.0
PINNED_REFERENCES = {(100_000, 2e5): 0.0}


class TestBesselScaled:
    def test_order_zero_at_origin(self):
        assert bessel_i_scaled(0, 0.0) == 1.0

    def test_nonzero_order_at_origin(self):
        assert bessel_i_scaled(2, 0.0) == 0.0

    def test_series_oracle_value(self):
        assert bessel_i_scaled(1, 2.0) == pytest.approx(E2_I1_2, rel=1e-14)
        assert bessel_series_scaled(1, 2.0) == pytest.approx(E2_I1_2, rel=1e-14)

    def test_negative_order_symmetry(self):
        assert bessel_i_scaled(-3, 5.0) == bessel_i_scaled(3, 5.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bessel_i_scaled(0, -1.0)
        with pytest.raises(ValueError):
            bessel_i_scaled(0, math.nan)
        with pytest.raises(ValueError):
            bessel_i_scaled(0, math.inf)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 50])
    @pytest.mark.parametrize("x", [1e-3, 0.5, 2.0, 10.0, 30.0, 50.0])
    def test_series_oracle_grid(self, n, x):
        reference = bessel_series_scaled(n, x)
        if reference < 1e-280:
            pytest.skip("value below double-precision floor")
        assert bessel_i_scaled(n, x) == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize(
        "n,x",
        [
            (0, 1e3),
            (3, 1e4),
            (0, 9.03e4),
            (100, 1e5),
            (0, 1e6),
            (1000, 1e6),
            (0, 1e7),
            (5, 1e7),
            (10_000, 2e4),
            (100_000, 2e5),
        ],
    )
    def test_large_argument_accuracy_and_finiteness(self, n, x):
        value = bessel_i_scaled(n, x)
        assert math.isfinite(value)
        assert 0.0 <= value <= 1.0
        reference = PINNED_REFERENCES.get((n, x))
        if reference is None:
            reference = bessel_reference_scaled(n, x)
        if reference > 1e-280:
            assert value == pytest.approx(reference, rel=1e-12)

    @given(
        n=st.integers(min_value=1, max_value=200),
        x=st.floats(min_value=0.01, max_value=1000.0),
    )
    def test_three_term_recurrence(self, n, x):
        lower = bessel_i_scaled(n - 1, x)
        upper = bessel_i_scaled(n + 1, x)
        middle = bessel_i_scaled(n, x)
        assume(lower > 1e-250)
        assert lower - upper == pytest.approx(2.0 * n / x * middle, rel=1e-9, abs=1e-280)

    @pytest.mark.parametrize("x", [0.5, 5.0, 30.0, 50.0])
    def test_generating_function_normalization(self, x):
        half = math.ceil(x + 40.0 * math.sqrt(x) + 40.0)
        orders = np.arange(-half, half + 1)
        total = sum(bessel_i_scaled(int(n), x) for n in orders)
        assert abs(total - 1.0) < 1e-12

    @given(
        n=st.integers(min_value=0, max_value=300),
        x=st.floats(min_value=1e-6, max_value=5000.0),
    )
    def test_monotone_in_order(self, n, x):
        assert bessel_i_scaled(n, x) >= bessel_i_scaled(n + 1, x)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.relative_tolerance == 1e-10
        assert spec.absolute_tolerance == 1e-14
        assert spec.max_subdivisions == 2000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"relative_tolerance": 0.0},
            {"absolute_tolerance": -1e-3},
            {"max_subdivisions": 0},
        ],
    )
    def test_rejects_bad_spec(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


class TestIntegrateAdaptive:
    def test_linear(self):
        value, error = integrate_adaptive(lambda x: x, 0.0, 1.0)
        assert value == pytest.approx(0.5, abs=1e-13)
        assert error < 1e-10

    def test_sine(self):
        value, _ = integrate_adaptive(math.sin, 0.0, math.pi)
        assert value == pytest.approx(2.0, rel=1e-12)

    def test_empty_interval(self):
        assert integrate_adaptive(lambda x: x * x, 2.0, 2.0).value == 0.0

    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: x, 1.0, 0.0)

    def test_skellam_kernel_against_midpoint_oracle(self):
        # integrand of the restart convolution at lam = mu = 2, order 1:
        # e^{-0.1 u} e^{-4u} I_1(4u), written through the scaled product
        from scipy.special import ive

        def kernel(u):
            return np.exp(-0.1 * u) * ive(1, 4.0 * u)

        adaptive, _ = integrate_adaptive(lambda u: float(kernel(np.asarray(u))), 0.0, 1.0)
        dense = midpoint_integral(kernel, 0.0, 1.0, panels=10**6)
        assert adaptive == pytest.approx(dense, rel=1e-11)

    def test_budget_exhaustion_reports_best_estimate(self):
        spec = QuadratureSpec(1e-12, 1e-14, max_subdivisions=2)
        with pytest.raises(QuadratureError) as caught:
            integrate_adaptive(lambda x: math.sin(1.0 / x) / x, 1e-6, 1.0, spec)
        err = caught.value
        assert math.isfinite(err.best_estimate)
        assert err.error_bound > 0.0
