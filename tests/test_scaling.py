import pytest
from hypothesis import given
from hypothesis import strategies as st

from catwalk import diffusion as f
from catwalk import discrete as d
from catwalk import scaling as s
from identities import mean_correspondence_check, rate_invariance_check

TABLE = f.DiffusionParams(lam_hat=1.0, mu_hat=2.0, sigma2=9.0, nu=1.0, eta=0.25)


class TestScaleParams:
    @pytest.mark.parametrize(
        "eps,lam,mu",
        [(0.1, 460.0, 470.0), (0.05, 1820.0, 1840.0), (0.01, 45100.0, 45200.0)],
    )
    def test_reference_rates(self, eps, lam, mu):
        p = s.scale_params(TABLE, eps)
        assert p.lam == pytest.approx(lam, rel=1e-12)
        assert p.mu == pytest.approx(mu, rel=1e-12)
        assert p.nu == TABLE.nu
        assert p.eta == TABLE.eta

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            s.scale_params(TABLE, 0.0)

    @given(eps=st.floats(min_value=1e-3, max_value=2.0))
    def test_induced_rates_positive_and_drift_preserved(self, eps):
        p = s.scale_params(TABLE, eps)
        assert p.lam > 0.0 and p.mu > 0.0
        assert (p.lam - p.mu) * eps == pytest.approx(TABLE.drift, rel=1e-9)

    def test_scaling_map_wrapper(self):
        held = s.ScalingMap(epsilon=0.05, source=TABLE)
        assert held.discrete == s.scale_params(TABLE, 0.05)
        with pytest.raises(ValueError):
            s.ScalingMap(epsilon=-1.0, source=TABLE)


class TestSteadyComparison:
    @pytest.mark.parametrize(
        "eps,n,scaled_pi,w,delta",
        [
            (0.01, 0, 0.04581, 0.04588, 0.00158),
            (0.1, -6, 0.03621, 0.03668, 0.01305),
            (0.05, 6, 0.03814, 0.03838, 0.00611),
        ],
    )
    def test_reference_rows(self, eps, n, scaled_pi, w, delta):
        (row,) = s.steady_comparison(TABLE, eps, [n])
        assert row.scaled_pi == pytest.approx(scaled_pi, abs=1.5e-5)
        assert row.w_value == pytest.approx(w, abs=1.5e-5)
        assert row.delta == pytest.approx(delta, abs=1.5e-5)

    def test_delta_definition(self):
        rows = s.steady_comparison(TABLE, 0.1, range(-3, 4))
        for row in rows:
            recomputed = (row.w_value - row.scaled_pi) / row.scaled_pi
            assert row.delta == pytest.approx(recomputed, rel=1e-12)

    def test_agreement_improves_as_the_lattice_refines(self):
        worst = [
            max(abs(row.delta) for row in s.steady_comparison(TABLE, eps, range(-6, 7)))
            for eps in (0.1, 0.05, 0.01)
        ]
        assert worst[0] > worst[1] > worst[2]


class TestRateInvariance:
    def test_identity_at_h_one(self):
        assert rate_invariance_check(TABLE, 0.1, 1.0) < 1e-15

    @pytest.mark.parametrize("h", [2.0, 0.5])
    def test_family_collapses(self, h):
        assert rate_invariance_check(TABLE, 0.1, h) < 1e-12

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValueError):
            rate_invariance_check(TABLE, 0.1, 0.0)


class TestLaplaceConvergence:
    @pytest.mark.parametrize("x", [0.0, 0.5])
    def test_gaps_strictly_decrease(self, x):
        gaps = s.laplace_convergence(TABLE, 1.0, x, (0.1, 0.05, 0.01))
        values = [gap for _, gap in gaps]
        assert values[0] > values[1] > values[2]

    def test_small_root_approaches_one(self):
        p = s.scale_params(TABLE, 0.01)
        _, roots = d.laplace_transforms(p, 1.0)
        assert abs(roots.psi2 - 1.0) < 1e-2

    def test_off_lattice_points_round_to_even(self):
        # x/eps = 2.5 rounds to 2, not 3
        gaps = s.laplace_convergence(TABLE, 1.0, 0.25, (0.1,))
        p = s.scale_params(TABLE, 0.1)
        expected = abs(d.laplace_pn(p, 2, 1.0) / 0.1 - f.laplace_density(TABLE, 0.25, 1.0))
        assert gaps[0][1] == pytest.approx(expected, rel=1e-14)


class TestMeanCorrespondence:
    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_exact_identity_up_to_roundoff(self, eps):
        assert mean_correspondence_check(TABLE, eps, (0.5, 1.0, 5.0)) < 1e-10

    def test_zero_time_is_exact(self):
        assert mean_correspondence_check(TABLE, 0.1, (0.0,)) == 0.0

    def test_asymptotic_means_match(self):
        p = s.scale_params(TABLE, 0.1)
        mean_limit, _ = f.asymptotic_moments(TABLE)
        assert d.asymptotic_mean(p) * 0.1 == pytest.approx(mean_limit, abs=1e-12)


class TestAsymptoticVarianceGap:
    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_gap_equals_the_finite_spacing_correction(self, eps):
        gap, predicted = s.asymptotic_variance_gap(TABLE, eps)
        assert gap == pytest.approx(predicted, rel=1e-8)

    def test_gap_vanishes_with_the_spacing(self):
        coarse, _ = s.asymptotic_variance_gap(TABLE, 0.1)
        fine, _ = s.asymptotic_variance_gap(TABLE, 0.01)
        assert 0.0 < fine < coarse
