"""The failure-cycle core that both models share: their truncated moments
against an mpmath integral of the age law (``oracles.truncated_moments_by_mpmath``),
and one time check for every public law that takes a time."""

import math

import pytest

from catwalk import diffusion as f
from catwalk import discrete as d
from oracles import truncated_moments_by_mpmath

NUS = (0.0, 1e-6, 1e-3, 0.1, 100.0)
ETAS = (1e-3, 0.25, 1.0, 1e3)
TIMES = (1e-3, 0.1, 1.0, 10.0, 300.0)
DRIFTS = (2.0, -1.0)
SIGMA2S = (1e-6, 1.0)
RATIOS = (2.0, 200.0, 3000.0)
MOMENT_RTOL = 1e-9


def _lattice_rates(ratio: float, drift: float) -> list[tuple[float, float]]:
    # the faster rate is ``ratio`` times the slower one: scaled so that
    # lam - mu = drift, and with the slower rate 1, where drift^2 >> lam + mu
    slow = abs(drift) / (ratio - 1.0)
    pairs = [(ratio * slow, slow), (ratio, 1.0)]
    return pairs if drift > 0 else [(mu, lam) for lam, mu in pairs]


def _misses(cases):
    # (case, relative error) for each mean or variance outside MOMENT_RTOL
    misses = []
    for case, (mean, variance), (nu, eta, t, drift, spread) in cases:
        want_mean, want_variance = truncated_moments_by_mpmath(nu, eta, t, drift, spread)
        for got, want in ((mean, want_mean), (variance, want_variance)):
            error = abs(got - want) / abs(want)
            if not error <= MOMENT_RTOL:
                misses.append((case, got, want, error))
    return misses


class TestTruncatedMoments:
    @pytest.mark.parametrize("nu", NUS)
    def test_diffusion_against_the_age_law(self, nu):
        cases = []
        for eta in ETAS:
            for t in TIMES:
                for drift in DRIFTS:
                    for sigma2 in SIGMA2S:
                        dp = f.DiffusionParams(2.0 + drift, 2.0, sigma2, nu, eta)
                        got = (f.mean_x(dp, t), f.variance_x(dp, t))
                        cases.append(((dp, t), got, (nu, eta, t, dp.drift, sigma2)))
        assert _misses(cases) == []

    @pytest.mark.parametrize("nu", NUS)
    def test_lattice_against_the_age_law(self, nu):
        cases = []
        for eta in ETAS:
            for t in TIMES:
                for drift in DRIFTS:
                    for ratio in RATIOS:
                        for lam, mu in _lattice_rates(ratio, drift):
                            p = d.DiscreteParams(lam, mu, nu, eta)
                            got = (d.mean_transient(p, t), d.variance_transient(p, t))
                            cases.append(((p, t), got, (nu, eta, t, lam - mu, lam + mu)))
        assert _misses(cases) == []

    @pytest.mark.parametrize("t", TIMES)
    def test_no_catastrophes_give_the_free_motion_exactly(self, t):
        dp = f.DiffusionParams(3.0, 1.0, 0.7, 0.0, 1.0)
        assert (f.mean_x(dp, t), f.variance_x(dp, t)) == (2.0 * t, 0.7 * t)
        p = d.DiscreteParams(3.0, 1.25, 0.0, 1.0)
        assert (d.mean_transient(p, t), d.variance_transient(p, t)) == (1.75 * t, 4.25 * t)


LATTICE = d.DiscreteParams(2.0, 1.0, 1.0, 1.0)
DIFFUSION = f.DiffusionParams(3.0, 1.0, 1.0, 1.0, 1.0)

#: every public law that takes a time; the second field says whether it
#: needs t > 0
TIMED = {
    "discrete.failure_probability": (lambda t: d.failure_probability(LATTICE, t), False),
    "discrete.skellam_probability": (lambda t: d.skellam_probability(LATTICE, 1, t), False),
    "discrete.transient_probability": (lambda t: d.transient_probability(LATTICE, 1, t), False),
    "discrete.transient_distribution": (lambda t: d.transient_distribution(LATTICE, t), False),
    "discrete.default_window": (lambda t: d.default_window(LATTICE, t), False),
    "discrete.mean_transient": (lambda t: d.mean_transient(LATTICE, t), False),
    "discrete.variance_transient": (lambda t: d.variance_transient(LATTICE, t), False),
    "discrete.first_passage_density": (lambda t: d.first_passage_density(LATTICE, 1, t), True),
    "diffusion.failure_probability": (lambda t: f.failure_probability(DIFFUSION, t), False),
    "diffusion.transient_density": (lambda t: f.transient_density(DIFFUSION, 0.5, t), False),
    "diffusion.mean_x": (lambda t: f.mean_x(DIFFUSION, t), False),
    "diffusion.variance_x": (lambda t: f.variance_x(DIFFUSION, t), False),
    "diffusion.wiener_density": (lambda t: f.wiener_density(DIFFUSION, 0.5, t), True),
    "diffusion.on_mass": (lambda t: f.on_mass(DIFFUSION, t), True),
    "diffusion.density_slice": (lambda t: f.density_slice(DIFFUSION, t), True),
    "diffusion.fpt_density_wiener": (lambda t: f.fpt_density_wiener(DIFFUSION, 0.5, t), True),
}


class TestTimeCheck:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("name", sorted(TIMED))
    def test_rejects_a_time_that_is_not_finite_and_nonnegative(self, name, t):
        law, _ = TIMED[name]
        with pytest.raises(ValueError, match="time must be finite"):
            law(t)

    @pytest.mark.parametrize("name", sorted(TIMED))
    def test_time_zero_is_rejected_only_where_the_law_needs_t_positive(self, name):
        law, positive = TIMED[name]
        if positive:
            with pytest.raises(ValueError, match="time must be finite and positive"):
                law(0.0)
        else:
            law(0.0)
