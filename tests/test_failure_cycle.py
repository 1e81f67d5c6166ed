"""The failure-cycle core that both models share: their truncated moments
against an mpmath integral of the age law (``oracles.truncated_moments_by_mpmath``),
the age integral against its closed forms, and one check per kind of argument
for every public law that takes one."""

import math
import random
import sys
from dataclasses import replace

import mpmath
import pytest

from catwalk import diffusion as f
from catwalk import discrete as d
from catwalk import failure_cycle as fc
from catwalk import scaling as s
from oracles import (
    asymptotic_moments_by_mpmath,
    density_transform_by_mpmath,
    lattice_transform_by_mpmath,
    steady_density_by_mpmath,
    steady_state_by_mpmath,
    truncated_moments_by_mpmath,
)

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


def _closed_age_integral(k: int, a: float, t: float, damp: float) -> float:
    # e^{-damp t} (e^{at}(at - 1) + 1) / a^2 for k = 1 and
    # e^{-damp t} (e^{at}(a^2 t^2 - 2at + 2) - 2) / a^3 for k = 2, at 120
    # digits, which leave more than a double's worth after the cancellation
    # of |at| down to 1e-14
    with mpmath.workdps(120):
        a, t, damp = mpmath.mpf(a), mpmath.mpf(t), mpmath.mpf(damp)
        at = a * t
        if k == 1:
            value = (mpmath.exp(at) * (at - 1) + 1) / a**2
        else:
            value = (mpmath.exp(at) * (at * at - 2 * at + 2) - 2) / a**3
        return float(mpmath.exp(-damp * t) * value)


class TestAgeIntegral:
    @pytest.mark.parametrize("k", [1, 2])
    def test_against_the_closed_forms(self, k):
        # the two calls truncated_moments makes, a = -nu undamped and a = eta
        # damped by eta + nu, on both sides of the series' |at| < 0.25
        misses = []
        for nu in (1e-8, 1e-3, 0.1, 10.0, 1e3):
            for eta in (1e-3, 1.0, 1e4):
                for t in (1e-6, 1e-2, 1.0, 1e3):
                    for a, damp in ((-nu, 0.0), (eta, eta + nu)):
                        got = fc._age_integral(k, a, t, damp)
                        want = _closed_age_integral(k, a, t, damp)
                        if got != pytest.approx(want, rel=1e-12, abs=1e-300):
                            misses.append((a, t, damp, got, want))
        assert misses == []


LATTICE = d.DiscreteParams(2.0, 1.0, 1.0, 1.0)
DIFFUSION = f.DiffusionParams(3.0, 1.0, 1.0, 1.0, 1.0)
# their catastrophe-free motions, which the laws take by a branch of their own
LATTICE_FREE = replace(LATTICE, nu=0.0)
DIFFUSION_FREE = replace(DIFFUSION, nu=0.0)

#: every public law that takes a time; the second field says whether it
#: needs t > 0
TIMED = {
    "discrete.failure_probability": (lambda t: d.failure_probability(LATTICE, t), False),
    "discrete.transient_probability": (lambda t: d.transient_probability(LATTICE, 1, t), False),
    "discrete.transient_probability(nu=0)": (
        lambda t: d.transient_probability(LATTICE_FREE, 1, t), False),
    "discrete.transient_distribution": (lambda t: d.transient_distribution(LATTICE, t), False),
    "discrete.transient_distributions": (
        lambda t: d.transient_distributions(LATTICE, [1.0, t], (-3, 3)), False),
    "discrete.default_window": (lambda t: d.default_window(LATTICE, t), False),
    "discrete.mean_transient": (lambda t: d.mean_transient(LATTICE, t), False),
    "discrete.variance_transient": (lambda t: d.variance_transient(LATTICE, t), False),
    "diffusion.failure_probability": (lambda t: f.failure_probability(DIFFUSION, t), False),
    "diffusion.transient_density": (lambda t: f.transient_density(DIFFUSION, 0.5, t), True),
    "diffusion.transient_density(nu=0)": (
        lambda t: f.transient_density(DIFFUSION_FREE, 0.5, t), True),
    "diffusion.transient_densities": (lambda t: f.transient_densities(DIFFUSION, [0.5], t), True),
    "diffusion.mean_x": (lambda t: f.mean_x(DIFFUSION, t), False),
    "diffusion.variance_x": (lambda t: f.variance_x(DIFFUSION, t), False),
    "diffusion.on_mass": (lambda t: f.on_mass(DIFFUSION, t), True),
    "diffusion.density_slice": (lambda t: f.density_slice(DIFFUSION, t), True),
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


#: every public law that takes a lattice state
STATED = {
    "discrete.steady_state": lambda n: d.steady_state(LATTICE, n),
    "discrete.laplace_pn": lambda n: d.laplace_pn(LATTICE, n, 1.0),
    "discrete.transient_probability": lambda n: d.transient_probability(LATTICE, n, 1.0),
    "discrete.transient_probability(nu=0)": lambda n: d.transient_probability(LATTICE_FREE, n, 1.0),
    "discrete.transient_distribution": lambda n: d.transient_distribution(LATTICE, 1.0, (n, 2)),
    "discrete.transient_distributions": lambda n: d.transient_distributions(LATTICE, [1.0], (n, 2)),
    "scaling.steady_comparison": lambda n: s.steady_comparison(DIFFUSION, 0.5, [n]),
}

#: every public law that takes a level of the diffusion
LEVELLED = {
    "diffusion.transient_density": lambda x: f.transient_density(DIFFUSION, x, 1.0),
    "diffusion.transient_density(nu=0)": lambda x: f.transient_density(DIFFUSION_FREE, x, 1.0),
    "diffusion.transient_densities": lambda x: f.transient_densities(DIFFUSION, [0.5, x], 1.0),
    "diffusion.steady_density": lambda x: f.steady_density(DIFFUSION, x),
    "diffusion.laplace_density": lambda x: f.laplace_density(DIFFUSION, x, 1.0),
    "scaling.laplace_convergence": lambda x: s.laplace_convergence(DIFFUSION, 1.0, x, [0.1]),
}

#: the raw-float laws of the failure cycle, each with valid arguments by name
CYCLE_LAWS = {
    "failure_mass": (fc.failure_mass, dict(nu=1.0, eta=1.0, t=1.0)),
    "steady_failure_mass": (fc.steady_failure_mass, dict(nu=1.0, eta=1.0)),
    "truncated_moments": (fc.truncated_moments, dict(nu=1.0, eta=1.0, t=1.0, drift=1.0, spread=1.0)),
    "asymptotic_moments": (fc.asymptotic_moments, dict(nu=1.0, eta=1.0, drift=1.0, spread=1.0)),
}

#: every public transform in the Laplace variable z
TRANSFORMS = {
    "discrete.laplace_pn": lambda z: d.laplace_pn(LATTICE, 1, z),
    "discrete.laplace_transforms": lambda z: d.laplace_transforms(LATTICE, z),
    "diffusion.laplace_density": lambda z: f.laplace_density(DIFFUSION, 0.5, z),
    "diffusion.laplace_roots": lambda z: f.laplace_roots(DIFFUSION, z),
    "scaling.laplace_convergence": lambda z: s.laplace_convergence(DIFFUSION, z, 0.5, [0.1]),
}


class TestArgumentChecks:
    @pytest.mark.parametrize("n", [1.5, -0.5, math.nan, math.inf])
    @pytest.mark.parametrize("name", sorted(STATED))
    def test_rejects_a_state_that_is_not_an_integer(self, name, n):
        with pytest.raises(ValueError, match="integer state"):
            STATED[name](n)

    @pytest.mark.parametrize("name", sorted(STATED))
    def test_an_integral_float_is_its_integer_state(self, name):
        assert STATED[name](-1.0) == STATED[name](-1)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", sorted(LEVELLED))
    def test_rejects_a_level_that_is_not_finite(self, name, x):
        with pytest.raises(ValueError, match="x must be finite"):
            LEVELLED[name](x)

    @pytest.mark.parametrize("z", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", sorted(TRANSFORMS))
    def test_rejects_a_transform_variable_that_is_not_finite_and_positive(self, name, z):
        with pytest.raises(ValueError, match="transform variable must be finite and positive"):
            TRANSFORMS[name](z)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("name,argument", [
        (name, argument) for name, (_, valid) in sorted(CYCLE_LAWS.items()) for argument in valid])
    def test_each_cycle_law_checks_each_argument(self, name, argument, value):
        law, valid = CYCLE_LAWS[name]
        law(**valid)
        if argument == "drift" and value == -1.0:
            law(**{**valid, argument: value})  # any finite drift is valid
            return
        with pytest.raises(ValueError):
            law(**{**valid, argument: value})

    def test_the_amplitude_at_z_zero_is_the_stationary_one(self):
        assert fc.amplitude_over(1.0, 1.0, 0.25, 0.0) == 0.25 * 1.0 / 1.25

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("params", [LATTICE, DIFFUSION], ids=["discrete", "diffusion"])
    def test_both_models_check_every_rate_alike(self, params, value):
        for name in vars(params):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                type(params)(**{**vars(params), name: value})


class TestFloat64Range:
    """The stationary laws and Laplace transforms of both models over rates
    drawn log-uniformly from the subnormal 1e-320 to 1e308, and transform
    variables from 1e-300, and the long-run moments over rates and drifts
    from 1e-300 to 1e300: each value agrees with its closed form in mpmath
    to 1e-12, or both lie below the normal range, where float64 keeps no
    relative precision; a law that float64 cannot hold is a ValueError that
    names it."""

    @staticmethod
    def _check(cases, named):
        for law, reference in cases:
            try:
                value = law()
            except ValueError as exc:
                assert str(exc).startswith(named), exc
                continue
            want = reference()
            assert abs(value - want) <= 1e-12 * abs(want) + sys.float_info.min, (value, want)

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_mpmath_or_names_the_law(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            lam, mu, nu, eta, sigma2 = (10.0 ** rng.uniform(-320.0, 308.0) for _ in range(5))
            n, x = rng.randint(-3, 3), rng.choice([0.0, 1e-3, 1.0, -1.0, -50.0])
            self._check([
                (lambda: d.steady_state(d.DiscreteParams(lam, mu, nu, eta), n),
                 lambda: steady_state_by_mpmath(lam, mu, nu, eta, n)),
                (lambda: f.steady_density(f.DiffusionParams(lam, mu, sigma2, nu, eta), x),
                 lambda: steady_density_by_mpmath(lam, mu, sigma2, nu, eta, x)),
            ], "the stationary")

    @pytest.mark.parametrize("seed", range(4))
    def test_transforms_agree_with_mpmath_or_name_the_law(self, seed):
        # z times a transform underflowed where the transform did not: the
        # first case gave 0.0
        cases = [(2.91671164635918e255, 7.509026259802733e160, 1.703904935340164e-220,
                  4.0579866952476913e180, 1.0, 1, 1e-3, 1.399389962556675e-233)] if seed == 0 else []
        rng = random.Random(100 + seed)
        for _ in range(60):
            lam, mu, nu, eta, sigma2 = (10.0 ** rng.uniform(-320.0, 308.0) for _ in range(5))
            n, x = rng.randint(-3, 3), rng.choice([0.0, 1e-3, 1.0, -1.0, -50.0])
            cases.append((lam, mu, nu, eta, sigma2, n, x, 10.0 ** rng.uniform(-300.0, 308.0)))
        for lam, mu, nu, eta, sigma2, n, x, z in cases:
            self._check([
                (lambda: d.laplace_pn(d.DiscreteParams(lam, mu, nu, eta), n, z),
                 lambda: lattice_transform_by_mpmath(lam, mu, nu, eta, n, z)),
                (lambda: f.laplace_density(f.DiffusionParams(lam, mu, sigma2, nu, eta), x, z),
                 lambda: density_transform_by_mpmath(lam, mu, sigma2, nu, eta, x, z)),
            ], "the Laplace transform")

    @pytest.mark.parametrize("seed", range(4))
    def test_long_run_moments_agree_with_mpmath_or_name_the_law(self, seed):
        # the first case gave (-0.0, nan), and the second raised
        # ZeroDivisionError where the mean is 8.2e168
        cases = [(5.17e289, 1.14e-64, -2.21e100, 2.74e-256),
                 (2.79e-106, 1.56e-162, 4.09e119, 1.44e-265)] if seed == 0 else []
        rng = random.Random(200 + seed)
        for _ in range(100):
            nu, eta, drift, spread = (10.0 ** rng.uniform(-300.0, 300.0) for _ in range(4))
            cases.append((nu, eta, rng.choice([-drift, drift]), spread))
        for nu, eta, drift, spread in cases:
            self._check([
                (lambda k=k: fc.asymptotic_moments(nu, eta, drift, spread)[k],
                 lambda k=k: asymptotic_moments_by_mpmath(nu, eta, drift, spread)[k])
                for k in (0, 1)], "the long-run truncated")

    @pytest.mark.parametrize("seed", range(4))
    def test_the_lattice_mean_holds_where_the_variance_leaves_float64(self, seed):
        rng = random.Random(300 + seed)
        for _ in range(100):
            lam, mu, nu, eta = (10.0 ** rng.uniform(-300.0, 300.0) for _ in range(4))
            p = d.DiscreteParams(lam, mu, nu, eta)
            want = asymptotic_moments_by_mpmath(nu, eta, lam - mu, lam + mu)
            self._check([(lambda: d.asymptotic_mean(p), lambda: want[0])], "the long-run truncated mean")
            self._check([(lambda: d.asymptotic_variance(p), lambda: want[1])],
                        "the long-run truncated variance")
