"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time

from catwalk import diffusion as f
from catwalk import discrete as d
from catwalk import scaling as s
from catwalk import simulate as sim
from catwalk.special import integrate_adaptive
from identities import (
    mean_correspondence_check,
    operating_mass_by_quadrature,
    rate_invariance_check,
    renewal_check,
    transient_probability_renewal,
)

TABLE_DP = f.DiffusionParams(lam_hat=1.0, mu_hat=2.0, sigma2=9.0, nu=1.0, eta=0.25)
FIG4_DP = f.DiffusionParams(lam_hat=3.0, mu_hat=1.0, sigma2=1.0, nu=1.0, eta=1.0)
SYMMETRIC = d.DiscreteParams(2.0, 2.0, 0.1, 1.0)

# the printed 13 x 9 stationary-comparison grid:
# n -> (pi/eps, W, delta) for eps = 0.1, then 0.05, then 0.01
TABLE1_PRINTED = {
    -6: (0.03621, 0.03668, 0.01305, 0.04073, 0.04102, 0.00721, 0.04480, 0.04487, 0.00155),
    -5: (0.03757, 0.03807, 0.01353, 0.04149, 0.04180, 0.00733, 0.04496, 0.04503, 0.00156),
    -4: (0.03897, 0.03952, 0.01401, 0.04227, 0.04258, 0.00745, 0.04513, 0.04520, 0.00156),
    -3: (0.04044, 0.04102, 0.01448, 0.04306, 0.04339, 0.00757, 0.04530, 0.04537, 0.00157),
    -2: (0.04196, 0.04258, 0.01497, 0.04387, 0.04420, 0.00769, 0.04547, 0.04554, 0.00157),
    -1: (0.04353, 0.04420, 0.01544, 0.04469, 0.04503, 0.00781, 0.04564, 0.04571, 0.00158),
    0: (0.04516, 0.04588, 0.01593, 0.04552, 0.04588, 0.00793, 0.04581, 0.04588, 0.00158),
    1: (0.04260, 0.04323, 0.01472, 0.04420, 0.04454, 0.00763, 0.04554, 0.04561, 0.00157),
    2: (0.04019, 0.04073, 0.01351, 0.04292, 0.04323, 0.00732, 0.04527, 0.04534, 0.00156),
    3: (0.03791, 0.03838, 0.01231, 0.04167, 0.04196, 0.00702, 0.04500, 0.04507, 0.00154),
    4: (0.03576, 0.03616, 0.01111, 0.04046, 0.04073, 0.00672, 0.04473, 0.04480, 0.00153),
    5: (0.03373, 0.03407, 0.00990, 0.03929, 0.03954, 0.00641, 0.04447, 0.04454, 0.00152),
    6: (0.03182, 0.03210, 0.00870, 0.03814, 0.03838, 0.00611, 0.04421, 0.04427, 0.00151),
}

MC_SEED = 20260811
MC_REPLICATIONS = 100_000


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_table1_reproduction():
    started = time.perf_counter()
    worst = 0.0
    for block, eps in enumerate((0.1, 0.05, 0.01)):
        rows = {row.n: row for row in s.steady_comparison(TABLE_DP, eps, range(-6, 7))}
        for n, printed in TABLE1_PRINTED.items():
            computed = (rows[n].scaled_pi, rows[n].w_value, rows[n].delta)
            for k in range(3):
                worst = max(worst, abs(computed[k] - printed[3 * block + k]))
    elapsed = time.perf_counter() - started
    _report(
        "criterion-1 table-1 reproduction",
        worst <= 1.5e-5 and elapsed < 1.0,
        f"117 values, max |gap| {worst:.2e} (tol 1.5e-05), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_density_masses():
    started = time.perf_counter()
    targets = {1.0: 0.5677, 0.5: 0.7410, 0.1: 0.9394}
    worst_printed = 0.0
    worst_identity = 0.0
    for nu, target in targets.items():
        dp = f.DiffusionParams(3.0, 1.0, 1.0, nu, 1.0)
        mass = operating_mass_by_quadrature(dp, 1.0)
        worst_printed = max(worst_printed, abs(mass - target))
        worst_identity = max(worst_identity, abs(mass - (1.0 - d.failure_probability(
            d.DiscreteParams(1.0, 1.0, nu, 1.0), 1.0))))
    elapsed = time.perf_counter() - started
    _report(
        "criterion-2 density masses",
        worst_printed <= 5e-4 and worst_identity <= 1e-6 and elapsed < 5.0,
        f"printed gap {worst_printed:.2e} (tol 5e-04), failure-mass identity "
        f"{worst_identity:.2e} (tol 1e-06), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_3_moment_values():
    started = time.perf_counter()
    targets = {1.0: (0.865, 1.283), 0.5: (1.305, 1.469), 0.1: (1.834, 1.198)}
    worst = 0.0
    for nu, (mean, variance) in targets.items():
        dp = f.DiffusionParams(3.0, 1.0, 1.0, nu, 1.0)
        worst = max(worst, abs(f.mean_x(dp, 1.0) - mean), abs(f.variance_x(dp, 1.0) - variance))
    elapsed = time.perf_counter() - started
    _report(
        "criterion-3 closed-form moments",
        worst <= 1e-3 and elapsed < 0.1,
        f"max |gap| {worst:.2e} (tol 1e-03), {elapsed:.3f}s (< 0.1s)",
    )


def test_criterion_4_discrete_normalization():
    started = time.perf_counter()
    worst = 0.0
    for t in (0.5, 1.0, 4.0):
        slice_ = d.transient_distribution(SYMMETRIC, t)
        worst = max(worst, abs(slice_.total_mass() - 1.0))
    elapsed = time.perf_counter() - started
    _report(
        "criterion-4 normalization",
        worst <= 1e-8 and elapsed < 10.0,
        f"max |mass - 1| {worst:.2e} (tol 1e-08), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_5_renewal_identities():
    worst_discrete = 0.0
    for n in (1, -1, 2, -2, 5, -5):
        for t in (0.5, 1.0, 2.0):
            direct = d.transient_probability(SYMMETRIC, n, t)
            renewal = transient_probability_renewal(SYMMETRIC, n, t)
            worst_discrete = max(worst_discrete, abs(direct - renewal))
    worst_diffusion = max(
        renewal_check(FIG4_DP, x, t) for x, t in ((1.0, 1.0), (-0.5, 1.0), (2.0, 2.0))
    )
    _report(
        "criterion-5 renewal identities",
        worst_discrete <= 1e-8 and worst_diffusion <= 1e-6,
        f"lattice gap {worst_discrete:.2e} (tol 1e-08), diffusion residual "
        f"{worst_diffusion:.2e} (tol 1e-06)",
    )


def test_criterion_6_laplace_cross_checks():
    worst_transform = 0.0
    for z in (0.5, 1.0, 2.0):
        horizon = math.log(1.0 / (1e-9 * z)) / z
        numeric, _ = integrate_adaptive(
            lambda t: math.exp(-z * t) * d.transient_probability(SYMMETRIC, 0, t),
            0.0,
            horizon,
        )
        origin, _ = d.laplace_transforms(SYMMETRIC, z)
        worst_transform = max(worst_transform, abs(numeric - origin) / origin)
    drifting = d.DiscreteParams(2.0, 1.0, 1.0, 1.0)
    origin, _ = d.laplace_transforms(drifting, 1e-6)
    tauberian = abs(1e-6 * origin - d.steady_state(drifting, 0))
    worst_density = max(
        abs(1e-6 * f.laplace_density(FIG4_DP, x, 1e-6) - f.steady_density(FIG4_DP, x))
        for x in (0.0, 1.0, -1.0)
    )
    _report(
        "criterion-6 Laplace cross-checks",
        worst_transform <= 1e-6 and tauberian <= 1e-4 and worst_density <= 1e-4,
        f"time-domain rel gap {worst_transform:.2e} (tol 1e-06), final-value "
        f"{tauberian:.2e} (tol 1e-04), density limit {worst_density:.2e} (tol 1e-04)",
    )


def test_criterion_7_convergence_checks():
    decreasing = True
    for x in (0.0, 0.5):
        gaps = [gap for _, gap in s.laplace_convergence(TABLE_DP, 1.0, x, (0.1, 0.05, 0.01))]
        decreasing = decreasing and gaps[0] > gaps[1] > gaps[2]
    mean_residual = mean_correspondence_check(TABLE_DP, 0.1, (0.5, 1.0, 5.0))
    invariance = max(rate_invariance_check(TABLE_DP, 0.1, h) for h in (0.5, 2.0))
    _report(
        "criterion-7 lattice-to-diffusion convergence",
        decreasing and mean_residual < 1e-10 and invariance < 1e-12,
        f"gaps decreasing {decreasing}, mean residual {mean_residual:.2e} "
        f"(tol 1e-10), rescaling residual {invariance:.2e} (tol 1e-12)",
    )


def test_criterion_8_monte_carlo_agreement():
    started = time.perf_counter()
    cfg = sim.SimConfig(
        seed=MC_SEED, replications=MC_REPLICATIONS, horizon=1.0, observation_times=(1.0,)
    )
    failures = []

    traces = list(sim.simulate_discrete(SYMMETRIC, cfg))
    checks = [
        ("q(1)", sim.estimate(traces, 1.0, "failure-probability"),
         d.failure_probability(SYMMETRIC, 1.0)),
        ("mean(1)", sim.estimate(traces, 1.0, "truncated-mean"),
         d.mean_transient(SYMMETRIC, 1.0)),
        ("variance(1)", sim.estimate(traces, 1.0, "truncated-variance"),
         d.variance_transient(SYMMETRIC, 1.0)),
    ]
    for n in range(-4, 5):
        checks.append(
            (f"P_{n}(1)", sim.estimate(traces, 1.0, "state-probability", n),
             d.transient_probability(SYMMETRIC, n, 1.0))
        )
    dtraces = list(sim.simulate_diffusion(FIG4_DP, cfg))
    checks += [
        ("X failure", sim.estimate(dtraces, 1.0, "failure-probability"), 0.432332),
        ("X mean", sim.estimate(dtraces, 1.0, "truncated-mean"), 0.865),
        ("X variance", sim.estimate(dtraces, 1.0, "truncated-variance"), 1.283),
    ]
    worst_sigmas = 0.0
    for label, estimate, target in checks:
        sigmas = abs(estimate.value - target) / estimate.standard_error
        worst_sigmas = max(worst_sigmas, sigmas)
        if sigmas > 3.0:
            failures.append(f"{label} off by {sigmas:.1f} SE")
    elapsed = time.perf_counter() - started
    _report(
        "criterion-8 Monte Carlo oracle",
        not failures and elapsed < 120.0,
        f"{len(checks)} statistics within 3 SE (worst {worst_sigmas:.2f} SE), "
        f"{elapsed:.1f}s (< 120s)" + ("; " + "; ".join(failures) if failures else ""),
    )


def test_criterion_9_fokker_planck_residual():
    dp = FIG4_DP
    h = 1e-4

    def density(x, t):
        return f.transient_density(dp, x, t)

    worst = 0.0
    points = [(x, t) for x in (0.5, 1.0, 2.5, -0.7, 3.5) for t in (0.25, 0.7, 1.0, 2.0)]
    assert len(points) == 20
    for x, t in points:
        dt = (density(x, t + h) - density(x, t - h)) / (2.0 * h)
        dx = (density(x + h, t) - density(x - h, t)) / (2.0 * h)
        dxx = (density(x + h, t) - 2.0 * density(x, t) + density(x - h, t)) / (h * h)
        residual = abs(dt + dp.nu * density(x, t) + dp.drift * dx - 0.5 * dp.sigma2 * dxx)
        worst = max(worst, residual)
    _report(
        "criterion-9 Fokker-Planck residual",
        worst <= 1e-4,
        f"max residual {worst:.2e} over 20 points (tol 1e-04)",
    )


def test_figures_qualitative_mean_shape():
    # fast repairs: the truncated mean rises monotonically
    fast = d.DiscreteParams(2.0, 1.0, 1.0, 2.0)
    grid = [0.1 * k for k in range(1, 120)]
    values = [d.mean_transient(fast, t) for t in grid]
    monotone = all(b > a for a, b in zip(values, values[1:]))
    # slow repairs: interior peak at (1/eta) log(nu / (nu - eta))
    slow = d.DiscreteParams(2.0, 1.0, 1.0, 0.5)
    peak = d.mean_peak_time(slow)
    expected_peak = math.log(1.0 / (1.0 - 0.5)) / 0.5
    step = 1e-3
    rising = d.mean_transient(slow, peak) - d.mean_transient(slow, peak - step)
    falling = d.mean_transient(slow, peak + step) - d.mean_transient(slow, peak)
    _report(
        "figures qualitative mean shape",
        monotone and abs(peak - expected_peak) < 1e-12 and rising > 0.0 > falling,
        f"monotone {monotone}, peak {peak:.6f}, slope sign change within {step}",
    )
