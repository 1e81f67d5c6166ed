#!/usr/bin/env python3
"""Monte Carlo cross-validation of the analytic laws.

Simulates both models and reports each statistic next to its closed-form (or
inverted) value with the deviation in standard errors.
"""

import argparse

from catwalk import diffusion as f
from catwalk import discrete as d
from catwalk import simulate as sim


def report(label: str, estimate: sim.EmpiricalEstimate, target: float) -> None:
    sigmas = abs(estimate.value - target) / estimate.standard_error
    print(
        f"  {label:<22} mc {estimate.value:>9.5f} +- {estimate.standard_error:.5f}"
        f"   analytic {target:>9.5f}   ({sigmas:.2f} SE)"
    )


def main(seed: int, reps: int) -> None:
    cfg = sim.SimConfig(seed=seed, replications=reps, horizon=1.0, observation_times=(1.0,))

    p = d.DiscreteParams(2.0, 2.0, 0.1, 1.0)
    print(f"lattice model {p} at t = 1, {reps} replications:")
    traces = list(sim.simulate_discrete(p, cfg))
    report("failure probability", sim.estimate(traces, 1.0, "failure-probability"),
           d.failure_probability(p, 1.0))
    report("truncated mean", sim.estimate(traces, 1.0, "truncated-mean"),
           d.mean_transient(p, 1.0))
    report("truncated variance", sim.estimate(traces, 1.0, "truncated-variance"),
           d.variance_transient(p, 1.0))
    law = d.transient_distribution(p, 1.0, window=(-2, 2))
    for n, value in law.probabilities.items():
        report(f"state probability {n:+d}", sim.estimate(traces, 1.0, "state-probability", n), value)

    dp = f.DiffusionParams(3.0, 1.0, 1.0, 1.0, 1.0)
    print(f"diffusion model {dp} at t = 1, {reps} replications:")
    dtraces = list(sim.simulate_diffusion(dp, cfg))
    report("failure probability", sim.estimate(dtraces, 1.0, "failure-probability"),
           f.failure_probability(dp, 1.0))
    report("truncated mean", sim.estimate(dtraces, 1.0, "truncated-mean"),
           f.mean_x(dp, 1.0))
    report("truncated variance", sim.estimate(dtraces, 1.0, "truncated-variance"),
           f.variance_x(dp, 1.0))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20260811)
    parser.add_argument("--reps", type=int, default=50_000)
    args = parser.parse_args()
    main(args.seed, args.reps)
