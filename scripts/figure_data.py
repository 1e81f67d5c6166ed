#!/usr/bin/env python3
"""Write plot-ready CSV data for the standard model pictures.

Produces, under --out-dir:
  transient_probabilities_lam2.csv / _lam8.csv
      P_n(t) for n = 0, 1, 2 over t in [0, 8] (mu=2, nu=0.1, eta=1).
  truncated_mean_nu1.csv / truncated_mean_nu01.csv
      m_N(t) for eta in {0.25, 0.5, 1, 2} with unit drift.
  truncated_variance_nu1.csv / truncated_variance_nu01.csv
      V_N(t) for the same parameters with lam = 2.
  density_profiles.csv
      f(x, 1) for nu in {1, 0.5, 0.1} (drift 2, unit variance), plus the
      operating-mass integral of each profile.
  moment_curves_diffusion.csv
      m_X(t) and V_X(t) for the same three catastrophe rates.
"""

import argparse
import csv
import os

import numpy as np

from catwalk import diffusion as f
from catwalk import discrete as d


def write_rows(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as sink:
        writer = csv.writer(sink)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path}")


def transient_curves(out_dir: str) -> None:
    grid = np.linspace(0.0, 8.0, 81)
    for lam, tag in ((2.0, "lam2"), (8.0, "lam8")):
        p = d.DiscreteParams(lam, 2.0, 0.1, 1.0)
        rows = []
        for t in grid:
            law = d.transient_distribution(p, float(t), window=(0, 2))
            rows.append([float(t)] + list(law.probabilities.values()))
        write_rows(
            os.path.join(out_dir, f"transient_probabilities_{tag}.csv"),
            ["t", "P0", "P1", "P2"],
            rows,
        )


def moment_curves_discrete(out_dir: str) -> None:
    grid = np.linspace(0.0, 12.0, 121)
    for nu, tag in ((1.0, "nu1"), (0.1, "nu01")):
        etas = (0.25, 0.5, 1.0, 2.0)
        mean_rows, var_rows = [], []
        for t in grid:
            mean_rows.append(
                [float(t)]
                + [d.mean_transient(d.DiscreteParams(2.0, 1.0, nu, eta), float(t)) for eta in etas]
            )
            var_rows.append(
                [float(t)]
                + [d.variance_transient(d.DiscreteParams(2.0, 1.0, nu, eta), float(t)) for eta in etas]
            )
        header = ["t"] + [f"eta_{eta}" for eta in etas]
        write_rows(os.path.join(out_dir, f"truncated_mean_{tag}.csv"), header, mean_rows)
        write_rows(os.path.join(out_dir, f"truncated_variance_{tag}.csv"), header, var_rows)


def density_profiles(out_dir: str) -> None:
    nus = (1.0, 0.5, 0.1)
    xs = np.linspace(-3.0, 6.0, 181)
    rows = []
    for x in xs:
        row = [float(x)]
        for nu in nus:
            dp = f.DiffusionParams(3.0, 1.0, 1.0, nu, 1.0)
            row.append(f.transient_density(dp, float(x), 1.0))
        rows.append(row)
    write_rows(
        os.path.join(out_dir, "density_profiles.csv"),
        ["x"] + [f"nu_{nu}" for nu in nus],
        rows,
    )
    for nu in nus:
        dp = f.DiffusionParams(3.0, 1.0, 1.0, nu, 1.0)
        print(f"  operating mass at t=1, nu={nu}: {f.on_mass(dp, 1.0):.4f}")


def moment_curves_diffusion(out_dir: str) -> None:
    grid = np.linspace(0.0, 10.0, 101)
    nus = (1.0, 0.5, 0.1)
    rows = []
    for t in grid:
        row = [float(t)]
        for nu in nus:
            dp = f.DiffusionParams(3.0, 1.0, 1.0, nu, 1.0)
            row += [f.mean_x(dp, float(t)), f.variance_x(dp, float(t))]
        rows.append(row)
    header = ["t"]
    for nu in nus:
        header += [f"mean_nu_{nu}", f"variance_nu_{nu}"]
    write_rows(os.path.join(out_dir, "moment_curves_diffusion.csv"), header, rows)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="figure_data")
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)
    transient_curves(args.out_dir)
    moment_curves_discrete(args.out_dir)
    density_profiles(args.out_dir)
    moment_curves_diffusion(args.out_dir)
