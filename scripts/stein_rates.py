#!/usr/bin/env python3
"""Stein-bound decay rates.

Part 1: Gaussian bound 2/sqrt(n) for standardized fair +-1 sums, next to the
Lyapounov value and an empirical smooth-test lower estimate (the certified
chain is smooth_lower <= bound).

Part 2: degenerate quadratic U-statistic vs the centered Gamma target — the
sqrt of the homogeneous bracket should shrink by about 1/sqrt(2) per doubling
of n.
"""

import argparse
from math import sqrt

import numpy as np

from dmc.space import rademacher_coordinate, rademacher_space
from dmc.stein import degenerate_ustat_experiment


def gaussian_table(ns, samples, rng):
    from dmc.stein import GaussianTarget, empirical_distance, lyapounov_bound

    print(f"{'n':>5} {'bound':>10} {'lyapounov':>10} {'smooth_lower':>13}")
    for n in ns:
        sp = rademacher_space(n)
        # every coordinate embeds its outcomes as -1, +1
        draws = sp.embedding(0)[sp.sample_configs(rng, samples)].sum(axis=1) / sqrt(n)
        emp = empirical_distance(draws, GaussianTarget(), rng=rng)
        # the n summands' totals: variance 1 and third absolute moment n * n^-1.5
        lya = lyapounov_bound([(1.0, n**-0.5)])
        print(f"{n:>5} {2.0 / sqrt(n):>10.5f} {lya:>10.5f} "
              f"{emp.smooth_lower:>13.5f} (se {emp.smooth_lower_se:.5f})")


def degenerate_table(ns, samples, rng):
    base = rademacher_coordinate()
    print(f"\n{'n':>5} {'sqrt_bracket':>13} {'ratio':>8} {'kolmogorov':>11}")
    prev = None
    for n in ns:
        rep = degenerate_ustat_experiment(n, base, rng, samples=samples)
        ratio = rep.sqrt_bracket / prev if prev else float("nan")
        ks = rep.empirical.kolmogorov if rep.empirical else float("nan")
        print(f"{n:>5} {rep.sqrt_bracket:>13.5f} {ratio:>8.3f} {ks:>11.4f}")
        prev = rep.sqrt_bracket


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=50_000)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    gaussian_table((9, 25, 100), args.samples, rng)
    degenerate_table((8, 16, 32, 64), args.samples, rng)
