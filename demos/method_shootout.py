#!/usr/bin/env python3
"""Every excess-df estimator on the same problem, side by side.

One family (SURE-tuned shrinkage of 50 normal means), one mean vector,
four roads to the same number:

    analytic        2 s_hat / (1 + s_hat), averaged over draws
    implicit diff   differentiate the tuning stationarity condition
    bootstrap       resample, retune, measure the s_hat covariance
    monte carlo     brute-force df minus plug-in df, fresh draws

The first two are per-dataset statistics (no resampling); the bootstrap
needs B refits per dataset; the Monte Carlo needs the true mean and is
only available in simulations.  They should agree within error bars.

Run with --setting null|weak_sparsity|strong_sparsity to move the mean.
"""

import argparse

import numpy as np

from suretune import (
    BootstrapConfig,
    GaussianModel,
    ShrinkMeansFamily,
    bootstrap_edf,
    mc_edf,
    theta0_for,
)
from suretune.stein import _implicit_diff_stats


def main():
    ap = argparse.ArgumentParser(description="excess-df estimator shootout")
    ap.add_argument("--setting", default="weak_sparsity",
                    choices=("null", "weak_sparsity", "strong_sparsity"))
    ap.add_argument("--n", type=int, default=50)
    ap.add_argument("--datasets", type=int, default=60)
    ap.add_argument("--seed", type=int, default=9)
    args = ap.parse_args()

    n = args.n
    theta0 = theta0_for(args.setting, n)
    model = GaussianModel(theta0, sigma=1.0)
    family = ShrinkMeansFamily(n, 1.0)
    rng = np.random.default_rng(args.seed)
    Y = model.draw(rng, args.datasets)
    fit = family.tune_batch(Y)

    # Datasets tuned to s_hat = +inf contribute 0 to both per-dataset statistics.
    analytic = family.edf_unbiased(fit)
    implicit = _implicit_diff_stats(family.hooks, Y, fit.s_hat)
    # Each dataset's bootstrap has its own replicate stream.
    boot = np.array([
        bootstrap_edf(family, y, BootstrapConfig(B=400, sampler="parametric", seed=1000 + i)).value
        for i, y in enumerate(Y)
    ])

    mc = mc_edf(family, model, reps=4000, seed=args.seed + 1)

    def show(tag, stats):
        se = stats.std(ddof=1) / np.sqrt(stats.size)
        print(f"  {tag:<14} {stats.mean():7.4f}  (se {se:.4f})")

    print(f"setting={args.setting}, n={n}, {args.datasets} datasets\n")
    show("analytic", analytic)
    show("implicit diff", implicit)
    show("bootstrap", boot)
    print(f"  {'monte carlo':<14} {mc.value:7.4f}  (se {mc.std_error:.4f})"
          "   [needs the true mean]")


if __name__ == "__main__":
    main()
