#!/usr/bin/env python3
"""Degrees-of-freedom accounting for SURE-tuned shrinkage of normal means.

The estimator is theta_hat = y / (1 + s) with s chosen by minimizing the
unbiased risk estimate.  At the chosen s the naive (plug-in) df is
n / (1 + s_hat), but tuning itself consumes extra degrees of freedom.  For
this family the excess has the exact per-draw form 2 s_hat / (1 + s_hat),
so the honest df is observable without any resampling.

The script draws data under three mean configurations and compares, per
configuration,

    naive df      n / (1 + s_hat), averaged
    honest df     naive plus the analytic excess
    covariance df Monte Carlo estimate of sum_i cov(theta_hat_i, y_i)

and then checks the bottom line: the naive SURE minimum under-reports the
error of the tuned rule, the excess-optimism correction repairs it.
"""

import argparse

import numpy as np

from suretune import GaussianModel, ShrinkMeansFamily, edf_unbiased_shrink, mc_df


def account(theta0, sigma, reps, seed):
    n = theta0.shape[0]
    family = ShrinkMeansFamily(n, sigma)
    model = GaussianModel(theta0, sigma=sigma)
    rng = np.random.default_rng(seed)
    Y = model.draw(rng, reps)
    Ystar = model.draw(rng, reps)
    fit = family.tune_batch(Y)

    # 2 s / (1 + s) per draw; boundary fits at s = inf contribute nothing
    excess = edf_unbiased_shrink(fit.s_hat)

    cov_df = mc_df(lambda Z: family.tune_batch(Z).theta_hat, model,
                   reps=reps, seed=seed + 1)

    naive = float(fit.naive_df_at_shat.mean())
    honest = naive + float(excess.mean())
    test_err = float(np.sum((Ystar - fit.theta_hat) ** 2, axis=1).mean())
    sure = float(fit.sure_min.mean())
    corrected = sure + 2.0 * sigma**2 * float(excess.mean())
    return naive, honest, cov_df, sure, corrected, test_err


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=50)
    ap.add_argument("--reps", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    n = args.n
    settings = [
        ("null", np.zeros(n)),
        ("weak", 4.0 / np.sqrt(np.arange(1.0, n + 1))),
        ("dense", np.full(n, 1.0)),
    ]

    print(f"n = {n}, {args.reps} repetitions per setting\n")
    print(f"{'setting':>8} {'naive df':>9} {'honest df':>10} {'cov df':>7}"
          f" {'+/-':>6}  {'sure':>8} {'corrected':>10} {'test err':>9}")
    for tag, theta0 in settings:
        naive, honest, cov, sure, corr, test = account(
            theta0, 1.0, args.reps, args.seed)
        print(f"{tag:>8} {naive:9.3f} {honest:10.3f} {cov.value:7.3f}"
              f" {cov.std_error:6.3f}  {sure:8.2f} {corr:10.2f} {test:9.2f}")

    print("\nreading the table: 'cov df' should agree with 'honest df', not")
    print("with 'naive df', and 'corrected' should agree with 'test err'.")


if __name__ == "__main__":
    main()
