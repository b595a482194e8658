#!/usr/bin/env python3
"""Closed-form ceilings on what model selection can cost.

Four related quantities, each printable in a few lines:

 1. chi-sq-max: an upper bound on E[max_k (W_k - p_k)] for any finite
    collection of chi-square statistics, one per candidate model, however
    correlated.  Its two-term relaxation splits into log(#models) and a
    per-parameter charge.
 2. nested-null-edf: for a nested chain at the zero mean, the excess df of
    Cp selection stays below a universal constant (< 10) at EVERY chain
    length, certified by a head-plus-tail summation.
 3. general-theta: the nonnull version, evaluated exactly from
    noncentral chi-square densities and tails, with a worst-case cap.
 4. best-subset-constant: the sharp constant in the search-cost bound for
    all-subsets selection, found by minimizing an explicit penalty curve.
"""

import numpy as np

from suretune import (
    best_subset_constant,
    best_subset_penalty_curve,
    chi_sq_max_bound,
    edf_upper_bound_simplified,
    general_theta_bound,
    nested_bound_tail_split,
    nested_null_edf_bound,
)


def main():
    print("1. expected max of centered chi-squares")
    sizes = [1, 2, 4, 8, 16]
    for delta in (0.3, 0.5, 0.7):
        tight = chi_sq_max_bound(sizes, delta)
        loose = edf_upper_bound_simplified(sizes, delta)
        print(f"   sizes {sizes}, delta={delta:.1f}:"
              f" bound {tight:8.3f}   relaxed {loose:8.3f}")

    print("\n2. nested chain at the null: selection cost by chain length")
    print(f"   {'p':>6} {'edf bound':>10}")
    for p in (1, 3, 10, 100, 1000, 5000):
        print(f"   {p:6d} {nested_null_edf_bound(p):10.5f}")
    split = nested_bound_tail_split()
    print(f"   limit (head {split.n_terms} terms + integral tail):"
          f" {split.total:.5f} < 10")

    print("\n3. nested chain away from the null (p = 4 example)")
    mu = np.array([2.0, 1.0, 0.5, 0.0])
    rep = general_theta_bound(mu)
    print(f"   windowed  {rep.windowed:8.4f}")
    print(f"   alternate {rep.alternate:8.4f}")
    print(f"   worst-case cap sqrt(2p) p (p+1) = {rep.cap:.1f}")

    print("\n4. all-subsets search: the sharp constant")
    c = best_subset_constant()
    print(f"   min over delta of the penalty curve: {c.value:.6f}"
          f" at delta = {c.delta:.4f}")
    print(f"   per-sigma^2 convention: {c.half_value:.6f}")
    for d in (0.05, c.delta, 0.8):
        print(f"   curve({d:.4f}) = {best_subset_penalty_curve(d):.4f}")


if __name__ == "__main__":
    main()
