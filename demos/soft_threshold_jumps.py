#!/usr/bin/env python3
"""Why the naive df of a tuned soft threshold is a lower bound.

Fix every coordinate of the data except one and slide that coordinate
along a grid.  The SURE-tuned soft-threshold fit of the moving coordinate
is then a step-plus-ramp function whose discontinuities all jump UPWARD
(toward the data).  Nonnegative jumps make the rule's divergence exceed
its plug-in value, so E[#{kept coordinates}] understates the true degrees
of freedom.

The n = 1 case is fully explicit and makes the mechanism visible: below
t = sqrt(2) sigma the observation is zeroed, above it is kept unchanged,
and at the crossing the fit leaps by sqrt(2) sigma.  This script prints
that scan, then repeats the experiment on a random 8-vector, and finally
runs the stochastic lower-bound check.
"""

import numpy as np

from suretune import GaussianModel, SoftThreshFamily, mc_edf, scan_jumps


def describe(jumps, label):
    print(f"{label}: {len(jumps)} jump(s)")
    for j in jumps:
        print(f"  at t = {j.location:+.4f}  size {j.size:+.4f}"
              f"  (threshold {j.s_left:.3f} -> {j.s_right:.3f})")
    if not jumps:
        print("  (none on this grid)")


def main():
    fam1 = SoftThreshFamily(1, 1.0)
    grid = np.linspace(0.0, 3.0, 1201)
    describe(scan_jumps(fam1, np.zeros(1), 0, grid), "single observation, t in [0, 3]")
    print("  -> the fit is 0 below sqrt(2) ~ 1.4142 and t above it\n")

    rng = np.random.default_rng(11)
    y = rng.normal(0.0, 1.5, 8)
    fam8 = SoftThreshFamily(8, 1.0)
    grid = np.linspace(-4.0, 4.0, 1601)
    worst = 0.0
    for coord in range(8):
        jumps = scan_jumps(fam8, y, coord, grid)
        if coord < 3:
            describe(jumps, f"coordinate {coord} of a random 8-vector")
        if jumps:
            worst = min(worst, min(j.size for j in jumps))
    print(f"\nsmallest jump seen: {worst:+.6f} (never negative)")

    model = GaussianModel(np.concatenate([np.full(3, 4.0), np.zeros(37)]), sigma=1.0)
    report = mc_edf(SoftThreshFamily(model.n, 1.0), model, reps=2000, seed=5)
    print("\nstochastic check, 3 strong coordinates in 40:")
    print(f"  df minus E[#kept] = {report.value:+.3f} (se {report.std_error:.3f})")
    print(f"  lower bound holds: {report.value >= -4.0 * report.std_error}")


if __name__ == "__main__":
    main()
