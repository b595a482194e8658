#!/usr/bin/env python3
"""Two geometric ingredients behind the selection-cost bounds.

Gaussian surface area of a ball boundary.  The excess df of a two-model
comparison concentrates on the decision boundary, a sphere in data space,
and its size is the Gaussian measure of that sphere.  In one dimension the
area is phi(c - r) + phi(c + r); in any dimension it is 2 r times the
noncentral chi-square density at r^2, which the library evaluates exactly.
Whatever the center or radius, the answer never exceeds 1 in the convex-set
normalization used here.

Cyclic tours with just enough fuel.  Summing the boundary terms over a
nested chain needs a combinatorial lemma: a cyclic sequence of nonnegative
weights totaling 2d can always be started somewhere so that every partial
sum stays within budget, and for generic weights that start is unique.
"""

import math

import numpy as np

from suretune import gas_stations_rotation, gaussian_surface_area_ball


def phi(t):
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


rng = np.random.default_rng(41)

print("Gaussian surface area of |x - c| = r")
print(f"{'d':>3} {'center':>22} {'r':>5} {'value':>8}")
cases = [
    (np.array([0.0]), 1.0),
    (np.array([2.5]), 1.0),
    (np.zeros(3), 1.7),
    (np.array([1.0, 0.0, 0.0]), 1.7),
    (rng.normal(0.0, 1.0, 6), 2.4),
]
for center, r in cases:
    area = gaussian_surface_area_ball(center, r)
    c_str = np.array2string(center, precision=2) if center.size <= 3 \
        else f"random, |c|={np.linalg.norm(center):.2f}"
    print(f"{center.size:3d} {c_str:>22} {r:5.2f} {area:8.5f}")

check = phi(2.5 - 1.0) + phi(2.5 + 1.0)
print(f"\nd=1 sanity: phi(1.5) + phi(3.5) = {check:.5f} (matches row 2)")

print("\ncyclic tour lemma on random weight vectors")
for d in (3, 5, 8):
    w = rng.dirichlet(np.ones(d)) * 2.0 * d
    rot = gas_stations_rotation(w)
    shifted = np.roll(w, -rot.start)
    margins = 2.0 * np.arange(1, d + 1) - np.cumsum(shifted)
    # the binding leg makes the smallest margin 0 up to rounding
    print(f"  d={d}: start at leg {rot.start}"
          f" (unique: {rot.multiplicity == 1});"
          f" min budget margin {margins.min():+.1e}")

w = np.full(4, 2.0)
rot = gas_stations_rotation(w)
print(f"  all-equal weights: every start works, multiplicity {rot.multiplicity}")
