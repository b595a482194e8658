"""Soft thresholding with a data-driven threshold chosen by SURE.

The tuned threshold is always one of the absolute order statistics of the
data (or zero), so tuning is an exact finite search, not a grid
approximation.  The plug-in degrees of freedom convention is the strict
active-set count #{|y_i| > s}; the order-statistic search below evaluates
SURE with exactly that convention, including at tied or zero values.
The oracle threshold minimizes the closed-form fixed-s risk (Donoho &
Johnstone, 1995, JASA) by bisecting its closed-form slope.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DomainError,
    EstimatorFamily,
    TunedBatch,
    _CACHE_VALUES,
    _as_float_vector,
    _bisect_sign_change,
    _check_count,
    _check_noise,
    _check_tuning_value,
    _normal_cdf,
    _normal_pdf,
    _row_blocks,
)

__all__ = [
    "soft_threshold",
    "SoftThreshFamily",
    "soft_threshold_risk",
    "Jump",
    "scan_jumps",
]


def soft_threshold(y, s):
    """sign(y) * (|y| - s)_+ elementwise; s is one value, and may be +inf (all zeros)."""
    s = _check_tuning_value(s, "threshold")
    y = np.asarray(y, dtype=float)
    if math.isinf(s):
        return np.zeros_like(y)
    return np.sign(y) * np.maximum(np.abs(y) - s, 0.0)


class SoftThreshFamily(EstimatorFamily):
    """theta_s(y)_i = sign(y_i)(|y_i| - s)_+ in the homoskedastic means model."""

    _s_power = 1

    def __init__(self, n, sigma):
        self.n = _check_count(n, "n", 1)
        self._set_noise(sigma=sigma)

    def estimate(self, s, y):
        return soft_threshold(y, self._check_s(s))

    def naive_df(self, s, y):
        self._check_s(s)
        y = np.asarray(y, dtype=float)
        count = np.sum(np.abs(y) > s, axis=-1)
        return float(count) if count.ndim == 0 else count.astype(float)

    @staticmethod
    def _tuned(Y, sigma):
        # Candidate thresholds per row: the absolute values sorted in
        # descending order, then 0.  With a(1) >= ... >= a(n) >= a(n+1) := 0,
        # the SURE value at s = a(k) is
        #     F(k) = k a(k)^2 + sum_{j>k} a(j)^2 + 2 sigma^2 (k - 1),
        # valid with the strict count whenever k is the first index of a tie
        # group; within a tie group F increases by 2 sigma^2 per step, so
        # taking the first argmin both resolves ties toward the larger
        # threshold and keeps the strict-count bookkeeping exact.
        # Every step acts row by row, so the batch goes through in chunks
        # whose (rows, n + 1) temporaries hold at most `core._CACHE_VALUES`
        # values.
        reps, n = Y.shape
        k = np.arange(1, n + 2)
        penalty = 2.0 * sigma**2 * (k - 1)
        s_hat, sure_min, pick = np.empty(reps), np.empty(reps), np.empty(reps, dtype=np.intp)
        theta = np.empty_like(Y)
        for rows in _row_blocks(reps, n + 1, _CACHE_VALUES):
            y = Y[rows]
            a = np.sort(np.abs(y), axis=1)[:, ::-1]
            a = np.concatenate([a, np.zeros((a.shape[0], 1))], axis=1)
            sq = a**2
            # suffix[k] = sum_{j > k} a(j)^2 with k counted 1..n+1.
            suffix = np.concatenate(
                [np.cumsum(sq[:, ::-1], axis=1)[:, ::-1][:, 1:], np.zeros((a.shape[0], 1))],
                axis=1,
            )
            F = k * sq + suffix + penalty
            best = np.argmin(F, axis=1)
            at = np.arange(a.shape[0]), best
            pick[rows], s_hat[rows], sure_min[rows] = best, a[at], F[at]
            np.multiply(np.sign(y), np.maximum(np.abs(y) - s_hat[rows, None], 0.0),
                        out=theta[rows])
        return TunedBatch(
            s_hat=s_hat,
            theta_hat=theta,
            sure_min=sure_min,
            naive_df_at_shat=pick.astype(float),
        )

    def _oracle_at(self, theta0, sigma):
        """Exact-risk threshold: the lowest local minimum of the closed-form
        fixed-s risk, compared with the fully-shrunk endpoint s = +inf.

        The slope of the risk in s (`_soft_threshold_risk_slope`) is
        evaluated on a 241-point grid over s/sigma in [0, max|theta0|/sigma
        + 6].  Every - to + sign change between grid neighbours is bisected
        down to adjacent doubles, and the exact risk is evaluated at both of
        them and at the two ends of the grid; the lowest wins (the smaller s
        on a tie).
        """
        base = self.n * sigma**2

        def err(s):
            return base + float(np.sum(soft_threshold_risk(theta0, sigma, s)))

        def slope(s):
            return float(np.sum(_soft_threshold_risk_slope(theta0, sigma, s)))

        top = (np.max(np.abs(theta0)) / sigma if theta0.size else 0.0) + 6.0
        grid = sigma * np.linspace(0.0, top, 241)
        rising = np.array([slope(s) >= 0.0 for s in grid])
        candidates = [grid[0], grid[-1]]
        for k in np.flatnonzero(~rising[:-1] & rising[1:]):
            candidates += _bisect_sign_change(slope, grid[k], grid[k + 1])
        best, s0 = min((err(s), float(s)) for s in candidates)
        err_inf = base + float(np.sum(theta0**2))
        return (math.inf, err_inf) if err_inf < best else (s0, best)


def soft_threshold_risk(theta0, sigma, s):
    """Exact per-coordinate risk E(theta_s(Y)_i - theta0_i)^2 at fixed s.

    With lam = s/sigma and m = theta0_i/sigma,

        risk / sigma^2 = (1 + lam^2)(1 - D) + m^2 D
                         - (lam + m) phi(lam - m) - (lam - m) phi(lam + m),

    D = Phi(lam - m) - Phi(-lam - m).  Returns an array matching the vector
    theta0.  Raises DomainError on a non-finite theta0, a bad sigma (see
    `core._check_noise`), or an s that `core._check_tuning_value` refuses (+inf is allowed).
    """
    theta0 = _as_float_vector(theta0, "theta0")
    sigma = _check_noise(sigma, None)[0]
    s = _check_tuning_value(s, "threshold")
    if math.isinf(s):
        return theta0**2
    lam = s / sigma
    m = theta0 / sigma
    D = _normal_cdf(lam - m) - _normal_cdf(-lam - m)
    val = (
        (1.0 + lam**2) * (1.0 - D)
        + m**2 * D
        - (lam + m) * _normal_pdf(lam - m)
        - (lam - m) * _normal_pdf(lam + m)
    )
    return sigma**2 * val


def _soft_threshold_risk_slope(theta0, sigma, s):
    """d/ds of `soft_threshold_risk` at a finite s, per coordinate.

    In that function's notation the slope is

        2 sigma [lam (1 - D) - phi(lam - m) - phi(lam + m)],

    with 1 - D = Phi(m - lam) + Phi(-lam - m) summed from its two tails, so
    it keeps its relative precision where both are small.  The arguments
    are taken as checked.
    """
    lam, m = s / sigma, theta0 / sigma
    tails = _normal_cdf(m - lam) + _normal_cdf(-lam - m)
    return 2.0 * sigma * (lam * tails - _normal_pdf(lam - m) - _normal_pdf(lam + m))


@dataclass
class Jump:
    """A discontinuity of one tuned-fit coordinate along a data path."""

    location: float
    size: float
    s_left: float
    s_right: float


def scan_jumps(family, y_base, coord, t_grid):
    """Locate discontinuities of t -> theta_hat(y(t))_coord by bisection.

    y(t) is y_base with coordinate `coord` replaced by t.  The tuned fit can
    only jump where the selected SURE candidate switches, which always moves
    the plug-in df, so grid cells with constant naive df are skipped.
    Flagged cells are bisected until every cell's midpoint rounds to one of
    its ends, as it does once they are adjacent doubles; each step halves
    every open cell, so this ends.  Jumps no larger than 1e-6 times the
    noise sd of coordinate `coord` are discarded.  Cells containing several
    switches resolve to the one with the largest fit gap; use a grid fine
    enough to separate switches of interest.  Returns a list of `Jump`.
    """
    coord = _check_count(coord, "coord", 0)
    if coord >= family.n:
        raise DomainError(f"coord {coord} outside data of length {family.n}")
    y_base = _as_float_vector(y_base, "y_base", family.n)
    t_grid = _as_float_vector(t_grid, "t_grid")
    if np.any(np.diff(t_grid) <= 0):
        raise DomainError("t_grid must be strictly increasing")
    cut = 1e-6 * (family.sigma if family.sigmas is None else family.sigmas[coord])

    def state_at(ts):
        # Rows t, theta_hat[coord], s_hat and naive df, one column per t.
        Y = np.tile(y_base, (len(ts), 1))
        Y[:, coord] = ts
        fit = family.tune_batch(Y)
        return np.stack([ts, fit.theta_hat[:, coord], fit.s_hat, fit.naive_df_at_shat])

    grid = state_at(t_grid)
    cells = np.flatnonzero(grid[3, 1:] != grid[3, :-1])
    lo, hi = grid[:, cells], grid[:, cells + 1]
    # A midpoint equal to an end would retune that end, which a tuner working
    # row by row gives back bit for bit: the step would move nothing.
    while np.any((lo[0] < (mid := 0.5 * (lo[0] + hi[0]))) & (mid < hi[0])):
        mid = state_at(mid)
        in_left = mid[3] != lo[3]
        in_right = hi[3] != mid[3]
        bigger_left = np.abs(mid[1] - lo[1]) >= np.abs(hi[1] - mid[1])
        go_left = in_left & (~in_right | bigger_left)
        lo, hi = np.where(go_left, lo, mid), np.where(go_left, mid, hi)
    return [Jump(location=0.5 * (a[0] + b[0]), size=float(b[1] - a[1]),
                 s_left=float(a[2]), s_right=float(b[2]))
            for a, b in zip(lo.T, hi.T) if abs(b[1] - a[1]) > cut]
