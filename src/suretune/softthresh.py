"""Soft thresholding with a data-driven threshold chosen by SURE.

The tuned threshold is always one of the absolute order statistics of the
data (or zero), so tuning is an exact finite search, not a grid
approximation.  The plug-in degrees of freedom convention is the strict
active-set count #{|y_i| > s}; the order-statistic search below evaluates
SURE with exactly that convention, including at tied or zero values.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DomainError,
    EstimatorFamily,
    OracleTuning,
    TunedBatch,
    TuningDomain,
    _check_batch,
    _check_count,
    _normal_pdf,
    mc_edf,
)

__all__ = [
    "soft_threshold",
    "SoftThreshFamily",
    "soft_threshold_risk",
    "Jump",
    "JumpScan",
    "scan_jumps",
    "df_lower_bound_check",
]


def soft_threshold(y, s):
    """sign(y) * (|y| - s)_+ elementwise; s may be +inf (all zeros)."""
    if s < 0:
        raise DomainError("threshold must be nonnegative")
    y = np.asarray(y, dtype=float)
    if math.isinf(s):
        return np.zeros_like(y)
    return np.sign(y) * np.maximum(np.abs(y) - s, 0.0)


class SoftThreshFamily(EstimatorFamily):
    """theta_s(y)_i = sign(y_i)(|y_i| - s)_+ in the homoskedastic means model."""

    def __init__(self, n, sigma):
        self.n = _check_count(n, "n", 1)
        self._set_noise(sigma=sigma)
        self.domain = TuningDomain(kind="continuous", lower=0.0, upper=math.inf)

    def estimate(self, s, y):
        return soft_threshold(y, s)

    def naive_df(self, s, y):
        y = np.asarray(y, dtype=float)
        count = np.sum(np.abs(y) > s, axis=-1)
        return float(count) if count.ndim == 0 else count.astype(float)

    def tune_batch(self, Y):
        # Candidate thresholds per row: the absolute values sorted in
        # descending order, then 0.  With a(1) >= ... >= a(n) >= a(n+1) := 0,
        # the SURE value at s = a(k) is
        #     F(k) = k a(k)^2 + sum_{j>k} a(j)^2 + 2 sigma^2 (k - 1),
        # valid with the strict count whenever k is the first index of a tie
        # group; within a tie group F increases by 2 sigma^2 per step, so
        # taking the first argmin both resolves ties toward the larger
        # threshold and keeps the strict-count bookkeeping exact.
        Y = _check_batch(Y, self.n)
        reps, n = Y.shape
        a = np.sort(np.abs(Y), axis=1)[:, ::-1]
        a = np.concatenate([a, np.zeros((reps, 1))], axis=1)
        sq = a**2
        # suffix[k] = sum_{j > k} a(j)^2 with k counted 1..n+1.
        suffix = np.concatenate(
            [np.cumsum(sq[:, ::-1], axis=1)[:, ::-1][:, 1:], np.zeros((reps, 1))], axis=1
        )
        k = np.arange(1, n + 2)
        F = k * sq + suffix + 2.0 * self.sigma**2 * (k - 1)
        pick = np.argmin(F, axis=1)
        rows = np.arange(reps)
        s_hat = a[rows, pick]
        theta = np.sign(Y) * np.maximum(np.abs(Y) - s_hat[:, None], 0.0)
        return TunedBatch(
            s_hat=s_hat,
            theta_hat=theta,
            sure_min=F[rows, pick],
            naive_df_at_shat=pick.astype(float),
        )

    def oracle(self, model):
        """Exact-risk threshold via the closed-form fixed-s risk.

        A 241-point grid over s/sigma in [0, max|theta0|/sigma + 6], then
        scipy's bounded scalar minimizer (`minimize_scalar(method="bounded")`)
        between the grid neighbours of the best point; the fully-shrunk
        endpoint s = +inf is compared explicitly.
        """
        from scipy.optimize import minimize_scalar

        self._check_model(model)
        theta0, sigma = model.theta0, model.sigma
        base = self.n * sigma**2

        def err(s):
            return base + float(np.sum(soft_threshold_risk(theta0, sigma, s)))

        top = (np.max(np.abs(theta0)) / sigma if theta0.size else 0.0) + 6.0
        grid = sigma * np.linspace(0.0, top, 241)
        vals = np.array([err(s) for s in grid])
        k = int(np.argmin(vals))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, len(grid) - 1)]
        res = minimize_scalar(err, bounds=(lo, hi), method="bounded")
        s0, best = float(res.x), float(res.fun)
        err_inf = base + float(np.sum(theta0**2))
        if err_inf < best:
            return OracleTuning(s0=math.inf, err=err_inf)
        return OracleTuning(s0=s0, err=best)


def soft_threshold_risk(theta0, sigma, s):
    """Exact per-coordinate risk E(theta_s(Y)_i - theta0_i)^2 at fixed s.

    With lam = s/sigma and m = theta0_i/sigma,

        risk / sigma^2 = (1 + lam^2)(1 - D) + m^2 D
                         - (lam + m) phi(lam - m) - (lam - m) phi(lam + m),

    D = Phi(lam - m) - Phi(-lam - m).  Returns an array matching theta0.
    Raises DomainError on a non-finite theta0, a sigma that is not positive
    and finite, or a negative or NaN s (s = +inf is allowed).
    """
    from scipy.special import ndtr

    theta0 = np.asarray(theta0, dtype=float)
    if not np.all(np.isfinite(theta0)):
        raise DomainError("theta0 must be finite")
    if not (math.isfinite(sigma) and sigma > 0):
        raise DomainError("sigma must be positive and finite")
    if not s >= 0:
        raise DomainError("threshold must be nonnegative (+inf allowed), not NaN")
    if math.isinf(s):
        return theta0**2
    lam = s / sigma
    m = theta0 / sigma
    D = ndtr(lam - m) - ndtr(-lam - m)
    val = (
        (1.0 + lam**2) * (1.0 - D)
        + m**2 * D
        - (lam + m) * _normal_pdf(lam - m)
        - (lam - m) * _normal_pdf(lam + m)
    )
    return sigma**2 * val


@dataclass
class Jump:
    """A discontinuity of one tuned-fit coordinate along a data path."""

    location: float
    size: float
    s_left: float
    s_right: float


@dataclass
class JumpScan:
    """Grid trace plus the refined jumps found along it."""

    t_grid: np.ndarray
    theta_coord: np.ndarray
    s_hat: np.ndarray
    naive_df: np.ndarray
    jumps: list


def scan_jumps(family, y_base, coord, t_grid):
    """Locate discontinuities of t -> theta_hat(y(t))_coord by bisection.

    y(t) is y_base with coordinate `coord` replaced by t.  The tuned fit can
    only jump where the selected SURE candidate switches, which always moves
    the plug-in df, so grid cells with constant naive df are skipped.
    Flagged cells are bisected 60 times, to floating point resolution; jumps
    no larger than 1e-6 sigma are discarded.  Cells containing
    several switches resolve to the one with the largest fit gap; use a grid
    fine enough to separate switches of interest.
    """
    y_base = np.asarray(y_base, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0):
        raise DomainError("t_grid must be strictly increasing")

    def batch_at(ts):
        Y = np.tile(y_base, (len(ts), 1))
        Y[:, coord] = ts
        fit = family.tune_batch(Y)
        return fit.theta_hat[:, coord], fit.s_hat, fit.naive_df_at_shat

    th, s, df = batch_at(t_grid)
    cells = np.nonzero(df[1:] != df[:-1])[0]
    lo, hi = t_grid[cells].copy(), t_grid[cells + 1].copy()
    th_lo, th_hi = th[cells].copy(), th[cells + 1].copy()
    s_lo, s_hi = s[cells].copy(), s[cells + 1].copy()
    df_lo, df_hi = df[cells].copy(), df[cells + 1].copy()
    for _ in range(60):
        if lo.size == 0:
            break
        mid = 0.5 * (lo + hi)
        th_m, s_m, df_m = batch_at(mid)
        in_left = df_m != df_lo
        in_right = df_hi != df_m
        bigger_left = np.abs(th_m - th_lo) >= np.abs(th_hi - th_m)
        go_left = in_left & (~in_right | bigger_left)
        hi = np.where(go_left, mid, hi)
        th_hi = np.where(go_left, th_m, th_hi)
        s_hi = np.where(go_left, s_m, s_hi)
        df_hi = np.where(go_left, df_m, df_hi)
        lo = np.where(go_left, lo, mid)
        th_lo = np.where(go_left, th_lo, th_m)
        s_lo = np.where(go_left, s_lo, s_m)
        df_lo = np.where(go_left, df_lo, df_m)
    jumps = []
    for j in range(lo.size):
        size = th_hi[j] - th_lo[j]
        if abs(size) > 1e-6 * family.sigma:
            jumps.append(
                Jump(
                    location=0.5 * (lo[j] + hi[j]),
                    size=float(size),
                    s_left=float(s_lo[j]),
                    s_right=float(s_hi[j]),
                )
            )
    return JumpScan(t_grid=t_grid, theta_coord=th, s_hat=s, naive_df=df, jumps=jumps)


def df_lower_bound_check(model, *, reps=2000, seed=0):
    """Check that the strict active-set count does not overstate tuned df.

    Estimates the excess degrees of freedom of SURE-tuned soft thresholding
    by paired Monte Carlo and reports whether the estimate is above
    -4 standard errors, i.e. consistent with df >= E[count].
    """
    if model.is_heteroskedastic:
        raise DomainError("soft thresholding here assumes homoskedastic noise")
    fam = SoftThreshFamily(model.n, model.sigma)
    report = mc_edf(fam, model, reps=reps, seed=seed)
    return report, report.value >= -4.0 * report.std_error
