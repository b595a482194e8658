"""Excess degrees of freedom for smooth families by implicit differentiation.

For a family theta(s, y) that is smooth in both arguments, with SURE
criterion G(s, y) minimized at an interior stationary point s_hat(y), the
tuned rule Theta(y) = theta(s_hat(y), y) picks up divergence beyond the
plug-in term through the data dependence of s_hat.  Differentiating the
stationarity condition dG/ds(s_hat(y), y) = 0 gives

    d s_hat / d y_i = - (d2G/dy_i ds) / (d2G/ds2),

so the per-realization excess-df statistic is

    - (d2G/ds2)^{-1} * sum_i (d theta_i/ds) (d2G/dy_i ds),

all evaluated at (s_hat, y).  Averaged over draws this estimates the excess
degrees of freedom of the tuned rule.

`SmoothFamilyHooks` packages the required callables; any derivative hook
left unset falls back to central differences with a relative step.  Hooks
take tuning values of shape (reps,) with data of shape (reps, n), so
`_implicit_diff_stats` prices a whole batch of draws in a few array
evaluations; `edf_implicit_diff` is its one-row case.  A smooth family
carries its closed-form hooks as `family.hooks`: `ShrinkMeansFamily` for
homoskedastic shrinkage, `HeteroShrinkFamily` for per-coordinate shrinkage
under heteroskedastic noise, and, through the singular value rotation,
`RidgeRotation(X, y).family` for ridge regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DomainError,
    EdfReport,
    EstimatorFamily,
    OracleTuning,
    ShapeError,
    TunedBatch,
    TuningDomain,
    _check_batch,
    _check_noise,
    _rank_basis,
)

__all__ = [
    "CurvatureError",
    "StationarityError",
    "SmoothFamilyHooks",
    "edf_implicit_diff",
    "HeteroShrinkFamily",
    "tune_hetero_shrink",
    "exopt_hetero_shrink",
    "RidgeRotation",
    "ridge_as_hetero",
]

_REL_STEP = 1e-5
_CURV_STEP = np.finfo(float).eps ** 0.25  # balances rounding eps/h^2 against truncation h^2


class StationarityError(DomainError):
    """The supplied tuning value is not an interior stationary point."""


class CurvatureError(DomainError):
    """The criterion has nonpositive curvature at the tuning value."""


@dataclass
class SmoothFamilyHooks:
    """Callables describing a smooth family and its SURE criterion.

    Every callable broadcasts over a batch: it takes tuning values s of
    shape (...) and data y of shape (..., n), one row per tuning value
    (a scalar s with one vector y also works).  `edf_implicit_diff` too
    passes a one-row batch, so reduce over the last axis, not ``len(y)``.

    Parameters
    ----------
    theta : callable
        ``theta(s, y) -> (..., n) array``, the estimate at tuning value s.
    g : callable
        ``g(s, y) -> (...) array``, the SURE criterion being minimized.
    dtheta_ds, dg_ds, d2g_ds2, d2g_dyds : callable, optional
        Closed-form derivatives, of shape (..., n) for `dtheta_ds` and
        `d2g_dyds` and (...) for the others.  Any left as None is replaced
        by a central difference of `theta` or `g` with step h * (1 + |value|)
        in each differenced argument: h = 1e-5 for first derivatives and
        eps**0.25 ~ 1.2e-4 for the second derivatives of `g`.
    """

    theta: Callable
    g: Callable
    dtheta_ds: Callable = None
    dg_ds: Callable = None
    d2g_ds2: Callable = None
    d2g_dyds: Callable = None

    def eval_dtheta_ds(self, s, y):
        if self.dtheta_ds is not None:
            return np.asarray(self.dtheta_ds(s, y), dtype=float)
        s, h = _step(s)
        return (np.asarray(self.theta(s + h, y), dtype=float)
                - np.asarray(self.theta(s - h, y), dtype=float)) / (2.0 * h[..., None])

    def eval_dg_ds(self, s, y):
        if self.dg_ds is not None:
            return np.asarray(self.dg_ds(s, y), dtype=float)
        s, h = _step(s)
        return (self.g(s + h, y) - self.g(s - h, y)) / (2.0 * h)

    def eval_d2g_ds2(self, s, y):
        if self.d2g_ds2 is not None:
            return np.asarray(self.d2g_ds2(s, y), dtype=float)
        s, h = _step(s, _CURV_STEP)
        return (self.g(s + h, y) - 2.0 * self.g(s, y) + self.g(s - h, y)) / h**2

    def eval_d2g_dyds(self, s, y):
        if self.d2g_dyds is not None:
            return np.asarray(self.d2g_dyds(s, y), dtype=float)
        y = np.asarray(y, dtype=float)
        s, hs = _step(s, _CURV_STEP)
        out = np.empty(np.broadcast_shapes(s.shape + (1,), y.shape))
        work = y.copy()
        # One column of the whole batch at a time.
        for i in range(y.shape[-1]):
            col = y[..., i]
            hy = _CURV_STEP * (1.0 + np.abs(col))
            work[..., i] = col + hy
            pp, pm = self.g(s + hs, work), self.g(s - hs, work)
            work[..., i] = col - hy
            mp, mm = self.g(s + hs, work), self.g(s - hs, work)
            work[..., i] = col
            out[..., i] = (pp - pm - mp + mm) / (4.0 * hs * hy)
        return out


def _step(s, rel=_REL_STEP):
    """Tuning values as an array, and their central-difference steps."""
    s = np.asarray(s, dtype=float)
    return s, rel * (1.0 + np.abs(s))


def _implicit_diff_stats(hooks, Y, s_hat):
    """Implicit-diff excess-df statistic for every row of Y; shape (reps,).

    Rows tuned to the boundary (s_hat = +inf) give 0: the tuned rule is
    locally constant there, so the selection adds no divergence.  Every
    other row must be a stationary point, |dG/ds| <= 1e-6 * max(1, |G|),
    with d2G/ds2 > 0; the first row that is not raises `StationarityError`
    or `CurvatureError` naming it.
    """
    Y = np.asarray(Y, dtype=float)
    s_hat = np.asarray(s_hat, dtype=float)
    finite, boundary = np.isfinite(s_hat), s_hat == math.inf
    # Non-finite rows are evaluated at s = 0 and masked out, so Y is never copied.
    s = np.where(finite, s_hat, 0.0)
    slope = np.where(finite, hooks.eval_dg_ds(s, Y), math.nan)
    scale = np.maximum(1.0, np.abs(hooks.g(s, Y)))
    stuck = ~boundary & ~(np.abs(slope) <= 1e-6 * scale)
    if stuck.any():
        r = int(np.argmax(stuck))
        raise StationarityError(
            f"row {r}: dG/ds = {slope[r]:.3e} at s_hat = {s_hat[r]:.6g}; not a stationary point"
        )
    curv = hooks.eval_d2g_ds2(s, Y)
    flat = ~boundary & ~(curv > 0)
    if flat.any():
        r = int(np.argmax(flat))
        raise CurvatureError(f"row {r}: d2G/ds2 = {curv[r]:.3e} at s_hat = {s_hat[r]:.6g}")
    cross = hooks.eval_d2g_dyds(s, Y)
    dtheta = hooks.eval_dtheta_ds(s, Y)
    # Boundary rows skipped the curvature check, so it may be zero there.
    value = -np.sum(dtheta * cross, axis=-1) / np.where(boundary, 1.0, curv)
    return np.where(boundary, 0.0, value)


def edf_implicit_diff(hooks, y, s_hat):
    """Excess-df statistic at one realization, by implicit differentiation.

    Row 0 of `_implicit_diff_stats` on the one-row batch ``y[None]``.

    Parameters
    ----------
    hooks : SmoothFamilyHooks
        The family and criterion, with whatever derivatives are available.
    y : array
        The data vector at which the family was tuned.
    s_hat : float
        The tuned value; must be a finite interior stationary point of
        ``s -> g(s, y)``.

    Returns
    -------
    EdfReport
        ``method="implicit_diff"`` with ``std_error=0`` (the statistic is
        deterministic given y; averaging over realizations is the caller's
        business).

    Raises
    ------
    StationarityError
        If s_hat is infinite or dG/ds is not ~0 there.
    CurvatureError
        If d2G/ds2 is not strictly positive there.  Failed checks name row 0.
    """
    if not math.isfinite(s_hat):
        raise StationarityError("implicit differentiation needs a finite interior s_hat")
    value = _implicit_diff_stats(hooks, np.asarray(y, dtype=float)[None], [s_hat])[0]
    return EdfReport(method="implicit_diff", value=float(value), std_error=0.0, reps=1)


def _hetero_sure(s, Y2, sig2, order=0):
    """Scaled SURE of per-coordinate shrinkage (order 0) or its first or
    second derivative in s, at s of shape (...) for squared data Y2 of
    shape (..., n); shape (...).
    """
    s = np.asarray(s, dtype=float)[..., None]
    u = sig2 * s
    if order == 0:
        return (np.sum(Y2 * sig2 * s**2 / (1.0 + u) ** 2, axis=-1)
                + 2.0 * np.sum(1.0 / (1.0 + u), axis=-1))
    if order == 1:
        return np.sum(2.0 * Y2 * sig2 * s / (1.0 + u) ** 3 - 2.0 * sig2 / (1.0 + u) ** 2, axis=-1)
    return (np.sum(2.0 * Y2 * sig2 * (1.0 - 2.0 * u) / (1.0 + u) ** 4, axis=-1)
            + np.sum(4.0 * sig2**2 / (1.0 + u) ** 3, axis=-1))


class HeteroShrinkFamily(EstimatorFamily):
    """Per-coordinate shrinkage y_i/(1 + sigma_i^2 s) with scaled SURE.

    The plug-in df here is the bare divergence sum_i 1/(1 + sigma_i^2 s);
    the scaled SURE convention adds it with factor 2, no sigma^2.
    """

    def __init__(self, sigmas):
        self._set_noise(sigmas=sigmas)
        self.n = self.sigmas.shape[0]
        if self.n < 1:
            raise DomainError("n must be at least 1")
        self.domain = TuningDomain(kind="continuous", lower=0.0, upper=math.inf)
        self._sig2 = self.sigmas**2
        lo, hi = 1e-4 / float(np.mean(self._sig2)), 1e8 / float(np.min(self._sig2))
        points = 1 + math.ceil(63.0 / 12.0 * math.log10(hi / lo))
        self._grid = np.concatenate([[0.0], np.geomspace(lo, hi, points)])

    @property
    def hooks(self):
        """Closed-form hooks for y_i/(1 + sigma_i^2 s) and its scaled SURE."""
        sig2 = self._sig2

        def d2g_dyds(s, y):
            s = np.asarray(s, dtype=float)[..., None]
            return 4.0 * np.asarray(y, dtype=float) * sig2 * s / (1.0 + sig2 * s) ** 3

        def dtheta_ds(s, y):
            u = sig2 * np.asarray(s, dtype=float)[..., None]
            return -np.asarray(y, dtype=float) * sig2 / (1.0 + u) ** 2

        return SmoothFamilyHooks(
            theta=lambda s, y: y / (1.0 + sig2 * np.asarray(s, dtype=float)[..., None]),
            g=lambda s, y: _hetero_sure(s, np.square(y), sig2),
            dg_ds=lambda s, y: _hetero_sure(s, np.square(y), sig2, 1),
            d2g_ds2=lambda s, y: _hetero_sure(s, np.square(y), sig2, 2),
            dtheta_ds=dtheta_ds,
            d2g_dyds=d2g_dyds,
        )

    def estimate(self, s, y):
        y = np.asarray(y, dtype=float)
        if math.isinf(s):
            return np.zeros_like(y)
        return y / (1.0 + self._sig2 * s)

    def naive_df(self, s, y):
        if math.isinf(s):
            return 0.0
        return float(np.sum(1.0 / (1.0 + self._sig2 * s)))

    def tune_batch(self, Y):
        """Minimize scaled SURE on every row of Y, tracking modality.

        The search grid is s = 0 and a log grid from 1e-4/mean(sigma_i^2)
        to 1e8/min(sigma_i^2) at 63 intervals per 12 decades.  Each grid
        local minimum brackets a refinement: safeguarded Newton on the
        closed-form slope where it changes sign, golden-section search in
        log1p(s) otherwise.  Refinements within 1e-6 in log1p(s) count as
        one minimum; `multimodal` flags rows with more than one.  Walking
        the minima in increasing s, the first at or below the s = +inf value
        replaces it, later ones only when lower by 1e-12 relative, so ties
        go to the smallest finite s.
        """
        Y = _check_batch(Y, self.n)
        best_s, best_val, kept = self._minimize(Y**2)
        shrunk = np.isinf(best_s)
        shrink = 1.0 + self._sig2 * np.where(shrunk, 0.0, best_s)[:, None]
        theta = Y / shrink
        theta[shrunk] = 0.0
        df = np.where(shrunk, 0.0, np.sum(1.0 / shrink, axis=1))
        return TunedBatch(s_hat=best_s, theta_hat=theta, sure_min=best_val,
                          naive_df_at_shat=df, multimodal=kept > 1)

    def _minimize(self, Y2):
        """(s_hat, SURE minimum, number of distinct minima) of every row of
        squared data Y2, by the search `tune_batch` describes."""
        sig2, grid = self._sig2, self._grid
        reps = Y2.shape[0]
        u = grid[:, None] * sig2
        weights = sig2 * grid[:, None] ** 2 / (1.0 + u) ** 2
        vals = Y2 @ weights.T + 2.0 * np.sum(1.0 / (1.0 + u), axis=1)
        g_inf = np.sum(Y2 / sig2, axis=1)

        # Grid local minima.  Left of s = 0 counts as +inf (the slope there is
        # strictly negative, so no minimum sits at s = 0 itself); right of
        # the last point is s = +inf.
        left = np.concatenate([np.full((reps, 1), math.inf), vals[:, :-1]], axis=1)
        right = np.concatenate([vals[:, 1:], g_inf[:, None]], axis=1)
        rows, k = np.nonzero((vals <= left) & (vals <= right))
        edges = np.concatenate([[0.0], grid, [grid[-1] * 1e2]])
        lo, hi, Y2 = edges[k], edges[k + 2], Y2[rows]
        s_star = np.empty(rows.size)
        root = (_hetero_sure(lo, Y2, sig2, 1) < 0.0) & (_hetero_sure(hi, Y2, sig2, 1) > 0.0)
        s_star[root] = _slope_root(lo[root], hi[root], Y2[root], sig2)
        far = ~root
        if far.any():
            s_star[far] = np.expm1(_golden_log1p(np.log1p(lo[far]), np.log1p(hi[far]),
                                                 Y2[far], sig2))
        val = _hetero_sure(s_star, Y2, sig2)

        # Walk each row's candidates in increasing (s, value) order.
        order = np.lexsort((val, s_star, rows))
        rows, s_star, val = rows[order], s_star[order], val[order]
        slot = np.arange(rows.size) - np.searchsorted(rows, rows)
        best_s, best_val = np.full(reps, math.inf), g_inf
        kept, last_log = np.zeros(reps, dtype=int), np.zeros(reps)
        for j in range(int(slot.max(initial=-1)) + 1):
            r, sj, vj = rows[slot == j], s_star[slot == j], val[slot == j]
            lj = np.log1p(sj)
            new = (kept[r] == 0) | (np.abs(lj - last_log[r]) > 1e-6)
            last_log[r[new]] = lj[new]
            r, sj, vj = r[new], sj[new], vj[new]
            kept[r] += 1
            bv = best_val[r]
            take = ((vj < bv - 1e-12 * np.maximum(1.0, np.abs(bv)))
                    | (np.isinf(best_s[r]) & (vj <= bv)))
            best_s[r[take]], best_val[r[take]] = sj[take], vj[take]
        return best_s, best_val, kept

    def oracle(self, model):
        self._check_model(model)
        s0, err, _ = self._minimize((model.theta0**2 + self._sig2)[None])
        return OracleTuning(s0=float(s0[0]), err=float(err[0]))


def _slope_root(a, b, Y2, sig2):
    """Root of the slope in each bracket (a, b) where it goes from - to +.

    Newton steps, bisecting whenever a step leaves the bracket or fails to
    halve the previous one.  The slope stays negative at the left end, so
    the root found is a local minimum of the criterion.  Pairs leave the
    iteration as they converge.
    """
    x, step_old, live = 0.5 * (a + b), b - a, np.arange(a.size)
    root = x.copy()
    for _ in range(200):
        f, fp = _hetero_sure(x, Y2, sig2, 1), _hetero_sure(x, Y2, sig2, 2)
        a, b = np.where(f < 0.0, x, a), np.where(f > 0.0, x, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - f / fp
        ok = (newton >= a) & (newton <= b) & (np.abs(newton - x) <= 0.5 * step_old)
        nxt = np.where(f == 0.0, x, np.where(ok, newton, 0.5 * (a + b)))
        step_old = np.abs(nxt - x)
        root[live] = x = nxt
        go = np.minimum(step_old, b - a) > 4.0 * np.finfo(float).eps * x
        if not go.any():
            break
        live, x, a, b, step_old, Y2 = live[go], x[go], a[go], b[go], step_old[go], Y2[go]
    return root


def _golden_log1p(a, b, Y2, sig2):
    """Golden-section minimum of v -> G(expm1(v)) on each [a, b], to 1e-14."""
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    steps = max(0, math.ceil(math.log(np.max(b - a) / 1e-14) / -math.log(shrink)))
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = _hetero_sure(np.expm1(c), Y2, sig2), _hetero_sure(np.expm1(d), Y2, sig2)
    for _ in range(steps):
        keep_left = fc <= fd
        a, b = np.where(keep_left, a, c), np.where(keep_left, d, b)
        probe = np.where(keep_left, b - shrink * (b - a), a + shrink * (b - a))
        fp = _hetero_sure(np.expm1(probe), Y2, sig2)
        c, d, fc, fd = (np.where(keep_left, probe, d), np.where(keep_left, c, probe),
                        np.where(keep_left, fp, fd), np.where(keep_left, fc, fp))
    return np.where(fc <= fd, c, d)


def tune_hetero_shrink(y, sigmas):
    """Minimize scaled SURE for per-coordinate shrinkage at one data vector.

    The single-vector form of `HeteroShrinkFamily(sigmas).tune_batch`, which
    describes the search and the tie rule.  The returned fit has
    `multimodal=True` when more than one distinct interior local minimum
    was found.
    """
    y = np.asarray(y, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if y.shape != sigmas.shape or y.ndim != 1:
        raise ShapeError("y and sigmas must be matching vectors")
    return HeteroShrinkFamily(sigmas).tune(y)


def exopt_hetero_shrink(y, sigmas, s_hat):
    """Observed excess-optimism statistic for tuned per-coordinate shrinkage.

    Written directly from the ratio form

        2 * sum_i 2 y_i^2 sigma_i^4 s / (1+sigma_i^2 s)^5
        / sum_i (sigma_i^2/(1+sigma_i^2 s)^2) [ y_i^2 (1 - 4 u_i/(1+u_i)
          + 3 u_i^2/(1+u_i)^2) + 2 sigma_i^2/(1+u_i) ],   u_i = sigma_i^2 s,

    which equals exactly twice the implicit-differentiation excess-df
    statistic at the same point (in scaled error units).  Kept as an
    independent code path for cross-checking.
    """
    y = np.asarray(y, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if y.shape != sigmas.shape or y.ndim != 1:
        raise ShapeError("y and sigmas must be matching vectors")
    if not np.isfinite(y).all():
        raise DomainError("y must be finite")
    sig2 = _check_noise(None, sigmas)[1] ** 2
    if not math.isfinite(s_hat) or s_hat <= 0:
        raise StationarityError("the ratio form needs a finite positive s_hat")
    u = sig2 * s_hat
    num = np.sum(4.0 * y**2 * sig2**2 * s_hat / (1.0 + u) ** 5)
    den = np.sum(
        sig2 / (1.0 + u) ** 2
        * (y**2 * (1.0 - 4.0 * u / (1.0 + u) + 3.0 * u**2 / (1.0 + u) ** 2)
           + 2.0 * sig2 / (1.0 + u))
    )
    if den <= 0:
        raise CurvatureError("criterion curvature is nonpositive at s_hat")
    return float(num / den)


class RidgeRotation:
    """Ridge regression recast as heteroskedastic shrinkage of rotated data.

    With X = U diag(d) V^T (positive singular values only) and
    w = diag(1/d) U^T y, the coordinates w_i are independent with variance
    sigma^2/d_i^2, and the ridge fit with penalty t equals the
    per-coordinate shrinkage w_i/(1 + (sigma^2/d_i^2) s) at s = t/sigma^2.
    Tuning s by scaled SURE in the rotated problem therefore tunes the
    ridge penalty.
    """

    def __init__(self, X, y, sigma=1.0):
        self.sigma = _check_noise(sigma, None)[0]
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ShapeError("X must be 2-d with rows matching y")
        _check_batch(y[None, :], y.shape[0])
        self.U, self.d, self.Vt = _rank_basis(X)
        if self.d.size == 0:
            raise DomainError("design matrix has rank zero")
        self.X, self.y = X, y
        self.w = (self.U.T @ y) / self.d
        self.family = HeteroShrinkFamily(self.sigma / self.d)

    def penalty_of(self, s):
        """Ridge penalty t corresponding to the family tuning value s."""
        return self.sigma**2 * s

    def s_of_penalty(self, t):
        return t / self.sigma**2

    def coef(self, s):
        """Ridge coefficient vector at family tuning value s."""
        alpha = self.family.estimate(s, self.w)
        return self.Vt.T @ alpha

    def fitted(self, s):
        alpha = self.family.estimate(s, self.w)
        return self.U @ (self.d * alpha)

    def tune(self):
        """Scaled-SURE tuning of the rotated problem."""
        return self.family.tune(self.w)


def ridge_as_hetero(X, y, sigma=1.0):
    """Build the ridge-to-heteroskedastic-shrinkage rotation for (X, y)."""
    return RidgeRotation(X, y, sigma=sigma)
