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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    DomainError,
    EdfReport,
    EstimatorFamily,
    ShapeError,
    TunedBatch,
    _CACHE_VALUES,
    _as_float_vector,
    _check_batch,
    _check_noise,
    _check_tuning_value,
    _rank_basis,
    _row_blocks,
)

__all__ = [
    "CurvatureError",
    "StationarityError",
    "SmoothFamilyHooks",
    "edf_implicit_diff",
    "HeteroShrinkFamily",
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

    A family, not the caller, may set `unit_noise` to (hooks, e, p): its
    hooks at unit noise, where y and s are 2^-e y and 2^-(p e) s (e and p as
    in `EstimatorFamily._noise_exp` and `_s_power`).  `_implicit_diff_stats`
    runs there, so no square of the caller's units forms.
    """

    theta: Callable
    g: Callable
    dtheta_ds: Callable = None
    dg_ds: Callable = None
    d2g_ds2: Callable = None
    d2g_dyds: Callable = None
    unit_noise: tuple = field(default=None, init=False)

    def _eval_dtheta_ds(self, s, y):
        if self.dtheta_ds is not None:
            return np.asarray(self.dtheta_ds(s, y), dtype=float)
        s, h = _step(s)
        return (np.asarray(self.theta(s + h, y), dtype=float)
                - np.asarray(self.theta(s - h, y), dtype=float)) / (2.0 * h[..., None])

    def _eval_dg_ds(self, s, y):
        if self.dg_ds is not None:
            return np.asarray(self.dg_ds(s, y), dtype=float)
        s, h = _step(s)
        return (self.g(s + h, y) - self.g(s - h, y)) / (2.0 * h)

    def _eval_d2g_ds2(self, s, y):
        if self.d2g_ds2 is not None:
            return np.asarray(self.d2g_ds2(s, y), dtype=float)
        s, h = _step(s, _CURV_STEP)
        return (self.g(s + h, y) - 2.0 * self.g(s, y) + self.g(s - h, y)) / h**2

    def _eval_d2g_dyds(self, s, y):
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
    other row must be an interior stationary point, s_hat > 0 with
    |s dG/ds| <= 1e-6 |G| or a Newton step |dG/ds / d2G/ds2| <= 1e-6 s, and
    have d2G/ds2 > 0; the first row that is not raises `StationarityError`
    or `CurvatureError` naming it.  Both tests keep their verdict when y and
    the noise are scaled together, whatever the units of s and G, so hooks
    with `unit_noise` are evaluated at unit noise, where the derivatives in
    an error message are then given.
    """
    Y = np.asarray(Y, dtype=float)
    s_hat = np.asarray(s_hat, dtype=float)
    finite, boundary = np.isfinite(s_hat), s_hat == math.inf
    # Non-finite rows are evaluated at s = 0 and masked out, so Y is not copied to drop them.
    s = np.where(finite, s_hat, 0.0)
    if hooks.unit_noise is not None:
        hooks, e, power = hooks.unit_noise
        Y, s = np.ldexp(Y, -e), np.ldexp(s, -power * e)
    slope = np.where(finite, hooks._eval_dg_ds(s, Y), math.nan)
    curv = hooks._eval_d2g_ds2(s, Y)
    steady = (np.abs(s * slope) <= 1e-6 * np.abs(hooks.g(s, Y))) | (
        np.abs(slope) <= 1e-6 * s * np.abs(curv))
    stuck = ~boundary & ~((s > 0.0) & steady)
    if stuck.any():
        r = int(np.argmax(stuck))
        raise StationarityError(
            f"row {r}: dG/ds = {slope[r]:.3e} at s_hat = {s_hat[r]:.6g}; not a stationary point"
        )
    flat = ~boundary & ~(curv > 0)
    if flat.any():
        r = int(np.argmax(flat))
        raise CurvatureError(f"row {r}: d2G/ds2 = {curv[r]:.3e} at s_hat = {s_hat[r]:.6g}")
    cross = hooks._eval_d2g_dyds(s, Y)
    dtheta = hooks._eval_dtheta_ds(s, Y)
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
        The tuned value: +inf, the boundary, gives 0, as in every row of the
        batch; otherwise an interior stationary point of ``s -> g(s, y)``.

    Returns
    -------
    EdfReport
        ``method="implicit_diff"`` with ``std_error=0`` (the statistic is
        deterministic given y; averaging over realizations is the caller's
        business).

    Raises
    ------
    StationarityError
        If a finite s_hat is not positive or dG/ds is not ~0 there.
    CurvatureError
        If d2G/ds2 is not strictly positive there.  Failed checks name row 0.
    """
    s_hat = _check_tuning_value(s_hat, "s_hat")
    value = _implicit_diff_stats(hooks, np.asarray(y, dtype=float)[None], [s_hat])[0]
    return EdfReport(method="implicit_diff", value=float(value), std_error=0.0, reps=1)


def _hetero_sure(s, Y2, sig2):
    """Scaled SURE of per-coordinate shrinkage at s of shape (...) for squared data Y2 (..., n)."""
    s = np.asarray(s, dtype=float)[..., None]
    u = sig2 * s
    return (np.sum(Y2 * sig2 * s**2 / (1.0 + u) ** 2, axis=-1)
            + 2.0 * np.sum(1.0 / (1.0 + u), axis=-1))


def _hetero_slopes(s, W, sig2, curvature=False):
    """d/ds of `_hetero_sure` for W = 2 Y2 sigma_i^2, sum(W s / v^3 - 2 sigma_i^2 / v^2),
    with `curvature` also d2/ds2, sum(W (1 - 2 u) / v^4) + sum(4 sigma_i^4 / v^3), from
    one u = sigma_i^2 s, v = 1 + u and v^3; each operation as written, in two work arrays.
    """
    s = np.asarray(s, dtype=float)[..., None]
    u = sig2 * s
    v = 1.0 + u
    v3 = v**3
    work, tmp = W * s / v3, v**2
    work -= np.divide(2.0 * sig2, tmp, out=tmp)
    slope = np.sum(work, axis=-1)
    if not curvature:
        return slope
    np.subtract(1.0, np.multiply(2.0, u, out=work), out=work)
    work *= W
    work /= np.power(v, 4, out=tmp)
    return slope, np.sum(work, axis=-1) + np.sum(np.divide(4.0 * sig2**2, v3, out=tmp), axis=-1)


def _hetero_hooks(sig2):
    """Closed-form hooks of per-coordinate shrinkage at variances sig2."""

    def d2g_dyds(s, y):
        s = np.asarray(s, dtype=float)[..., None]
        return 4.0 * np.asarray(y, dtype=float) * sig2 * s / (1.0 + sig2 * s) ** 3

    def dtheta_ds(s, y):
        u = sig2 * np.asarray(s, dtype=float)[..., None]
        return -np.asarray(y, dtype=float) * sig2 / (1.0 + u) ** 2

    return SmoothFamilyHooks(
        theta=lambda s, y: y / (1.0 + sig2 * np.asarray(s, dtype=float)[..., None]),
        g=lambda s, y: _hetero_sure(s, np.square(y), sig2),
        dg_ds=lambda s, y: _hetero_slopes(s, 2.0 * np.square(y) * sig2, sig2),
        d2g_ds2=lambda s, y: _hetero_slopes(s, 2.0 * np.square(y) * sig2, sig2, True)[1],
        dtheta_ds=dtheta_ds,
        d2g_dyds=d2g_dyds,
    )


class HeteroShrinkFamily(EstimatorFamily):
    """Per-coordinate shrinkage y_i/(1 + sigma_i^2 s) with scaled SURE.

    The plug-in df here is the bare divergence sum_i 1/(1 + sigma_i^2 s);
    the scaled SURE convention adds it with factor 2, no sigma^2.
    """

    _s_power = -2

    def __init__(self, sigmas):
        self._set_noise(sigmas=sigmas)
        self.n = self.sigmas.shape[0]
        self._sig2 = self.sigmas**2
        # The variances at unit noise, where the grid is built and the search runs.
        self._unit_sig2 = unit = np.ldexp(self._sig2, -2 * self._noise_exp)
        with np.errstate(over="ignore", divide="ignore"):
            lo, hi = 1e-4 / np.mean(unit), 1e8 / np.min(unit)
            ratio = hi / lo
        if not np.isfinite(ratio):
            raise DomainError("the search grid from 1e-4 / mean(sigmas^2) to 1e8 / min(sigmas^2) "
                              "needs mean(sigmas^2) / min(sigmas^2) at most about 2^984")
        points = 1 + math.ceil(63.0 / 12.0 * math.log10(ratio))
        grid = np.concatenate([[0.0], np.geomspace(lo, hi, points)])
        self._grid = np.append(grid, grid[-1] * 1e2)

    @property
    def hooks(self):
        """Closed-form hooks for y_i/(1 + sigma_i^2 s) and its scaled SURE.

        Their callables work in the caller's units, where 2 y^2 sigma_i^2
        overflows once y and sigma pass about 2^255; the implicit-diff
        statistic runs them at unit noise through `unit_noise`, the way
        `tune_batch` runs the tuner.
        """
        hooks = _hetero_hooks(self._sig2)
        hooks.unit_noise = (_hetero_hooks(self._unit_sig2), self._noise_exp, self._s_power)
        return hooks

    def estimate(self, s, y):
        self._check_s(s)
        y = np.asarray(y, dtype=float)
        if math.isinf(s):
            return np.zeros_like(y)
        return y / (1.0 + self._sig2 * s)

    def naive_df(self, s, y):
        return float(np.sum(1.0 / (1.0 + self._sig2 * self._check_s(s))))

    def _tuned(self, Y, sd):
        """Minimize scaled SURE on every row of Y, tracking modality.

        The search grid is s = 0, a log grid from 1e-4/mean(sigma_i^2) to
        1e8/min(sigma_i^2) at 63 intervals per 12 decades, and 1e2 times its
        last point.  The slope is negative at s = 0, and every grid cell
        where it goes from negative to nonnegative brackets one local
        minimum, refined by safeguarded Newton on the closed-form slope.
        The cells are disjoint, so each root is a distinct minimum;
        `multimodal` flags rows with more than one.  A minimum is kept only
        when it lies strictly below the s = +inf value; of those kept, the
        smallest s within 1e-12 relative of the lowest wins.

        The batch goes through in chunks whose (rows, n) temporaries hold
        at most `core._CACHE_VALUES` values, each written into the
        preallocated output arrays.  Every step acts row by row except the
        BLAS product of the grid slopes, so a row may round in the last
        place differently in another chunk.
        """
        sig2, reps = sd**2, Y.shape[0]
        s_hat, sure_min, df = np.empty(reps), np.empty(reps), np.empty(reps)
        theta, multimodal = np.empty_like(Y), np.empty(reps, dtype=bool)
        for rows in _row_blocks(reps, self.n, _CACHE_VALUES):
            y = Y[rows]
            best_s, sure_min[rows], kept = self._minimize(y**2, sig2)
            s_hat[rows], multimodal[rows] = best_s, kept > 1
            shrunk = np.isinf(best_s)
            shrink = 1.0 + sig2 * np.where(shrunk, 0.0, best_s)[:, None]
            np.divide(y, shrink, out=theta[rows])
            theta[rows][shrunk] = 0.0
            df[rows] = np.where(shrunk, 0.0, np.sum(1.0 / shrink, axis=1))
        return TunedBatch(s_hat=s_hat, theta_hat=theta, sure_min=sure_min,
                          naive_df_at_shat=df, multimodal=multimodal)

    def _minimize(self, Y2, sig2):
        """(s_hat, SURE minimum, number of local minima) of every row of
        squared data Y2 at variances sig2, by the search `_tuned` describes.

        The slopes at every grid point are one BLAS product: with W = 2 Y2
        sigma_i^2, the slope sum(W s / v^3 - 2 sigma_i^2 / v^2) at s is Y2
        times 2 sigma_i^2 s / v^3 less sum(2 sigma_i^2 / v^2), v = 1 + sigma_i^2 s.
        """
        grid, reps, g_inf = self._grid, Y2.shape[0], np.sum(Y2 / sig2, axis=1)
        v = 1.0 + grid[:, None] * sig2
        falling = (Y2 @ (2.0 * sig2 * grid[:, None] / v**3).T
                   - np.sum(2.0 * sig2 / v**2, axis=1)) < 0.0
        rows, k = np.nonzero(falling[:, :-1] & ~falling[:, 1:])
        kept = np.bincount(rows, minlength=reps)
        Y2 = Y2[rows]
        s_star = _slope_root(grid[k], grid[k + 1], 2.0 * Y2 * sig2, sig2)

        # Only minima strictly below the s = +inf value stay, by the cancellation-free
        # G(s) - G(+inf) = sum(2 / v - (Y2 / sigma_i^2)(1 + 2 u) / v^2), u = sigma_i^2 s.
        u = sig2 * s_star[:, None]
        v = 1.0 + u
        below = np.sum(2.0 / v - Y2 / sig2 * (1.0 + 2.0 * u) / v**2, axis=1) < 0.0
        rows, s_star = rows[below], s_star[below]
        val = _hetero_sure(s_star, Y2[below], sig2)
        lowest = np.full(reps, math.inf)
        np.minimum.at(lowest, rows, val)
        tie = val <= lowest[rows] + 1e-12 * np.maximum(1.0, np.abs(lowest[rows]))
        # np.nonzero lists each row's minima in increasing s, so the first tie is the smallest.
        r, first = np.unique(rows[tie], return_index=True)
        best_s, best_val = np.full(reps, math.inf), g_inf
        best_s[r], best_val[r] = s_star[tie][first], val[tie][first]
        return best_s, best_val, kept

    def _oracle_at(self, theta0, sd):
        return self._minimize((theta0**2 + sd**2)[None], sd**2)[:2]


def _slope_root(a, b, W, sig2):
    """Root of the slope in each bracket (a, b) where it goes from - to +,
    for rows W = 2 Y2 sigma_i^2.

    Newton steps on slope and curvature from one `_hetero_slopes` pass,
    bisecting whenever a step leaves the bracket or fails to halve the
    previous one.  A pair converges once its last step or its bracket is
    at most 4 eps times its point.  Each bisection halves the bracket and
    each accepted Newton step halves the last step, so the loop ends, also
    for a root many decades below the bracket's right end.  The slope stays
    negative at the left end, so the root found is a local minimum of the
    criterion.  Pairs leave the iteration, with their rows of W, as they
    converge.
    """
    x, step_old, live = 0.5 * (a + b), b - a, np.arange(a.size)
    root = x.copy()
    while live.size:
        f, fp = _hetero_slopes(x, W, sig2, True)
        a, b = np.where(f < 0.0, x, a), np.where(f > 0.0, x, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - f / fp
        ok = (newton >= a) & (newton <= b) & (np.abs(newton - x) <= 0.5 * step_old)
        nxt = np.where(f == 0.0, x, np.where(ok, newton, 0.5 * (a + b)))
        step_old = np.abs(nxt - x)
        root[live] = x = nxt
        go = np.minimum(step_old, b - a) > 4.0 * np.finfo(float).eps * x
        live, x, a, b, step_old, W = live[go], x[go], a[go], b[go], step_old[go], W[go]
    return root


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
    sig2 = _check_noise(None, sigmas)[1] ** 2
    y = _as_float_vector(y, "y", sig2.shape[0])
    if not math.isfinite(s_hat := _check_tuning_value(s_hat, "s_hat")) or s_hat <= 0:
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
        self.w = (self.U.T @ y) / self.d
        self.family = HeteroShrinkFamily(self.sigma / self.d)

    def penalty_of(self, s):
        """Ridge penalty t corresponding to the family tuning value s."""
        return self.sigma**2 * self.family._check_s(s)

    def s_of_penalty(self, t):
        return _check_tuning_value(t, "penalty") / self.sigma**2

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
