"""Linear shrinkage families tuned by SURE, with closed-form everything.

Three families live here.  Shrinkage to zero in the means model,

    theta_s(y) = y / (1 + s),        s in [0, +inf],

and its regression analogue theta_s(y) = P y / (1 + s) with P the projection
onto the column span of a design matrix.  Both have a closed-form SURE
minimizer, an exact oracle (the same minimizer at the expected squares) and
a one-line unbiased statistic for the excess degrees of freedom of the
tuned rule, `edf_unbiased_shrink`, which makes them the test bed of choice
for every Monte Carlo routine in this package.  The paper's two properties
are read off the family: sure_min + 2 sigma^2 * edf_unbiased(fit) is
unbiased for the tuned rule's prediction error, and oracle(model).err is
the error the excess optimism is measured against.  `james_stein_positive`
is the classical (n - 2) rule the tuned fit is compared with.
`SingletonShrinkFamily` fixes s at one value, a reference with nothing
tuned.
"""

import math
import warnings

import numpy as np

from .core import (
    DomainError,
    EstimatorFamily,
    ShapeError,
    TunedBatch,
    _check_batch,
    _check_count,
    _check_design,
    _check_noise,
    _check_tuning,
    _rank_basis,
)
from .stein import SmoothFamilyHooks

__all__ = [
    "ShrinkMeansFamily",
    "ShrinkRegressionFamily",
    "edf_unbiased_shrink",
    "james_stein_positive",
]


def _project_positive_part(y2, b, y):
    # (1 - b/||y||^2)_+ y.  Rows with ||y||^2 <= max(b, 0) keep frac = 1 and
    # so shrink to zero without dividing: that resolves the 0/0 at y = 0 and
    # the b/||y||^2 overflow at a subnormal squared norm.
    y2 = np.asarray(y2, dtype=float)
    frac = np.divide(b, y2, out=np.ones_like(y2), where=y2 > np.maximum(b, 0.0))
    return np.clip(1.0 - frac, 0.0, None)[..., None] * y


def _tuned_shrink(a, m, sigma, target):
    """SURE-tuned target/(1+s) per row, from a = ||target||^2 and m = df at s = 0."""
    b = m * sigma**2
    finite = a > b
    # Dividing by a only where a > b keeps a subnormal a from overflowing.
    safe_a = np.where(finite, a, 1.0)
    return TunedBatch(
        s_hat=np.where(finite, b / np.where(finite, a - b, 1.0), np.inf),
        theta_hat=_project_positive_part(a, b, target),
        sure_min=np.where(finite, 2.0 * b - b**2 / safe_a, a),
        naive_df_at_shat=np.where(finite, m * (1.0 - b / safe_a), 0.0),
    )


class ShrinkMeansFamily(EstimatorFamily):
    """theta_s(y) = y/(1+s) in the homoskedastic means model."""

    def __init__(self, n, sigma):
        self.n = _check_count(n, "n", 1)
        self._set_noise(sigma=sigma)

    @property
    def hooks(self):
        """Closed-form hooks for theta_s(y) = y/(1+s) and its SURE."""
        n, sigma = self.n, self.sigma

        def y2(y):
            return np.einsum("...i,...i->...", y, y)

        def d2g_dyds(s, y):
            s = np.asarray(s, dtype=float)[..., None]
            return 4.0 * np.asarray(y, dtype=float) * s / (1.0 + s) ** 3

        def dtheta_ds(s, y):
            return -np.asarray(y, dtype=float) / (1.0 + np.asarray(s, dtype=float)[..., None]) ** 2

        return SmoothFamilyHooks(
            theta=lambda s, y: y / (1.0 + np.asarray(s, dtype=float)[..., None]),
            g=lambda s, y: y2(y) * s**2 / (1.0 + s) ** 2 + 2.0 * sigma**2 * n / (1.0 + s),
            dg_ds=lambda s, y: (2.0 * s * y2(y) / (1.0 + s) ** 3
                                - 2.0 * sigma**2 * n / (1.0 + s) ** 2),
            d2g_ds2=lambda s, y: (y2(y) * (2.0 - 4.0 * s) / (1.0 + s) ** 4
                                  + 4.0 * sigma**2 * n / (1.0 + s) ** 3),
            dtheta_ds=dtheta_ds,
            d2g_dyds=d2g_dyds,
        )

    def edf_unbiased(self, fit):
        return edf_unbiased_shrink(fit.s_hat)

    def estimate(self, s, y):
        self._check_s(s)
        y = np.asarray(y, dtype=float)
        if math.isinf(s):
            return np.zeros_like(y)
        return y / (1.0 + s)

    def naive_df(self, s, y):
        # Divergence of y -> y/(1+s), 0 at s = +inf; data-free for this family.
        return self.n / (1.0 + self._check_s(s))

    def _tuned(self, Y, sigma):
        return _tuned_shrink(np.einsum("ij,ij->i", Y, Y), self.n, sigma, Y)

    def _oracle_at(self, theta0, sigma):
        fit = _tuned_shrink(theta0 @ theta0 + self.n * sigma**2, self.n, sigma, np.zeros(0))
        return fit.s_hat, fit.sure_min


class ShrinkRegressionFamily(EstimatorFamily):
    """theta_s(y) = P y/(1+s) with P the projection onto the span of X.

    The projection is built once from a singular value decomposition of the
    design; singular values below 1e-10 times the largest column norm are
    treated as zero when computing the rank.
    """

    def __init__(self, X, sigma):
        X = _check_design(X)
        self.n = X.shape[0]
        self._set_noise(sigma=sigma)
        self._basis = _rank_basis(X)[0]
        self.rank = self._basis.shape[1]
        if self.rank == 0:
            raise DomainError("design matrix has rank zero")

    def project(self, y):
        y = np.asarray(y, dtype=float)
        return (y @ self._basis) @ self._basis.T

    def estimate(self, s, y):
        self._check_s(s)
        py = self.project(y)
        if math.isinf(s):
            return np.zeros_like(py)
        return py / (1.0 + s)

    def naive_df(self, s, y):
        return self.rank / (1.0 + self._check_s(s))

    def _tuned(self, Y, sigma):
        coords = Y @ self._basis
        return self._fit(np.sum(Y**2, axis=1), np.sum(coords**2, axis=1),
                         coords @ self._basis.T, sigma)

    def _fit(self, y2, a, target, sigma):
        """The tuned fit from ||y||^2, a = ||P y||^2 and target = P y."""
        fit = _tuned_shrink(a, self.rank, sigma, target)
        fit.sure_min = y2 - a + fit.sure_min
        return fit

    edf_unbiased = ShrinkMeansFamily.edf_unbiased

    def _oracle_at(self, theta0, sigma):
        coords = theta0 @ self._basis
        fit = self._fit(theta0 @ theta0 + self.n * sigma**2,
                        coords @ coords + self.rank * sigma**2, np.zeros(0), sigma)
        return fit.s_hat, fit.sure_min


class SingletonShrinkFamily(ShrinkMeansFamily):
    """Shrinkage at one fixed tuning value; no data-driven search at all.

    Useful as a degenerate reference: with nothing tuned the true excess df
    is zero, so the unbiased statistic is identically 0 and the Monte Carlo
    and bootstrap estimates straddle 0 (the bootstrap one carries a small
    -df/B centering bias at tiny B).  There is no stationarity condition to
    differentiate, so it has no hooks.
    """

    hooks = None

    def __init__(self, n, sigma, s=1.0):
        super().__init__(n, sigma)
        self.s_fixed = self._check_s(s)
        if math.isinf(self.s_fixed):
            raise DomainError("a singleton family has no member at s = +inf")
        self._s_range = (self.s_fixed, self.s_fixed)

    def _tuned(self, Y, sigma):
        s = self.s_fixed
        theta, df = self.estimate(s, Y), self.naive_df(s, Y)
        return TunedBatch(s_hat=np.full(Y.shape[0], s), theta_hat=theta,
                          sure_min=np.sum((Y - theta) ** 2, axis=1) + 2.0 * sigma**2 * df,
                          naive_df_at_shat=np.full(Y.shape[0], df))

    def edf_unbiased(self, fit):
        return np.zeros(fit.s_hat.shape[0])

    def _oracle_at(self, theta0, sigma):
        """s_fixed and its error n sigma^2 + (||theta0||^2 s^2 + n sigma^2)/(1+s)^2."""
        s, b = self.s_fixed, self.n * sigma**2
        return s, b + (float(np.sum(theta0**2)) * s**2 + b) / (1.0 + s) ** 2


def edf_unbiased_shrink(s_hat):
    """Unbiased per-realization excess-df statistic for tuned shrinkage.

    Equals 2 s_hat / (1 + s_hat) on the smooth branch and 0 at s_hat = +inf
    (where the tuned rule is locally constant zero).  Averaging this over
    draws estimates the excess degrees of freedom, which therefore never
    exceeds 2 for these families.  Broadcasts over an array of tuned
    values; a scalar gives a float.  Raises DomainError on a negative, NaN
    or non-numeric s_hat.
    """
    s = _check_tuning(s_hat, "s_hat")
    s = np.where(s == math.inf, 0.0, s)
    out = 2.0 * s / (1.0 + s)
    return float(out) if out.ndim == 0 else out


def james_stein_positive(y, sigma):
    """Positive-part James-Stein estimate (1 - (n-2) sigma^2/||y||^2)_+ y.

    Broadcasts over leading axes of y.  Raises DomainError for a bad sigma
    or a non-finite row of y, naming the first bad (row, column).
    """
    sigma = _check_noise(sigma, None)[0]
    y = np.asarray(y, dtype=float)
    if y.ndim == 0 or y.shape[-1] == 0:
        raise ShapeError(f"data must have a nonempty last axis, got shape {y.shape}")
    n = y.shape[-1]
    _check_batch(y.reshape(-1, n), n)
    if n < 3:
        warnings.warn("positive-part James-Stein needs n >= 3 to dominate", stacklevel=2)
    return _project_positive_part(np.sum(y**2, axis=-1), (n - 2) * sigma**2, y)
