"""Linear shrinkage families tuned by SURE, with closed-form everything.

Two families live here.  Shrinkage to zero in the means model,

    theta_s(y) = y / (1 + s),        s in [0, +inf],

and its regression analogue theta_s(y) = P y / (1 + s) with P the projection
onto the column span of a design matrix.  Both admit closed-form SURE
minimizers, closed-form oracle tuning, and a one-line unbiased statistic for
the excess degrees of freedom of the tuned rule, which makes them the test
bed of choice for every Monte Carlo routine in this package.
"""

import math
import warnings

import numpy as np

from .core import (
    DomainError,
    EstimatorFamily,
    OracleTuning,
    ShapeError,
    TunedBatch,
    TuningDomain,
    _check_batch,
    _check_count,
    _check_design,
    _check_noise,
    _rank_basis,
)
from .stein import SmoothFamilyHooks

__all__ = [
    "minimize_quadratic_sure",
    "ShrinkMeansFamily",
    "ShrinkRegressionFamily",
    "shrink_means_positive_part",
    "edf_unbiased_shrink",
    "james_stein_positive",
    "james_stein_positive_regression",
    "unbiased_risk_sure_tuned_shrink",
    "ShrinkRiskBounds",
    "risk_bounds_shrink",
]


def minimize_quadratic_sure(a, b):
    """Minimize a*s^2/(1+s)^2 + 2*b/(1+s) over s in [0, +inf].

    Args:
        a: coefficient of the squared-shrinkage term; must be positive.
           For the means family a = ||y||^2, for regression a = ||Py||^2.
        b: coefficient of the linear term; must be positive (n sigma^2 or
           r sigma^2).

    Returns:
        The minimizer: b / (a - b) when a > b, else +inf.  The a = b case
        is folded into +inf; the criterion value is identical (= a) at both
        endpoints of the flat stretch, and +inf is the canonical choice.
    """
    if not (a > 0) or not (b > 0):
        raise DomainError("minimize_quadratic_sure requires a > 0 and b > 0")
    if a > b:
        return b / (a - b)
    return math.inf


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
        self.domain = TuningDomain(kind="continuous", lower=0.0, upper=math.inf)

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
        y = np.asarray(y, dtype=float)
        if math.isinf(s):
            return np.zeros_like(y)
        return y / (1.0 + s)

    def naive_df(self, s, y):
        # Divergence of y -> y/(1+s); data-free for this family.
        if math.isinf(s):
            return 0.0
        return self.n / (1.0 + s)

    def tune_batch(self, Y):
        Y = _check_batch(Y, self.n)
        return _tuned_shrink(np.einsum("ij,ij->i", Y, Y), self.n, self.sigma, Y)

    def oracle(self, model):
        """Closed-form oracle tuning against a known mean vector."""
        self._check_model(model)
        t2 = float(np.sum(model.theta0**2))
        b = self.n * self.sigma**2
        if t2 == 0.0:
            return OracleTuning(s0=math.inf, err=b)
        risk = b * t2 / (b + t2)
        return OracleTuning(s0=b / t2, err=b + risk)


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
        self.domain = TuningDomain(kind="continuous", lower=0.0, upper=math.inf)

    def project(self, y):
        y = np.asarray(y, dtype=float)
        return (y @ self._basis) @ self._basis.T

    def estimate(self, s, y):
        py = self.project(y)
        if math.isinf(s):
            return np.zeros_like(py)
        return py / (1.0 + s)

    def naive_df(self, s, y):
        if math.isinf(s):
            return 0.0
        return self.rank / (1.0 + s)

    def tune_batch(self, Y):
        Y = _check_batch(Y, self.n)
        coords = Y @ self._basis
        a = np.sum(coords**2, axis=1)
        fit = _tuned_shrink(a, self.rank, self.sigma, coords @ self._basis.T)
        fit.sure_min = np.sum(Y**2, axis=1) - a + fit.sure_min
        return fit

    edf_unbiased = ShrinkMeansFamily.edf_unbiased

    def oracle(self, model):
        """Closed-form oracle tuning; the off-span bias is irreducible."""
        self._check_model(model)
        p0 = self.project(model.theta0)
        a0 = float(np.sum(p0**2))
        off = float(np.sum(model.theta0**2)) - a0
        b = self.rank * self.sigma**2
        n_sig2 = self.n * self.sigma**2
        if a0 == 0.0:
            return OracleTuning(s0=math.inf, err=n_sig2 + off)
        return OracleTuning(s0=b / a0, err=n_sig2 + off + b * a0 / (b + a0))


def _checked(y, sigma):
    """(y, sigma) as floats; DomainError for a bad sigma or non-finite data rows."""
    sigma = _check_noise(sigma, None)[0]
    y = np.asarray(y, dtype=float)
    if y.ndim == 0 or y.shape[-1] == 0:
        raise ShapeError(f"data must have a nonempty last axis, got shape {y.shape}")
    _check_batch(y.reshape(-1, y.shape[-1]), y.shape[-1])
    return y, sigma


def shrink_means_positive_part(y, sigma):
    """The SURE-tuned means shrinkage rule written directly.

    Computes (1 - n sigma^2 / ||y||^2)_+ y without going through the tuning
    machinery.  Kept as an independent code path so tests can confirm the
    tuner lands on exactly this rule.
    """
    y, sigma = _checked(y, sigma)
    n = y.shape[-1]
    return _project_positive_part(np.sum(y**2, axis=-1), n * sigma**2, y)


def edf_unbiased_shrink(s_hat):
    """Unbiased per-realization excess-df statistic for tuned shrinkage.

    Equals 2 s_hat / (1 + s_hat) on the smooth branch and 0 at s_hat = +inf
    (where the tuned rule is locally constant zero).  Averaging this over
    draws estimates the excess degrees of freedom, which therefore never
    exceeds 2 for these families.  Broadcasts over an array of tuned
    values; a scalar gives a float.  Raises DomainError on a negative or
    NaN s_hat.
    """
    s = np.asarray(s_hat, dtype=float)
    if not np.all(s >= 0):
        raise DomainError("s_hat must be nonnegative (+inf allowed), not NaN")
    s = np.where(s == math.inf, 0.0, s)
    out = 2.0 * s / (1.0 + s)
    return float(out) if out.ndim == 0 else out


def james_stein_positive(y, sigma):
    """Positive-part James-Stein estimate (1 - (n-2) sigma^2/||y||^2)_+ y."""
    y, sigma = _checked(y, sigma)
    n = y.shape[-1]
    if n < 3:
        warnings.warn("positive-part James-Stein needs n >= 3 to dominate", stacklevel=2)
    return _project_positive_part(np.sum(y**2, axis=-1), (n - 2) * sigma**2, y)


def james_stein_positive_regression(X, y, sigma):
    """Positive-part James-Stein fit shrinking P y by (rank - 2) sigma^2."""
    fam = ShrinkRegressionFamily(X, sigma)
    if fam.rank < 3:
        warnings.warn("positive-part James-Stein needs rank >= 3 to dominate", stacklevel=2)
    py = fam.project(_checked(y, fam.sigma)[0])
    return _project_positive_part(np.sum(py**2, axis=-1), (fam.rank - 2) * sigma**2, py)


def unbiased_risk_sure_tuned_shrink(y, sigma):
    """Unbiased estimate of the risk of the SURE-tuned means shrinkage rule.

    Returns n sigma^2 - (n-4) sigma^2 * n sigma^2 / ||y||^2 when
    ||y||^2 >= n sigma^2, and ||y||^2 - n sigma^2 otherwise.  Its
    expectation equals E||theta_hat - theta0||^2 for the tuned rule
    (1 - n sigma^2/||y||^2)_+ y.
    """
    y, sigma = _checked(y, sigma)
    n = y.shape[-1]
    b = n * sigma**2
    y2 = np.sum(y**2, axis=-1)
    shrunk = b - (n - 4) * sigma**2 * b / np.where(y2 > 0, y2, 1.0)
    out = np.where(y2 >= b, shrunk, y2 - b)
    return float(out) if np.isscalar(out) or out.ndim == 0 else out


class ShrinkRiskBounds:
    """Oracle risk and the two additive risk guarantees built on it.

    Attributes:
        oracle_risk: min_s E||theta_s(Y) - theta0||^2, in risk units
            (subtract nothing; add n sigma^2 for prediction error).
        tuned_bound: oracle_risk + 4 sigma^2, valid for the SURE-tuned rule
            because its excess optimism is at most 2 sigma^2 * 2.
        js_bound: oracle_risk + 2 sigma^2, valid for positive-part
            James-Stein when n >= 3.
    """

    def __init__(self, oracle_risk, sigma):
        self.oracle_risk = float(oracle_risk)
        self.tuned_bound = self.oracle_risk + 4.0 * sigma**2
        self.js_bound = self.oracle_risk + 2.0 * sigma**2


def risk_bounds_shrink(model):
    """Risk-scale oracle value and guarantees for the means family."""
    if model.is_heteroskedastic:
        raise DomainError("risk bounds here assume homoskedastic noise")
    fam = ShrinkMeansFamily(model.n, model.sigma)
    oracle = fam.oracle(model)
    return ShrinkRiskBounds(oracle.err - model.n * model.sigma**2, model.sigma)
