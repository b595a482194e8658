"""Gaussian sequence model, tunable estimator families, and Monte Carlo oracles.

The data model throughout the package is

    Y = theta0 + eps,   eps ~ N(0, sigma^2 I)   (or diag(sigma_i^2)),

and the object of study is an estimator family {theta_s : s in domain} tuned
by minimizing the unbiased prediction-error estimate

    sure(s, Y) = ||Y - theta_s(Y)||^2 + 2 sigma^2 * df_s(Y),

where df_s(Y) is the plug-in (fixed-s) degrees-of-freedom estimate supplied by
the family, typically the divergence of y -> theta_s(y).  For a fixed s this
is unbiased for the prediction error Err(theta_s) = E||Y* - theta_s(Y)||^2
with Y* an independent copy of Y.  After tuning (s = s_hat(Y)) it is biased
low; the bias is 2 sigma^2 times the excess degrees of freedom

    edf = df(theta_shat) - E[df_shat(Y)],

which the Monte Carlo routines here estimate directly from the covariance
definition of degrees of freedom,

    df(theta) = (1/sigma^2) sum_i Cov(theta_i(Y), Y_i).

Heteroskedastic convention: with unequal variances the error metric is scaled
per coordinate, Err = E sum_i (Y*_i - theta_i(Y))^2 / sigma_i^2, the optimism
is 2 sum_i Cov(theta_i, Y_i) / sigma_i^2, and the plug-in `naive_df` reported
by a heteroskedastic family is the bare divergence sum_i d theta_i / d Y_i,
so that sure = scaled residual + 2 * naive_df.  The private helpers
`_noise_sd`, `_df_unit` and `_sq_error` hold this convention; every routine
in the package that scales by the noise goes through them.

Batch-first tuning contract: a family tunes a whole (reps, n) batch of data
vectors in `tune_batch`, the one tuner it writes; `EstimatorFamily.tune`
fits a single vector as row 0 of a one-row batch.  Every excess-df estimate
(Monte Carlo, bootstrap, simulation grid) retunes thousands of vectors, so
they all go through `tune_batch`.  Estimator rules and family methods
operate on arrays of shape (..., n), broadcasting over leading axes.

Row blocks: `mc_edf` and `mc_df` draw, tune and reduce their batch in
consecutive blocks of at most max(1, `_BLOCK_VALUES` // n) rows, keeping
only one statistic per row, so their memory is bounded by one block.
`Generator.standard_normal` fills in C order, so the blocks hold exactly
the values of one (reps, n) draw, and every later step acts row by row.
`mc_prediction_error` and `oracle_gap_check` still draw all of Y and then
all of Y*, and call a rule once on the whole (reps, n) batch.
"""

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "ShapeError",
    "GaussianModel",
    "TuningDomain",
    "TunedFit",
    "TunedBatch",
    "EdfReport",
    "EDF_METHODS",
    "MCEstimate",
    "OracleTuning",
    "OracleGapReport",
    "EstimatorFamily",
    "mc_prediction_error",
    "mc_df",
    "mc_edf",
    "oracle_gap_check",
]


class DomainError(ValueError):
    """A parameter lies outside the mathematical domain of an operation."""


class ShapeError(ValueError):
    """An array argument has the wrong shape or length."""


_RANK_TOL = 1e-10

# float64 values per block of rows (512 KiB): the Monte Carlo routines draw,
# tune and reduce in row blocks this big, and the bootstrap retunes in them.
_BLOCK_VALUES = 1 << 16


def _row_blocks(reps, n):
    """Consecutive slices of range(reps), each of max(1, _BLOCK_VALUES // n) rows
    except possibly the last."""
    step = max(1, _BLOCK_VALUES // n)
    for a in range(0, reps, step):
        yield slice(a, min(a + step, reps))


def _check_count(value, name, least):
    """value as an int; DomainError unless it is an integer of at least `least`."""
    if not (value >= least and float(value).is_integer()):
        raise DomainError(f"{name} must be an integer at least {least}, got {value!r}")
    return int(value)


def _check_reps(reps):
    # A Monte Carlo standard error needs two replications: one would report
    # std_error 0, which `EdfReport` reserves for deterministic methods.
    return _check_count(reps, "reps", 2)


def _as_float_vector(x, name, n=None):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ShapeError(f"{name} must have length {n}, got {arr.shape[0]}")
    return arr


def _check_noise(sigma, sigmas, n=None):
    """(float sigma, None) or (None, length-n sigmas); exactly one, positive and finite."""
    if (sigma is None) == (sigmas is None):
        raise DomainError("specify exactly one of sigma and sigmas")
    if sigma is not None:
        if not np.isfinite(sigma) or sigma <= 0:
            raise DomainError("sigma must be positive and finite")
        return float(sigma), None
    sigmas = _as_float_vector(sigmas, "sigmas", n)
    if not np.all(np.isfinite(sigmas)) or np.any(sigmas <= 0):
        raise DomainError("sigmas must be positive and finite")
    return None, sigmas


def _noise_sd(noise):
    """sigma, or the vector of sigma_i, of a model or a family."""
    return noise.sigma if noise.sigmas is None else noise.sigmas


def _df_unit(noise):
    """Error per degree of freedom: sigma^2, or 1 in scaled units."""
    return noise.sigma**2 if noise.sigmas is None else 1.0


def _sq_error(resid, noise):
    """Squared norm of each residual row, in scaled units under sigmas."""
    return np.sum((resid if noise.sigmas is None else resid / noise.sigmas) ** 2, axis=-1)


@dataclass(frozen=True)
class GaussianModel:
    """Mean vector plus Gaussian noise, homoskedastic or per-coordinate.

    Exactly one of `sigma` (scalar standard deviation) and `sigmas`
    (vector of per-coordinate standard deviations) must be given.  A
    non-finite theta0 raises DomainError naming its first bad index.
    """

    theta0: np.ndarray
    sigma: float = None
    sigmas: np.ndarray = None

    def __post_init__(self):
        theta0 = _as_float_vector(self.theta0, "theta0")
        if not np.isfinite(theta0).all():
            raise DomainError(f"theta0 is not finite at index {np.argmin(np.isfinite(theta0))}")
        object.__setattr__(self, "theta0", theta0)
        sigma, sigmas = _check_noise(self.sigma, self.sigmas, theta0.shape[0])
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "sigmas", sigmas)

    @property
    def n(self):
        return self.theta0.shape[0]

    @property
    def is_heteroskedastic(self):
        return self.sigmas is not None

    @property
    def sd(self):
        """Noise standard deviation as a length-n vector."""
        if self.sigmas is not None:
            return self.sigmas
        return np.full(self.n, self.sigma)

    def draw(self, rng, reps):
        """Draw `reps` independent data vectors as a (reps, n) array."""
        return self.theta0 + self.sd * rng.standard_normal((reps, self.n))


@dataclass(frozen=True)
class TuningDomain:
    """Admissible tuning values: a continuous interval or a finite label set.

    For continuous domains the upper endpoint may be `math.inf`, in which
    case s = +inf itself is an admissible tuning value (the fully shrunk
    member of the family), not an error sentinel.
    """

    kind: str
    lower: float = 0.0
    upper: float = math.inf
    labels: tuple = None

    def __post_init__(self):
        if self.kind not in ("continuous", "discrete"):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if self.kind == "discrete" and not self.labels:
            raise DomainError("discrete domain requires a nonempty label set")

    def contains(self, s):
        if self.kind == "discrete":
            try:
                return s in self.labels
            except TypeError:
                return False
        if isinstance(s, (bool, str)):
            return False
        try:
            s = float(s)
        except (TypeError, ValueError):
            return False
        if math.isnan(s):
            return False
        return self.lower <= s <= self.upper


def _check_batch(Y, n):
    """Y as a float (reps, n) array whose every row has a finite squared norm.

    Raises ShapeError for any other shape and DomainError naming the first
    offending (row, column).  Sums of squares catch NaN, inf and rows whose
    squared norm overflows without a temporary the size of Y: one total sum
    clears the common case, per-row sums locate a bad row.  The total is an
    einsum, which makes no BLAS call: `np.vdot` wakes the BLAS thread pool,
    whose threads then spin on the other cores after the dot returns.  This
    check runs once per tune_batch, so from the bootstrap's worker threads
    those spinning threads would take the cores the workers need (a loop of
    normal draws with one 200 x 200 check each used 2.0 s of CPU per second
    of wall time with `np.vdot` on two cores, 1.0 s with the einsum).
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != n:
        raise ShapeError(f"expected a (reps, {n}) array, got shape {Y.shape}")
    if math.isfinite(np.einsum("ij,ij->", Y, Y)):
        return Y
    finite = np.isfinite(np.einsum("ij,ij->i", Y, Y))
    if not finite.all():
        row = int(np.argmin(finite))
        bad = np.flatnonzero(~np.isfinite(Y[row]))
        if bad.size:
            raise DomainError(f"data is not finite at (row {row}, column {bad[0]})")
        col = int(np.argmax(np.abs(Y[row])))
        raise DomainError(f"squared norm of data row {row} overflows (largest at column {col})")
    return Y


def _check_design(X):
    """X as a float 2-d array of finite entries.

    Raises ShapeError for any other shape and DomainError naming the first
    non-finite (row, column): a NaN or inf would otherwise reach the SVD and
    come back as numpy's "SVD did not converge".
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeError(f"X must be a 2-d design matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise DomainError(f"design X is not finite at (row {row}, column {col})")
    return X


def _column_norms(X):
    """Column norms of X, each column scaled by its largest entry so none overflows."""
    top = np.max(np.abs(X), axis=0, initial=0.0)
    safe = np.where(top > 0.0, top, 1.0)
    return top * np.linalg.norm(X / safe, axis=0)


def _rank_basis(X, tol=None):
    """Thin SVD (U, d, Vt) of X without singular values <= tol (1e-10 * max column norm)."""
    X = _check_design(X)
    if X.shape[1] == 0:
        return np.zeros((X.shape[0], 0)), np.zeros(0), np.zeros((0, 0))
    if tol is None:
        tol = _RANK_TOL * _column_norms(X).max()
    U, d, Vt = np.linalg.svd(X, full_matrices=False)
    rank = int(np.sum(d > tol))
    return U[:, :rank], d[:rank], Vt[:rank]


@dataclass
class TunedFit:
    """Result of minimizing SURE over a family's tuning domain.

    `sure_min` always equals the family's SURE re-evaluated at
    (`s_hat`, the data), and `naive_df_at_shat` is the plug-in degrees of
    freedom at the selected tuning value.  `multimodal` is set only by
    tuners that actually probe for multiple local minima.
    """

    s_hat: object
    theta_hat: np.ndarray
    sure_min: float
    naive_df_at_shat: float
    multimodal: bool = None


@dataclass
class TunedBatch:
    """Row-wise tuning results for a (reps, n) batch of data vectors.

    For discrete families `s_hat` holds integer indices into
    `domain.labels`; for continuous families it holds the tuning values
    themselves (with +inf allowed).  `multimodal` is a per-row bool array
    from tuners that probe for several local minima of SURE, else None.
    """

    s_hat: np.ndarray
    theta_hat: np.ndarray
    sure_min: np.ndarray
    naive_df_at_shat: np.ndarray
    discrete: bool = False
    multimodal: np.ndarray = None


EDF_METHODS = frozenset(
    {
        "monte_carlo",
        "analytic_unbiased",
        "implicit_diff",
        "bootstrap_parametric",
        "bootstrap_bigmodel",
        "bootstrap_residual",
    }
)


@dataclass(frozen=True)
class EdfReport:
    """An excess-degrees-of-freedom (or df) estimate with provenance.

    `std_error` is zero exactly when the method is deterministic given the
    input (the analytic and implicit-differentiation statistics of one fit).
    """

    method: str
    value: float
    std_error: float
    reps: int

    def __post_init__(self):
        if self.method not in EDF_METHODS:
            raise DomainError(f"unknown edf method {self.method!r}")
        if not math.isfinite(self.value):
            raise DomainError("edf value must be finite")
        if not (self.std_error >= 0):
            raise DomainError("std_error must be nonnegative")
        if self.reps < 1:
            raise DomainError("reps must be at least 1")


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo mean with its standard error."""

    value: float
    std_error: float
    reps: int


@dataclass(frozen=True)
class OracleTuning:
    """Oracle tuning value and the exact prediction error it attains."""

    s0: object
    err: float


class EstimatorFamily(ABC):
    """A family {theta_s} indexed by a tuning value, with plug-in df.

    Subclasses provide `estimate`, `naive_df` and `tune_batch`, which tunes
    every row of a (reps, n) batch at once and first validates the batch
    with `_check_batch`.  `tune` is derived here, once, from `tune_batch`.
    Each family carries its own noise level because tuning needs it.

    `tune_batch` must be re-entrant: the bootstrap calls it from several
    threads at once on one family, so it may read but never write the
    family's attributes.  Every family in the package only reads them.

    A family's own excess-df statistics, None where it has none (`simulate`
    then writes "skipped" rows): `hooks`, its `stein.SmoothFamilyHooks` for
    implicit differentiation, and `edf_unbiased(fit)`, a per-row statistic.
    """

    domain: TuningDomain
    n: int
    hooks = None

    def _set_noise(self, sigma=None, sigmas=None, n=None):
        self.sigma, self.sigmas = _check_noise(sigma, sigmas, n)

    def _check_model(self, model):
        """DomainError unless `model` is a GaussianModel with this n and noise."""
        if not (isinstance(model, GaussianModel) and model.n == self.n
                and model.sigma == self.sigma and np.array_equal(model.sigmas, self.sigmas)):
            raise DomainError(f"model does not match {type(self).__name__}: expected a "
                              "GaussianModel with the family's n and noise")

    @property
    def is_heteroskedastic(self):
        return getattr(self, "sigmas", None) is not None

    @abstractmethod
    def estimate(self, s, y):
        """Evaluate theta_s at y; broadcasts over leading axes of y."""

    @abstractmethod
    def naive_df(self, s, y):
        """Plug-in df of theta_s at y (divergence for smooth families)."""

    @abstractmethod
    def tune_batch(self, Y):
        """Minimize SURE over the domain for each row of Y; a TunedBatch."""

    def tune(self, y):
        """Minimize SURE over the domain for a single data vector.

        Row 0 of `tune_batch(y[None])`, with a discrete index mapped back to
        its label in `domain.labels`.
        """
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n,):
            raise ShapeError(f"expected a length-{self.n} vector")
        batch = self.tune_batch(y[None, :])
        s = batch.s_hat[0]
        return TunedFit(
            s_hat=self.domain.labels[int(s)] if batch.discrete else float(s),
            theta_hat=batch.theta_hat[0],
            sure_min=float(batch.sure_min[0]),
            naive_df_at_shat=float(batch.naive_df_at_shat[0]),
            multimodal=None if batch.multimodal is None else bool(batch.multimodal[0]),
        )

    def sure(self, s, y):
        """Unbiased prediction-error estimate of theta_s at y (or each row of y).

        Homoskedastic: ||y - theta_s(y)||^2 + 2 sigma^2 naive_df(s, y).
        Heteroskedastic: sum_i (y_i - theta_i)^2 / sigma_i^2 + 2 naive_df(s, y).

        Raises DomainError for s outside the family's tuning domain and
        ShapeError for mismatched data.
        """
        y = np.asarray(y, dtype=float)
        if y.ndim == 0 or y.shape[-1] != self.n:
            raise ShapeError(f"data has shape {y.shape}, family expects trailing dimension {self.n}")
        if not self.domain.contains(s):
            raise DomainError(f"tuning value {s!r} is outside the family domain")
        theta = self.estimate(s, y)
        df = self.naive_df(s, y)
        return _sq_error(y - theta, self) + 2.0 * _df_unit(self) * df

    def edf_unbiased(self, fit):
        """Unbiased excess-df statistic of each row of the TunedBatch `fit`, or None."""
        return None

    def oracle(self, model):
        """`OracleTuning`: the s minimizing the exact prediction error at the
        mean of `model` (see `_check_model`), and that error.  Families with
        a closed form or an exact search override this base, which raises.

        SURE is unbiased for the prediction error at every fixed s.  Where it
        depends on the data only through squares (||y||^2, ||P y||^2, y_i^2
        or the squared coordinates (y @ Q)^2), its expectation is SURE at the
        expected squares, theta0^2 + sigma^2 coordinatewise.  Such a family's
        oracle is therefore its own tuning core run at those statistics, and
        the SURE minimum it reports is the exact error.
        """
        raise DomainError(f"{type(self).__name__} provides no oracle tuning")


def _normal_pdf(t):
    """Standard normal density, elementwise."""
    return np.exp(-0.5 * np.square(t)) / math.sqrt(2.0 * math.pi)


def _mean_se(values):
    values = np.asarray(values, dtype=float)
    r = values.shape[0]
    se = float(values.std(ddof=1) / math.sqrt(r)) if r > 1 else 0.0
    return float(values.mean()), se, r


def _apply_rule(rule, Y):
    """rule(Y) as floats; ShapeError unless it has Y's shape (a (k, n) block)."""
    theta = np.asarray(rule(Y), dtype=float)
    if theta.shape != Y.shape:
        raise ShapeError("rule must map a (k, n) block of rows to (k, n) estimates")
    return theta


def mc_prediction_error(rule, model, *, reps=1000, seed=0):
    """Monte Carlo prediction error E||Y* - rule(Y)||^2 of a fixed rule.

    Draws independent (Y, Y*) pairs from the model; `rule` maps the
    (reps, n) batch Y to its (reps, n) estimates.  Under a
    heteroskedastic model the summands are scaled by 1/sigma_i^2.
    """
    reps = _check_reps(reps)
    rng = np.random.default_rng(seed)
    Y = model.draw(rng, reps)
    Ystar = model.draw(rng, reps)
    value, se, r = _mean_se(_sq_error(Ystar - _apply_rule(rule, Y), model))
    return MCEstimate(value, se, r)


def _df_stats(theta, Y, model):
    """Per-replication covariance-form df statistics for a batch."""
    return np.sum(theta * (Y - model.theta0) / _noise_sd(model) ** 2, axis=-1)


def mc_df(rule, model, *, reps=1000, seed=0):
    """Monte Carlo degrees of freedom of a rule via the covariance form.

    Uses df = sum_i Cov(rule_i(Y), Y_i) / sigma^2 (per-coordinate variances
    in the heteroskedastic case).  Each replication contributes
    sum_i rule_i(Y)(Y_i - theta0_i) / sigma^2, which is exactly unbiased.

    `rule` maps a (k, n) block of data rows to its (k, n) estimates and must
    act row by row: it is called once per row block (see the module
    docstring), so memory is bounded by one block whatever `reps` is.  A
    rule that multiplies matrices through BLAS may round a row in the last
    place differently from a single call on the whole batch.
    """
    reps = _check_reps(reps)
    rng = np.random.default_rng(seed)
    stats = np.empty(reps)
    for rows in _row_blocks(reps, model.n):
        Y = model.draw(rng, rows.stop - rows.start)
        stats[rows] = _df_stats(_apply_rule(rule, Y), Y, model)
    value, se, r = _mean_se(stats)
    return MCEstimate(value, se, r)


def mc_edf(family, model, *, reps=1000, seed=0):
    """Monte Carlo excess degrees of freedom of the SURE-tuned rule.

    One shared set of draws feeds both terms: each replication contributes

        sum_i theta_shat,i(Y) (Y_i - theta0_i) / sigma^2  -  naive_df(s_hat, Y),

    whose mean over replications estimates df(theta_shat) - E[naive df].
    Pairing the two terms this way keeps the variance of the difference far
    below that of either term alone.  `model` must match the family (see
    `EstimatorFamily._check_model`).

    The draws are tuned by `family.tune_batch` one row block at a time (see
    the module docstring), so memory is bounded by one block whatever `reps`
    is.  A family whose `tune_batch` multiplies matrices through BLAS may
    round a row in the last place differently from a single call on the
    whole batch; the other families give the same bytes either way.
    """
    family._check_model(model)
    reps = _check_reps(reps)
    rng = np.random.default_rng(seed)
    stats = np.empty(reps)
    for rows in _row_blocks(reps, model.n):
        Y = model.draw(rng, rows.stop - rows.start)
        fit = family.tune_batch(Y)
        stats[rows] = _df_stats(fit.theta_hat, Y, model) - fit.naive_df_at_shat
    value, se, r = _mean_se(stats)
    return EdfReport(method="monte_carlo", value=value, std_error=se, reps=r)


@dataclass(frozen=True)
class OracleGapReport:
    """Monte Carlo check of the tuned rule against the oracle benchmark.

    `thm_margin` is the per-replication mean of
    err_r - exopt_r - oracle_err: nonpositive in expectation because the
    tuned error is at most oracle error plus excess optimism.
    `minsure_margin` is the mean of sure_min_r - oracle_err: nonpositive
    because E[min_s sure] <= min_s E[sure].  Each check passes when the
    margin does not exceed four standard errors.
    """

    oracle: OracleTuning
    err_tuned: MCEstimate
    exopt: MCEstimate
    mean_min_sure: MCEstimate
    thm_margin: MCEstimate
    minsure_margin: MCEstimate
    bound_holds: bool
    minsure_holds: bool


def oracle_gap_check(family, model, *, reps=2000, seed=0):
    """Verify the oracle inequality for the SURE-tuned rule by simulation."""
    reps = _check_reps(reps)
    rng = np.random.default_rng(seed)
    Y = model.draw(rng, reps)
    Ystar = model.draw(rng, reps)
    fit = family.tune_batch(Y)

    err_r = _sq_error(Ystar - fit.theta_hat, model)
    exopt_r = 2.0 * _df_unit(model) * (_df_stats(fit.theta_hat, Y, model) - fit.naive_df_at_shat)

    oracle = family.oracle(model)
    err = MCEstimate(*_mean_se(err_r))
    exopt = MCEstimate(*_mean_se(exopt_r))
    min_sure = MCEstimate(*_mean_se(fit.sure_min))
    thm = MCEstimate(*_mean_se(err_r - exopt_r - oracle.err))
    minsure = MCEstimate(*_mean_se(fit.sure_min - oracle.err))
    return OracleGapReport(
        oracle=oracle,
        err_tuned=err,
        exopt=exopt,
        mean_min_sure=min_sure,
        thm_margin=thm,
        minsure_margin=minsure,
        bound_holds=thm.value <= 4.0 * thm.std_error,
        minsure_holds=minsure.value <= 4.0 * minsure.std_error,
    )
