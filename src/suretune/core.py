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

Batch-first tuning contract: a family writes one tuner, `_tuned(Y, sd)`,
which tunes a whole (reps, n) batch of data vectors at unit noise, and
optionally one oracle search, `_oracle_at(theta0, sd)`.  `EstimatorFamily`
alone defines `tune_batch`, `tune` (row 0 of a one-row batch) and `oracle`
on top of them.  Every excess-df estimate (Monte Carlo, bootstrap,
simulation grid) retunes thousands of vectors, so they all go through
`tune_batch`.  Estimator rules and family methods operate on arrays of
shape (..., n), broadcasting over leading axes.

Row blocks: `mc_df`, `mc_edf`, `mc_prediction_error`, `simulate`'s grid
cells (the bootstrap included) and acceptance c02-c04 and c11 reduce the
per-row statistics of one pass, `_tuned_stats`, which draws, tunes and
reduces a model's reps in consecutive blocks of at most max(1,
`_BLOCK_VALUES` // n) rows, so its memory is bounded by a few blocks
whatever `reps` is.
`Generator.standard_normal` fills in C order, so the blocks hold exactly
the values of one (reps, n) draw, and every later step acts row by row.  A
rule must act row by row too; a tuner that multiplies matrices through
BLAS may round a row in the last place differently from one call on the
whole batch, while BLAS-free tuners give the same bytes either way.  Pairs
of Y and an independent copy Y* (drawn as a second (reps, n) batch after
all of Y) come in matching blocks from `_paired_draws`, which replays Y at
the price of reps * n extra normals.  The pass draws every block into one
buffer (Y* into a second), and `_df_stats` and the soft-threshold and
heteroskedastic tuners work in row chunks of `_CACHE_VALUES` values, so
the heap keeps its pages from block to block.  A block handed to a
statistic, or yielded by `_paired_draws`, is overwritten by the next block,
and whoever keeps one past its turn copies it.

Input checks: only this module decides what a valid input is, through
`_as_float_vector` for vectors, `_check_noise` for sigma, `_check_count` for
counts and column indices, `_check_tuning` for tuning values
(`_check_tuning_value` for one, `EstimatorFamily._check_s` for one in a
family's `_s_range`), `_check_batch` for data and `_check_design` for designs.

Noise scale: SURE is scale-equivariant, (y, sigma) -> (c y, c sigma) scales
the fit by c and the criterion by c^2, and dividing by a power of two is
exact barring underflow and overflow.  So `tune_batch` and `oracle` run a
family's `_tuned` and `_oracle_at` through one step,
`EstimatorFamily._at_unit_noise`: it checks the batch (or model), divides
it by c = 2^round(log2 sigma) (the RMS of the sigma_i under
heteroskedastic noise), runs the family's core at sigma / c and scales the
answer back.  No family can skip it, since no family defines `tune_batch`
or `oracle`.  Squares stay in the normal range, and a tolerance written
for unit noise means the same at every sigma.  `estimate`, `naive_df`,
`sure` and the callables of `hooks` work in the caller's units; hooks
that carry their family at unit noise (`stein.SmoothFamilyHooks.unit_noise`)
are evaluated there by the implicit-diff statistic.
"""

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "ShapeError",
    "GaussianModel",
    "TunedFit",
    "TunedBatch",
    "EdfReport",
    "EDF_METHODS",
    "MCEstimate",
    "OracleTuning",
    "EstimatorFamily",
    "mc_prediction_error",
    "mc_df",
    "mc_edf",
]


class DomainError(ValueError):
    """A parameter lies outside the mathematical domain of an operation."""


class ShapeError(ValueError):
    """An array argument has the wrong shape or length."""


_RANK_TOL = 1e-10

# float64 values per block of rows (512 KiB): the Monte Carlo routines draw,
# tune and reduce in row blocks this big, and the bootstrap retunes in them.
_BLOCK_VALUES = 1 << 16

# Values per temporary of the row chunks that tuners and `_df_stats` work
# in: 64 KB of float64, which stays in cache and below malloc's mmap
# threshold, so a long run of calls reuses the same heap pages instead of
# faulting in fresh ones.
_CACHE_VALUES = 1 << 13


def _row_blocks(reps, width, values=None):
    """Consecutive slices of range(reps), each of max(1, values // width) rows
    except possibly the last; `values` defaults to `_BLOCK_VALUES`."""
    step = max(1, (_BLOCK_VALUES if values is None else values) // width)
    for a in range(0, reps, step):
        yield slice(a, min(a + step, reps))


def _block_buffer(reps, n, values=None):
    """An uninitialized array shaped as the first of `_row_blocks(reps, n, values)`."""
    return np.empty((next(_row_blocks(reps, n, values)).stop, n))


def _paired_draws(model, rng, reps):
    """(rows, Y, Ystar) for each of `_row_blocks(reps, model.n)`.

    Y and Ystar are the `rows` of `model.draw(rng, reps)` and of the second
    such draw after it, to the bit, while only one block of each is alive.
    A first pass runs rng through all of Y, one block at a time, and saves
    the generator's state at the start of each block.  The second pass
    replays each Y block from its saved state and draws the matching Ystar
    block from where the first pass stopped.  Every Y block, in both
    passes, is drawn into one buffer and every Ystar block into another, so
    a yielded pair is overwritten by the next one.
    """
    blocks = list(_row_blocks(reps, model.n))
    Y, Ystar = _block_buffer(reps, model.n), _block_buffer(reps, model.n)
    states = []
    for rows in blocks:
        states.append(rng.bit_generator.state)
        k = rows.stop - rows.start
        model.draw(rng, k, out=Y[:k])
    replay = np.random.Generator(type(rng.bit_generator)())
    for rows, state in zip(blocks, states):
        replay.bit_generator.state = state
        k = rows.stop - rows.start
        yield rows, model.draw(replay, k, out=Y[:k]), model.draw(rng, k, out=Ystar[:k])


def _check_count(value, name, least):
    """value as an int; DomainError unless it is an integer of at least `least`."""
    if not (value >= least and float(value).is_integer()):
        raise DomainError(f"{name} must be an integer at least {least}, got {value!r}")
    return int(value)


def _as_float_vector(x, name, n=None):
    """x as a float vector, of length n if given, naming its first non-finite index."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ShapeError(f"{name} must have length {n}, got {arr.shape[0]}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} is not finite at index {np.argmin(np.isfinite(arr))}")
    return arr


def _check_noise(sigma, sigmas, n=None):
    """(float sigma, None) or (None, length-n sigmas); exactly one, each in [2^-511, 2^512)."""
    if (sigma is None) == (sigmas is None):
        raise DomainError("specify exactly one of sigma and sigmas")
    name, sd = "sigma", sigma
    if sigmas is not None:
        name, sd = "sigmas", _as_float_vector(sigmas, "sigmas", n)
    if not np.all((2.0**-511 <= sd) & (sd < 2.0**512)):
        raise DomainError(f"{name} must be positive and finite, with a normal square "
                          f"(2^-511 <= {name} < 2^512)")
    return (float(sd), None) if sigmas is None else (None, sd)


def _check_tuning(s, name):
    """s as a float array of tuning values: nonnegative, +inf allowed, not NaN.  A bool,
    string or other non-number is refused (a float conversion reads True and "1" as 1.0)."""
    arr = np.asarray(s)
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be a real number, got {s!r}")
    arr = arr.astype(float)
    if not arr.min(initial=math.inf) >= 0:  # False at NaN
        raise DomainError(f"{name} must be nonnegative (+inf allowed), not NaN")
    return arr


def _check_tuning_value(s, name):
    """One tuning value that `_check_tuning` accepts, as a float."""
    s = _check_tuning(s, name)
    if s.ndim:
        raise DomainError(f"{name} must be one value, got shape {s.shape}")
    return float(s)


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
    non-finite theta0 raises DomainError naming its first bad index, and
    one whose squared norm overflows (as `_check_batch` refuses for data)
    names its largest entry.
    """

    theta0: np.ndarray
    sigma: float = None
    sigmas: np.ndarray = None

    def __post_init__(self):
        theta0 = _as_float_vector(self.theta0, "theta0")
        if not math.isfinite(np.einsum("i,i->", theta0, theta0)):
            raise DomainError("squared norm of theta0 overflows "
                              f"(largest at index {np.argmax(np.abs(theta0))})")
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

    def draw(self, rng, reps, out=None):
        """Draw `reps` independent data vectors as a (reps, n) array, written
        into the C-contiguous (reps, n) float array `out` if one is given."""
        # In place, with the bytes of theta0 + sd * z.
        z = rng.standard_normal((reps, self.n), out=out)
        z *= _noise_sd(self)
        z += self.theta0
        return z


def _check_batch(Y, n, what="data", first=0):
    """Y as a float (reps, n) array whose every row has a finite squared norm.

    Raises ShapeError for any other shape and DomainError naming the first
    offending (row, column) of `what`, rows counted from `first`.  Sums of
    squares catch NaN, inf and rows whose squared norm overflows without a
    temporary the size of Y: one total sum clears the common case, per-row
    sums locate a bad row.  The total is an
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
            raise DomainError(f"{what} is not finite at (row {first + row}, column {bad[0]})")
        col = int(np.argmax(np.abs(Y[row])))
        raise DomainError(f"squared norm of {what} row {first + row} overflows "
                          f"(largest at column {col})")
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

    For a subset collection `s_hat` holds integer indices into its
    `subsets`; for the other families it holds the tuning values themselves
    (with +inf allowed).  `multimodal` is a per-row bool array
    from tuners that probe for several local minima of SURE, else None.
    """

    s_hat: np.ndarray
    theta_hat: np.ndarray
    sure_min: np.ndarray
    naive_df_at_shat: np.ndarray
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
        _check_count(self.reps, "reps", 1)


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

    Subclasses provide `estimate`, `naive_df` and `_tuned(Y, sd)`, which
    tunes every row of a (reps, n) batch at once at unit noise, and, where
    the family has one, the oracle search `_oracle_at(theta0, sd)`, also at
    unit noise (see the module docstring on the noise scale).  `tune_batch`,
    `tune` and `oracle` are derived here, once, from those cores.  Tuning
    values lie in `_s_range`, [0, +inf] unless a family narrows it.  Each
    family carries its own noise level because tuning needs it.

    `_tuned` must be re-entrant: the bootstrap calls `tune_batch` from
    several threads at once on one family, so it may read but never write
    the family's attributes.  Every family in the package only reads them.

    A family's own excess-df statistics, None where it has none (`simulate`
    then writes "skipped" rows): `hooks`, its `stein.SmoothFamilyHooks` for
    implicit differentiation, and `edf_unbiased(fit)`, a per-row statistic.
    """

    n: int
    hooks = None
    _oracle_at = None

    # Tuning values lie in _s_range and scale as sigma^_s_power under (y, sigma) -> (c y, c sigma).
    _s_power = 0
    _s_range = (0.0, math.inf)

    def _set_noise(self, sigma=None, sigmas=None, n=None):
        self.sigma, self.sigmas = _check_noise(sigma, sigmas, n)
        sd = _noise_sd(self)
        if np.size(sd) == 0:
            raise DomainError("n must be at least 1")
        top = np.max(sd)
        # c = 2^_noise_exp is the power of two nearest sigma, or the RMS of the sigma_i.
        self._noise_exp = round(math.log2(top) + 0.5 * math.log2(np.mean(np.square(sd / top))))

    def _at_unit_noise(self, core, data, oracle=False):
        """Check the batch `data` (with `oracle`, the model) and run core(data / c,
        sd / c) at unit noise, c = 2^_noise_exp, sd the sigma or sigma_i.

        core returns a TunedBatch (for a model, (s0, err) as scalars or
        one-value arrays); its theta_hat is scaled back by c, sure_min (err)
        by c^2 (by 1 in scaled heteroskedastic units), s_hat by c^_s_power,
        and a field left None stays None.
        """
        what = "data"
        if oracle:
            self._check_model(data)
            data, what = data.theta0, "theta0"
        else:
            data = _check_batch(data, self.n)
        e, sd = self._noise_exp, _noise_sd(self)
        if e:
            data, sd = np.ldexp(data, -e), np.ldexp(sd, -e)
            if e < 0:  # the data grow, and their squares must stay finite
                _check_batch(data.reshape(-1, self.n), self.n, what + " at unit noise")
        out = core(data, sd)
        powers = {"s_hat": self._s_power * e, "theta_hat": e,
                  "sure_min": 0 if self.is_heteroskedastic else 2 * e}
        if oracle:
            s0, err = (np.ldexp(v, powers[k]).item() for v, k in zip(out, ("s_hat", "sure_min")))
            return OracleTuning(s0=self._label(s0), err=err)
        for name, k in powers.items():
            if k and getattr(out, name) is not None:  # the core's own arrays: scaled in place
                np.ldexp(getattr(out, name), k, out=getattr(out, name))
        return out

    def _label(self, s):
        """A tuned value as callers see it: a float (a subset collection's label)."""
        return float(s)

    def _check_model(self, model):
        """DomainError unless `model` is a GaussianModel with this n and noise."""
        if not (isinstance(model, GaussianModel) and model.n == self.n
                and model.sigma == self.sigma and np.array_equal(model.sigmas, self.sigmas)):
            raise DomainError(f"model does not match {type(self).__name__}: expected a "
                              "GaussianModel with the family's n and noise")

    @property
    def is_heteroskedastic(self):
        return getattr(self, "sigmas", None) is not None

    def _check_s(self, s):
        """s as one float in `_s_range`, else DomainError; `estimate`, `naive_df`
        and `sure` call it (a subset collection looks its labels up instead)."""
        s = _check_tuning_value(s, "tuning value")
        if not self._s_range[0] <= s <= self._s_range[1]:
            raise DomainError(f"tuning value {s!r} is outside the family domain")
        return s

    @abstractmethod
    def estimate(self, s, y):
        """Evaluate theta_s at y; broadcasts over leading axes of y."""

    @abstractmethod
    def naive_df(self, s, y):
        """Plug-in df of theta_s at y (divergence for smooth families)."""

    @abstractmethod
    def _tuned(self, Y, sd):
        """The TunedBatch minimizing SURE over the domain for each row of the
        checked batch Y at noise sd (sigma, or the sigma_i), both scaled to
        unit noise by `tune_batch`."""

    def tune_batch(self, Y):
        """Minimize SURE over the domain for each row of Y; a TunedBatch."""
        return self._at_unit_noise(self._tuned, Y)

    def tune(self, y):
        """Minimize SURE over the domain for a single data vector.

        Row 0 of `tune_batch(y[None])`, with a subset collection's index
        mapped back to its label in `subsets`.
        """
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n,):
            raise ShapeError(f"expected a length-{self.n} vector")
        batch = self.tune_batch(y[None, :])
        return TunedFit(
            s_hat=self._label(batch.s_hat[0]),
            theta_hat=batch.theta_hat[0],
            sure_min=float(batch.sure_min[0]),
            naive_df_at_shat=float(batch.naive_df_at_shat[0]),
            multimodal=None if batch.multimodal is None else bool(batch.multimodal[0]),
        )

    def sure(self, s, y):
        """Unbiased prediction-error estimate of theta_s at y (or each row of y).

        Homoskedastic: ||y - theta_s(y)||^2 + 2 sigma^2 naive_df(s, y).
        Heteroskedastic: sum_i (y_i - theta_i)^2 / sigma_i^2 + 2 naive_df(s, y).

        The residual is formed as y - theta_s(y), so the value is exact to
        rounding while theta_s(y) stays apart from y, and cancels once
        theta_s(y) rounds to y (s near 0 on data far above the noise): for
        `HeteroShrinkFamily([1, 2, 3, 4])` at y = 1e100 * [1, 2, 3, 4] and
        s = 4.1e-66 it reads 8.0 where the criterion, and the tuner's
        `sure_min` there, are about 6.1e71.

        Raises DomainError for s outside the family's tuning domain and
        ShapeError for mismatched data.
        """
        y = np.asarray(y, dtype=float)
        if y.ndim == 0 or y.shape[-1] != self.n:
            raise ShapeError(f"data has shape {y.shape}, family expects trailing dimension {self.n}")
        self._check_s(s)
        theta = self.estimate(s, y)
        df = self.naive_df(s, y)
        return _sq_error(y - theta, self) + 2.0 * _df_unit(self) * df

    def edf_unbiased(self, fit):
        """Unbiased excess-df statistic of each row of the TunedBatch `fit`, or None."""
        return None

    def oracle(self, model):
        """`OracleTuning`: the s minimizing the exact prediction error at the
        mean of `model` (see `_check_model`), and that error.  A family with
        a closed form or an exact search writes it as `_oracle_at(theta0,
        sd)`, returning (s0, err) at unit noise; without one this raises.

        SURE is unbiased for the prediction error at every fixed s.  Where it
        depends on the data only through squares (||y||^2, ||P y||^2, y_i^2
        or the squared coordinates (y @ Q)^2), its expectation is SURE at the
        expected squares, theta0^2 + sigma^2 coordinatewise.  Such a family's
        oracle is therefore its own tuning core run at those statistics, and
        the SURE minimum it reports is the exact error.
        """
        if self._oracle_at is None:
            raise DomainError(f"{type(self).__name__} provides no oracle tuning")
        return self._at_unit_noise(self._oracle_at, model, oracle=True)


def _normal_pdf(t):
    """Standard normal density, elementwise."""
    return np.exp(-0.5 * np.square(t)) / math.sqrt(2.0 * math.pi)


_erfc = np.vectorize(math.erfc, otypes=[float])


def _normal_cdf(t):
    """Standard normal distribution function, elementwise: erfc(-t/sqrt 2)/2,
    which keeps its relative precision deep in the lower tail."""
    return 0.5 * _erfc(np.negative(t) / math.sqrt(2.0))


def _bisect_sign_change(slope, lo, hi):
    """The adjacent doubles (lo, hi) that bracket a - to + sign change of the
    scalar function `slope`, given slope(lo) < 0 <= slope(hi); bisection
    evaluates midpoints only, never the two ends it starts from."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _mean_se(values):
    values = np.asarray(values, dtype=float)
    r = values.shape[0]
    se = float(values.std(ddof=1) / math.sqrt(r)) if r > 1 else 0.0
    return float(values.mean()), se, r


def _rule_tuner(rule):
    """`rule` as a tuner for `_tuned_stats`: a TunedBatch holding rule(Y) alone.

    ShapeError unless rule(Y) has the shape of the (k, n) block Y; DomainError
    naming the (row, column) of a non-finite estimate or an overflowing row.
    """
    done = 0

    def tune(Y):
        nonlocal done
        theta = np.asarray(rule(Y), dtype=float)
        if theta.shape != Y.shape:
            raise ShapeError("rule must map a (k, n) block of rows to (k, n) estimates")
        theta = _check_batch(theta, Y.shape[1], "rule output", first=done)
        done += Y.shape[0]
        return TunedBatch(s_hat=None, theta_hat=theta, sure_min=None, naive_df_at_shat=None)

    return tune


def _df_stats(theta, Y, model):
    """Per-replication covariance-form df statistics for a batch, formed row
    by row in chunks of at most `_CACHE_VALUES` values."""
    reps, n = Y.shape
    stats, var = np.empty(reps), _noise_sd(model) ** 2
    work = _block_buffer(reps, n, _CACHE_VALUES)
    for rows in _row_blocks(reps, n, _CACHE_VALUES):
        terms = np.subtract(Y[rows], model.theta0, out=work[:rows.stop - rows.start])
        terms *= theta[rows]
        terms /= var
        stats[rows] = np.sum(terms, axis=-1)
    return stats


def _tuned_stats(tune, model, seed, reps, *names, **funcs):
    """Draw `reps` rows of `model` from default_rng(seed), tune them block by
    block, and return their per-row statistics as a dict of arrays.

    The one loop over a model's draws (see the module docstring on row
    blocks), behind `mc_df`, `mc_edf`, `mc_prediction_error`, `simulate`'s
    grid cells and acceptance c02-c04 and c11.  `tune` maps a (k, n) block
    to a `TunedBatch`: a family's `tune_batch`, or a rule through
    `_rule_tuner`.  The dict holds a length-reps vector for each of `names`
    ("cov": `_df_stats`; "edf": cov minus the plug-in df; "test": the test
    error on an independent Y*; else a field of the fit) and one for each
    keyword, stacking funcs[name](Y, fit) over the (k, n) blocks Y: length-k
    vectors give a length-reps vector, (k, m) blocks a (reps, m) array.  A
    statistic the family lacks (a None function or value) is None.

    Without "test" the blocks are the rows of one `model.draw(rng, reps)`,
    leaving rng where that draw leaves it.  With "test" they come from
    `_paired_draws`, and the test residual Y* - theta_hat is formed in
    place in the Y* block, which nothing reads after it.

    Every block is drawn into the same buffer, so a block handed to a func
    is overwritten by the next block (as is a rule's theta_hat when the
    rule returns its block): a func that keeps one past its call copies
    it.  Each block's fit is released before the next block is drawn.
    """
    # A Monte Carlo standard error needs two replications: one would report
    # std_error 0, which `EdfReport` reserves for deterministic methods.
    reps = _check_count(reps, "reps", 2)
    rng = np.random.default_rng(seed)
    if "test" in names:
        blocks = _paired_draws(model, rng, reps)
    else:
        buffer = _block_buffer(reps, model.n)
        views = ((rows, buffer[:rows.stop - rows.start]) for rows in _row_blocks(reps, model.n))
        blocks = ((rows, model.draw(rng, len(Y), out=Y), None) for rows, Y in views)
    per_row = {}
    for rows, Y, Ystar in blocks:
        fit = tune(Y)
        stats = {}
        for name in names:
            if name == "test":
                Ystar -= fit.theta_hat
                stats[name] = _sq_error(Ystar, model)
            elif name in ("cov", "edf"):
                cov = _df_stats(fit.theta_hat, Y, model)
                stats[name] = cov if name == "cov" else cov - fit.naive_df_at_shat
            else:
                stats[name] = getattr(fit, name)
        stats.update((name, None if f is None else f(Y, fit)) for name, f in funcs.items())
        for name, values in stats.items():
            if name not in per_row:
                per_row[name] = None if values is None else np.empty((reps, *np.shape(values)[1:]))
            if values is not None:
                per_row[name][rows] = values
        del fit, stats
    return per_row


def mc_prediction_error(rule, model, *, reps=1000, seed=0):
    """Monte Carlo prediction error E||Y* - rule(Y)||^2 of a fixed rule.

    Draws independent (Y, Y*) pairs from the model; `rule` maps a (k, n)
    block of data rows to its (k, n) estimates and must act row by row (see
    the module docstring on row blocks).  Under a heteroskedastic model the
    summands are scaled by 1/sigma_i^2.
    """
    err = _tuned_stats(_rule_tuner(rule), model, seed, reps, "test")["test"]
    return MCEstimate(*_mean_se(err))


def mc_df(rule, model, *, reps=1000, seed=0):
    """Monte Carlo degrees of freedom of a rule via the covariance form.

    Uses df = sum_i Cov(rule_i(Y), Y_i) / sigma^2 (per-coordinate variances
    in the heteroskedastic case).  Each replication contributes
    sum_i rule_i(Y)(Y_i - theta0_i) / sigma^2, which is exactly unbiased.
    `rule` maps a (k, n) block of data rows to its (k, n) estimates and must
    act row by row (see the module docstring on row blocks).
    """
    stats = _tuned_stats(_rule_tuner(rule), model, seed, reps, "cov")["cov"]
    return MCEstimate(*_mean_se(stats))


def mc_edf(family, model, *, reps=1000, seed=0):
    """Monte Carlo excess degrees of freedom of the SURE-tuned rule.

    One shared set of draws feeds both terms: each replication contributes

        sum_i theta_shat,i(Y) (Y_i - theta0_i) / sigma^2  -  naive_df(s_hat, Y),

    whose mean over replications estimates df(theta_shat) - E[naive df].
    Pairing the two terms this way keeps the variance of the difference far
    below that of either term alone.  `model` must match the family (see
    `EstimatorFamily._check_model`).  The draws are tuned by
    `family.tune_batch` in row blocks (see the module docstring).
    """
    family._check_model(model)
    value, se, r = _mean_se(_tuned_stats(family.tune_batch, model, seed, reps, "edf")["edf"])
    return EdfReport(method="monte_carlo", value=value, std_error=se, reps=r)
