"""Bootstrap estimates of tuned-rule degrees of freedom and their excess.

All estimators here share one recipe: tune the family on the observed data,
draw B replicate data sets around the resulting fit, retune on each
replicate, and read degrees of freedom off the replicates via the
covariance form

    (1/B) sum_b (1/sigma^2) sum_i theta*_i^b (Y*_i^b - Ybar*_i),

with Ybar* the across-replicate mean computed in a second pass.  Subtracting
the average plug-in df of the retuned fits gives the excess-df estimate; a
rule with no data-driven tuning gets exactly zero.

Three replicate samplers are available:

    parametric : Y* ~ N(theta_hat, sigma^2 I), noise at the model level
    bigmodel   : Y* ~ N(y, c sigma^2 I), c in (0, 1], centered on the data
    residual   : theta_hat + residuals resampled i.i.d. with replacement
                 (uncentered, exactly as observed)

Heteroskedastic families scale both the noise and the covariance form per
coordinate.

Batch contract: `_bootstrap_stats(family, Y, theta_hat, config, seeds)` runs
the recipe for every row of a (R, n) batch.  Row r draws its B replicates
from its own stream `default_rng(seeds[r])`, so its result depends on nothing
else in the batch, and it comes back as four length-R arrays (mean and
standard error of the excess df and of the covariance form), never as (R, B)
arrays.  Replicates are built in place in one reused buffer with the same
floating-point operations, center and reduction axes as a fresh (B, n)
array, so a row's bytes do not depend on R or on the blocking below.  The
public functions pass a one-row batch; `simulate` passes a whole grid cell.

Blocking and threads: `core._row_blocks` sets both block sizes.  Reps whose
B * n fits in `core._BLOCK_VALUES` share one `tune_batch` call; a larger rep
is retuned in row chunks after its center is taken.  Blocks of reps go to
min(os.cpu_count(), blocks) threads, each with its own buffers, allocated
by the caller and reused across its blocks.  A single block runs inline.
Families must therefore tune re-entrantly (see `EstimatorFamily`), and an
exception raised in a worker reaches the caller unchanged.  A family whose
`tune_batch` multiplies matrices through BLAS may round a row chunk in the
last place differently from the whole (B, n) batch; families without BLAS
calls give the same bytes either way.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import DomainError, EdfReport, _check_count, _df_unit, _noise_sd, _row_blocks

__all__ = [
    "SAMPLERS",
    "BootstrapConfig",
    "bootstrap_edf",
    "bootstrap_df",
    "CorrectedError",
    "corrected_error_estimate",
]

SAMPLERS = ("parametric", "bigmodel", "residual")

@dataclass(frozen=True)
class BootstrapConfig:
    """Replication count, sampler choice, bigmodel scale, and seed."""

    B: int = 1000
    sampler: str = "parametric"
    c: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "B", _check_count(self.B, "bootstrap B", 2))
        if self.sampler not in SAMPLERS:
            raise DomainError(f"sampler must be one of {SAMPLERS}")
        if not 0.0 < self.c <= 1.0:
            raise DomainError("bigmodel scale c must lie in (0, 1]")


def _replicates(family, y, theta_hat, config, rng, out=None):
    """Fill `out`, a (B, n) array (new if None), with B replicates of y."""
    n = y.shape[0]
    if out is None:
        out = np.empty((config.B, n))
    sd = _noise_sd(family)
    if config.sampler == "parametric":
        rng.standard_normal(out=out)
        out *= sd
        out += theta_hat
    elif config.sampler == "bigmodel":
        rng.standard_normal(out=out)
        out *= math.sqrt(config.c) * sd
        out += y
    else:
        resid = y - theta_hat
        np.add(theta_hat, resid[rng.integers(0, n, size=out.shape)], out=out)
    return out


class _Stats(NamedTuple):
    """Per-row mean and standard error over B replicates of two statistics."""

    edf: np.ndarray
    edf_se: np.ndarray
    cov_form: np.ndarray
    cov_form_se: np.ndarray


def _bootstrap_stats(family, Y, theta_hat, config, seeds):
    """Bootstrap summaries for each row of a (R, n) batch of data vectors.

    Row r draws B replicates around theta_hat[r], the family's tuned fit at
    Y[r], from `np.random.default_rng(seeds[r])`, retunes every replicate,
    and summarizes two per-replicate statistics by their mean and standard
    error: the covariance form and its excess over the plug-in df.  `seeds`
    is a sequence of R integers; `config.seed` is not used here.
    """
    Y = np.asarray(Y, dtype=float)
    R, n = Y.shape
    B = config.B
    # Blocks of reps, each B * n values a row, and each worker's buffers: the
    # replicates of its largest block and that block's largest retuning chunk.
    blocks = list(_row_blocks(R, B * n))
    workers = min(os.cpu_count() or 1, len(blocks))
    out = np.empty((4, R))
    total = blocks[0].stop * B
    step = next(_row_blocks(total, n)).stop
    buffers = [(np.empty((total, n)), np.empty((step, n))) for _ in range(workers)]

    def run(w):
        Ystar, work = buffers[w]
        for rows in blocks[w::workers]:
            _block(family, Y[rows], theta_hat[rows], config, seeds[rows], Ystar, work,
                   out[:, rows])

    # The calling thread is worker 0, so one block needs no pool at all.
    with ThreadPoolExecutor(workers - 1) if workers > 1 else nullcontext() as pool:
        futures = [pool.submit(run, w) for w in range(1, workers)]
        run(0)
        for future in futures:
            future.result()
    return _Stats(*out)


def _block(family, Y, theta_hat, config, seeds, Ystar, work, out):
    # Draw each rep's replicates into its slice of Ystar and take their
    # center, then retune in the row chunks of `_row_blocks` (all the block's
    # reps, or a row range of its one rep) and write the summaries into out.
    B, (reps, n) = config.B, Y.shape
    total = reps * B
    Ystar = Ystar[:total]
    centers = np.empty((reps, n))
    for i in range(reps):
        rep = _replicates(family, Y[i], theta_hat[i], config,
                          np.random.default_rng(seeds[i]), out=Ystar[i * B:(i + 1) * B])
        centers[i] = rep.mean(axis=0)
    scale = _noise_sd(family) ** 2
    cov_form = np.empty(total)
    plugin = np.empty(total)
    for chunk in _row_blocks(total, n):
        a, b = chunk.start, chunk.stop
        refit = family.tune_batch(Ystar[a:b])
        c = centers[a // B:(b - 1) // B + 1]
        w = work[:b - a]
        np.subtract(Ystar[a:b].reshape(len(c), -1, n), c[:, None, :],
                    out=w.reshape(len(c), -1, n))
        np.multiply(refit.theta_hat, w, out=w)
        np.divide(w, scale, out=w)
        np.sum(w, axis=1, out=cov_form[a:b])
        plugin[a:b] = refit.naive_df_at_shat
    for k, stats in enumerate((cov_form - plugin, cov_form)):
        stats = stats.reshape(reps, B)
        out[2 * k] = stats.mean(axis=1)
        out[2 * k + 1] = stats.std(axis=1, ddof=1) / math.sqrt(B)


def _report(value, se, config, shift=0.0):
    """An EdfReport of a bootstrap mean (plus shift) and its standard error."""
    return EdfReport(method=f"bootstrap_{config.sampler}", value=shift + float(value),
                     std_error=float(se), reps=config.B)


def _one(family, y, config):
    # The tuned fit at y and the bootstrap summaries of that one row.
    y = np.asarray(y, dtype=float)
    fit = family.tune(y)
    return fit, _bootstrap_stats(family, y[None], fit.theta_hat[None], config, [config.seed])


def bootstrap_edf(family, y, config=None):
    """Bootstrap excess degrees of freedom of the SURE-tuned rule at y."""
    config = config or BootstrapConfig()
    _, stats = _one(family, y, config)
    return _report(stats.edf[0], stats.edf_se[0], config)


def bootstrap_df(family, y, config=None, *, naive=False):
    """Bootstrap degrees of freedom of the SURE-tuned rule at y.

    The default estimate is the plug-in df at the observed data plus the
    bootstrap excess; with ``naive=True`` only the first (covariance-form)
    bootstrap term is returned, with no plug-in anchoring.
    """
    config = config or BootstrapConfig()
    fit, stats = _one(family, y, config)
    if naive:
        return _report(stats.cov_form[0], stats.cov_form_se[0], config)
    return _report(stats.edf[0], stats.edf_se[0], config, fit.naive_df_at_shat)


@dataclass(frozen=True)
class CorrectedError:
    """Tuned SURE minimum, its bootstrap correction, and the pieces."""

    estimate: float
    sure_min: float
    edf: EdfReport


def corrected_error_estimate(family, y, config=None):
    """Bias-corrected prediction-error estimate sure_min + 2 sigma^2 edf*.

    The tuned SURE minimum understates prediction error by twice the
    (noise-scaled) excess degrees of freedom; this adds the bootstrap
    estimate of that term.  Heteroskedastic families work in scaled units,
    where the correction is 2 * edf with no variance factor.
    """
    config = config or BootstrapConfig()
    fit, stats = _one(family, y, config)
    edf = _report(stats.edf[0], stats.edf_se[0], config)
    return CorrectedError(
        estimate=fit.sure_min + 2.0 * _df_unit(family) * edf.value,
        sure_min=fit.sure_min,
        edf=edf,
    )
