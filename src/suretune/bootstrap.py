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

Batch contract: `_bootstrap_stats(family, Y, theta_hat, config, seeds)`
runs the recipe for every row of a (reps, n) batch Y with tuned fits
theta_hat.  Row r draws its B replicates from its own stream
`default_rng(seeds[r])`, so its result depends on nothing else in the
batch, and it comes back as row r of one (reps, 3) array.  `_replicates`
fills one (k, B, n) block per job, drawing row by row, then scaling and
shifting the whole block; `mean(axis=1)` takes every rep's center.  These
are the operations and reduction axes of a fresh (B, n) array per rep, so
a row's bytes do not depend on reps or on the blocking below.  The public
functions pass a one-row batch whose seed is `config.seed`.
`_pass_statistic(family, config, entropy)` makes it one of the per-row
statistics of the one Monte Carlo pass, `core._tuned_stats`, for
`simulate` and acceptance c11, and holds the one seed rule of a pass: row
r draws from
`default_rng(int(SeedSequence([*entropy, r]).generate_state(1)[0]))`.

Blocking and threads: `core._row_blocks` sets both block sizes.  The batch
is cut into jobs of reps whose B * n fits in `core._BLOCK_VALUES`, which
share one `tune_batch` call; a larger rep is retuned in row chunks after
its center is taken.  Each job summarizes its own reps: summaries taken
once per call would need two (reps, B) arrays of the call, 3.2 MB at
reps = 1000 and B = 200 where a job's are 0.1 MB.
min(os.cpu_count(), jobs) threads, each with its own buffers, take jobs
one at a time under a lock; the calling thread is one of them, and a
single job runs inline.  Families must therefore tune re-entrantly (see
`EstimatorFamily`), and an exception raised in a worker reaches the caller
unchanged.  A family whose `tune_batch` multiplies matrices through BLAS
may round a row chunk in the last place differently from the whole (B, n)
batch; families without BLAS calls give the same bytes either way.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from .core import DomainError, EdfReport, _check_count, _df_unit, _noise_sd, _row_blocks

__all__ = [
    "SAMPLERS",
    "BootstrapConfig",
    "bootstrap_edf",
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
        object.__setattr__(self, "seed", _check_count(self.seed, "seed", 0))


def _replicates(family, Y, theta_hat, config, seeds, out=None):
    """Fill `out`, a (k, B, n) array (new if None), with B replicates of each
    row of the (k, n) batch Y; row r draws from `default_rng(seeds[r])`."""
    (k, n), sampler = Y.shape, config.sampler
    out = np.empty((k, config.B, n)) if out is None else out
    for r in range(k):
        rng = np.random.default_rng(seeds[r])
        if sampler == "residual":
            np.take(Y[r] - theta_hat[r], rng.integers(0, n, size=out.shape[1:]), out=out[r])
        else:
            rng.standard_normal(out=out[r])
    if sampler != "residual":
        out *= _noise_sd(family) * (math.sqrt(config.c) if sampler == "bigmodel" else 1.0)
    out += (Y if sampler == "bigmodel" else theta_hat)[:, None]
    return out


def _bootstrap_stats(family, Y, theta_hat, config, seeds):
    """Bootstrap summaries for each row of a (reps, n) batch Y of data vectors.

    Row r draws B replicates around its tuned fit theta_hat[r] from
    `np.random.default_rng(seeds[r])` and retunes every replicate.  Row r
    of the (reps, 3) result holds, in order, the mean and standard error of
    the excess df (the covariance form minus the plug-in df) and the mean
    of the covariance form.  `config.seed` is not used here.
    """
    B, (reps, n) = config.B, Y.shape
    jobs = list(_row_blocks(reps, B * n))
    # Each worker's buffers: the replicates of its largest job and that
    # job's largest retuning chunk.
    size = jobs[0].stop
    step = next(_row_blocks(size * B, n)).stop
    workers = min(os.cpu_count() or 1, len(jobs))
    buffers = [(np.empty((size, B, n)), np.empty((step, n))) for _ in range(workers)]
    out = np.empty((reps, 3))
    jobs, lock = iter(jobs), threading.Lock()

    def run(w):
        while True:
            with lock:
                rows = next(jobs, None)
            if rows is None:
                return
            _block(family, Y[rows], theta_hat[rows], config, seeds[rows], *buffers[w],
                   out[rows])

    # The calling thread is worker 0, so one job needs no pool at all.
    with ThreadPoolExecutor(workers - 1) if workers > 1 else nullcontext() as pool:
        futures = [pool.submit(run, w) for w in range(1, workers)]
        run(0)
        for future in futures:
            future.result()
    return out


def _block(family, Y, theta_hat, config, seeds, Ystar, work, out):
    # Draw the job's (reps, B, n) replicates and their centers, then retune in
    # the row chunks of `_row_blocks` (all the job's reps, or a row range of
    # its one rep) and write the summaries into out.
    B, (reps, n) = config.B, Y.shape
    total = reps * B
    Ystar = _replicates(family, Y, theta_hat, config, seeds, out=Ystar[:reps])
    centers = Ystar.mean(axis=1)
    Ystar = Ystar.reshape(total, n)
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
    excess = (cov_form - plugin).reshape(reps, B)
    out[:, 0] = excess.mean(axis=1)
    out[:, 1] = excess.std(axis=1, ddof=1) / math.sqrt(B)
    out[:, 2] = cov_form.reshape(reps, B).mean(axis=1)


def _pass_statistic(family, config, entropy):
    """The bootstrap as a func(Y, fit) of `core._tuned_stats`: each tuned
    row block's (k, 3) `_bootstrap_stats`, row r of the pass drawing from
    the seed int(SeedSequence([*entropy, r]).generate_state(1)[0])."""
    seeds = (int(np.random.SeedSequence([*entropy, r]).generate_state(1)[0]) for r in count())
    return lambda Y, fit: _bootstrap_stats(family, Y, fit.theta_hat, config,
                                           list(islice(seeds, len(Y))))


def _one(family, y, config):
    # The tuned fit at y and the EdfReport of its bootstrap excess df.
    y = np.asarray(y, dtype=float)
    fit = family.tune(y)
    stats = _bootstrap_stats(family, y[None], fit.theta_hat[None], config, [config.seed])
    return fit, EdfReport(method=f"bootstrap_{config.sampler}", value=float(stats[0, 0]),
                          std_error=float(stats[0, 1]), reps=config.B)


def bootstrap_edf(family, y, config=None):
    """Bootstrap excess degrees of freedom of the SURE-tuned rule at y."""
    return _one(family, y, config or BootstrapConfig())[1]


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
    fit, edf = _one(family, y, config or BootstrapConfig())
    return CorrectedError(
        estimate=fit.sure_min + 2.0 * _df_unit(family) * edf.value,
        sure_min=fit.sure_min,
        edf=edf,
    )
