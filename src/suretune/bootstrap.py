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
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, EdfReport, _mean_se

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
        if self.B < 2:
            raise DomainError("bootstrap needs B >= 2 replicates")
        if self.sampler not in SAMPLERS:
            raise DomainError(f"sampler must be one of {SAMPLERS}")
        if not 0.0 < self.c <= 1.0:
            raise DomainError("bigmodel scale c must lie in (0, 1]")


def _replicates(family, y, theta_hat, config, rng):
    n = y.shape[0]
    sd = family.sigmas if family.is_heteroskedastic else family.sigma
    if config.sampler == "parametric":
        return theta_hat + sd * rng.standard_normal((config.B, n))
    if config.sampler == "bigmodel":
        return y + math.sqrt(config.c) * sd * rng.standard_normal((config.B, n))
    resid = y - theta_hat
    idx = rng.integers(0, n, size=(config.B, n))
    return theta_hat + resid[idx]


def _bootstrap_stats(family, y, theta_hat, config):
    """Per-replicate covariance-form df and plug-in df after retuning,
    drawing around theta_hat, the family's tuned fit at the data vector y.
    """
    y = np.asarray(y, dtype=float)
    rng = np.random.default_rng(config.seed)
    Ystar = _replicates(family, y, theta_hat, config, rng)
    refit = family.tune_batch(Ystar)
    center = Ystar.mean(axis=0)
    scale = family.sigmas**2 if family.is_heteroskedastic else family.sigma**2
    cov_form = np.sum(refit.theta_hat * (Ystar - center) / scale, axis=1)
    return cov_form, refit.naive_df_at_shat


def _report(stats, config, shift=0.0):
    """Mean of per-replicate statistics (plus shift) with its standard error."""
    value, se, reps = _mean_se(stats)
    return EdfReport(method=f"bootstrap_{config.sampler}", value=shift + value,
                     std_error=se, reps=reps)


def bootstrap_edf(family, y, config=None):
    """Bootstrap excess degrees of freedom of the SURE-tuned rule at y."""
    config = config or BootstrapConfig()
    cov_form, plugin = _bootstrap_stats(family, y, family.tune(y).theta_hat, config)
    return _report(cov_form - plugin, config)


def bootstrap_df(family, y, config=None, *, naive=False):
    """Bootstrap degrees of freedom of the SURE-tuned rule at y.

    The default estimate is the plug-in df at the observed data plus the
    bootstrap excess; with ``naive=True`` only the first (covariance-form)
    bootstrap term is returned, with no plug-in anchoring.
    """
    config = config or BootstrapConfig()
    fit = family.tune(y)
    cov_form, plugin = _bootstrap_stats(family, y, fit.theta_hat, config)
    if naive:
        return _report(cov_form, config)
    return _report(cov_form - plugin, config, fit.naive_df_at_shat)


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
    fit = family.tune(y)
    cov_form, plugin = _bootstrap_stats(family, y, fit.theta_hat, config)
    edf = _report(cov_form - plugin, config)
    factor = 2.0 if family.is_heteroskedastic else 2.0 * family.sigma**2
    return CorrectedError(
        estimate=fit.sure_min + factor * edf.value,
        sure_min=fit.sure_min,
        edf=edf,
    )
