"""Batch simulation harness: tuned-rule error accounting over a design grid.

A `SimSpec` names an estimator family, mean settings, sample sizes, noise
level, replication counts, and an optional bootstrap configuration.
`run_simulation` then walks the (setting, n) grid and emits long-format rows
(family, setting, n, quantity, method, mean, std_error, reps, status), one
per estimator/quantity pairing:

    quantity edf : monte_carlo, unbiased, implicit_diff, bootstrap,
                   observed_scaled_exopt
    quantity df  : naive, unbiased, monte_carlo, bootstrap, naive_bootstrap
    quantity err : naive (the tuned SURE minimum), corrected (bootstrap
                   debiased), test (independent draw)

plus `err_over_n` copies of the error rows normalized by the sample size.
The family answers for its own statistics: the unbiased rows come from
`family.edf_unbiased(fit)` and the implicit_diff row from `family.hooks`.
Where that member is None (and for bootstrap rows when B = 0) the rows are
emitted with status="skipped" rather than dropped, so the output shape is
config-independent.

Determinism: the data block for grid cell (setting i, size j) is drawn from
SeedSequence([seed, j, i]) and per-repetition bootstrap streams from
SeedSequence([seed, j, i, rep]); results are byte-identical across reruns
and never depend on thread count.
"""

import io
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bootstrap import BootstrapConfig, _bootstrap_stats
from .core import (DomainError, GaussianModel, OracleTuning, TunedBatch, TuningDomain,
                   _check_batch, _check_count, _df_stats, _df_unit, _mean_se, _sq_error)
from .shrinkage import ShrinkMeansFamily
from .softthresh import SoftThreshFamily
from .stein import _implicit_diff_stats

__all__ = [
    "SETTINGS",
    "FAMILIES",
    "SimSpec",
    "SimRow",
    "ConfigError",
    "parse_config",
    "theta0_for",
    "run_simulation",
    "write_csv",
    "PRESETS",
]

SETTINGS = ("null", "weak_sparsity", "strong_sparsity", "custom")


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
        if not 0.0 <= s < math.inf:
            raise DomainError("the fixed tuning value must be finite and nonnegative")
        self.s_fixed = float(s)
        self.domain = TuningDomain(kind="continuous", lower=self.s_fixed, upper=self.s_fixed)

    def tune_batch(self, Y):
        Y = _check_batch(Y, self.n)
        s = self.s_fixed
        return TunedBatch(
            s_hat=np.full(Y.shape[0], s),
            theta_hat=self.estimate(s, Y),
            sure_min=np.asarray(self.sure(s, Y), dtype=float),
            naive_df_at_shat=np.full(Y.shape[0], self.naive_df(s, Y)),
        )

    def edf_unbiased(self, fit):
        return np.zeros(fit.s_hat.shape[0])

    def oracle(self, model):
        """s_fixed and its error n sigma^2 + (||theta0||^2 s^2 + n sigma^2)/(1+s)^2."""
        self._check_model(model)
        s, b = self.s_fixed, self.n * self.sigma**2
        t2 = float(np.sum(model.theta0**2))
        return OracleTuning(s0=s, err=b + (t2 * s**2 + b) / (1.0 + s) ** 2)


_FAMILY_CLASSES = {"shrink_means": ShrinkMeansFamily, "soft_threshold": SoftThreshFamily,
                   "singleton_shrink": SingletonShrinkFamily}
FAMILIES = tuple(_FAMILY_CLASSES)


@dataclass(frozen=True)
class SimSpec:
    """A full simulation request; fields double as config-file keys."""

    family: str = "shrink_means"
    setting: tuple = ("null",)
    sizes: tuple = (10, 50, 200)
    sigma: float = 1.0
    outer_reps: int = 1000
    bootstrap_B: int = 0
    bootstrap_sampler: str = "parametric"
    bootstrap_c: float = 1.0
    seed: int = 0
    out: str = "-"
    theta0: tuple = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"family must be one of {FAMILIES}")
        settings = (self.setting,) if isinstance(self.setting, str) else tuple(self.setting)
        object.__setattr__(self, "setting", settings)
        for s in settings:
            if s not in SETTINGS:
                raise DomainError(f"setting {s!r} not among {SETTINGS}")
        sizes = tuple(_check_count(n, "every size", 1) for n in self.sizes)
        if not sizes:
            raise DomainError("sizes must be nonempty")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "outer_reps", _check_count(self.outer_reps, "outer_reps", 2))
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise DomainError("sigma must be positive and finite")
        if self.bootstrap_B != 0:
            object.__setattr__(self, "bootstrap_B",
                               _check_count(self.bootstrap_B, "bootstrap_B other than 0", 2))
            # Fail now on a sampler/scale combination bootstrap would reject.
            BootstrapConfig(B=self.bootstrap_B, sampler=self.bootstrap_sampler,
                            c=self.bootstrap_c, seed=0)
        if "custom" in settings:
            if self.theta0 is None:
                raise DomainError("setting=custom requires theta0")
            theta0 = tuple(float(v) for v in self.theta0)
            if not all(map(math.isfinite, theta0)):
                raise DomainError("custom theta0 must be finite")
            object.__setattr__(self, "theta0", theta0)
            bad = [n for n in sizes if n != len(theta0)]
            if bad:
                raise DomainError("custom theta0 length must equal every size")


def theta0_for(setting, n, custom=None):
    """Mean vector for a named setting at sample size n.

    null: zeros.  weak_sparsity: 4 i^{-1/2}, i = 1..n.  strong_sparsity:
    4 on the first floor(log n) coordinates (natural log), 0 elsewhere.
    custom: the supplied vector.
    """
    if setting == "null":
        return np.zeros(n)
    if setting == "weak_sparsity":
        return 4.0 / np.sqrt(np.arange(1, n + 1, dtype=float))
    if setting == "strong_sparsity":
        theta = np.zeros(n)
        theta[: int(math.floor(math.log(n)))] = 4.0
        return theta
    if setting == "custom":
        if custom is None:
            raise DomainError("custom setting needs a vector")
        arr = np.asarray(custom, dtype=float)
        if arr.shape != (n,):
            raise DomainError(f"custom theta0 has length {arr.size}, expected {n}")
        return arr
    raise DomainError(f"unknown setting {setting!r}")


@dataclass
class SimRow:
    family: str
    setting: str
    n: int
    quantity: str
    method: str
    value: float = None
    std_error: float = None
    reps: int = 0
    status: str = "ok"


def run_simulation(spec):
    """Execute the grid and return the long-format result rows."""
    rows = []
    for i_setting, setting in enumerate(spec.setting):
        for j_size, n in enumerate(spec.sizes):
            family = _FAMILY_CLASSES[spec.family](n, spec.sigma)
            theta0 = theta0_for(setting, n, custom=spec.theta0)
            model = GaussianModel(theta0, sigma=spec.sigma)
            rng = np.random.default_rng(np.random.SeedSequence([spec.seed, j_size, i_setting]))
            R = spec.outer_reps
            Y = model.draw(rng, R)
            Ystar = model.draw(rng, R)
            fit = family.tune_batch(Y)

            cov_stats = _df_stats(fit.theta_hat, Y, model)
            mc_edf_stats = cov_stats - fit.naive_df_at_shat
            test_err = _sq_error(Ystar - fit.theta_hat, model)
            scaled_exopt = (test_err - fit.sure_min) / (2.0 * _df_unit(model))
            unbiased_edf = family.edf_unbiased(fit)
            hooks = family.hooks
            implicit_edf = None if hooks is None else _implicit_diff_stats(hooks, Y, fit.s_hat)

            if spec.bootstrap_B:
                cfg = BootstrapConfig(B=spec.bootstrap_B, sampler=spec.bootstrap_sampler,
                                      c=spec.bootstrap_c)
                seeds = [int(np.random.SeedSequence([spec.seed, j_size, i_setting, r])
                             .generate_state(1)[0]) for r in range(R)]
                boot = _bootstrap_stats(family, Y, fit.theta_hat, cfg, seeds)
                boot_edf, boot_df_naive = boot.edf, boot.cov_form
            else:
                boot_edf = boot_df_naive = None

            def add(quantity, method, stats, scale=1.0):
                if stats is None:
                    rows.append(SimRow(spec.family, setting, n, quantity, method,
                                       status="skipped"))
                    return
                value, se, reps = _mean_se(np.asarray(stats, dtype=float) * scale)
                rows.append(SimRow(spec.family, setting, n, quantity, method,
                                   value=value, std_error=se, reps=reps))

            add("edf", "monte_carlo", mc_edf_stats)
            add("edf", "unbiased", unbiased_edf)
            add("edf", "implicit_diff", implicit_edf)
            add("edf", "bootstrap", boot_edf)
            add("edf", "observed_scaled_exopt", scaled_exopt)

            add("df", "naive", fit.naive_df_at_shat)
            add("df", "unbiased",
                fit.naive_df_at_shat + unbiased_edf if unbiased_edf is not None else None)
            add("df", "monte_carlo", cov_stats)
            add("df", "bootstrap",
                fit.naive_df_at_shat + boot_edf if boot_edf is not None else None)
            add("df", "naive_bootstrap", boot_df_naive)

            corrected = (
                fit.sure_min + 2.0 * _df_unit(model) * boot_edf if boot_edf is not None else None
            )
            for quantity, scale in (("err", 1.0), ("err_over_n", 1.0 / n)):
                add(quantity, "naive", fit.sure_min, scale)
                add(quantity, "corrected", corrected, scale)
                add(quantity, "test", test_err, scale)
    return rows


def _fmt(x):
    return "" if x is None else f"{x:.12g}"


def write_csv(rows, dest="-"):
    """Write rows as CSV; dest may be a path, '-' for stdout, or a stream."""
    own = False
    if dest == "-":
        stream = sys.stdout
    elif isinstance(dest, (str, bytes)):
        stream = open(dest, "w", encoding="ascii")
        own = True
    else:
        stream = dest
    try:
        stream.write("family,setting,n,quantity,method,value,std_error,reps,status\n")
        for r in rows:
            stream.write(
                f"{r.family},{r.setting},{r.n},{r.quantity},{r.method},"
                f"{_fmt(r.value)},{_fmt(r.std_error)},{r.reps},{r.status}\n"
            )
    finally:
        if own:
            stream.close()


def rows_to_csv_text(rows):
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()


class ConfigError(ValueError):
    """A config file failed to parse; carries the offending line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


_PARSERS = {
    "family": str,
    "setting": lambda v: tuple(part.strip() for part in v.split(",") if part.strip()),
    "sizes": lambda v: tuple(int(part) for part in v.split(",") if part.strip()),
    "sigma": float,
    "outer_reps": int,
    "bootstrap_B": int,
    "bootstrap_sampler": str,
    "bootstrap_c": float,
    "seed": int,
    "out": str,
    "theta0": lambda v: tuple(float(part) for part in v.split(",") if part.strip()),
}


def parse_config(text):
    """Parse flat key=value config text into a SimSpec.

    Keys are exactly the SimSpec field names; `setting`, `sizes`, and
    `theta0` accept comma-separated lists.  Lines starting with # and blank
    lines are ignored.  All problems raise ConfigError with the 1-based
    line number.
    """
    values = {}
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(lineno, f"expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _PARSERS:
            raise ConfigError(lineno, f"unknown key {key!r}; valid keys: {', '.join(_PARSERS)}")
        if key in seen:
            raise ConfigError(lineno, f"duplicate key {key!r} (first set on line {seen[key]})")
        seen[key] = lineno
        try:
            values[key] = _PARSERS[key](val)
        except ValueError as exc:
            raise ConfigError(lineno, f"bad value for {key!r}: {exc}") from None
    try:
        return SimSpec(**values)
    except DomainError as exc:
        raise ConfigError(0, str(exc)) from None


def _paper_sizes():
    # 10 sample sizes, log-spaced from 10 to 5000.
    return tuple(int(round(v)) for v in np.geomspace(10, 5000, 10))


PRESETS = {
    "paper-scale": SimSpec(
        family="shrink_means",
        setting=("null", "weak_sparsity", "strong_sparsity"),
        sizes=_paper_sizes(),
        sigma=1.0,
        outer_reps=5000,
        bootstrap_B=1000,
        bootstrap_sampler="parametric",
        seed=0,
    ),
    "desk": SimSpec(
        family="shrink_means",
        setting=("null", "weak_sparsity", "strong_sparsity"),
        sizes=(10, 50, 200),
        sigma=1.0,
        outer_reps=1000,
        bootstrap_B=200,
        bootstrap_sampler="parametric",
        seed=0,
    ),
    "smoke": SimSpec(
        family="shrink_means",
        setting=("null",),
        sizes=(10, 25),
        sigma=1.0,
        outer_reps=40,
        bootstrap_B=16,
        bootstrap_sampler="parametric",
        seed=0,
    ),
}
