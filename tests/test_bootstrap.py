import math
import os
import sys

import numpy as np
import pytest

from suretune import (
    BootstrapConfig,
    DomainError,
    EstimatorFamily,
    HeteroShrinkFamily,
    ShrinkMeansFamily,
    TunedBatch,
    TuningDomain,
    bootstrap_df,
    bootstrap_edf,
    corrected_error_estimate,
)
from suretune import core
from suretune.bootstrap import _bootstrap_stats, _replicates
from suretune.simulate import SingletonShrinkFamily


class ZeroRuleFamily(EstimatorFamily):
    """Constant-zero estimate: no tuning, no degrees of freedom at all."""

    def __init__(self, n, sigma):
        self.n = int(n)
        self._set_noise(sigma=sigma)
        self.domain = TuningDomain(kind="continuous", lower=0.0, upper=0.0)

    def estimate(self, s, y):
        return np.zeros_like(np.asarray(y, dtype=float))

    def naive_df(self, s, y):
        return 0.0

    def tune_batch(self, Y):
        Y = np.asarray(Y, dtype=float)
        reps = Y.shape[0]
        return TunedBatch(s_hat=np.zeros(reps), theta_hat=np.zeros_like(Y),
                          sure_min=np.sum(Y**2, axis=1), naive_df_at_shat=np.zeros(reps))


class TestBootstrapConfig:
    def test_defaults(self):
        cfg = BootstrapConfig()
        assert cfg.B == 1000
        assert cfg.sampler == "parametric"
        assert cfg.c == 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            BootstrapConfig(B=1)
        with pytest.raises(DomainError):
            BootstrapConfig(sampler="jackknife")
        with pytest.raises(DomainError):
            BootstrapConfig(sampler="bigmodel", c=0.0)
        with pytest.raises(DomainError):
            BootstrapConfig(sampler="bigmodel", c=1.5)
        BootstrapConfig(sampler="bigmodel", c=1.0)  # boundary is allowed

    def test_fractional_B_rejected(self):
        # A fraction would otherwise fail later, deep in numpy, with a TypeError.
        with pytest.raises(DomainError, match="B must be an integer at least 2, got 2.5"):
            BootstrapConfig(B=2.5)


def test_seed_determinism():
    rng = np.random.default_rng(1)
    y = rng.normal(0.0, 1.0, 20)
    fam = SingletonShrinkFamily(20, 1.0, s=1.0)
    a = bootstrap_edf(fam, y, BootstrapConfig(B=64, seed=5))
    b = bootstrap_edf(fam, y, BootstrapConfig(B=64, seed=5))
    c = bootstrap_edf(fam, y, BootstrapConfig(B=64, seed=6))
    assert a.value == b.value
    assert a.std_error == b.std_error
    assert a.value != c.value


def _replicate_stats(fam, y, theta_hat, cfg, seed):
    # The covariance form and plug-in df of each replicate, recomputed from
    # one (B, n) draw and one retune with the array expressions spelled out.
    Ystar = _replicates(fam, y, theta_hat, cfg, np.random.default_rng(seed))
    refit = fam.tune_batch(Ystar)
    scale = fam.sigmas**2 if fam.is_heteroskedastic else fam.sigma**2
    cov_form = np.sum(refit.theta_hat * (Ystar - Ystar.mean(axis=0)) / scale, axis=1)
    return cov_form, refit.naive_df_at_shat


def test_report_is_the_mean_and_standard_error_of_the_replicates():
    y = np.random.default_rng(11).normal(0.0, 1.0, 12)
    fam = SingletonShrinkFamily(12, 1.0, s=0.5)
    cfg = BootstrapConfig(B=40, seed=2)
    theta = fam.tune(y).theta_hat
    cov_form, plugin = _replicate_stats(fam, y, theta, cfg, cfg.seed)
    stats = _bootstrap_stats(fam, y[None], theta[None], cfg, [cfg.seed])
    report = bootstrap_edf(fam, y, cfg)
    assert report.value == float(np.mean(cov_form - plugin))
    assert report.std_error == float(np.std(cov_form - plugin, ddof=1) / math.sqrt(40))
    assert report.reps == 40
    assert (report.value, report.std_error) == (stats.edf[0], stats.edf_se[0])
    assert stats.cov_form[0] == float(np.mean(cov_form))
    assert stats.cov_form_se[0] == float(np.std(cov_form, ddof=1) / math.sqrt(40))


def test_zero_rule_has_exactly_zero_excess():
    y = np.array([1.0, -2.0, 3.0, 0.5])
    fam = ZeroRuleFamily(4, 1.0)
    report = bootstrap_edf(fam, y, BootstrapConfig(B=16, seed=0))
    assert report.value == 0.0
    assert report.std_error == 0.0
    assert report.reps == 16


def test_fixed_rule_excess_matches_centering_bias():
    # an untuned linear rule has true excess 0; the across-replicate
    # centering leaves exactly -df/B in expectation
    rng = np.random.default_rng(2)
    n, s, B = 20, 1.0, 250
    y = rng.normal(0.0, 1.0, n)
    fam = SingletonShrinkFamily(n, 1.0, s=s)
    df = n / (1.0 + s)
    report = bootstrap_edf(fam, y, BootstrapConfig(B=B, seed=3))
    assert abs(report.value - (-df / B)) <= 4.0 * report.std_error


def test_bootstrap_df_is_plugin_plus_excess():
    rng = np.random.default_rng(4)
    y = rng.normal(0.0, 1.0, 15)
    fam = SingletonShrinkFamily(15, 1.0, s=0.5)
    cfg = BootstrapConfig(B=50, seed=7)
    edf = bootstrap_edf(fam, y, cfg)
    df = bootstrap_df(fam, y, cfg)
    plugin = fam.tune(y).naive_df_at_shat
    assert df.value == pytest.approx(plugin + edf.value, abs=1e-12)
    assert df.std_error == pytest.approx(edf.std_error)


def test_naive_bootstrap_df_tracks_identity_rule():
    rng = np.random.default_rng(8)
    n, B = 25, 400
    y = rng.normal(0.0, 1.0, n)
    fam = SingletonShrinkFamily(n, 1.0, s=0.0)  # identity estimate
    report = bootstrap_df(fam, y, BootstrapConfig(B=B, seed=9), naive=True)
    expected = n * (1.0 - 1.0 / B)
    assert abs(report.value - expected) <= 4.0 * report.std_error


def test_corrected_error_fields():
    rng = np.random.default_rng(10)
    y = rng.normal(0.0, 1.0, 12)
    fam = SingletonShrinkFamily(12, 1.0, s=1.0)
    cfg = BootstrapConfig(B=40, seed=11)
    out = corrected_error_estimate(fam, y, cfg)
    assert out.estimate == pytest.approx(out.sure_min + 2.0 * out.edf.value, abs=1e-12)
    assert out.sure_min == pytest.approx(fam.tune(y).sure_min)
    assert out.edf.method == "bootstrap_parametric"


def test_corrected_error_of_untuned_zero_rule_is_plain_sure():
    y = np.array([0.3, -1.1, 2.0])
    fam = ZeroRuleFamily(3, 1.0)
    out = corrected_error_estimate(fam, y, BootstrapConfig(B=8, seed=0))
    assert out.estimate == out.sure_min == pytest.approx(float(y @ y))


class TestSamplers:
    def setup_method(self):
        rng = np.random.default_rng(12)
        self.y = rng.normal(1.0, 1.0, 6)
        self.fam = SingletonShrinkFamily(6, 1.0, s=1.0)
        self.theta = self.fam.tune(self.y).theta_hat

    def test_parametric_centers_on_the_fit(self):
        cfg = BootstrapConfig(B=4000, sampler="parametric", seed=13)
        reps = _replicates(self.fam, self.y, self.theta, cfg, np.random.default_rng(13))
        assert reps.shape == (4000, 6)
        assert np.allclose(reps.mean(axis=0), self.theta, atol=0.08)
        assert np.allclose(reps.std(axis=0), 1.0, atol=0.06)

    def test_bigmodel_centers_on_the_data_with_scaled_noise(self):
        cfg = BootstrapConfig(B=4000, sampler="bigmodel", c=0.25, seed=14)
        reps = _replicates(self.fam, self.y, self.theta, cfg, np.random.default_rng(14))
        assert np.allclose(reps.mean(axis=0), self.y, atol=0.05)
        assert np.allclose(reps.std(axis=0), 0.5, atol=0.04)

    def test_residual_draws_come_from_the_observed_residuals(self):
        cfg = BootstrapConfig(B=200, sampler="residual", seed=15)
        reps = _replicates(self.fam, self.y, self.theta, cfg, np.random.default_rng(15))
        resid = self.y - self.theta
        # every replicate coordinate is theta_i plus one of the residuals
        diff = reps - self.theta[None, :]
        gaps = np.abs(diff[:, :, None] - resid[None, None, :])
        assert np.all(gaps.min(axis=2) < 1e-12)

    def test_residual_sampler_ignores_the_noise_scale(self):
        # same data, same seed, wildly different sigma: identical draws
        fam_small = SingletonShrinkFamily(6, 1.0, s=1.0)
        fam_large = SingletonShrinkFamily(6, 7.0, s=1.0)
        cfg = BootstrapConfig(B=32, sampler="residual", seed=16)
        a = _replicates(fam_small, self.y, self.theta, cfg, np.random.default_rng(16))
        b = _replicates(fam_large, self.y, self.theta, cfg, np.random.default_rng(16))
        assert np.array_equal(a, b)


def test_heteroskedastic_bootstrap_runs_in_scaled_units():
    rng = np.random.default_rng(17)
    sigmas = np.array([0.5, 1.0, 1.5, 2.0, 0.8])
    y = rng.normal(0.0, 1.0, 5) * sigmas
    fam = HeteroShrinkFamily(sigmas)
    report = bootstrap_edf(fam, y, BootstrapConfig(B=64, seed=18))
    assert report.method == "bootstrap_parametric"
    assert report.reps == 64
    assert math.isfinite(report.value)
    assert report.std_error > 0.0


class IdentityFamily(SingletonShrinkFamily):
    """theta_hat is the replicate batch itself, not a copy of it."""

    def tune_batch(self, Y):
        Y = np.asarray(Y, dtype=float)
        reps = Y.shape[0]
        return TunedBatch(s_hat=np.zeros(reps), theta_hat=Y, sure_min=np.full(reps, 2.0 * self.n),
                          naive_df_at_shat=np.full(reps, float(self.n)))


class FailingFamily(SingletonShrinkFamily):
    """Raises, and records, a DomainError on any batch with a value above 50."""

    def __init__(self, n):
        super().__init__(n, 1.0, s=1.0)
        self.raised = []

    def tune_batch(self, Y):
        if np.max(Y) > 50.0:
            self.raised.append(DomainError("replicate out of range"))
            raise self.raised[-1]
        return super().tune_batch(Y)


def _batch(fam, R, seed=20):
    Y = np.random.default_rng(seed).normal(0.5, 1.5, (R, fam.n))
    if fam.is_heteroskedastic:
        Y *= fam.sigmas
    seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(R)]
    return Y, fam.tune_batch(Y).theta_hat, seeds


def _bits(stats):
    return [field.tobytes() for field in stats]


def _family(name, n):
    if name == "hetero":
        return HeteroShrinkFamily(np.geomspace(0.5, 3.0, n))
    return SingletonShrinkFamily(n, 1.3, s=0.7) if name == "singleton" else \
        ShrinkMeansFamily(n, 1.3)


# With a 64-value block, (n, B) = (5, 4) puts three reps in a block and
# (n, B) = (20, 8) retunes each rep in chunks of three rows.
SMALL_BLOCKS = [(5, 4), (20, 8), (1, 7)]


@pytest.mark.parametrize("sampler", ["parametric", "bigmodel", "residual"])
@pytest.mark.parametrize("name", ["shrink", "singleton", "hetero"])
@pytest.mark.parametrize("n, B", SMALL_BLOCKS)
def test_batch_call_equals_one_row_calls(monkeypatch, sampler, name, n, B):
    monkeypatch.setattr(core, "_BLOCK_VALUES", 64)
    fam = _family(name, n)
    cfg = BootstrapConfig(B=B, sampler=sampler, c=0.4)
    Y, theta, seeds = _batch(fam, 7)
    got = _bootstrap_stats(fam, Y, theta, cfg, seeds)
    for r in range(7):
        one = _bootstrap_stats(fam, Y[r:r + 1], theta[r:r + 1], cfg, seeds[r:r + 1])
        assert _bits(one) == [field[r:r + 1].tobytes() for field in got]


@pytest.mark.parametrize("sampler", ["parametric", "bigmodel", "residual"])
@pytest.mark.parametrize("n, B", SMALL_BLOCKS)
def test_blocked_stats_match_one_unblocked_retune(monkeypatch, sampler, n, B):
    # Blocking and chunking change no bit against one (B, n) draw and retune.
    monkeypatch.setattr(core, "_BLOCK_VALUES", 64)
    fam = _family("shrink", n)
    cfg = BootstrapConfig(B=B, sampler=sampler, c=0.4)
    Y, theta, seeds = _batch(fam, 7)
    got = _bootstrap_stats(fam, Y, theta, cfg, seeds)
    for r in range(7):
        cov_form, plugin = _replicate_stats(fam, Y[r], theta[r], cfg, seeds[r])
        assert got.edf[r] == np.mean(cov_form - plugin)
        assert got.edf_se[r] == np.std(cov_form - plugin, ddof=1) / math.sqrt(B)
        assert got.cov_form[r] == np.mean(cov_form)
        assert got.cov_form_se[r] == np.std(cov_form, ddof=1) / math.sqrt(B)


@pytest.mark.parametrize("n, B", SMALL_BLOCKS)
def test_worker_count_does_not_change_results(monkeypatch, n, B):
    # Eight workers on fewer cores, switching threads every microsecond,
    # write their disjoint blocks of the output without losing one.
    monkeypatch.setattr(core, "_BLOCK_VALUES", 64)
    fam = _family("shrink", n)
    cfg = BootstrapConfig(B=B)
    Y, theta, seeds = _batch(fam, 40)
    runs = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for cpus in (1, 2, 8):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            runs.append(_bits(_bootstrap_stats(fam, Y, theta, cfg, seeds)))
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1] == runs[2]


def test_domain_error_in_a_worker_surfaces_unchanged(monkeypatch):
    monkeypatch.setattr(core, "_BLOCK_VALUES", 64)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    fam = FailingFamily(5)
    Y, theta, seeds = _batch(fam, 8)
    theta[5] += 1000.0  # rep 5 sits in the second of three blocks
    with pytest.raises(DomainError, match="replicate out of range") as caught:
        _bootstrap_stats(fam, Y, theta, BootstrapConfig(B=4), seeds)
    assert caught.value is fam.raised[0]


@pytest.mark.parametrize("n, B", SMALL_BLOCKS)
def test_theta_hat_that_is_the_input_batch(monkeypatch, n, B):
    # The identity rule gives the same statistics whether its fit is the
    # replicate buffer itself or a copy (s = 0 shrinkage divides by 1).
    monkeypatch.setattr(core, "_BLOCK_VALUES", 64)
    same, copy = IdentityFamily(n, 1.0, s=0.0), SingletonShrinkFamily(n, 1.0, s=0.0)
    Y, theta, seeds = _batch(copy, 7)
    cfg = BootstrapConfig(B=B)
    assert _bits(_bootstrap_stats(same, Y, theta, cfg, seeds)) == \
        _bits(_bootstrap_stats(copy, Y, theta, cfg, seeds))
