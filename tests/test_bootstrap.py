import math

import numpy as np
import pytest

from suretune import (
    BootstrapConfig,
    DomainError,
    EstimatorFamily,
    HeteroShrinkFamily,
    TunedBatch,
    TuningDomain,
    bootstrap_df,
    bootstrap_edf,
    corrected_error_estimate,
)
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


def test_report_is_the_mean_and_standard_error_of_the_replicates():
    y = np.random.default_rng(11).normal(0.0, 1.0, 12)
    fam = SingletonShrinkFamily(12, 1.0, s=0.5)
    cfg = BootstrapConfig(B=40, seed=2)
    cov_form, plugin = _bootstrap_stats(fam, y, fam.tune(y).theta_hat, cfg)
    report = bootstrap_edf(fam, y, cfg)
    assert report.value == float(np.mean(cov_form - plugin))
    assert report.std_error == float(np.std(cov_form - plugin, ddof=1) / math.sqrt(40))
    assert report.reps == 40


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
