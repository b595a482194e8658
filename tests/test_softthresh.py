import math

import numpy as np
import pytest
from scipy.integrate import quad

from suretune import (
    DomainError,
    GaussianModel,
    SoftThreshFamily,
    df_lower_bound_check,
    scan_jumps,
    soft_threshold,
    soft_threshold_risk,
)


def test_soft_threshold_elementwise():
    y = np.array([3.0, -2.0, 0.4, 0.0])
    out = soft_threshold(y, 1.0)
    assert np.allclose(out, [2.0, -1.0, 0.0, 0.0])
    assert np.all(soft_threshold(y, math.inf) == 0.0)
    with pytest.raises(DomainError):
        soft_threshold(y, -0.1)


class TestTuneSoftThreshold:
    def test_single_large_value_is_kept(self):
        fit = SoftThreshFamily(1, 1.0).tune(np.array([3.0]))
        assert fit.s_hat == 0.0
        assert fit.theta_hat[0] == pytest.approx(3.0)
        assert fit.sure_min == pytest.approx(2.0)

    def test_single_small_value_is_killed(self):
        fit = SoftThreshFamily(1, 1.0).tune(np.array([0.5]))
        assert fit.s_hat == pytest.approx(0.5)
        assert fit.theta_hat[0] == 0.0
        assert fit.sure_min == pytest.approx(0.25)

    def test_all_zero_data_collapses(self):
        fit = SoftThreshFamily(5, 1.0).tune(np.zeros(5))
        assert fit.s_hat == 0.0
        assert np.all(fit.theta_hat == 0.0)
        assert fit.sure_min == 0.0
        assert fit.naive_df_at_shat == 0.0

    def test_candidates_suffice_against_dense_grid(self):
        rng = np.random.default_rng(31)
        sigma = 1.0
        fam = SoftThreshFamily(12, sigma)
        for _ in range(100):
            y = rng.normal(0.0, 2.0, 12)
            fit = fam.tune(y)
            grid = np.linspace(0.0, np.max(np.abs(y)), 10_001)
            mins = np.minimum(y[None, :] ** 2, grid[:, None] ** 2).sum(axis=1)
            counts = (np.abs(y)[None, :] > grid[:, None]).sum(axis=1)
            grid_best = float(np.min(mins + 2.0 * sigma**2 * counts))
            assert fit.sure_min <= grid_best + 1e-9

    def test_sure_min_matches_direct_evaluation(self):
        rng = np.random.default_rng(32)
        sigma = 0.7
        fam = SoftThreshFamily(10, sigma)
        for _ in range(50):
            y = rng.normal(0.0, 1.5, 10)
            fit = fam.tune(y)
            direct = float(
                np.sum(np.minimum(y**2, fit.s_hat**2))
                + 2.0 * sigma**2 * np.sum(np.abs(y) > fit.s_hat)
            )
            assert abs(fit.sure_min - direct) < 1e-10
            assert fit.sure_min == pytest.approx(fam.sure(fit.s_hat, y), abs=1e-10)

    def test_sure_min_with_engineered_ties(self):
        # two coordinates tied in absolute value: the strict count still
        # matches the sorted-form criterion at the selected candidate
        y = np.array([1.2, -1.2, 0.3])
        fit = SoftThreshFamily(3, 1.0).tune(y)
        direct = float(
            np.sum(np.minimum(y**2, fit.s_hat**2))
            + 2.0 * np.sum(np.abs(y) > fit.s_hat)
        )
        assert fit.sure_min == pytest.approx(direct, abs=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(33)
        Y = rng.normal(0.0, 1.0, (30, 7))
        fam = SoftThreshFamily(7, 1.0)
        batch = fam.tune_batch(Y)
        for r in range(30):
            fit = fam.tune(Y[r])
            assert batch.s_hat[r] == pytest.approx(fit.s_hat)
            assert batch.sure_min[r] == pytest.approx(fit.sure_min)


class TestSoftThresholdRisk:
    def _quad_risk(self, theta0, sigma, s):
        def integrand(z):
            y = theta0 + sigma * z
            est = math.copysign(max(abs(y) - s, 0.0), y)
            return (est - theta0) ** 2 * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

        kinks = sorted({(-s - theta0) / sigma, (s - theta0) / sigma})
        val, _ = quad(integrand, -12.0, 12.0, points=kinks, limit=200, epsabs=1e-12)
        return val

    def test_matches_numerical_integration(self):
        cases = [(0.0, 1.0, 0.7), (1.5, 1.0, 1.0), (-2.0, 1.0, 0.5), (1.0, 2.0, 1.2)]
        for theta0, sigma, s in cases:
            closed = float(soft_threshold_risk(np.array([theta0]), sigma, s)[0])
            assert closed == pytest.approx(self._quad_risk(theta0, sigma, s), abs=1e-9)

    def test_infinite_threshold_risk_is_squared_mean(self):
        theta0 = np.array([0.3, -2.0, 5.0])
        assert np.allclose(soft_threshold_risk(theta0, 1.0, math.inf), theta0**2)

    def test_negative_threshold_rejected(self):
        with pytest.raises(DomainError):
            soft_threshold_risk(np.zeros(2), 1.0, -1.0)

    @pytest.mark.parametrize("theta0, sigma, s, message", [
        ([math.nan], 1.0, 1.0, "theta0 must be finite"),
        ([0.5, math.inf], 1.0, 1.0, "theta0 must be finite"),
        ([0.5], 1.0, math.nan, "threshold must be nonnegative"),
        ([0.5], math.nan, 1.0, "sigma must be positive and finite"),
        ([0.5], math.inf, 1.0, "sigma must be positive and finite"),
        ([0.5], 0.0, 1.0, "sigma must be positive and finite"),
    ])
    def test_non_finite_arguments_rejected(self, theta0, sigma, s, message):
        with pytest.raises(DomainError, match=message):
            soft_threshold_risk(np.array(theta0), sigma, s)


def test_oracle_beats_fixed_thresholds():
    fam = SoftThreshFamily(6, 1.0)
    theta0 = np.array([4.0, 4.0, 0.0, 0.0, 0.0, 0.0])
    model = GaussianModel(theta0, sigma=1.0)
    oracle = fam.oracle(model)
    base = 6.0
    for s in np.linspace(0.0, 8.0, 81):
        err_s = base + float(np.sum(soft_threshold_risk(theta0, 1.0, s)))
        assert oracle.err <= err_s + 1e-9
    assert oracle.err <= base + float(np.sum(theta0**2)) + 1e-9


class TestScanJumps:
    def test_single_coordinate_jump_at_root_two(self):
        fam = SoftThreshFamily(1, 1.0)
        scan = scan_jumps(fam, np.array([0.0]), 0, np.linspace(0.0, 3.0, 301))
        assert len(scan.jumps) == 1
        jump = scan.jumps[0]
        assert jump.location == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert jump.size == pytest.approx(math.sqrt(2.0), abs=1e-6)
        # the selected threshold falls from ~sqrt(2) to 0 at the switch
        assert jump.s_left == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert jump.s_right == 0.0

    def test_jumps_are_nonnegative_on_random_scans(self):
        rng = np.random.default_rng(37)
        fam = SoftThreshFamily(6, 1.0)
        grid = np.linspace(-4.0, 4.0, 161)
        found = 0
        for _ in range(30):
            y = rng.normal(0.0, 1.5, 6)
            coord = int(rng.integers(0, 6))
            scan = scan_jumps(fam, y, coord, grid)
            for jump in scan.jumps:
                found += 1
                assert jump.size >= -1e-8
        assert found > 0

    def test_constant_region_yields_no_jumps(self):
        fam = SoftThreshFamily(3, 1.0)
        y = np.array([0.0, 8.0, 9.0])
        scan = scan_jumps(fam, y, 0, np.linspace(-0.2, 0.2, 41))
        assert scan.jumps == []

    def test_decreasing_grid_rejected(self):
        fam = SoftThreshFamily(2, 1.0)
        with pytest.raises(DomainError):
            scan_jumps(fam, np.zeros(2), 0, np.array([1.0, 0.5]))


class TestDfLowerBound:
    def test_holds_at_null(self):
        model = GaussianModel(np.zeros(50), sigma=1.0)
        report, ok = df_lower_bound_check(model, reps=2500, seed=41)
        assert ok
        assert report.value >= -4.0 * report.std_error

    def test_holds_under_strong_sparsity(self):
        theta0 = np.zeros(100)
        theta0[:4] = 4.0
        model = GaussianModel(theta0, sigma=1.0)
        report, ok = df_lower_bound_check(model, reps=2500, seed=42)
        assert ok

    def test_small_noise_keeps_all_strong_coordinates(self):
        theta0 = np.array([5.0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        sigma = 0.05
        model = GaussianModel(theta0, sigma=sigma)
        fam = SoftThreshFamily(8, sigma)
        Y = model.draw(np.random.default_rng(43), 400)
        fit = fam.tune_batch(Y)
        # the tuned threshold never climbs anywhere near the strong spikes
        assert fit.s_hat.max() < 4.0
        assert fit.naive_df_at_shat.min() >= 3
        # the null block is NOT uniformly dropped: the whole comparison is
        # scale free in sigma, so the 2 sigma^2 per-coordinate charge
        # competes with s^2 terms of the same order and some draws keep
        # part of the noise
        assert fit.naive_df_at_shat.max() > 3
        _, ok = df_lower_bound_check(model, reps=400, seed=44)
        assert ok

    def test_heteroskedastic_model_rejected(self):
        model = GaussianModel(np.zeros(4), sigmas=np.ones(4))
        with pytest.raises(DomainError):
            df_lower_bound_check(model)
