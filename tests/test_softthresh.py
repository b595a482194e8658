import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import ndtr

from suretune import (
    DomainError,
    GaussianModel,
    HeteroShrinkFamily,
    SoftThreshFamily,
    make_nested,
    mc_edf,
    scan_jumps,
    soft_threshold,
    soft_threshold_risk,
)
from suretune.core import _normal_cdf
from suretune.simulate import theta0_for
from suretune.softthresh import Jump, _soft_threshold_risk_slope


def test_soft_threshold_elementwise():
    y = np.array([3.0, -2.0, 0.4, 0.0])
    out = soft_threshold(y, 1.0)
    assert np.allclose(out, [2.0, -1.0, 0.0, 0.0])
    assert np.all(soft_threshold(y, math.inf) == 0.0)
    with pytest.raises(DomainError):
        soft_threshold(y, -0.1)


def test_soft_threshold_refuses_a_nan_threshold():
    # nan < 0 is False, so the old check let NaN through to NaN estimates.
    with pytest.raises(DomainError, match="^threshold must be nonnegative"):
        soft_threshold(np.array([1.0, 2.0, 3.0]), math.nan)


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

    def test_block_tunes_in_cache_sized_chunks_with_row_by_row_bytes(self):
        # One 65 x 1000 block with (65, 1001) temporaries peaked at 3.55 MB;
        # chunks of 8 rows keep each temporary near 64 KB, so the peak is
        # the output plus a few chunks.  Every step acts row by row, so the
        # bytes are those of tuning each row alone.
        rng = np.random.default_rng(27)
        Y = rng.normal(0.0, 2.0, (65, 1000))
        Y[::4, :300] = np.round(Y[::4, :300])  # ties and zeros
        fam = SoftThreshFamily(1000, 1.0)
        tracemalloc.start()
        try:
            batch = fam.tune_batch(Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25e6
        rows = [fam.tune_batch(Y[r:r + 1]) for r in range(65)]
        for name in ("s_hat", "theta_hat", "sure_min", "naive_df_at_shat"):
            want = np.concatenate([getattr(fit, name) for fit in rows])
            assert getattr(batch, name).tobytes() == want.tobytes(), name


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
        ([math.nan], 1.0, 1.0, "theta0 is not finite at index 0"),
        ([0.5, math.inf], 1.0, 1.0, "theta0 is not finite at index 1"),
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


# The means on which the bounded scalar minimizer's threshold was measured
# up to 2.2e-7 relative off the exact one.
ORACLE_MEANS = {
    "weak-50": lambda: theta0_for("weak_sparsity", 50),
    "weak-200": lambda: theta0_for("weak_sparsity", 200),
    "3-weak-200": lambda: 3.0 * theta0_for("weak_sparsity", 200),
    "2-normal-1000": lambda: 2.0 * np.random.default_rng(0).standard_normal(1000),
    "null-50": lambda: np.zeros(50),
}


def _risk_sum(theta0, s):
    return float(np.sum(soft_threshold_risk(theta0, 1.0, s)))


def _slope_sum(theta0, s):
    return float(np.sum(_soft_threshold_risk_slope(theta0, 1.0, s)))


@pytest.mark.parametrize("mean", sorted(ORACLE_MEANS))
def test_risk_slope_matches_a_central_difference(mean):
    theta0, h = ORACLE_MEANS[mean](), 1e-5
    for s in (0.05, 0.4, 1.0, 2.5, 6.0):
        diff = (_risk_sum(theta0, s + h) - _risk_sum(theta0, s - h)) / (2.0 * h)
        assert _slope_sum(theta0, s) == pytest.approx(diff, rel=1e-6, abs=1e-6 * theta0.size)


@pytest.mark.parametrize("mean", sorted(ORACLE_MEANS))
def test_oracle_is_a_sign_change_of_the_exact_slope(mean):
    theta0 = ORACLE_MEANS[mean]()
    oracle = SoftThreshFamily(theta0.size, 1.0).oracle(GaussianModel(theta0, sigma=1.0))
    if not np.any(theta0):
        assert oracle.s0 == math.inf
        assert oracle.err == theta0.size
        return
    assert _slope_sum(theta0, math.nextafter(oracle.s0, 0.0)) < 0.0
    assert _slope_sum(theta0, math.nextafter(oracle.s0, math.inf)) >= 0.0
    assert oracle.err == theta0.size + _risk_sum(theta0, oracle.s0)


@pytest.mark.parametrize("mean", sorted(ORACLE_MEANS))
def test_oracle_is_no_worse_than_a_bounded_scalar_minimizer(mean):
    # scipy's minimizer on the bracket the exact search starts from: the grid
    # neighbours of the grid's lowest risk, with the fully-shrunk end beside.
    theta0 = ORACLE_MEANS[mean]()
    n = theta0.size
    grid = np.linspace(0.0, np.max(np.abs(theta0)) + 6.0, 241)
    k = int(np.argmin([_risk_sum(theta0, s) for s in grid]))
    res = minimize_scalar(lambda s: n + _risk_sum(theta0, s), method="bounded",
                          bounds=(grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]))
    oracle = SoftThreshFamily(n, 1.0).oracle(GaussianModel(theta0, sigma=1.0))
    assert oracle.err <= min(res.fun, n + float(np.sum(theta0**2)))
    if math.isfinite(oracle.s0):
        assert oracle.s0 == pytest.approx(res.x, rel=1e-6)


def test_normal_cdf_matches_scipy_ndtr():
    # Both round x / sqrt 2 before taking erfc, and Phi's relative condition
    # number is about x^2 in the lower tail, so they may part by a few ulp
    # times 1 + x^2 (up to a few thousand ulp at x = -37).
    x = np.concatenate([np.linspace(-37.0, 8.0, 90001), [-1e-300, 0.0, 1e-300]])
    got, want = _normal_cdf(x), ndtr(x)
    assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want) * (1.0 + x**2))
    assert _normal_cdf(0.0) == 0.5
    assert _normal_cdf(-40.0) == 0.0 < _normal_cdf(-38.0)


class TestScanJumps:
    def test_single_coordinate_jump_at_root_two(self):
        fam = SoftThreshFamily(1, 1.0)
        jumps = scan_jumps(fam, np.array([0.0]), 0, np.linspace(0.0, 3.0, 301))
        assert len(jumps) == 1
        jump = jumps[0]
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
            for jump in scan_jumps(fam, y, coord, grid):
                found += 1
                assert jump.size >= -1e-8
        assert found > 0

    def test_constant_region_yields_no_jumps(self):
        fam = SoftThreshFamily(3, 1.0)
        y = np.array([0.0, 8.0, 9.0])
        assert scan_jumps(fam, y, 0, np.linspace(-0.2, 0.2, 41)) == []

    def test_heteroskedastic_scan_finds_the_switch_from_full_shrinkage(self):
        # Coordinate 0's tuned fit jumps where the all-zero fit at s = +inf
        # stops winning.  The jump cut reads coordinate 0's noise sd: a
        # heteroskedastic family has no single sigma.
        fam = HeteroShrinkFamily([8.024619016, 0.325822386, 0.040645611])
        y = np.array([25.93668072, -0.4129098876, 0.012077711])
        (jump,) = scan_jumps(fam, y, 0, np.linspace(0.0, 60.0, 61))
        assert jump.location == pytest.approx(16.1655350390567, rel=1e-9)
        assert jump.s_left == math.inf and 0.0 < jump.s_right < 0.01
        below, above = (fam.tune(np.array([t, *y[1:]]))
                        for t in jump.location * (1.0 + np.array([-1e-12, 1e-12])))
        assert below.theta_hat[0] == 0.0
        assert above.theta_hat[0] == pytest.approx(jump.size, rel=1e-9)

    def test_a_subset_scan_reports_the_labels_tune_reports(self):
        # Coordinate 1 enters the chain where |y_1| passes sqrt(2).
        fam, y = make_nested(np.eye(4), 1.0), np.array([2.0, 1.0, 0.3, 0.1])
        jumps = scan_jumps(fam, y, 1, np.linspace(-4.0, 4.0, 41))
        assert [(j.s_left, j.s_right) for j in jumps] == [((0, 1), (0,)), ((0,), (0, 1))]
        for jump in jumps:
            assert type(jump.location) is float
            assert abs(jump.location) == pytest.approx(math.sqrt(2.0), rel=1e-15)
            for t, label in ((jump.location - 1e-9, jump.s_left),
                             (jump.location + 1e-9, jump.s_right)):
                assert fam.tune(np.array([y[0], t, *y[2:]])).s_hat == label

    def test_an_integral_float_coord_is_that_coordinate(self):
        fam, y, grid = SoftThreshFamily(3, 1.0), np.array([0.5, -2.0, 3.0]), np.linspace(-3, 3, 31)
        assert scan_jumps(fam, y, 1.0, grid) == scan_jumps(fam, y, 1, grid) != []

    def test_decreasing_grid_rejected(self):
        fam = SoftThreshFamily(2, 1.0)
        with pytest.raises(DomainError):
            scan_jumps(fam, np.zeros(2), 0, np.array([1.0, 0.5]))

    @staticmethod
    def _counted(family):
        calls = []
        tune_batch = family.tune_batch

        def counted(Y):
            calls.append(len(Y))
            return tune_batch(Y)

        family.tune_batch = counted
        return calls

    @pytest.mark.parametrize("y_base, grid", [
        ([5.0, 5.2, 4.7, 4.9], np.linspace(0.5, 2.5, 21)),
        ([5.0, 4.6, 5.3, 0.2], np.linspace(-2.0, 2.0, 21)),
        ([5.0, 0.3, -0.2, 0.4], np.linspace(-3.0, 7.0, 101)),
    ])
    def test_bisection_stops_once_every_cell_is_resolved(self, y_base, grid):
        # Away from t = 0 a cell's ends are adjacent doubles after about
        # log2(width / ulp) < 60 halvings, so the scan stops within 60 steps,
        # with the jumps of a reference that bisects each cell on its own.
        fam = SoftThreshFamily(4, 1.0)
        calls = self._counted(fam)
        jumps = scan_jumps(fam, np.array(y_base), 0, grid)
        assert jumps and len(calls) < 61
        want = _bisect_each_cell(SoftThreshFamily(4, 1.0), np.array(y_base), 0, grid)
        assert repr([astuple(j) for j in jumps]) == repr([astuple(j) for j in want])

    def test_a_switch_near_zero_is_resolved_to_adjacent_doubles(self):
        # At sigma = 1e-100 the df switch lies at t = sqrt(2) sigma, where
        # doubles are far denser than 2^-60 of the cell [0, 1]: the scan
        # bisects past 60 steps down to it instead of reporting the fit's
        # ramp across a bracket still as wide as 2^-60.
        fam = SoftThreshFamily(1, 1e-100)
        calls = self._counted(fam)
        (jump,) = scan_jumps(fam, np.zeros(1), 0, np.array([0.0, 1.0]))
        assert jump.location == pytest.approx(math.sqrt(2.0) * 1e-100, rel=1e-15)
        assert jump.size == pytest.approx(math.sqrt(2.0) * 1e-100, rel=1e-15)
        assert calls == [2] + [1] * 384


def _bisect_each_cell(family, y_base, coord, t_grid):
    """Reference for `scan_jumps`: every flagged cell bisected on its own,
    one `tune` per step, until its midpoint rounds to one of its ends."""
    def state(t):
        y = y_base.copy()
        y[coord] = t
        fit = family.tune(y)
        return t, fit.theta_hat[coord], fit.s_hat, fit.naive_df_at_shat

    ends, jumps = [state(t) for t in t_grid], []
    for lo, hi in zip(ends, ends[1:]):
        if lo[3] == hi[3]:
            continue
        while lo[0] < 0.5 * (lo[0] + hi[0]) < hi[0]:
            mid = state(0.5 * (lo[0] + hi[0]))
            if mid[3] != lo[3] and (mid[3] == hi[3]
                                    or abs(mid[1] - lo[1]) >= abs(hi[1] - mid[1])):
                hi = mid
            else:
                lo = mid
        if abs(hi[1] - lo[1]) > 1e-6 * family.sigma:
            jumps.append(Jump(float(0.5 * (lo[0] + hi[0])), float(hi[1] - lo[1]),
                              lo[2], hi[2]))
    return jumps


class TestDfLowerBound:
    # The strict active-set count does not overstate the tuned df: the Monte
    # Carlo excess df lies above -4 standard errors.
    @staticmethod
    def _excess(model, reps, seed):
        return mc_edf(SoftThreshFamily(model.n, model.sigma), model, reps=reps, seed=seed)

    def test_holds_at_null(self):
        model = GaussianModel(np.zeros(50), sigma=1.0)
        report = self._excess(model, reps=2500, seed=41)
        assert report.value >= -4.0 * report.std_error

    def test_holds_under_strong_sparsity(self):
        theta0 = np.zeros(100)
        theta0[:4] = 4.0
        model = GaussianModel(theta0, sigma=1.0)
        report = self._excess(model, reps=2500, seed=42)
        assert report.value >= -4.0 * report.std_error

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
        report = self._excess(model, reps=400, seed=44)
        assert report.value >= -4.0 * report.std_error

    def test_heteroskedastic_model_rejected(self):
        model = GaussianModel(np.zeros(4), sigmas=np.ones(4))
        with pytest.raises(DomainError):
            mc_edf(SoftThreshFamily(4, 1.0), model)
