"""Implicit-differentiation excess df, heteroskedastic shrinkage, ridge."""

import math

import numpy as np
import pytest

import suretune.stein as stein
from suretune import (
    CurvatureError,
    DomainError,
    HeteroShrinkFamily,
    RidgeRotation,
    ShapeError,
    ShrinkMeansFamily,
    SmoothFamilyHooks,
    StationarityError,
    edf_implicit_diff,
    exopt_hetero_shrink,
    hetero_shrink_hooks,
    ridge_as_hetero,
    shrink_means_hooks,
    tune_hetero_shrink,
)


class TestImplicitDiff:
    def test_shrinkage_closed_hooks_match_analytic_statistic(self):
        rng = np.random.default_rng(5)
        hooks = shrink_means_hooks(15, 1.0)
        fam = ShrinkMeansFamily(15, 1.0)
        for _ in range(20):
            y = rng.normal(1.5, 1.0, 15)
            fit = fam.tune(y)
            if not math.isfinite(fit.s_hat):
                continue
            report = edf_implicit_diff(hooks, y, fit.s_hat)
            expected = 2.0 * fit.s_hat / (1.0 + fit.s_hat)
            assert report.value == pytest.approx(expected, abs=1e-8)
            assert report.method == "implicit_diff"
            assert report.std_error == 0.0

    def test_numeric_fallback_hooks_agree_with_closed(self):
        sigma = 1.0
        n = 12
        closed = shrink_means_hooks(n, sigma)
        bare = SmoothFamilyHooks(theta=closed.theta, g=closed.g)
        rng = np.random.default_rng(6)
        y = rng.normal(2.0, 1.0, n)
        fit = ShrinkMeansFamily(n, sigma).tune(y)
        a = edf_implicit_diff(closed, y, fit.s_hat).value
        b = edf_implicit_diff(bare, y, fit.s_hat).value
        assert b == pytest.approx(a, abs=1e-4)

    def test_fallback_derivatives_match_closed_forms(self):
        closed = hetero_shrink_hooks(np.array([0.5, 1.0, 2.0]))
        bare = SmoothFamilyHooks(theta=closed.theta, g=closed.g)
        one = (0.9, np.array([1.2, -0.7, 3.0]))
        batch = (np.array([0.9, 0.02, 40.0]),
                 np.array([[1.2, -0.7, 3.0], [0.1, 5.0, -2.0], [-3.0, 0.4, 0.0]]))
        # The batch cross derivative divides rounding error of order
        # 1e-16 |G| by two steps of order 1e-5, hence its absolute tolerance;
        # the single vector keeps np.allclose's default atol of 1e-8.
        for (s, y), cross_atol, theta_atol in ((one, 1e-8, 1e-8), (batch, 1e-5, 0.0)):
            for name, rtol in (("dg_ds", 1e-4), ("d2g_ds2", 1e-3)):
                got, want = (getattr(h, f"eval_{name}")(s, y) for h in (bare, closed))
                assert np.shape(got) == np.shape(want) == np.shape(s)
                assert np.allclose(got, want, rtol=rtol, atol=0)
            for name, atol in (("d2g_dyds", cross_atol), ("dtheta_ds", theta_atol)):
                got, want = (getattr(h, f"eval_{name}")(s, y) for h in (bare, closed))
                assert got.shape == want.shape == y.shape
                assert np.allclose(got, want, rtol=1e-4, atol=atol)

    def test_fallback_statistic_is_accurate_on_wide_data(self):
        # Second differences lose about eps |G| / h^2 to rounding, which the
        # fallbacks' eps**0.25 steps keep small on data of scale 4 sigma.
        closed = shrink_means_hooks(6, 1.0)
        bare = SmoothFamilyHooks(theta=closed.theta, g=closed.g)
        Y = np.random.default_rng(0).normal(0.0, 4.0, (4000, 6))
        s_hat = ShrinkMeansFamily(6, 1.0).tune_batch(Y).s_hat
        inner = np.isfinite(s_hat)
        Y, s_hat = Y[inner], s_hat[inner]
        assert inner.sum() > 3900
        stats = stein._implicit_diff_stats(bare, Y, s_hat)
        assert np.max(np.abs(stats - 2.0 * s_hat / (1.0 + s_hat))) <= 2e-5
        curv, want = bare.eval_d2g_ds2(s_hat, Y), closed.eval_d2g_ds2(s_hat, Y)
        assert np.max(np.abs(curv / want - 1.0)) <= 1e-5
        cross, want = bare.eval_d2g_dyds(s_hat, Y), closed.eval_d2g_dyds(s_hat, Y)
        assert np.max(np.abs(cross - want).max(axis=1) / np.abs(want).max(axis=1)) <= 3e-6

    @staticmethod
    def _hooks(kind):
        """(hooks, family, sigmas or None) for one of four hook sets."""
        sigmas = None
        if kind.startswith("shrink"):
            hooks, fam = shrink_means_hooks(6, 1.0), ShrinkMeansFamily(6, 1.0)
        else:
            sigmas = np.array([0.5, 0.8, 1.0, 1.3, 2.0, 3.0])
            hooks, fam = hetero_shrink_hooks(sigmas), HeteroShrinkFamily(sigmas)
        if kind.endswith("fallback"):
            hooks = SmoothFamilyHooks(theta=hooks.theta, g=hooks.g)
        return hooks, fam, sigmas

    @pytest.mark.parametrize("kind", ["shrink", "shrink fallback", "hetero", "hetero fallback"])
    def test_batch_statistic_is_the_per_vector_statistic_row_by_row(self, kind):
        hooks, fam, sigmas = self._hooks(kind)
        rng = np.random.default_rng(18)
        Y = rng.normal(1.0, 1.0, (30, 6)) * rng.uniform(0.2, 3.0, (30, 1))
        Y[4] = 0.0
        s_hat = fam.tune_batch(Y).s_hat
        boundary = np.isinf(s_hat)
        assert 0 < boundary.sum() < 30
        batch = stein._implicit_diff_stats(hooks, Y, s_hat)
        assert batch.shape == (30,)
        assert np.all(batch[boundary] == 0.0)
        fallback = kind.endswith("fallback")
        for y, s, got in zip(Y[~boundary], s_hat[~boundary], batch[~boundary]):
            # The statistic of one vector, evaluated with scalar hook calls.
            loop = -float(np.dot(hooks.eval_dtheta_ds(s, y), hooks.eval_d2g_dyds(s, y))
                          / hooks.eval_d2g_ds2(s, y))
            assert got == pytest.approx(loop, rel=1e-12, abs=0)
            assert got == pytest.approx(edf_implicit_diff(hooks, y, s).value, rel=1e-12, abs=0)
            exact = (2.0 * s / (1.0 + s) if sigmas is None
                     else exopt_hetero_shrink(y, sigmas, s) / 2.0)
            assert got == pytest.approx(exact, rel=1e-3 if fallback else 1e-9, abs=0)

    @pytest.mark.parametrize("kind", ["shrink", "shrink fallback", "hetero", "hetero fallback"])
    def test_batch_names_the_first_bad_row(self, kind):
        hooks, fam, _ = self._hooks(kind)
        Y = np.vstack([np.zeros(6), np.full((5, 6), 2.0)])
        s_hat = fam.tune_batch(Y).s_hat
        assert math.isinf(s_hat[0]) and np.isfinite(s_hat[1:]).all()
        stats = stein._implicit_diff_stats(hooks, Y, s_hat)
        assert stats[0] == 0.0 and np.all(stats[1:] > 0.0)
        for bad in (2.0 * s_hat[3] + 1.0, math.nan, -math.inf):
            moved = s_hat.copy()
            moved[[3, 5]] = bad
            with pytest.raises(StationarityError, match=r"^row 3: "):
                stein._implicit_diff_stats(hooks, Y, moved)

    def test_batch_curvature_error_names_the_row(self):
        # G(s) = c (s - 1)^2 is stationary at s = 1 with curvature 2c: the
        # row with c = 1 passes, the rows with c = 0 and c = -1 fail.
        hooks = SmoothFamilyHooks(
            theta=lambda s, y: np.zeros_like(y),
            g=lambda s, y: y[..., 0] * (s - 1.0) ** 2,
        )
        Y = np.array([[1.0], [1.0], [0.0], [-1.0]])
        with pytest.raises(CurvatureError, match=r"^row 2: "):
            stein._implicit_diff_stats(hooks, Y, np.array([math.inf, 1.0, 1.0, 1.0]))
        with pytest.raises(CurvatureError, match=r"^row 3: "):
            stein._implicit_diff_stats(hooks, Y, np.array([1.0, 1.0, math.inf, 1.0]))
        assert np.array_equal(
            stein._implicit_diff_stats(hooks, Y, np.array([1.0, 1.0, math.inf, math.inf])),
            np.zeros(4))

    def test_infinite_s_hat_rejected(self):
        hooks = shrink_means_hooks(4, 1.0)
        with pytest.raises(StationarityError):
            edf_implicit_diff(hooks, np.ones(4), math.inf)

    def test_nonstationary_point_rejected(self):
        hooks = shrink_means_hooks(10, 1.0)
        y = np.full(10, 2.0)
        fit = ShrinkMeansFamily(10, 1.0).tune(y)
        with pytest.raises(StationarityError):
            edf_implicit_diff(hooks, y, 2.0 * fit.s_hat + 1.0)

    def test_negative_curvature_rejected(self):
        hooks = SmoothFamilyHooks(
            theta=lambda s, y: np.zeros_like(y),
            g=lambda s, y: -((s - 1.0) ** 2),
        )
        with pytest.raises(CurvatureError):
            edf_implicit_diff(hooks, np.zeros(3), 1.0)


class TestTuneHeteroShrink:
    def test_equal_variances_reduce_to_means_shrinkage(self):
        rng = np.random.default_rng(8)
        sigma = 0.8
        y = rng.normal(1.0, 1.0, 10)
        het = tune_hetero_shrink(y, np.full(10, sigma))
        hom = ShrinkMeansFamily(10, sigma).tune(y)
        # the hetero family scales its tuning value by 1/sigma^2
        assert sigma**2 * het.s_hat == pytest.approx(hom.s_hat, rel=1e-6)
        assert np.allclose(het.theta_hat, hom.theta_hat, atol=1e-8)

    def test_zero_data_fully_shrinks(self):
        fit = tune_hetero_shrink(np.zeros(5), np.ones(5))
        assert math.isinf(fit.s_hat)
        assert np.all(fit.theta_hat == 0.0)
        assert fit.sure_min == 0.0
        assert not fit.multimodal

    def test_beats_dense_grid(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = 12
            sigmas = np.exp(rng.normal(0.0, 0.7, n))
            y = rng.normal(0.0, 2.0, n) * sigmas
            fit = tune_hetero_shrink(y, sigmas)
            hooks = hetero_shrink_hooks(sigmas)
            grid = np.concatenate([[0.0], np.geomspace(1e-6, 1e7, 20_001)])
            best = hooks.g(grid, y).min()
            assert fit.sure_min <= best + 1e-9

    def test_family_tune_delegates(self):
        rng = np.random.default_rng(10)
        sigmas = np.array([0.5, 1.0, 1.5, 2.0])
        y = rng.normal(0.0, 1.0, 4)
        fam = HeteroShrinkFamily(sigmas)
        assert fam.tune(y).s_hat == tune_hetero_shrink(y, sigmas).s_hat

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            tune_hetero_shrink(np.zeros(3), np.ones(4))

    # Two noise levels a hundredfold apart give the criterion two interior
    # local minima; the one at small s is the lower.
    BIMODAL_SIGMAS = np.array([0.1, 0.1, 10.0, 10.0])
    BIMODAL_Y = np.array([0.3, 0.3, 30.0, 30.0])

    def test_bimodal_criterion_is_flagged(self):
        fit = tune_hetero_shrink(self.BIMODAL_Y, self.BIMODAL_SIGMAS)
        assert fit.multimodal is True
        assert fit.s_hat == pytest.approx(0.00125017796249, rel=1e-10)
        batch = HeteroShrinkFamily(self.BIMODAL_SIGMAS).tune_batch(
            np.vstack([np.zeros(4), self.BIMODAL_Y]))
        assert batch.multimodal.tolist() == [False, True]
        assert batch.s_hat[1] == pytest.approx(0.00125017796249, rel=1e-10)
        assert batch.sure_min[1] == pytest.approx(fit.sure_min, rel=1e-12, abs=0)

    def test_near_tie_with_full_shrinkage_keeps_the_interior_minimum(self):
        # n = 1 with y^2 = 1 + 1e-7: the interior minimum at s = 1e7 lies
        # about 1e-14 below the s = +inf value, inside the 1e-12 tolerance;
        # ties against s = +inf go to the finite minimizer.
        y = np.array([math.sqrt(1.0 + 1e-7)])
        fit = tune_hetero_shrink(y, np.ones(1))
        assert fit.s_hat == pytest.approx(1e7, rel=1e-6)
        assert fit.sure_min <= y[0] ** 2

    def test_bounded_search_branch_beats_dense_grid(self, monkeypatch):
        # One grid minimum has no sign change of the slope across its
        # bracket, so the golden-section search in log1p(s) refines it
        # instead of the Newton root.
        sigmas = np.array([0.200797869, 0.009457346, 0.028094444])
        y = np.array([0.692984939, -0.019823277, -0.027261288])
        golden, search = [], stein._golden_log1p

        def spy(*args):
            golden.append(args)
            return search(*args)

        monkeypatch.setattr(stein, "_golden_log1p", spy)
        fit = tune_hetero_shrink(y, sigmas)
        assert golden
        assert fit.multimodal is True
        assert fit.sure_min <= _dense_grid_min(y, sigmas) + 1e-9
        assert fit.s_hat == pytest.approx(2.33779093839, rel=1e-9)

    # Rows the search grid once missed, as (sigmas, y, s_hat, multimodal).
    HARD_ROWS = {
        # noise levels five decades apart: two interior minima
        "five decades": ([0.837031249, 0.110452757, 323.19962, 0.0101713622, 0.00151931723],
                         [0.300610787, 0.0292383534, 338.586015, 0.0186707036, 0.00172917578],
                         4803.8035, True),
        # the minimum lies near 1e10 / mean(sigma^2), past a grid that ended
        # at 1e8 / mean(sigma^2); the smallest sigma sets it
        "top": ([633.096737, 0.00308381481], [-7.60694319, 0.00525183677], 55334.5994, False),
        # |y|/sigma = 1000: SURE dips below SURE(0) = 2n only for s < 2e-6,
        # before a grid that started at 1e-4 / mean(sigma^2)
        "bottom": ([1.0, 1.0, 1.0], [1000.0, 1000.0, 1000.0], 1.000001000001e-6, False),
    }

    @pytest.mark.parametrize("row", HARD_ROWS, ids=str)
    def test_hard_rows_beat_dense_grid(self, row):
        sigmas, y, s_hat, multimodal = self.HARD_ROWS[row]
        fit = tune_hetero_shrink(np.array(y), np.array(sigmas))
        best = _dense_grid_min(np.array(y), np.array(sigmas))
        assert fit.sure_min <= best + 1e-9
        assert fit.s_hat == pytest.approx(s_hat, rel=1e-6)
        assert fit.multimodal is multimodal

    def test_large_data_matches_means_shrinkage(self):
        y = np.full(3, 1000.0)
        het = tune_hetero_shrink(y, np.ones(3))
        hom = ShrinkMeansFamily(3, 1.0).tune(y)
        assert het.s_hat == pytest.approx(hom.s_hat, rel=1e-9, abs=0)
        assert het.sure_min == pytest.approx(hom.sure_min, rel=1e-12, abs=0)

    def test_refinements_at_one_point_count_once(self, monkeypatch):
        # Force both brackets of the bimodal row onto the same point (and a
        # second copy 1e-7 away in log1p(s)): one minimum, not two.
        fam = HeteroShrinkFamily(self.BIMODAL_SIGMAS)
        target = tune_hetero_shrink(self.BIMODAL_Y, self.BIMODAL_SIGMAS).s_hat
        monkeypatch.setattr(
            stein, "_slope_root",
            lambda a, b, Y2, sig2: np.expm1(np.log1p(target) + 1e-7 * np.arange(a.size)))
        fit = fam.tune(self.BIMODAL_Y)
        assert fit.multimodal is False
        assert fit.s_hat == target

    def test_batch_rows_match_rows_tuned_one_at_a_time(self):
        rng = np.random.default_rng(15)
        fam = HeteroShrinkFamily(self.BIMODAL_SIGMAS)
        scales = np.exp(rng.uniform(-3.0, 4.0, (38, 1)))
        Y = np.vstack([self.BIMODAL_Y, np.zeros(4),
                       scales * rng.standard_normal((38, 4)) * self.BIMODAL_SIGMAS])
        batch = fam.tune_batch(Y)
        assert batch.multimodal.any() and not batch.multimodal.all()
        assert np.isinf(batch.s_hat).any() and np.isfinite(batch.s_hat).any()
        for r, y in enumerate(Y):
            fit = fam.tune(y)
            assert fit.multimodal == batch.multimodal[r]
            assert fit.s_hat == pytest.approx(batch.s_hat[r], rel=1e-12, abs=0)
            assert fit.sure_min == pytest.approx(batch.sure_min[r], rel=1e-12, abs=0)
            assert fit.naive_df_at_shat == pytest.approx(batch.naive_df_at_shat[r],
                                                         rel=1e-12, abs=0)
            assert np.allclose(fit.theta_hat, batch.theta_hat[r], rtol=1e-12, atol=0)


def _dense_grid_min(y, sigmas):
    """Scaled SURE minimized over 40 001 log-spaced s spanning the noise levels."""
    sig2 = sigmas**2
    s = np.geomspace(1e-8 / sig2.max(), 1e8 / sig2.min(), 40_001)[:, None]
    return float(np.min(np.sum(y**2 * sig2 * s**2 / (1 + sig2 * s) ** 2, axis=1)
                        + 2 * np.sum(1 / (1 + sig2 * s), axis=1)))


class TestExoptHetero:
    def test_twice_the_implicit_diff_statistic(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            sigmas = np.exp(rng.normal(0.0, 0.5, 8))
            y = rng.normal(0.0, 2.0, 8) * sigmas
            fit = tune_hetero_shrink(y, sigmas)
            if not math.isfinite(fit.s_hat) or fit.s_hat <= 0:
                continue
            hooks = hetero_shrink_hooks(sigmas)
            edf = edf_implicit_diff(hooks, y, fit.s_hat).value
            assert exopt_hetero_shrink(y, sigmas, fit.s_hat) == pytest.approx(
                2.0 * edf, rel=1e-6, abs=1e-10
            )

    def test_zero_data_gives_zero(self):
        assert exopt_hetero_shrink(np.zeros(4), np.ones(4), 0.7) == 0.0

    def test_requires_finite_positive_s(self):
        with pytest.raises(StationarityError):
            exopt_hetero_shrink(np.ones(3), np.ones(3), math.inf)
        with pytest.raises(StationarityError):
            exopt_hetero_shrink(np.ones(3), np.ones(3), 0.0)

    def test_nonpositive_curvature_rejected(self):
        # one large coordinate at u = sigma^2 s = 1 makes the denominator
        # negative: the criterion is locally concave there
        with pytest.raises(CurvatureError):
            exopt_hetero_shrink(np.array([5.0]), np.array([1.0]), 1.0)


class TestRidgeRotation:
    def test_coef_matches_direct_ridge_solve(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((5, 3))
        y = rng.standard_normal(5)
        rot = ridge_as_hetero(X, y, sigma=1.0)
        s = 0.7
        t = rot.penalty_of(s)
        direct = np.linalg.solve(X.T @ X + t * np.eye(3), X.T @ y)
        assert np.allclose(rot.coef(s), direct, atol=1e-8)
        assert np.allclose(rot.fitted(s), X @ direct, atol=1e-8)

    def test_zero_penalty_is_least_squares(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((8, 3))
        y = rng.standard_normal(8)
        rot = RidgeRotation(X, y)
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert np.allclose(rot.fitted(0.0), X @ coef, atol=1e-10)

    def test_round_trip_many_random_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            n, p = 7, 4
            X = rng.standard_normal((n, p))
            y = rng.standard_normal(n)
            sigma = float(rng.uniform(0.5, 2.0))
            s = float(rng.uniform(0.01, 5.0))
            rot = RidgeRotation(X, y, sigma=sigma)
            t = rot.penalty_of(s)
            direct = np.linalg.solve(X.T @ X + t * np.eye(p), X.T @ y)
            assert np.allclose(rot.fitted(s), X @ direct, atol=1e-8)

    def test_penalty_maps_are_inverse(self):
        rot = RidgeRotation(np.eye(3), np.ones(3), sigma=1.7)
        assert rot.s_of_penalty(rot.penalty_of(0.42)) == pytest.approx(0.42)

    def test_orthonormal_design_reduces_to_means_shrinkage(self):
        rng = np.random.default_rng(15)
        Q, _ = np.linalg.qr(rng.standard_normal((9, 3)))
        y = rng.standard_normal(9)
        sigma = 1.3
        rot = RidgeRotation(Q, y, sigma=sigma)
        assert np.allclose(rot.d, 1.0)
        assert np.allclose(rot.family.sigmas, sigma)
        # the SVD basis of an orthonormal design is arbitrary within the
        # column span, so compare rotation-invariant quantities
        assert np.linalg.norm(rot.w) == pytest.approx(np.linalg.norm(Q.T @ y))
        t = 0.8
        direct = Q @ (Q.T @ y) / (1.0 + t)
        assert rot.fitted(rot.s_of_penalty(t)) == pytest.approx(direct, abs=1e-10)

    def test_rank_deficient_design(self):
        rng = np.random.default_rng(16)
        base = rng.standard_normal((6, 2))
        X = np.column_stack([base, base[:, 0]])  # third column repeats the first
        y = rng.standard_normal(6)
        rot = RidgeRotation(X, y)
        assert rot.d.shape == (2,)
        t = 0.9
        direct = np.linalg.solve(X.T @ X + t * np.eye(3), X.T @ y)
        assert np.allclose(rot.fitted(rot.s_of_penalty(t)), X @ direct, atol=1e-8)

    def test_zero_rank_rejected(self):
        with pytest.raises(DomainError):
            RidgeRotation(np.zeros((4, 2)), np.ones(4))

    def test_tuned_fit_is_a_ridge_solution(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((20, 4))
        beta = np.array([1.0, -2.0, 0.0, 0.5])
        y = X @ beta + rng.standard_normal(20)
        rot = ridge_as_hetero(X, y, sigma=1.0)
        fit = rot.tune()
        if math.isfinite(fit.s_hat):
            t = rot.penalty_of(fit.s_hat)
            direct = np.linalg.solve(X.T @ X + t * np.eye(4), X.T @ y)
            assert np.allclose(rot.coef(fit.s_hat), direct, atol=1e-8)
