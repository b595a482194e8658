"""Implicit-differentiation excess df, heteroskedastic shrinkage, ridge."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import suretune.stein as stein
from suretune import (
    CurvatureError,
    DomainError,
    GaussianModel,
    HeteroShrinkFamily,
    RidgeRotation,
    ShapeError,
    ShrinkMeansFamily,
    SmoothFamilyHooks,
    StationarityError,
    edf_implicit_diff,
    exopt_hetero_shrink,
    mc_edf,
    ridge_as_hetero,
)


class TestImplicitDiff:
    def test_shrinkage_closed_hooks_match_analytic_statistic(self):
        rng = np.random.default_rng(5)
        fam = ShrinkMeansFamily(15, 1.0)
        hooks = fam.hooks
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
        closed = ShrinkMeansFamily(n, sigma).hooks
        bare = SmoothFamilyHooks(theta=closed.theta, g=closed.g)
        rng = np.random.default_rng(6)
        y = rng.normal(2.0, 1.0, n)
        fit = ShrinkMeansFamily(n, sigma).tune(y)
        a = edf_implicit_diff(closed, y, fit.s_hat).value
        b = edf_implicit_diff(bare, y, fit.s_hat).value
        assert b == pytest.approx(a, abs=1e-4)

    def test_fallback_derivatives_match_closed_forms(self):
        closed = HeteroShrinkFamily(np.array([0.5, 1.0, 2.0])).hooks
        bare = SmoothFamilyHooks(theta=closed.theta, g=closed.g)
        one = (0.9, np.array([1.2, -0.7, 3.0]))
        batch = (np.array([0.9, 0.02, 40.0]),
                 np.array([[1.2, -0.7, 3.0], [0.1, 5.0, -2.0], [-3.0, 0.4, 0.0]]))
        # The batch cross derivative divides rounding error of order
        # 1e-16 |G| by two steps of order 1e-5, hence its absolute tolerance;
        # the single vector keeps np.allclose's default atol of 1e-8.
        for (s, y), cross_atol, theta_atol in ((one, 1e-8, 1e-8), (batch, 1e-5, 0.0)):
            for name, rtol in (("dg_ds", 1e-4), ("d2g_ds2", 1e-3)):
                got, want = (getattr(h, f"_eval_{name}")(s, y) for h in (bare, closed))
                assert np.shape(got) == np.shape(want) == np.shape(s)
                assert np.allclose(got, want, rtol=rtol, atol=0)
            for name, atol in (("d2g_dyds", cross_atol), ("dtheta_ds", theta_atol)):
                got, want = (getattr(h, f"_eval_{name}")(s, y) for h in (bare, closed))
                assert got.shape == want.shape == y.shape
                assert np.allclose(got, want, rtol=1e-4, atol=atol)

    def test_hooks_have_no_public_evaluators(self):
        # The evaluators take tuning values unchecked, so only the stationarity
        # checks of `_implicit_diff_stats` reach them.
        assert [name for name in dir(SmoothFamilyHooks) if name.startswith("eval_")] == []

    def test_fallback_statistic_is_accurate_on_wide_data(self):
        # Second differences lose about eps |G| / h^2 to rounding, which the
        # fallbacks' eps**0.25 steps keep small on data of scale 4 sigma.
        closed = ShrinkMeansFamily(6, 1.0).hooks
        bare = SmoothFamilyHooks(theta=closed.theta, g=closed.g)
        Y = np.random.default_rng(0).normal(0.0, 4.0, (4000, 6))
        s_hat = ShrinkMeansFamily(6, 1.0).tune_batch(Y).s_hat
        inner = np.isfinite(s_hat)
        Y, s_hat = Y[inner], s_hat[inner]
        assert inner.sum() > 3900
        stats = stein._implicit_diff_stats(bare, Y, s_hat)
        assert np.max(np.abs(stats - 2.0 * s_hat / (1.0 + s_hat))) <= 2e-5
        curv, want = bare._eval_d2g_ds2(s_hat, Y), closed._eval_d2g_ds2(s_hat, Y)
        assert np.max(np.abs(curv / want - 1.0)) <= 1e-5
        cross, want = bare._eval_d2g_dyds(s_hat, Y), closed._eval_d2g_dyds(s_hat, Y)
        assert np.max(np.abs(cross - want).max(axis=1) / np.abs(want).max(axis=1)) <= 3e-6

    @staticmethod
    def _hooks(kind):
        """(hooks, family, sigmas or None) for one of four hook sets."""
        sigmas = None
        if kind.startswith("shrink"):
            fam = ShrinkMeansFamily(6, 1.0)
        else:
            sigmas = np.array([0.5, 0.8, 1.0, 1.3, 2.0, 3.0])
            fam = HeteroShrinkFamily(sigmas)
        hooks = fam.hooks
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
            loop = -float(np.dot(hooks._eval_dtheta_ds(s, y), hooks._eval_d2g_dyds(s, y))
                          / hooks._eval_d2g_ds2(s, y))
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

    def test_infinite_s_hat_gives_zero(self):
        # The boundary s_hat = +inf gives 0 here as in every row of the batch.
        for fam in (ShrinkMeansFamily(4, 1.0), HeteroShrinkFamily(np.linspace(0.5, 2.0, 4))):
            assert edf_implicit_diff(fam.hooks, np.ones(4), math.inf).value == 0.0

    def test_nonstationary_point_rejected(self):
        fam = ShrinkMeansFamily(10, 1.0)
        y = np.full(10, 2.0)
        fit = fam.tune(y)
        with pytest.raises(StationarityError):
            edf_implicit_diff(fam.hooks, y, 2.0 * fit.s_hat + 1.0)

    @pytest.mark.parametrize("k", [-300, -60, -14, 0, 60, 300])
    def test_stationarity_verdict_does_not_depend_on_the_noise_scale(self, k):
        # (y, sigma) -> (2^k y, 2^k sigma) scales G by 4^k (by 1 for the
        # scaled heteroskedastic SURE) and s by 2^(k * _s_power), and leaves
        # the verdict alone.  A bound of 1e-6 max(1, |G|) is absolute below
        # |G| = 1: at sigma = 1e-4 it passes 1.3 s_hat on shrinkage, which
        # then returns 2.40 where the statistic at s_hat is 1.33.
        c = 2.0**k
        y = 1.0 + np.random.default_rng(33).standard_normal(40)
        builds = [lambda c: ShrinkMeansFamily(40, c),
                  lambda c: HeteroShrinkFamily(c * np.linspace(0.5, 2.0, 40))]
        for build in builds:
            unit, fam = build(1.0), build(c)
            s_hat = unit.tune(y).s_hat
            s_scaled = math.ldexp(s_hat, k * fam._s_power)
            assert fam.tune(c * y).s_hat == s_scaled
            value = edf_implicit_diff(fam.hooks, c * y, s_scaled).value
            assert value == edf_implicit_diff(unit.hooks, y, s_hat).value
            for off in (1.3, 1.0 / 1.3):
                with pytest.raises(StationarityError, match="not a stationary point"):
                    edf_implicit_diff(fam.hooks, c * y, off * s_scaled)

    def test_zero_is_not_an_interior_stationary_point(self):
        hooks = SmoothFamilyHooks(theta=lambda s, y: np.zeros_like(y),
                                  g=lambda s, y: y[..., 0] * s**2)
        with pytest.raises(StationarityError, match="^row 0: "):
            edf_implicit_diff(hooks, np.ones(1), 0.0)

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
        het = HeteroShrinkFamily(np.full(10, sigma)).tune(y)
        hom = ShrinkMeansFamily(10, sigma).tune(y)
        # the hetero family scales its tuning value by 1/sigma^2
        assert sigma**2 * het.s_hat == pytest.approx(hom.s_hat, rel=1e-6)
        assert np.allclose(het.theta_hat, hom.theta_hat, atol=1e-8)

    def test_zero_data_fully_shrinks(self):
        fit = HeteroShrinkFamily(np.ones(5)).tune(np.zeros(5))
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
            fit = HeteroShrinkFamily(sigmas).tune(y)
            hooks = HeteroShrinkFamily(sigmas).hooks
            grid = np.concatenate([[0.0], np.geomspace(1e-6, 1e7, 20_001)])
            best = hooks.g(grid, y).min()
            assert fit.sure_min <= best + 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            HeteroShrinkFamily(np.ones(4)).tune(np.zeros(3))

    # Two noise levels a hundredfold apart give the criterion two interior
    # local minima; the one at small s is the lower.
    BIMODAL_SIGMAS = np.array([0.1, 0.1, 10.0, 10.0])
    BIMODAL_Y = np.array([0.3, 0.3, 30.0, 30.0])

    def test_bimodal_criterion_is_flagged(self):
        fit = HeteroShrinkFamily(self.BIMODAL_SIGMAS).tune(self.BIMODAL_Y)
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
        fit = HeteroShrinkFamily(np.ones(1)).tune(y)
        assert fit.s_hat == pytest.approx(1e7, rel=1e-6)
        assert fit.sure_min <= y[0] ** 2

    def test_small_sigma_bimodal_row_beats_dense_grid(self):
        # Noise levels from 0.01 to 0.2 give two interior minima.
        sigmas = np.array([0.200797869, 0.009457346, 0.028094444])
        y = np.array([0.692984939, -0.019823277, -0.027261288])
        fit = HeteroShrinkFamily(sigmas).tune(y)
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
        fit = HeteroShrinkFamily(np.array(sigmas)).tune(np.array(y))
        best = _dense_grid_min(np.array(y), np.array(sigmas))
        assert fit.sure_min <= best + 1e-9
        assert fit.s_hat == pytest.approx(s_hat, rel=1e-6)
        assert fit.multimodal is multimodal

    def test_large_data_matches_means_shrinkage(self):
        y = np.full(3, 1000.0)
        het = HeteroShrinkFamily(np.ones(3)).tune(y)
        hom = ShrinkMeansFamily(3, 1.0).tune(y)
        assert het.s_hat == pytest.approx(hom.s_hat, rel=1e-9, abs=0)
        assert het.sure_min == pytest.approx(hom.sure_min, rel=1e-12, abs=0)

    def test_bimodal_row_counts_two_minima(self):
        fam = HeteroShrinkFamily(self.BIMODAL_SIGMAS)
        e = fam._noise_exp
        y, sd = np.ldexp(self.BIMODAL_Y, -e), np.ldexp(self.BIMODAL_SIGMAS, -e)
        assert fam._minimize(y[None] ** 2, sd**2)[2].tolist() == [2]

    def test_every_finite_s_hat_is_stationary(self):
        rng = np.random.default_rng(16)
        scales = np.exp(rng.uniform(-3.0, 4.0, (200, 1)))
        batches = [(self.BIMODAL_SIGMAS, scales * rng.standard_normal((200, 4))
                    * self.BIMODAL_SIGMAS)]
        batches += [(np.array(sigmas), np.array(y)[None]) for sigmas, y, _, _ in
                    self.HARD_ROWS.values()]
        multimodal = False
        for sigmas, Y in batches:
            fam = HeteroShrinkFamily(sigmas)
            fit = fam.tune_batch(Y)
            multimodal |= fit.multimodal.any()
            finite = np.isfinite(fit.s_hat)
            assert finite.any()
            # raises StationarityError or CurvatureError on the first row that fails
            stats = stein._implicit_diff_stats(fam.hooks, Y[finite], fit.s_hat[finite])
            assert np.all(np.isfinite(stats))
        assert multimodal

    def test_exact_full_shrinkage_wins_at_mean_zero(self):
        # At theta0 = 0 every interior s has criterion above the s = +inf
        # value by sum 1 / (1 + sigma_i^2 s)^2, so the oracle is s0 = +inf.
        sigmas = np.linspace(0.5, 2.0, 12)
        oracle = HeteroShrinkFamily(sigmas).oracle(GaussianModel(np.zeros(12), sigmas=sigmas))
        assert oracle.s0 == math.inf
        assert oracle.err == 12.0

    def test_minimum_far_below_the_grid(self):
        # |y_i| / sigma_i = 1e100: the minimum, near 2 sum(sigma^2) / sum(2 y^2 sigma^2),
        # lies some 200 decades below the grid's first positive point.
        fam = HeteroShrinkFamily(np.array([1.0, 2.0, 3.0, 4.0]))
        y = 1e100 * np.array([1.0, 2.0, 3.0, 4.0])
        fit = fam.tune(y)
        assert fit.s_hat == pytest.approx(8.47457627118644e-202, rel=1e-12, abs=0)
        assert fit.sure_min == 8.0 == fam.sure(fit.s_hat, y)

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

    # One 1310 x 50 row block of the Monte Carlo pass at the library-mix
    # model, with every 131st row drawn at mean zero so that s = +inf appears.
    @staticmethod
    def _pass_block():
        sigmas = np.geomspace(0.5, 5.0, 50)
        null = (np.arange(1310) % 131 == 0)[:, None]
        theta0 = np.where(null, 0.0, 4.0 / np.sqrt(np.arange(1, 51)))
        return sigmas, theta0 + sigmas * np.random.default_rng(1).standard_normal((1310, 50))

    def test_block_tunes_in_cache_sized_chunks_with_the_whole_block_bytes(self):
        # Tuning the block in one piece peaked at 5.80 MB; chunks of 163 rows
        # keep it near 1.9 MB.  The sha256 is that of the one-piece tuner.
        sigmas, Y = self._pass_block()
        fam = HeteroShrinkFamily(sigmas)
        tracemalloc.start()
        try:
            fit = fam.tune_batch(Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6
        assert 0 < np.isinf(fit.s_hat).sum() < 10
        digest = hashlib.sha256()
        for name in ("s_hat", "theta_hat", "sure_min", "naive_df_at_shat", "multimodal"):
            digest.update(getattr(fit, name).tobytes())
        assert digest.hexdigest() == \
            "a0fee7c2e6d6a799dfad10b490787da769be96b2d61470151302e695c97ccb42"

    def test_monte_carlo_pass_memory_is_a_few_chunks(self):
        # mc_edf over 2000 reps of the library-mix model peaked at 6.35 MB
        # with the one-piece tuner and fresh block arrays; about 3.0 MB now.
        sigmas = np.geomspace(0.5, 5.0, 50)
        model = GaussianModel(4.0 / np.sqrt(np.arange(1, 51)), sigmas=sigmas)
        tracemalloc.start()
        try:
            mc_edf(HeteroShrinkFamily(sigmas), model, reps=2000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5e6


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
            fit = HeteroShrinkFamily(sigmas).tune(y)
            if not math.isfinite(fit.s_hat) or fit.s_hat <= 0:
                continue
            hooks = HeteroShrinkFamily(sigmas).hooks
            edf = edf_implicit_diff(hooks, y, fit.s_hat).value
            assert exopt_hetero_shrink(y, sigmas, fit.s_hat) == pytest.approx(
                2.0 * edf, rel=1e-6, abs=1e-10
            )

    def test_zero_data_gives_zero(self):
        assert exopt_hetero_shrink(np.zeros(4), np.ones(4), 0.7) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            exopt_hetero_shrink([1.0, 2.0], [1.0, 1.0, 1.0], 1.0)

    @pytest.mark.parametrize("y, sigmas", [
        ([1.0, math.nan], [1.0, 1.0]),
        ([1.0, math.inf], [1.0, 1.0]),
        ([1.0, 2.0], [1.0, math.nan]),
        ([1.0, 2.0], [1.0, math.inf]),
        ([1.0, 2.0], [1.0, 0.0]),
        ([1.0, 2.0], [-1.0, 1.0]),
    ])
    def test_non_finite_data_and_bad_sigmas_rejected(self, y, sigmas):
        with pytest.raises(DomainError):
            exopt_hetero_shrink(y, sigmas, 0.5)

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

    def test_non_finite_response_is_named(self):
        with pytest.raises(DomainError, match=r"column 2"):
            RidgeRotation(np.eye(3), np.array([1.0, 2.0, math.nan]))

    def test_sigma_is_checked_before_the_design(self):
        with pytest.raises(DomainError, match=r"^sigma must be positive and finite"):
            RidgeRotation(np.eye(3), np.ones(3), sigma=0)

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
