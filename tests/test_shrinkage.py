import math
import warnings

import numpy as np
import pytest

from suretune import (
    DomainError,
    GaussianModel,
    ShrinkMeansFamily,
    ShrinkRegressionFamily,
    edf_unbiased_shrink,
    james_stein_positive,
    james_stein_positive_regression,
    minimize_quadratic_sure,
    risk_bounds_shrink,
    shrink_means_positive_part,
    unbiased_risk_sure_tuned_shrink,
)


class TestQuadraticMinimizer:
    def test_interior_minimum(self):
        # a = ||y||^2 = 20, b = n sigma^2 = 5: s = b/(a-b)
        assert minimize_quadratic_sure(20.0, 5.0) == pytest.approx(5.0 / 15.0)

    def test_boundary_folds_to_infinity(self):
        assert math.isinf(minimize_quadratic_sure(5.0, 5.0))
        assert math.isinf(minimize_quadratic_sure(3.0, 5.0))

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(DomainError):
            minimize_quadratic_sure(0.0, 1.0)
        with pytest.raises(DomainError):
            minimize_quadratic_sure(1.0, -1.0)

    def test_matches_grid_search(self):
        a, b = 37.5, 12.0
        s_star = minimize_quadratic_sure(a, b)
        grid = np.linspace(0, 20, 200001)
        vals = a * (grid / (1 + grid)) ** 2 + 2 * b / (1 + grid)
        assert s_star == pytest.approx(grid[np.argmin(vals)], abs=1e-3)


def test_tuned_rule_is_positive_part_shrinker():
    rng = np.random.default_rng(5)
    for _ in range(20):
        y = rng.normal(0.0, 1.5, 12)
        fit = ShrinkMeansFamily(12, 1.0).tune(y)
        b = 12.0
        expected = np.clip(1.0 - b / (y @ y), 0.0, None) * y
        assert np.allclose(fit.theta_hat, expected, atol=1e-12)
        assert np.allclose(shrink_means_positive_part(y, 1.0), expected, atol=1e-12)


def test_tune_batch_agrees_with_scalar_tune():
    rng = np.random.default_rng(6)
    Y = rng.normal(0.5, 1.0, (40, 9))
    family = ShrinkMeansFamily(9, 1.0)
    batch = family.tune_batch(Y)
    for r in (0, 7, 39):
        fit = family.tune(Y[r])
        assert batch.s_hat[r] == pytest.approx(fit.s_hat, nan_ok=False) or (
            math.isinf(batch.s_hat[r]) and math.isinf(fit.s_hat))
        assert batch.sure_min[r] == pytest.approx(fit.sure_min)
        assert batch.naive_df_at_shat[r] == pytest.approx(fit.naive_df_at_shat)


def test_sure_min_equals_sure_at_s_hat():
    y = np.random.default_rng(8).normal(1.0, 1.0, 25)
    family = ShrinkMeansFamily(25, 1.0)
    fit = family.tune(y)
    assert fit.sure_min == pytest.approx(float(family.sure(fit.s_hat, y)), rel=1e-12)


def test_small_data_tunes_to_full_shrinkage():
    y = np.array([0.1, -0.2, 0.05])
    fit = ShrinkMeansFamily(3, 1.0).tune(y)
    assert math.isinf(fit.s_hat)
    assert np.array_equal(fit.theta_hat, np.zeros(3))
    assert fit.sure_min == pytest.approx(float(y @ y))
    assert fit.naive_df_at_shat == 0.0


def test_edf_statistic_branches():
    assert edf_unbiased_shrink(0.0) == 0.0
    assert edf_unbiased_shrink(math.inf) == 0.0
    assert edf_unbiased_shrink(1.0) == pytest.approx(1.0)
    assert edf_unbiased_shrink(3.0) == pytest.approx(1.5)
    with pytest.raises(DomainError):
        edf_unbiased_shrink(-0.5)


def test_edf_statistic_broadcasts():
    got = edf_unbiased_shrink(np.array([0.0, 1.0, math.inf, 3.0]))
    assert got.tolist() == [0.0, 1.0, 0.0, 1.5]
    assert type(edf_unbiased_shrink(3.0)) is float
    with pytest.raises(DomainError):
        edf_unbiased_shrink(np.array([1.0, -0.5, math.inf]))


def test_edf_statistic_rejects_nan():
    with pytest.raises(DomainError, match="not NaN"):
        edf_unbiased_shrink(math.nan)
    with pytest.raises(DomainError, match="not NaN"):
        edf_unbiased_shrink(np.array([1.0, math.nan, math.inf]))


def test_unbiased_risk_estimate_branches():
    n, sigma = 10, 1.0
    y = np.full(n, 2.0)  # ||y||^2 = 40 >= n sigma^2
    got = unbiased_risk_sure_tuned_shrink(y, sigma)
    expected = n - (n - 4) * n / 40.0
    assert got == pytest.approx(expected)
    y_small = np.full(n, 0.5)  # ||y||^2 = 2.5 < 10
    assert unbiased_risk_sure_tuned_shrink(y_small, sigma) == pytest.approx(2.5 - 10)


def test_unbiased_risk_estimate_mean_matches_true_risk():
    """E[R_hat] equals the tuned rule's true risk (dominance proof device)."""
    n, reps = 12, 6000
    theta0 = np.full(n, 1.0)
    model = GaussianModel(theta0, sigma=1.0)
    rng = np.random.default_rng(9)
    Y = model.draw(rng, reps)
    family = ShrinkMeansFamily(n, 1.0)
    fit = family.tune_batch(Y)
    risks = np.sum((fit.theta_hat - theta0) ** 2, axis=1)
    rhat = np.array([unbiased_risk_sure_tuned_shrink(Y[r], 1.0) for r in range(reps)])
    diff = rhat - risks
    assert abs(diff.mean()) <= 4 * diff.std(ddof=1) / math.sqrt(reps)


@pytest.mark.parametrize("y", [[7.4e-159], [1e-160, 0.0, 0.0]])
def test_subnormal_squared_norm_shrinks_to_zero_without_warning(y):
    normal = [3.0, -1.0, 2.5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = ShrinkMeansFamily(len(y), 1.0).tune_batch(np.array([y]))
        alone = ShrinkMeansFamily(3, 1.0).tune_batch(np.array([normal]))
    a = float(np.sum(np.square(y)))
    assert 0.0 < a < 1e-300
    assert fit.s_hat[0] == math.inf
    assert np.array_equal(fit.theta_hat, np.zeros((1, len(y))))
    assert fit.sure_min[0] == a
    assert fit.naive_df_at_shat[0] == 0.0
    # A row with a normal squared norm keeps the closed form, bit for bit.
    a, b = 16.25, 3.0
    assert alone.s_hat[0] == b / (a - b)
    assert np.array_equal(alone.theta_hat[0], (1.0 - b / a) * np.array(normal))
    assert alone.sure_min[0] == 2.0 * b - b**2 / a
    assert alone.naive_df_at_shat[0] == 3.0 * (1.0 - b / a)


def test_james_stein_warns_below_three_dims():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        james_stein_positive(np.array([1.0, 2.0]), 1.0)
    assert any("dominate" in str(w.message) for w in caught)


def test_james_stein_shrinks_toward_zero():
    y = np.array([3.0, -1.0, 2.0, 0.5, -2.5])
    est = james_stein_positive(y, 1.0)
    factor = 1.0 - 3.0 / float(y @ y)
    assert np.allclose(est, factor * y)
    tiny = np.array([0.1, 0.1, -0.1, 0.05, 0.0])
    assert np.array_equal(james_stein_positive(tiny, 1.0), np.zeros(5))


def test_risk_bounds_fields():
    model = GaussianModel(np.full(20, 1.5), sigma=1.0)
    rb = risk_bounds_shrink(model)
    norm2 = 20 * 1.5**2
    assert rb.oracle_risk == pytest.approx(20 * norm2 / (20 + norm2))
    assert rb.tuned_bound == pytest.approx(rb.oracle_risk + 4.0)
    assert rb.js_bound == pytest.approx(rb.oracle_risk + 2.0)


def test_tune_shrink_means_dispatches_batch_and_vector():
    rng = np.random.default_rng(10)
    y = rng.normal(1.0, 1.0, 7)
    family = ShrinkMeansFamily(7, 1.0)
    single = family.tune(y)
    batch = family.tune_batch(np.stack([y, y]))
    assert batch.s_hat[0] == batch.s_hat[1]
    assert single.sure_min == pytest.approx(batch.sure_min[0])


class TestRegressionShrinkage:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.X = rng.standard_normal((30, 4))
        self.family = ShrinkRegressionFamily(self.X, 1.0)

    def test_projection_is_idempotent(self):
        y = np.random.default_rng(12).standard_normal(30)
        py = self.family.project(y)
        assert np.allclose(self.family.project(py), py, atol=1e-12)

    def test_estimate_stays_in_span(self):
        y = np.random.default_rng(13).standard_normal(30)
        theta = self.family.estimate(0.5, y)
        assert np.allclose(self.family.project(theta), theta, atol=1e-12)

    def test_sure_includes_off_span_residual(self):
        y = np.random.default_rng(14).standard_normal(30)
        py = self.family.project(y)
        off = float(np.sum((y - py) ** 2))
        s = 1.3
        in_span = float(np.sum((py - self.family.estimate(s, y)) ** 2))
        df = self.family.naive_df(s, y)
        assert float(self.family.sure(s, y)) == pytest.approx(
            off + in_span + 2.0 * df)

    def test_tuning_reduces_to_projected_means_problem(self):
        y = np.random.default_rng(15).standard_normal(30) + self.X @ np.ones(4)
        fit = self.family.tune(y)
        # the optimal s depends only on ||Py||^2 and the rank
        py2 = float(np.sum(self.family.project(y) ** 2))
        expected_s = minimize_quadratic_sure(py2, 4.0)
        assert fit.s_hat == pytest.approx(expected_s, rel=1e-12)

    def test_rank_zero_design_rejected(self):
        with pytest.raises(DomainError):
            ShrinkRegressionFamily(np.zeros((10, 2)), 1.0)

    def test_rank_deficient_design_uses_actual_rank(self):
        X = np.column_stack([self.X[:, 0], self.X[:, 0], self.X[:, 1]])
        fam = ShrinkRegressionFamily(X, 1.0)
        y = np.random.default_rng(16).standard_normal(30)
        assert fam.naive_df(0.0, y) == pytest.approx(2.0)

    def test_js_regression_warns_below_rank_three(self):
        X = np.random.default_rng(17).standard_normal((10, 2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            james_stein_positive_regression(X, np.ones(10), 1.0)
        assert any("dominate" in str(w.message) for w in caught)


def test_oracle_risk_closed_form_beats_every_fixed_s():
    n = 15
    model = GaussianModel(np.full(n, 0.8), sigma=1.0)
    family = ShrinkMeansFamily(n, 1.0)
    ora = family.oracle(model)
    norm2 = n * 0.8**2
    for s in (0.1, 0.5, 1.0, 2.0, 10.0):
        risk_s = norm2 * (s / (1 + s)) ** 2 + n / (1 + s) ** 2
        assert ora.err <= n + risk_s + 1e-9


# Each closed form checks sigma and every data row before computing: a bad
# sigma or a non-finite entry used to come back as a plausible number.
@pytest.mark.parametrize("call, match", [
    (lambda: james_stein_positive([1.0, 2.0, 3.0], math.nan), "sigma must be positive"),
    (lambda: shrink_means_positive_part([1.0, 2.0, 3.0], math.nan), "sigma must be positive"),
    (lambda: james_stein_positive([1.0, 2.0, 3.0], -1.0), "sigma must be positive"),
    (lambda: unbiased_risk_sure_tuned_shrink([1.0, 2.0], 0.0), "sigma must be positive"),
    (lambda: james_stein_positive([math.nan, 1.0, 2.0], 1.0), r"row 0, column 0"),
    (lambda: shrink_means_positive_part([math.inf, 1.0], 1.0), r"row 0, column 0"),
    (lambda: unbiased_risk_sure_tuned_shrink([math.nan, 1.0], 1.0), r"row 0, column 0"),
    (lambda: james_stein_positive_regression(np.eye(3), [1.0, 2.0, math.nan], 1.0),
     r"row 0, column 2"),
    (lambda: james_stein_positive(np.array([[1.0, 2.0, 3.0], [4.0, math.nan, 6.0]]), 1.0),
     r"row 1, column 1"),
], ids=["js-nan-sigma", "positive-part-nan-sigma", "js-negative-sigma", "risk-zero-sigma",
        "js-nan-data", "positive-part-inf-data", "risk-nan-data", "js-regression-nan-data",
        "js-batch-row"])
def test_closed_forms_refuse_bad_sigma_or_data(call, match):
    with pytest.raises(DomainError, match=match):
        call()
