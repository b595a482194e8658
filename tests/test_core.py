import math
import tracemalloc

import numpy as np
import pytest

from suretune import (
    DomainError,
    EdfReport,
    EstimatorFamily,
    GaussianModel,
    HeteroShrinkFamily,
    RidgeRotation,
    ShapeError,
    ShrinkMeansFamily,
    ShrinkRegressionFamily,
    SoftThreshFamily,
    SubsetCollection,
    TuningDomain,
    edf_two_model_exact,
    make_nested,
    mc_df,
    mc_edf,
    mc_prediction_error,
    oracle_gap_check,
    ridge_as_hetero,
)
from suretune import core
from suretune.core import _df_stats, _rank_basis
from suretune.simulate import SingletonShrinkFamily


def test_model_requires_exactly_one_noise_spec():
    theta = np.zeros(4)
    with pytest.raises(DomainError):
        GaussianModel(theta)
    with pytest.raises(DomainError):
        GaussianModel(theta, sigma=1.0, sigmas=np.ones(4))
    with pytest.raises(DomainError):
        GaussianModel(theta, sigma=-0.5)
    with pytest.raises(ShapeError):
        GaussianModel(theta, sigmas=np.ones(3))


# The model refuses a non-finite mean at construction: past that point each
# of these calls returns NaN, and the heteroskedastic oracle at
# theta0[0] = inf returns a plausible s0 with err = inf.
NON_FINITE_MEAN_CALLS = {
    "mc_prediction_error": lambda: mc_prediction_error(
        lambda Y: Y, GaussianModel([math.nan, 1.0, 2.0], sigma=1.0)),
    "mc_df": lambda: mc_df(lambda Y: Y, GaussianModel([math.nan, 1.0, 2.0], sigma=1.0)),
    "shrink-means-oracle": lambda: ShrinkMeansFamily(3, 1.0).oracle(
        GaussianModel([math.nan, 1.0, 2.0], sigma=1.0)),
    "singleton-oracle": lambda: SingletonShrinkFamily(3, 1.0).oracle(
        GaussianModel([math.nan, 1.0, 2.0], sigma=1.0)),
    "hetero-oracle": lambda: HeteroShrinkFamily(np.ones(3)).oracle(
        GaussianModel([math.inf, 1.0, 2.0], sigmas=np.ones(3))),
}


@pytest.mark.parametrize("call", sorted(NON_FINITE_MEAN_CALLS))
def test_model_refuses_a_non_finite_mean(call):
    with pytest.raises(DomainError, match="theta0 is not finite at index 0"):
        NON_FINITE_MEAN_CALLS[call]()


def test_model_names_the_first_non_finite_mean_entry():
    with pytest.raises(DomainError, match="theta0 is not finite at index 1$"):
        GaussianModel([1.0, -math.inf, math.nan], sigma=1.0)


def test_model_draw_shapes_and_mean():
    model = GaussianModel(np.arange(5.0), sigma=0.5)
    rng = np.random.default_rng(0)
    Y = model.draw(rng, 2000)
    assert Y.shape == (2000, 5)
    assert np.allclose(Y.mean(axis=0), np.arange(5.0), atol=0.06)
    assert not model.is_heteroskedastic
    het = GaussianModel(np.zeros(3), sigmas=np.array([1.0, 2.0, 3.0]))
    assert het.is_heteroskedastic
    Z = het.draw(np.random.default_rng(1), 4000)
    assert np.allclose(Z.std(axis=0), [1.0, 2.0, 3.0], rtol=0.1)


def test_tuning_domain_membership():
    cont = TuningDomain(kind="continuous", lower=0.0, upper=math.inf)
    assert cont.contains(0.0)
    assert cont.contains(math.inf)
    assert not cont.contains(-1e-9)
    disc = TuningDomain(kind="discrete", labels=((0,), (0, 1)))
    assert disc.contains((0, 1))
    assert not disc.contains((1,))


def test_sure_is_unbiased_for_fixed_s():
    """At fixed s the SURE identity holds in expectation."""
    n, reps, s = 30, 4000, 0.7
    theta0 = np.linspace(-1, 2, n)
    model = GaussianModel(theta0, sigma=1.0)
    family = ShrinkMeansFamily(n, 1.0)
    rng = np.random.default_rng(7)
    Y = model.draw(rng, reps)
    Ystar = model.draw(rng, reps)
    sure_vals = family.sure(s, Y)
    err_vals = np.sum((Ystar - family.estimate(s, Y)) ** 2, axis=1)
    diff = sure_vals - err_vals
    assert abs(diff.mean()) <= 4 * diff.std(ddof=1) / math.sqrt(reps)


def test_sure_rejects_out_of_domain_and_bad_shape():
    family = ShrinkMeansFamily(5, 1.0)
    y = np.zeros(5)
    with pytest.raises(DomainError):
        family.sure(-0.1, y)
    with pytest.raises(ShapeError):
        family.sure(1.0, np.zeros(4))
    with pytest.raises(ShapeError):
        family.sure(1.0, 3.0)


def test_edf_report_validation():
    r = EdfReport(method="monte_carlo", value=0.5, std_error=0.1, reps=100)
    assert r.reps == 100
    with pytest.raises(DomainError):
        EdfReport(method="not_a_method", value=0.0, std_error=0.0, reps=1)
    with pytest.raises(DomainError, match="unknown edf method 'closed_form'"):
        EdfReport(method="closed_form", value=0.0, std_error=0.0, reps=1)
    with pytest.raises(DomainError):
        EdfReport(method="monte_carlo", value=0.0, std_error=-1.0, reps=1)


class TestMonteCarloDf:
    def test_identity_rule_has_df_n(self):
        n = 12
        model = GaussianModel(np.zeros(n), sigma=1.0)
        est = mc_df(lambda Y: Y, model, reps=3000, seed=11)
        assert est.value == pytest.approx(n, abs=4 * est.std_error)

    def test_constant_rule_has_df_zero(self):
        # the per-rep covariance statistic is mean zero, not pointwise zero
        model = GaussianModel(np.ones(6), sigma=2.0)
        est = mc_df(lambda Y: np.ones_like(Y), model, reps=500, seed=12)
        assert abs(est.value) <= 4.0 * est.std_error

    def test_linear_shrinker_df_is_trace(self):
        n, c = 9, 0.3
        model = GaussianModel(np.full(n, 0.5), sigma=1.5)
        est = mc_df(lambda Y: c * Y, model, reps=4000, seed=13)
        assert est.value == pytest.approx(c * n, abs=4 * est.std_error)


def test_df_stats_heteroskedastic_scaling():
    model = GaussianModel(np.zeros(3), sigmas=np.array([1.0, 2.0, 4.0]))
    Y = np.array([[1.0, 2.0, 4.0]])
    stats = _df_stats(Y.copy(), Y, model)
    # per coordinate: y_i^2 / sigma_i^2 = 1 + 1 + 1
    assert stats[0] == pytest.approx(3.0)


def test_mc_edf_of_untuned_family_is_near_zero():
    from suretune.simulate import SingletonShrinkFamily

    n = 15
    family = SingletonShrinkFamily(n, 1.0, s=0.8)
    model = GaussianModel(np.zeros(n), sigma=1.0)
    report = mc_edf(family, model, reps=4000, seed=21)
    assert abs(report.value) <= 4 * report.std_error
    assert report.method == "monte_carlo"


def test_mc_prediction_error_of_zero_rule():
    theta0 = np.array([1.0, -2.0, 0.5])
    model = GaussianModel(theta0, sigma=1.0)
    est = mc_prediction_error(lambda Y: np.zeros_like(Y), model, reps=5000, seed=22)
    expected = 3 * 1.0 + float(theta0 @ theta0)
    assert est.value == pytest.approx(expected, abs=4 * est.std_error)


def test_mc_prediction_error_refuses_a_rule_of_the_wrong_shape():
    # Without the check, Y* - Y[:, :1] broadcasts into a plausible 7.84 +- 0.22.
    model = GaussianModel(np.ones(4), sigma=1.0)
    with pytest.raises(ShapeError, match="rule must map"):
        mc_prediction_error(lambda Y: Y[:, :1], model, reps=1000, seed=0)


def test_oracle_tuning_matches_family_oracle():
    n = 20
    model = GaussianModel(np.full(n, 1.2), sigma=1.0)
    family = ShrinkMeansFamily(n, 1.0)
    ora = family.oracle(model)
    norm2 = n * 1.2**2
    expected_risk = n * norm2 / (n + norm2)
    assert ora.err == pytest.approx(n + expected_risk, rel=1e-12)
    assert ora.s0 == pytest.approx(n / norm2, rel=1e-12)


def test_oracle_gap_check_holds_for_shrinkage():
    n = 30
    model = GaussianModel(np.ones(n), sigma=1.0)
    family = ShrinkMeansFamily(n, 1.0)
    report = oracle_gap_check(family, model, reps=2000, seed=23)
    assert report.bound_holds
    assert report.minsure_holds
    # excess optimism for this family never exceeds 4 sigma^2
    assert report.exopt.value <= 4.0 + 4.0 * report.exopt.std_error


class _NoOracleFamily(ShrinkMeansFamily):
    oracle = EstimatorFamily.oracle


def test_oracle_gap_check_needs_a_family_oracle():
    model = GaussianModel(np.zeros(5), sigma=1.0)
    with pytest.raises(DomainError, match="_NoOracleFamily provides no oracle tuning"):
        oracle_gap_check(_NoOracleFamily(5, 1.0), model, reps=10)


def test_mc_edf_refuses_a_model_with_other_noise():
    with pytest.raises(DomainError, match="model does not match ShrinkMeansFamily"):
        mc_edf(ShrinkMeansFamily(3, 1.0), GaussianModel(np.zeros(3), sigma=2.0), reps=10)


@pytest.mark.parametrize("reps", [1, 0, -4, 2.5, math.inf, math.nan])
def test_monte_carlo_needs_an_integer_reps_of_at_least_two(reps):
    # One replication would report std_error 0, which EdfReport reserves
    # for deterministic methods; none would average nothing.
    family = ShrinkMeansFamily(4, 1.0)
    model = GaussianModel(np.ones(4), sigma=1.0)
    calls = (
        lambda: mc_edf(family, model, reps=reps),
        lambda: mc_df(lambda Y: Y, model, reps=reps),
        lambda: mc_prediction_error(lambda Y: Y, model, reps=reps),
        lambda: oracle_gap_check(family, model, reps=reps),
    )
    for call in calls:
        with pytest.raises(DomainError, match="reps must be an integer at least 2"):
            call()


def test_monte_carlo_accepts_two_reps_of_any_integer_type():
    model = GaussianModel(np.ones(4), sigma=1.0)
    for reps in (2, np.int64(2), 2.0):
        report = mc_edf(ShrinkMeansFamily(4, 1.0), model, reps=reps)
        assert report.reps == 2 and report.std_error > 0.0


def _mc_reports(family, model, reps, seed):
    return (mc_edf(family, model, reps=reps, seed=seed),
            mc_df(lambda Y: family.tune_batch(Y).theta_hat, model, reps=reps, seed=seed))


def _blocked_and_whole(monkeypatch, family, model, reps=50, seed=3):
    """mc_edf and mc_df reports in 64-value row blocks, then in one block."""
    runs = []
    for values in (64, 1 << 40):
        monkeypatch.setattr(core, "_BLOCK_VALUES", values)
        runs.append(_mc_reports(family, model, reps, seed))
    monkeypatch.setattr(core, "_BLOCK_VALUES", 64)
    assert len(list(core._row_blocks(reps, model.n))) > 1
    return runs


@pytest.mark.parametrize("family, model", [
    (ShrinkMeansFamily(7, 1.3), GaussianModel(np.linspace(-2.0, 2.0, 7), sigma=1.3)),
    (SoftThreshFamily(10, 1.0), GaussianModel(3.0 / np.sqrt(np.arange(1, 11)), sigma=1.0)),
    (SingletonShrinkFamily(5, 0.7, s=0.4), GaussianModel(np.ones(5), sigma=0.7)),
], ids=lambda x: type(x).__name__)
def test_row_blocks_give_the_one_block_bytes(monkeypatch, family, model):
    # The blocks draw the same normals in the same order and every later
    # step acts row by row, so these BLAS-free families match bit for bit.
    blocked, whole = _blocked_and_whole(monkeypatch, family, model)
    assert blocked == whole


def test_row_blocks_of_blas_families_agree_to_rounding(monkeypatch):
    sigmas = np.geomspace(0.5, 3.0, 6)
    X = np.random.default_rng(4).standard_normal((30, 6))
    coll = make_nested(X, 1.0)
    cases = [(HeteroShrinkFamily(sigmas), GaussianModel(np.linspace(0.0, 3.0, 6), sigmas=sigmas)),
             (coll, GaussianModel(np.zeros(coll.n), sigma=1.0))]
    for family, model in cases:
        blocked, whole = _blocked_and_whole(monkeypatch, family, model)
        for got, want in zip(blocked, whole):
            assert got.reps == want.reps == 50
            assert got.value == pytest.approx(want.value, rel=1e-12)
            assert got.std_error == pytest.approx(want.std_error, rel=1e-12)


def test_mc_edf_memory_is_bounded_by_one_block():
    # Holding the whole 5000 x 1000 batch and tune_batch's temporaries on it
    # peaked at about 320 MB; one 65 x 1000 block at a time stays near 5 MB.
    # The value and standard error are those of the one-batch computation.
    model = GaussianModel(4.0 / np.sqrt(np.arange(1, 1001)), sigma=1.0)
    family = SoftThreshFamily(1000, 1.0)
    tracemalloc.start()
    try:
        report = mc_edf(family, model, reps=5000, seed=17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    assert (report.value, report.std_error, report.reps) == \
        (9.097907553886174, 0.14130403144059367, 5000)


def test_mc_df_of_a_tuned_rule_is_pinned():
    # 1500 rows of 200 run in five blocks; the pin is the one-batch result.
    family = ShrinkMeansFamily(200, 1.0)
    est = mc_df(lambda Y: family.tune_batch(Y).theta_hat,
                GaussianModel(np.full(200, 0.3), sigma=1.0), reps=1500, seed=19)
    assert (est.value, est.std_error, est.reps) == (18.20816851199489, 0.435199327881327, 1500)


DESIGN_ENTRIES = {
    "_rank_basis": _rank_basis,
    "SubsetCollection": lambda X: SubsetCollection(X, [(), (0,), (0, 1), (0, 1, 2)], 1.0),
    "make_nested": lambda X: make_nested(X, 1.0),
    "ShrinkRegressionFamily": lambda X: ShrinkRegressionFamily(X, 1.0),
    "RidgeRotation": lambda X: RidgeRotation(X, np.ones(6)),
    "ridge_as_hetero": lambda X: ridge_as_hetero(X, np.ones(6)),
    "edf_two_model_exact": lambda X: edf_two_model_exact(X, np.zeros(6), 1.0),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(DESIGN_ENTRIES))
def test_non_finite_design_is_refused_before_any_arithmetic(entry, bad):
    X = np.arange(18.0).reshape(6, 3) / 7.0 + np.eye(6, 3)
    X[4, 2] = bad
    with pytest.raises(DomainError, match=r"design X is not finite at \(row 4, column 2\)"):
        DESIGN_ENTRIES[entry](X)
