import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from suretune import (
    DomainError,
    EdfReport,
    GaussianModel,
    HeteroShrinkFamily,
    RidgeRotation,
    ShapeError,
    ShrinkMeansFamily,
    ShrinkRegressionFamily,
    SoftThreshFamily,
    SubsetCollection,
    edf_two_model_exact,
    make_nested,
    mc_df,
    mc_edf,
    mc_prediction_error,
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


# A finite mean whose squared norm overflows is refused as `_check_batch`
# refuses such data.  Past that point, with theta0 = (1e200, 1, 2), the
# singleton oracle returned err = inf, the soft-threshold oracle err = nan,
# and mc_df gave 1.95 +- 0.09 for the identity rule, whose df is 3.
OVERFLOWING_MEAN_CALLS = {
    "singleton-oracle": lambda: SingletonShrinkFamily(3, 1.0).oracle(
        GaussianModel([1e200, 1.0, 2.0], sigma=1.0)),
    "soft-threshold-oracle": lambda: SoftThreshFamily(3, 1.0).oracle(
        GaussianModel([1e200, 1.0, 2.0], sigma=1.0)),
    "mc_df": lambda: mc_df(lambda Y: Y, GaussianModel([1e200, 1.0, 2.0], sigma=1.0)),
}


@pytest.mark.parametrize("call", sorted(OVERFLOWING_MEAN_CALLS))
def test_model_refuses_a_mean_whose_squared_norm_overflows(call):
    with pytest.raises(DomainError,
                       match=r"squared norm of theta0 overflows \(largest at index 0\)"):
        OVERFLOWING_MEAN_CALLS[call]()


def test_model_names_the_largest_entry_of_an_overflowing_mean():
    with pytest.raises(DomainError, match=r"\(largest at index 1\)$"):
        GaussianModel([1e200, -3e200, 2.0], sigmas=np.ones(3))
    GaussianModel([1e150, -3e150, 2.0], sigma=1.0)  # squares to 1e301: accepted


# A noise level whose square is not a finite normal float is refused with
# the other bad ones.  Past that point mc_df at sigma = 1e-200 returned
# nan +- nan for the identity rule, at sigma = 1e200 it raised a bare
# OverflowError, mc_prediction_error with one sigma_i = 1e-200 returned
# inf +- nan, and the heteroskedastic tuner raised ZeroDivisionError.
EXTREME_NOISE_CALLS = {
    "mc_df-tiny-sigma": ("sigma", lambda: mc_df(
        lambda Y: Y, GaussianModel(np.zeros(3), sigma=1e-200), reps=10)),
    "mc_df-huge-sigma": ("sigma", lambda: mc_df(
        lambda Y: Y, GaussianModel(np.zeros(3), sigma=1e200), reps=10)),
    "mc_prediction_error-tiny-sigmas": ("sigmas", lambda: mc_prediction_error(
        lambda Y: 0 * Y, GaussianModel([1e150, 1.0, 2.0], sigmas=[1e-200, 1.0, 1.0]), reps=10)),
    "hetero-tune-tiny-sigmas": ("sigmas", lambda: HeteroShrinkFamily(
        [1e-200, 1.0]).tune([1.0, 2.0])),
}


@pytest.mark.parametrize("call", sorted(EXTREME_NOISE_CALLS))
def test_a_noise_level_whose_square_is_not_a_normal_float_is_refused(call):
    name, entry = EXTREME_NOISE_CALLS[call]
    with pytest.raises(DomainError, match=f"^{name} must be positive and finite, with a normal"):
        entry()


def test_the_noise_range_is_where_the_square_is_a_finite_normal_float():
    lo, hi = 2.0**-511, 2.0**512
    assert lo * lo == np.finfo(float).tiny and math.isfinite(math.nextafter(hi, 0.0) ** 2)
    GaussianModel(np.zeros(2), sigmas=[lo, math.nextafter(hi, 0.0)])
    for bad in (math.nextafter(lo, 0.0), hi):
        with pytest.raises(DomainError, match="^sigma must be positive and finite"):
            GaussianModel(np.zeros(2), sigma=bad)


# estimate and naive_df check the tuning value as sure does.  Past that
# point these returned -y, a df of -3, a df of 4 above the rank of 2,
# sign-flipped estimates and a df of 0 at s = nan.
_Y3 = np.array([1.0, 2.0, 3.0])
OUT_OF_DOMAIN_CALLS = {
    "shrink-means-estimate": lambda: ShrinkMeansFamily(3, 1.0).estimate(-2.0, _Y3),
    "shrink-means-naive-df": lambda: ShrinkMeansFamily(3, 1.0).naive_df(-2.0, _Y3),
    "shrink-regression-naive-df": lambda: ShrinkRegressionFamily(
        np.eye(3)[:, :2], 1.0).naive_df(-0.5, _Y3),
    "hetero-estimate": lambda: HeteroShrinkFamily([1.0, 2.0, 3.0]).estimate(-2.0, _Y3),
    "soft-threshold-naive-df": lambda: SoftThreshFamily(2, 1.0).naive_df(math.nan, _Y3[:2]),
}


@pytest.mark.parametrize("call", sorted(OUT_OF_DOMAIN_CALLS))
def test_estimate_and_naive_df_refuse_a_tuning_value_outside_the_domain(call):
    with pytest.raises(DomainError,
                       match=r"^tuning value must be nonnegative \(\+inf allowed\), not NaN$"):
        OUT_OF_DOMAIN_CALLS[call]()


def test_tuned_batch_has_no_discrete_flag_to_disagree_with_the_domain():
    assert "discrete" not in {f.name for f in dataclasses.fields(core.TunedBatch)}


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


@pytest.mark.parametrize("noise", [{"sigma": 0.7}, {"sigmas": np.linspace(0.3, 2.9, 6)}])
def test_model_draw_is_theta0_plus_sd_times_z_bit_for_bit(noise):
    # The draw scales by sigma or the sigma_i, with the bytes of the length-n
    # noise vector it once built; the model keeps no `sd` of its own.
    model = GaussianModel(np.linspace(-2.0, 3.0, 6), **noise)
    assert not hasattr(model, "sd")
    sd = noise["sigmas"] if "sigmas" in noise else np.full(6, noise["sigma"])
    want = model.theta0 + sd * np.random.default_rng(12).standard_normal((7, 6))
    assert model.draw(np.random.default_rng(12), 7).tobytes() == want.tobytes()
    out = np.empty((7, 6))
    assert model.draw(np.random.default_rng(12), 7, out=out) is out
    assert out.tobytes() == want.tobytes()


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
    with pytest.raises(DomainError, match="edf value must be finite"):
        EdfReport(method="monte_carlo", value=math.nan, std_error=0.0, reps=1)


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


def test_a_rules_bad_estimate_is_named_by_its_row_among_all_reps(monkeypatch):
    # 40 reps of n = 4 run in 16-row blocks; the bad estimate sits in the
    # second block, at row 20 of the whole draw.
    monkeypatch.setattr(core, "_BLOCK_VALUES", 64)
    model = GaussianModel(np.zeros(4), sigma=1.0)
    mark = model.draw(np.random.default_rng(8), 40)[20, 2]
    for call in (mc_df, mc_prediction_error):
        with pytest.raises(DomainError, match=r"rule output is not finite at \(row 20, column 2\)"):
            call(lambda Y: np.where(Y == mark, math.nan, Y), model, reps=40, seed=8)


def test_oracle_tuning_matches_family_oracle():
    n = 20
    model = GaussianModel(np.full(n, 1.2), sigma=1.0)
    family = ShrinkMeansFamily(n, 1.0)
    ora = family.oracle(model)
    norm2 = n * 1.2**2
    expected_risk = n * norm2 / (n + norm2)
    assert ora.err == pytest.approx(n + expected_risk, rel=1e-12)
    assert ora.s0 == pytest.approx(n / norm2, rel=1e-12)


class _NoOracleFamily(ShrinkMeansFamily):
    _oracle_at = None


def test_oracle_needs_a_family_oracle_core():
    model = GaussianModel(np.zeros(5), sigma=1.0)
    with pytest.raises(DomainError, match="_NoOracleFamily provides no oracle tuning"):
        _NoOracleFamily(5, 1.0).oracle(model)


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


def test_paired_draws_are_the_rows_of_two_whole_draws(monkeypatch):
    # Y is replayed block by block from saved generator states, Y* drawn
    # after all of Y; both match two whole draws bit for bit, and the
    # generator ends where the two whole draws leave it.  The pass reuses
    # its buffers, so each block is copied before the next one is drawn.
    monkeypatch.setattr(core, "_BLOCK_VALUES", 64)
    model = GaussianModel(np.linspace(-1.0, 1.0, 7), sigmas=np.geomspace(0.5, 2.0, 7))
    whole, rng = np.random.default_rng(3), np.random.default_rng(3)
    Y, Ystar = model.draw(whole, 20), model.draw(whole, 20)
    blocks = [(rows, y.copy(), ystar.copy())
              for rows, y, ystar in core._paired_draws(model, rng, 20)]
    assert [rows for rows, _, _ in blocks] == list(core._row_blocks(20, 7))
    assert np.concatenate([b[1] for b in blocks]).tobytes() == Y.tobytes()
    assert np.concatenate([b[2] for b in blocks]).tobytes() == Ystar.tobytes()
    assert rng.bit_generator.state == whole.bit_generator.state
    # Without Y*, the pass draws Y alone: the rows of one whole draw, with the
    # generator left where that draw leaves it.
    # default_rng returns a Generator seed unaltered, so the pass draws from rng.
    once, rng = np.random.default_rng(3), np.random.default_rng(3)
    Y = model.draw(once, 20)
    seen = []
    core._tuned_stats(core._rule_tuner(lambda Y: Y), model, rng, 20,
                      record=lambda Y, fit: seen.append(Y.copy()))
    assert [len(block) for block in seen] == [rows.stop - rows.start
                                              for rows in core._row_blocks(20, 7)]
    assert np.concatenate(seen).tobytes() == Y.tobytes()
    assert rng.bit_generator.state == once.bit_generator.state


@pytest.mark.parametrize("values", [64, 1 << 40], ids=["many-blocks", "one-block"])
def test_a_block_statistic_is_stored_as_rows_of_the_pass(monkeypatch, values):
    # A statistic that returns a (k, m) block for a (k, n) block of rows
    # comes back as the (reps, m) array of the whole draw, a vector one as a
    # length-reps vector, and a None function as None.
    monkeypatch.setattr(core, "_BLOCK_VALUES", values)
    model = GaussianModel(np.linspace(-1.0, 1.0, 7), sigma=1.0)
    Y = model.draw(np.random.default_rng(5), 20)
    per_row = core._tuned_stats(core._rule_tuner(lambda Y: Y), model, 5, 20,
                                pair=lambda Y, fit: np.column_stack([Y.sum(1), Y.max(1)]),
                                total=lambda Y, fit: Y.sum(1), absent=None)
    assert per_row["pair"].shape == (20, 2)
    assert per_row["pair"].tobytes() == np.column_stack([Y.sum(1), Y.max(1)]).tobytes()
    assert per_row["total"].shape == (20,)
    assert per_row["total"].tobytes() == Y.sum(1).tobytes()
    assert per_row["absent"] is None


# float.hex of (value, std_error) from one whole (500, 300) draw of Y and
# then of Y*, computed before the pairs were streamed.  500 rows of 300 run
# in three row blocks; row-wise rules and BLAS-free families keep the bits.
_PIN_N = 300
_PIN_THETA0 = 4.0 / np.sqrt(np.arange(1, _PIN_N + 1))
PREDICTION_ERROR_PINS = {
    "zero": ("0x1.91604f42a4828p+8", "0x1.704747a4dcf8dp+0"),
    "shrink": ("0x1.7d084f2e07f31p+8", "0x1.50362f753fa29p+0"),
    "hetero": ("0x1.c17ac64ea06d7p+8", "0x1.95cf0ba05a798p+0"),
}
PREDICTION_ERROR_CASES = {
    "zero": (lambda Y: np.zeros_like(Y), dict(sigma=1.0), 5),
    "shrink": (lambda Y: ShrinkMeansFamily(_PIN_N, 1.0).estimate(2.0, Y), dict(sigma=1.0), 6),
    "hetero": (lambda Y: 0.5 * Y, dict(sigmas=np.geomspace(0.5, 2.0, _PIN_N)), 7),
}


def _hex(est):
    assert est.reps == 500
    return (est.value.hex(), est.std_error.hex())


@pytest.mark.parametrize("case", sorted(PREDICTION_ERROR_PINS))
def test_mc_prediction_error_keeps_the_whole_batch_bits(case):
    rule, noise, seed = PREDICTION_ERROR_CASES[case]
    assert len(list(core._row_blocks(500, _PIN_N))) == 3
    est = mc_prediction_error(rule, GaussianModel(_PIN_THETA0, **noise), reps=500, seed=seed)
    assert _hex(est) == PREDICTION_ERROR_PINS[case]


# The tuned pass that acceptance c04 reduces: the prediction error, excess
# optimism and SURE minimum of the tuned rule, and their margins over the
# oracle error.  The bits are those the pass gave before it was streamed,
# except the soft margins, which moved with the exact soft oracle's err.
TUNED_PASS_PINS = {
    "shrink": {
        "err_tuned": ("0x1.799610fd58a44p+8", "0x1.5f78538cf961ep+0"),
        "exopt": ("0x1.ba43673cbd96dp+1", "0x1.43e9d4d273505p-1"),
        "mean_min_sure": ("0x1.766c273d6d077p+8", "0x1.9ef71dc315a97p-1"),
        "thm_margin": ("-0x1.299e9e470fb26p+0", "0x1.80fbc95d5a7d0p+0"),
        "minsure_margin": ("-0x1.be031f7262b00p-1", "0x1.9ef71dc315a97p-1"),
    },
    "soft": {
        "err_tuned": ("0x1.7da61bdc7288fp+8", "0x1.679efcd45bf53p+0"),
        "exopt": ("0x1.ed304c0a76bacp+3", "0x1.b2a7e69b1145dp-1"),
        "mean_min_sure": ("0x1.6ef21f41ffafep+8", "0x1.19847baf69fa8p+0"),
        "thm_margin": ("-0x1.68848c41718f0p+3", "0x1.8b5726039591dp+0"),
        "minsure_margin": ("-0x1.51d3d38555f81p+3", "0x1.19847baf69fa8p+0"),
    },
    "singleton": {
        "err_tuned": ("0x1.be5785711ed25p+8", "0x1.a444cede7d84bp+0"),
        "exopt": ("0x1.e0d8c4e3a5ca0p-1", "0x1.9d024122a1e05p+0"),
        "mean_min_sure": ("0x1.bc9dd6f7c8d6fp+8", "0x1.48698e1dd0628p-3"),
        "thm_margin": ("0x1.cce8a81b40533p-1", "0x1.062cd7f0539a5p+1"),
        "minsure_margin": ("0x1.d323d2977a30ap-4", "0x1.48698e1dd0629p-3"),
    },
}
TUNED_PASS_FAMILIES = {
    "shrink": lambda: ShrinkMeansFamily(_PIN_N, 1.0),
    "soft": lambda: SoftThreshFamily(_PIN_N, 1.0),
    "singleton": lambda: SingletonShrinkFamily(_PIN_N, 1.0, s=0.5),
}


def _tuned_pass(family, model, reps, seed):
    return core._tuned_stats(family.tune_batch, model, seed, reps, "test", "edf", "sure_min")


@pytest.mark.parametrize("name", sorted(TUNED_PASS_PINS))
def test_tuned_pass_keeps_the_whole_batch_bits(name):
    family, model = TUNED_PASS_FAMILIES[name](), GaussianModel(_PIN_THETA0, sigma=1.0)
    stats = _tuned_pass(family, model, reps=500, seed=8)
    oracle_err = family.oracle(model).err
    err_r, sure_min = stats["test"], stats["sure_min"]
    exopt_r = 2.0 * core._df_unit(model) * stats["edf"]
    rows = {"err_tuned": err_r, "exopt": exopt_r, "mean_min_sure": sure_min,
            "thm_margin": err_r - exopt_r - oracle_err, "minsure_margin": sure_min - oracle_err}
    got = {field: core.MCEstimate(*core._mean_se(row)) for field, row in rows.items()}
    assert {field: _hex(est) for field, est in got.items()} == TUNED_PASS_PINS[name]
    # property (ii): the excess risk over the oracle is bounded by the excess optimism
    for field in ("thm_margin", "minsure_margin"):
        assert got[field].value <= 4.0 * got[field].std_error


@pytest.mark.parametrize("call", ["mc_prediction_error", "tuned_pass"])
def test_paired_monte_carlo_memory_is_bounded_by_a_few_blocks(call):
    # 400 reps of n = 5000 are 16 MB per (reps, n) array: drawing all of Y
    # and Y* peaked at 61 and 76 MB; 13-row blocks stay near 2 and 3 MB.
    family, model = ShrinkMeansFamily(5000, 1.0), GaussianModel(np.full(5000, 0.5), sigma=1.0)
    run = {"mc_prediction_error": lambda: mc_prediction_error(
               lambda Y: family.estimate(1.0, Y), model, reps=400, seed=1),
           "tuned_pass": lambda: _tuned_pass(family, model, reps=400, seed=1)}[call]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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


@pytest.mark.parametrize("entry", sorted(DESIGN_ENTRIES))
def test_a_one_dimensional_design_is_refused(entry):
    # The ridge entries first check X against y, with their own message.
    message = r"X must be a 2-d design matrix, got shape \(6,\)"
    if entry in ("RidgeRotation", "ridge_as_hetero"):
        message = "X must be 2-d with rows matching y"
    with pytest.raises(ShapeError, match=message):
        DESIGN_ENTRIES[entry](np.ones(6))
