"""The batch-first tuning contract, checked across every family.

Each family writes only its unit-noise cores, `_tuned` and `_oracle_at`;
`EstimatorFamily` alone defines `tune_batch`, `oracle` and `tune`, which is
row 0 of a one-row batch.  The property tests compare the tuned SURE minimum with the
criterion written out independently on a dense grid, and the non-finite
tests pin the one validation boundary every `tune_batch` goes through.
"""

import hashlib
import importlib
import inspect
import math
import pkgutil
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import suretune
from suretune import (
    DomainError,
    EstimatorFamily,
    GaussianModel,
    HeteroShrinkFamily,
    ShapeError,
    ShrinkMeansFamily,
    ShrinkRegressionFamily,
    SoftThreshFamily,
    SubsetCollection,
    exopt_hetero_shrink,
    make_all_subsets,
    make_nested,
    mc_edf,
    mc_prediction_error,
)
from suretune.core import _df_stats
from suretune.shrinkage import SingletonShrinkFamily
from suretune.stein import _implicit_diff_stats


def _family_classes():
    seen = set()
    for info in pkgutil.iter_modules(suretune.__path__):
        module = importlib.import_module(f"suretune.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, EstimatorFamily) and cls.__module__ == module.__name__:
                seen.add(cls)
    return sorted(seen, key=lambda c: (c.__module__, c.__name__))


def test_only_the_base_class_defines_tune():
    classes = _family_classes()
    concrete = [c for c in classes if not inspect.isabstract(c)]
    assert EstimatorFamily in classes
    assert len(concrete) >= 6
    assert inspect.isabstract(EstimatorFamily)
    assert "_tuned" in EstimatorFamily.__abstractmethods__
    for name in ("tune", "tune_batch", "oracle"):
        assert name not in EstimatorFamily.__abstractmethods__
        assert inspect.isfunction(vars(EstimatorFamily)[name])
    for cls in concrete:
        assert "_tuned" in vars(cls), f"{cls.__name__} must define _tuned"
        assert cls._oracle_at is not None, f"{cls.__name__} has no oracle search"
    for cls in classes:
        if cls is not EstimatorFamily:
            for name in ("tune", "tune_batch", "oracle"):
                assert name not in vars(cls), f"{cls.__name__} redefines {name}"


def _family_builders(n=6):
    """One constructor per family, each taking the noise level as a factor."""
    X = np.random.default_rng(0).standard_normal((n, 3))
    return [
        lambda noise: ShrinkMeansFamily(n, noise),
        lambda noise: ShrinkRegressionFamily(X, noise),
        lambda noise: SoftThreshFamily(n, noise),
        lambda noise: make_nested(X, noise),
        lambda noise: HeteroShrinkFamily(noise * np.linspace(0.5, 2.0, n)),
        lambda noise: SingletonShrinkFamily(n, noise),
    ]


def _every_family(n=6):
    return [build(1.0) for build in _family_builders(n)]


def _mismatched_models(family):
    """Models that differ from the family in type, size, noise level or noise kind."""
    n, sigma, sigmas = family.n, family.sigma, family.sigmas
    if sigmas is None:
        models = {"n": GaussianModel(np.zeros(n + 1), sigma=sigma),
                  "sigma": GaussianModel(np.zeros(n), sigma=2.0 * sigma),
                  "kind": GaussianModel(np.zeros(n), sigmas=np.full(n, sigma))}
    else:
        models = {"n": GaussianModel(np.zeros(n + 1), sigmas=np.append(sigmas, 1.0)),
                  "sigma": GaussianModel(np.zeros(n), sigmas=2.0 * sigmas),
                  "kind": GaussianModel(np.zeros(n), sigma=1.0)}
    models["type"] = SimpleNamespace(theta0=np.zeros(n), n=n, sigma=sigma, sigmas=sigmas)
    return models


@pytest.mark.parametrize("mismatch", ["type", "n", "sigma", "kind"])
@pytest.mark.parametrize("family", _every_family(), ids=lambda f: type(f).__name__)
def test_oracle_refuses_a_model_that_does_not_match(family, mismatch):
    noise = {"sigma": family.sigma} if family.sigmas is None else {"sigmas": family.sigmas}
    assert family.oracle(GaussianModel(np.ones(family.n), **noise)).err > 0.0
    with pytest.raises(DomainError, match="does not match"):
        family.oracle(_mismatched_models(family)[mismatch])


@pytest.mark.parametrize("family", [f for f in _every_family() if f._s_range[1] == math.inf
                                    and not isinstance(f, SubsetCollection)],
                         ids=lambda f: type(f).__name__)
def test_full_shrinkage_is_the_zero_fit(family):
    # At s = +inf the fit is 0 with no df, so SURE is the squared norm of the
    # data (each y_i^2 over sigma_i^2 under heteroskedastic noise).
    y = np.arange(1.0, family.n + 1)
    norm2 = np.sum(y**2 / family.sigmas**2) if family.is_heteroskedastic else np.sum(y**2)
    assert np.array_equal(family.estimate(math.inf, y), np.zeros(family.n))
    assert family.naive_df(math.inf, y) == 0.0
    assert family.sure(math.inf, y) == pytest.approx(float(norm2))


@pytest.mark.parametrize("mismatch", ["type", "n", "sigma", "kind"])
@pytest.mark.parametrize("family", _every_family(), ids=lambda f: type(f).__name__)
def test_mc_edf_refuses_a_model_that_does_not_match(family, mismatch):
    # A model whose noise differs from the family's would otherwise mix the
    # two into a plausible number.
    with pytest.raises(DomainError, match="does not match"):
        mc_edf(family, _mismatched_models(family)[mismatch], reps=10)


@pytest.mark.parametrize("family", _every_family(), ids=lambda f: type(f).__name__)
class TestNonFiniteData:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_batch_names_first_bad_entry(self, family, bad, order):
        Y = np.ones((4, family.n), order=order)
        Y[2, 3] = bad
        Y[3, 1] = bad
        with pytest.raises(DomainError, match=r"row 2, column 3"):
            family.tune_batch(Y)

    def test_single_vector(self, family):
        y = np.ones(family.n)
        y[4] = math.nan
        with pytest.raises(DomainError, match=r"column 4"):
            family.tune(y)

    def test_squared_norm_overflow(self, family):
        Y = np.ones((2, family.n))
        Y[1, 5] = 1e200
        with pytest.raises(DomainError, match=r"row 1 overflows.*column 5"):
            family.tune_batch(Y)

    def test_rows_are_checked_one_by_one(self, family):
        # every row's squared norm is finite although their total is not
        Y = np.ones((400, family.n))
        Y[:, 0] = 1e153
        assert family.tune_batch(Y).theta_hat.shape == Y.shape

    def test_wrong_shape(self, family):
        with pytest.raises(ShapeError):
            family.tune_batch(np.ones((2, family.n + 1)))
        with pytest.raises(ShapeError):
            family.tune_batch(np.ones(family.n))
        with pytest.raises(ShapeError):
            family.tune(np.ones(family.n + 1))


# Each family with its SURE written out independently: the family and the
# criterion at every point of a dense grid of tuning values, 0 and +inf
# included (every subset for the nested chain).

def _shrink_means(y, sigma):
    s = np.concatenate([[0.0], np.geomspace(1e-8, 1e8, 4001)])
    y2 = np.sum(y**2)
    grid = y2 * s**2 / (1 + s) ** 2 + 2 * y.size * sigma**2 / (1 + s)
    return ShrinkMeansFamily(y.size, sigma), np.append(grid, y2)


def _shrink_regression(y, sigma, X):
    fam = ShrinkRegressionFamily(X, sigma)
    py = X @ np.linalg.lstsq(X, y, rcond=None)[0]
    a, off = np.sum(py**2), np.sum((y - py) ** 2)
    s = np.concatenate([[0.0], np.geomspace(1e-8, 1e8, 4001)])
    grid = off + a * s**2 / (1 + s) ** 2 + 2 * fam.rank * sigma**2 / (1 + s)
    return fam, np.append(grid, off + a)


def _soft_threshold(y, sigma):
    s = np.linspace(0.0, 1.01 * np.abs(y).max(), 4001)
    grid = (np.sum(np.minimum(y**2, s[:, None] ** 2), axis=1)
            + 2 * sigma**2 * np.sum(np.abs(y) > s[:, None], axis=1))
    return SoftThreshFamily(y.size, sigma), np.append(grid, np.sum(y**2))


def _nested(y, sigma, X):
    fam = make_nested(X, sigma)
    return fam, np.array([fam.sure(s, y) for s in fam.subsets])


def _hetero(y, sigmas):
    sig2 = sigmas**2
    s = np.concatenate([[0.0], np.geomspace(1e-8 / sig2.max(), 1e8 / sig2.min(), 4001)])
    u = s[:, None] * sig2
    grid = (np.sum(y**2 * sig2 * s[:, None] ** 2 / (1 + u) ** 2, axis=1)
            + 2 * np.sum(1 / (1 + u), axis=1))
    return HeteroShrinkFamily(sigmas), np.append(grid, np.sum(y**2 / sig2))


def _floats(draw, n, lo, hi):
    return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))


@st.composite
def _cases(draw):
    """(family, criterion on a dense grid, data vector)."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["means", "regression", "soft", "nested", "hetero"]))
    z = _floats(draw, n, -30.0, 30.0)
    if kind == "hetero":
        # standard deviations spanning up to six decades, with data within
        # 30 sigma, up to 3e5 sigma, or Cauchy-tailed
        sigmas = 10.0 ** _floats(draw, n, -3.0, 3.0)
        tail = draw(st.sampled_from(["normal", "large", "cauchy"]))
        if tail == "large":
            z = z * 10.0 ** draw(st.floats(1.0, 4.0))
        elif tail == "cauchy":
            z = np.tan(_floats(draw, n, -1.5707, 1.5707))
        return (*_hetero(z * sigmas, sigmas), z * sigmas)
    sigma = 10.0 ** draw(st.floats(-2.0, 2.0))
    y = sigma * z
    if kind == "means":
        return (*_shrink_means(y, sigma), y)
    if kind == "soft":
        return (*_soft_threshold(y, sigma), y)
    X = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal(
        (n, draw(st.integers(1, n))))
    build = _shrink_regression if kind == "regression" else _nested
    return (*build(y, sigma, X), y)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_cases())
def test_tuned_minimum_beats_dense_grid_and_tune_is_row_zero(case):
    fam, grid, y = case
    batch = fam.tune_batch(y[None, :])
    best = float(np.min(grid))
    assert batch.sure_min[0] <= best + 1e-9 * max(1.0, abs(best))

    fit = fam.tune(y)
    s0 = batch.s_hat[0]
    discrete = isinstance(fam, SubsetCollection)
    assert fit.s_hat == (fam.subsets[int(s0)] if discrete else s0)
    assert np.array_equal(fit.theta_hat, batch.theta_hat[0])
    assert fit.sure_min == batch.sure_min[0]
    assert fit.naive_df_at_shat == batch.naive_df_at_shat[0]
    flag = None if batch.multimodal is None else bool(batch.multimodal[0])
    assert fit.multimodal == flag


def _rel_close(a, b, rtol):
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


@st.composite
def _scaled_cases(draw):
    """(kind, family at noise level sigma, the same family at c sigma, y, c)."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["means", "regression", "soft", "subsets", "hetero"]))
    c = 2.0 ** draw(st.integers(-12, 12))
    z = _floats(draw, n, -30.0, 30.0)
    X = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal(
        (n, draw(st.integers(1, n))))
    if kind == "hetero":
        sigma = 10.0 ** _floats(draw, n, -3.0, 3.0)
    else:
        sigma = 10.0 ** draw(st.floats(-2.0, 2.0))
    build = {
        "means": lambda noise: ShrinkMeansFamily(n, noise),
        "regression": lambda noise: ShrinkRegressionFamily(X, noise),
        "soft": lambda noise: SoftThreshFamily(n, noise),
        "subsets": lambda noise: make_nested(X, noise),
        "hetero": HeteroShrinkFamily,
    }[kind]
    return kind, build(sigma), build(c * sigma), z * sigma, c


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_scaled_cases())
def test_scaling_data_and_noise_together_rescales_the_fit(case):
    # (y, sigma) -> (c y, c sigma) with c a power of two: SURE scales by c^2
    # (by 1 for the variance-scaled heteroskedastic SURE), so the tuned
    # value is unchanged, scaled by c (soft threshold) or by 1/c^2
    # (heteroskedastic), and the fit is scaled by c.
    kind, fam, scaled, y, c = case
    a, b = fam.tune_batch(y[None, :]), scaled.tune_batch(c * y[None, :])
    if kind == "hetero":
        assert _rel_close(c**2 * b.s_hat[0], a.s_hat[0], 1e-9)
        assert _rel_close(b.sure_min[0], a.sure_min[0], 1e-9)
        assert np.allclose(b.theta_hat, c * a.theta_hat, rtol=1e-9, atol=0.0)
        return
    assert b.s_hat[0] == (c * a.s_hat[0] if kind == "soft" else a.s_hat[0])
    # exact, apart from rounding in the subnormal range (below c^k * tiny)
    tiny = np.finfo(float).tiny
    assert np.allclose(b.sure_min, c**2 * a.sure_min, rtol=0.0, atol=c**2 * tiny)
    assert np.allclose(b.theta_hat, c * a.theta_hat, rtol=0.0, atol=c * tiny)


# The equivariance table.  Every family tunes and finds its oracle at unit
# noise (`EstimatorFamily._at_unit_noise`), so under (y, sigma) ->
# (2^k y, 2^k sigma) its answers are the k = 0 answers times powers of two, to
# the bit, from near the bottom of the accepted noise range to near its top:
# theta_hat times 2^k, the SURE minimum and the oracle error times 4^k (times
# 1 in the scaled heteroskedastic units), and the tuning value times
# 2^(k * _s_power).  pytest turns every warning into an error, so no row may
# warn either.
SCALES = (-500, -300, -60, 60, 300, 500)
_NOISE = 0.7


def _answers(family, Y, theta0):
    """(s_hat, theta_hat, sure_min, naive df, multimodal, oracle s0, oracle err)."""
    fit = family.tune_batch(Y)
    noise = {"sigma": family.sigma} if family.sigmas is None else {"sigmas": family.sigmas}
    ora = family.oracle(GaussianModel(theta0, **noise))
    return (fit.s_hat, fit.theta_hat, fit.sure_min, fit.naive_df_at_shat, fit.multimodal,
            ora.s0, ora.err)


def _unscaled(family, answers, k):
    """`_answers` at noise 2^k, scaled back to k = 0 (exact for normal floats)."""
    s_hat, theta, sure_min, df, multimodal, s0, err = answers
    p, q = family._s_power * k, (0 if family.is_heteroskedastic else 2) * k
    if not isinstance(family, SubsetCollection):
        s_hat, s0 = np.ldexp(s_hat, -p), math.ldexp(s0, -p)
    return (s_hat, np.ldexp(theta, -k), np.ldexp(sure_min, -q), df, multimodal, s0,
            math.ldexp(err, -q))


@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("index", range(6), ids=lambda i: type(_every_family()[i]).__name__)
def test_scaling_data_and_noise_by_a_power_of_two_scales_every_answer_bitwise(index, k):
    build = _family_builders()[index]
    base = build(_NOISE)
    theta0 = np.linspace(-1.5, 2.5, base.n) * _NOISE
    Y = theta0 + _NOISE * np.random.default_rng(30).standard_normal((40, base.n))
    scaled = build(_NOISE * 2.0**k)
    want = _answers(base, Y, theta0)
    got = _unscaled(scaled, _answers(scaled, np.ldexp(Y, k), np.ldexp(theta0, k)), k)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("k", [-18, 0, 500])
def test_the_heteroskedastic_grid_refuses_only_a_sigma_ratio_it_cannot_span(k):
    # The grid runs from 1e-4 / mean(sigma_i^2) to 1e8 / min(sigma_i^2) at
    # unit noise, so only the ratio of the two bounds can overflow, at
    # mean / min about 2^984: sigmas (1, 2^-492) pass and (1, 2^-493) do not,
    # at every scale 2^k where both sigmas are accepted.
    fam = HeteroShrinkFamily(np.ldexp([1.0, 2.0**-492], k))
    assert np.isfinite(fam._grid).all()
    with pytest.raises(DomainError, match=r"min\(sigmas\^2\) at most about 2\^984"):
        HeteroShrinkFamily(np.ldexp([1.0, 2.0**-493], k))


def test_the_sure_minimum_is_the_criterion_at_the_tuned_value_at_small_noise():
    # (n sigma^2)^2 underflows at sigma = 1e-90: squared in the caller's
    # units, it leaves a SURE minimum of 80.0 sigma^2 where the criterion at
    # its own s_hat is 56.73.
    sigma = 1e-90
    y = sigma * (1.0 + np.random.default_rng(31).standard_normal(40))
    for family in (ShrinkMeansFamily(40, sigma), ShrinkRegressionFamily(
            np.random.default_rng(32).standard_normal((40, 5)), sigma)):
        fit = family.tune(y)
        assert fit.sure_min == pytest.approx(family.sure(fit.s_hat, y), rel=1e-12, abs=0)


def test_families_at_extreme_noise_neither_overflow_nor_warn():
    # Squaring sigma or the data in the caller's units, each call overflows
    # or warns (an error here) inside the accepted noise range.  At unit
    # noise each returns the sigma = 1 answer, scaled (1e100 is not a power
    # of two, so up to rounding).
    y = np.array([1.0, 2.0, 3.0, 4.0])
    fit = ShrinkMeansFamily(4, 1e100).tune(y)
    assert fit.s_hat == math.inf and fit.sure_min == 30.0 and not fit.theta_hat.any()
    fit, unit = HeteroShrinkFamily(1e-100 * y).tune(y), HeteroShrinkFamily(y).tune(1e100 * y)
    assert fit.s_hat == pytest.approx(1e200 * unit.s_hat, rel=1e-12)
    assert fit.sure_min == pytest.approx(unit.sure_min, rel=1e-12)
    assert np.allclose(fit.theta_hat, 1e-100 * unit.theta_hat, rtol=1e-12, atol=0.0)
    ora = SoftThreshFamily(4, 1e100).oracle(GaussianModel(np.zeros(4), sigma=1e100))
    assert (ora.s0, ora.err) == (math.inf, 4e200)
    assert SoftThreshFamily(4, 1.0).oracle(GaussianModel(np.zeros(4), sigma=1.0)).s0 == math.inf


# Each family's own excess-df statistics: (edf_unbiased, hooks).  "statistic"
# is a per-row unbiased statistic, "zeros" the exact 0 of an untuned rule.
CAPABILITIES = {
    "ShrinkMeansFamily": ("statistic", True),
    "ShrinkRegressionFamily": ("statistic", False),
    "SingletonShrinkFamily": ("zeros", False),
    "SoftThreshFamily": (None, False),
    "HeteroShrinkFamily": (None, True),
    "SubsetCollection": (None, False),
}


def _model(family):
    """A nonnull mean with the family's n and noise."""
    theta0 = np.linspace(-1.5, 2.5, family.n)
    if family.sigmas is None:
        return GaussianModel(theta0, sigma=family.sigma)
    return GaussianModel(theta0, sigmas=family.sigmas)


def test_capability_table_names_every_family():
    concrete = {c.__name__ for c in _family_classes() if not inspect.isabstract(c)}
    assert concrete == set(CAPABILITIES)
    assert {type(f).__name__ for f in _every_family()} == set(CAPABILITIES)


@pytest.mark.parametrize("family", _every_family(), ids=lambda f: type(f).__name__)
def test_family_declares_its_excess_df_statistics(family):
    unbiased, has_hooks = CAPABILITIES[type(family).__name__]
    stat = family.edf_unbiased(family.tune_batch(np.ones((3, family.n))))
    assert (stat is None) == (unbiased is None)
    assert (family.hooks is not None) == has_hooks


@pytest.mark.parametrize("family", [f for f in _every_family()
                                    if CAPABILITIES[type(f).__name__][0]],
                         ids=lambda f: type(f).__name__)
def test_unbiased_statistic_matches_monte_carlo_on_the_same_draws(family):
    model, reps, seed = _model(family), 4000, 3
    mc = mc_edf(family, model, reps=reps, seed=seed)
    Y = model.draw(np.random.default_rng(seed), reps)
    fit = family.tune_batch(Y)
    stat = family.edf_unbiased(fit)
    assert stat.shape == (reps,)
    if CAPABILITIES[type(family).__name__][0] == "zeros":
        assert np.all(stat == 0.0)
    mc_stats = _df_stats(fit.theta_hat, Y, model) - fit.naive_df_at_shat
    assert np.mean(mc_stats) == mc.value
    paired = mc_stats - stat
    assert abs(paired.mean()) <= 4.0 * paired.std(ddof=1) / math.sqrt(reps)


@pytest.mark.parametrize("family", [f for f in _every_family()
                                    if CAPABILITIES[type(f).__name__][1]],
                         ids=lambda f: type(f).__name__)
def test_hooks_give_the_closed_form_statistic(family):
    Y = _model(family).draw(np.random.default_rng(4), 400)
    fit = family.tune_batch(Y)
    interior = np.isfinite(fit.s_hat) & (fit.s_hat > 0)
    assert interior.sum() > 100
    Y, s_hat = Y[interior], fit.s_hat[interior]
    got = _implicit_diff_stats(family.hooks, Y, s_hat)
    if family.sigmas is None:
        want = family.edf_unbiased(fit)[interior]
    else:
        want = np.array([exopt_hetero_shrink(y, family.sigmas, s) / 2.0
                         for y, s in zip(Y, s_hat)])
    assert np.allclose(got, want, rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("build, error, match", [
    (lambda: HeteroShrinkFamily(1.0), ShapeError, "one-dimensional"),
    (lambda: HeteroShrinkFamily([]), DomainError, "n must be at least 1"),
    (lambda: ShrinkMeansFamily(2.5, 1.0), DomainError, "integer at least 1, got 2.5"),
    (lambda: SoftThreshFamily(2.5, 1.0), DomainError, "integer at least 1, got 2.5"),
    (lambda: SingletonShrinkFamily(math.nan, 1.0), DomainError, "integer at least 1"),
    (lambda: ShrinkMeansFamily(0, 1.0), DomainError, "integer at least 1"),
], ids=["hetero-scalar", "hetero-empty", "means-fraction", "soft-fraction", "singleton-nan",
        "means-zero"])
def test_constructor_refuses_a_bad_size(build, error, match):
    with pytest.raises(error, match=match):
        build()


@pytest.mark.parametrize("family", _every_family(), ids=lambda f: type(f).__name__)
def test_oracle_error_matches_monte_carlo_at_its_tuning_value(family):
    model = _model(family)
    o = family.oracle(model)
    est = mc_prediction_error(lambda Y: family.estimate(o.s0, Y), model, reps=4000, seed=3)
    assert abs(est.value - o.err) <= 4.0 * est.std_error


@pytest.mark.parametrize("theta0, sigmas", [
    ([0.5, -1.0, 2.0, 0.0, 3.0], [0.5, 1.0, 1.5, 2.0, 0.8]),
    ([4.0, 0.1, 0.1, 0.1, 0.1, 0.1], [0.2, 3.0, 3.0, 3.0, 3.0, 3.0]),
    ([10.0, -8.0, 12.0], [1.0, 1.0, 1.0]),
], ids=["mixed", "two-scales", "strong-signal"])
def test_hetero_oracle_is_the_minimum_of_the_exact_scaled_error(theta0, sigmas):
    theta0, sig2 = np.array(theta0), np.square(sigmas)
    s = np.geomspace(1e-4, 1e6, 400001)[:, None]
    u = sig2 * s
    # sum_i E(Y*_i - Y_i/(1 + u_i))^2 / sigma_i^2, written out per coordinate.
    exact = np.sum(1.0 + (theta0**2 * u**2 + sig2) / (sig2 * (1.0 + u) ** 2), axis=1)
    k = int(np.argmin(exact))
    o = HeteroShrinkFamily(sigmas).oracle(GaussianModel(theta0, sigmas=sigmas))
    assert o.err <= exact[k] * (1.0 + 1e-14)
    assert o.err == pytest.approx(exact[k], rel=1e-9)
    assert o.s0 == pytest.approx(s[k, 0], rel=1e-2)


def _pinned_nested(rows):
    # A signal spread over all 150 columns puts the picks at long prefixes,
    # whose Cp values sum many squared coordinates.
    rng = np.random.default_rng(20)
    X = rng.standard_normal((300, 150))
    signal = X @ (3.0 / np.sqrt(np.arange(1, 151)))
    return make_nested(X, 1.0), signal + rng.standard_normal((rows, 300))


def _pinned_all_subsets():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((20, 6))
    X[:, 4] = X[:, 1] - 2.0 * X[:, 3]
    coll = SubsetCollection(X, make_all_subsets(6), 1.0)
    assert coll.ranks.max() == 5
    return coll, X @ np.ones(6) + rng.standard_normal((200, 20))


def _pinned_hetero():
    rng = np.random.default_rng(22)
    sigmas = np.geomspace(0.5, 5.0, 50)
    theta0 = 4.0 / np.sqrt(np.arange(1, 51))
    return HeteroShrinkFamily(sigmas), theta0 + sigmas * rng.standard_normal((1310, 50))


# sha256 of every tune_batch field, in TunedBatch order, on seeded batches the
# size of Monte Carlo row blocks: 2^16 // 300 = 218 rows and the 38 left of
# 2000, and 2^16 // 50 = 1310 rows.  A speed-up of a tuner keeps these bytes.
BATCH_SHA256 = {
    "nested-218": (lambda: _pinned_nested(218),
                   "917ceae348820fa49a1459fae67accaa02c991002c46ddf59b8f509fad85ba5b"),
    "nested-38": (lambda: _pinned_nested(38),
                  "880665f614b520def0ffd0ba8964bf8613d9cffa0f3e8759f6f8d33e9a16ed31"),
    "all-subsets-rank-deficient": (
        _pinned_all_subsets, "e9f8fb1f014e3730932097faf530f913fe2d30f0ffd690ecf6fd6308d8c0cacf"),
    "hetero-1310": (_pinned_hetero,
                    "d0cd6465037008efa6c678ba9fb2257e9b9591970e34a780276f478f3f45e3ba"),
}


@pytest.mark.parametrize("case", sorted(BATCH_SHA256))
def test_tune_batch_bytes_are_pinned(case):
    build, digest = BATCH_SHA256[case]
    family, Y = build()
    batch = family.tune_batch(Y)
    sha = hashlib.sha256()
    for field in ("s_hat", "theta_hat", "sure_min", "naive_df_at_shat", "multimodal"):
        value = getattr(batch, field)
        if value is not None:
            sha.update(np.ascontiguousarray(value).tobytes())
    assert sha.hexdigest() == digest
