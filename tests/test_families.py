"""The batch-first tuning contract, checked across every family.

Each family writes only `tune_batch`; `EstimatorFamily.tune` is row 0 of a
one-row batch.  The property tests compare the tuned SURE minimum with the
criterion written out independently on a dense grid, and the non-finite
tests pin the one validation boundary every `tune_batch` goes through.
"""

import importlib
import inspect
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
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
    exopt_hetero_shrink,
    make_nested,
    mc_edf,
    mc_prediction_error,
)
from suretune.core import _df_stats
from suretune.simulate import SingletonShrinkFamily
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
    assert "tune_batch" in EstimatorFamily.__abstractmethods__
    for cls in concrete:
        assert "tune_batch" in vars(cls), f"{cls.__name__} must define tune_batch"
    for cls in classes:
        if cls is not EstimatorFamily:
            assert "tune" not in vars(cls), f"{cls.__name__} redefines tune"


def _every_family(n=6):
    X = np.random.default_rng(0).standard_normal((n, 3))
    return [
        ShrinkMeansFamily(n, 1.0),
        ShrinkRegressionFamily(X, 1.0),
        SoftThreshFamily(n, 1.0),
        make_nested(X, 1.0),
        HeteroShrinkFamily(np.linspace(0.5, 2.0, n)),
        SingletonShrinkFamily(n, 1.0),
    ]


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
    return fam, fam.criterion_matrix(y[None, :])[0]


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
    assert fit.s_hat == (fam.domain.labels[int(s0)] if batch.discrete else s0)
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


def test_hetero_oracle_leaves_scipy_unloaded():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import suretune\n"
        "sigmas = np.array([0.5, 1.0, 2.0])\n"
        "model = suretune.GaussianModel(np.array([1.0, -2.0, 0.5]), sigmas=sigmas)\n"
        "suretune.HeteroShrinkFamily(sigmas).oracle(model)\n"
        "assert 'scipy' not in sys.modules, 'the oracle imported scipy'\n"
    )
    src = str(Path(suretune.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
