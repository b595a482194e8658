import math
import re
import tracemalloc

import numpy as np
import pytest

from suretune import (
    DegenerateDesignError,
    DomainError,
    GaussianModel,
    ShapeError,
    ShrinkRegressionFamily,
    SubsetCollection,
    edf_two_model_exact,
    make_all_subsets,
    make_nested,
    mc_edf,
)
from suretune import subsets

TWO_MODEL_NULL_EDF = 0.41510749742059466


def _phi(t):
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


class TestCpCriterion:
    def setup_method(self):
        self.coll = SubsetCollection(np.eye(2), make_all_subsets(2), 1.0)
        self.y = np.array([3.0, 0.1])

    def test_hand_enumeration(self):
        # identity design, y = (3, 0.1): residuals are read off directly
        vals = dict(zip(self.coll.subsets, self.coll.criterion_matrix(self.y[None, :])[0]))
        assert vals[()] == pytest.approx(9.01)
        assert vals[(0,)] == pytest.approx(2.01)
        assert vals[(1,)] == pytest.approx(11.0)
        assert vals[(0, 1)] == pytest.approx(4.0)

    def test_empty_subset_is_total_sum_of_squares(self):
        assert self.coll.criterion_matrix(self.y[None, :])[0, 0] == pytest.approx(float(self.y @ self.y))

    def test_full_invertible_square_design(self):
        sigma = 1.3
        coll = SubsetCollection(np.eye(4), [(0, 1, 2, 3)], sigma)
        y = np.array([0.4, -2.0, 1.1, 0.0])
        expected = 2.0 * sigma**2 * 4
        assert coll.criterion_matrix(y[None, :])[0, 0] == pytest.approx(expected)

    def test_minimizer_and_fit(self):
        fit = self.coll.tune(self.y)
        assert fit.s_hat == (0,)
        assert np.allclose(fit.theta_hat, [3.0, 0.0])
        assert fit.sure_min == pytest.approx(2.01)
        assert fit.naive_df_at_shat == 1.0

    def test_unknown_subset_rejected(self):
        coll = SubsetCollection(np.eye(2), [(0,)], 1.0)
        with pytest.raises(DomainError):
            coll.estimate((1,), self.y)


def test_tie_break_prefers_smaller_rank_then_lexicographic():
    # Duplicate columns: every singleton fits y perfectly, so Cp ties at
    # 2 sigma^2 for all of them and the empty model loses.
    X = np.column_stack([np.ones(3), np.ones(3)])
    coll = SubsetCollection(X, [(), (1,), (0,), (0, 1)], 1.0)
    y = np.ones(3) * 5.0
    fit = coll.tune(y)
    assert fit.s_hat == (0,)
    # rank beats size: the two-column subset has rank 1 as well, but the
    # lexicographically smaller label wins among equal ranks
    assert coll.naive_df((0, 1), y) == 1.0


def test_sure_estimate_and_naive_df_accept_the_same_labels():
    # One label rule, `_index`, for all three: a list equal to a label is
    # that label, and anything else is not in the collection.
    coll = SubsetCollection(np.eye(3), [(), (0,), (0, 1)], 1.0)
    y = np.array([3.0, -1.0, 0.5])
    for label in ([0, 1], (0, 1), np.array([0, 1])):
        assert coll.sure(label, y) == coll.sure((0, 1), y) == 0.25 + 4.0
        assert np.array_equal(coll.estimate(label, y), [3.0, -1.0, 0.0])
        assert coll.naive_df(label, y) == 2.0
    for method in (coll.sure, coll.estimate, coll.naive_df):
        for label in ([1, 0], (2,), 1):
            with pytest.raises(DomainError, match=r"^subset .* is not in the collection$"):
                method(label, y)


def test_singleton_collection_returns_its_only_subset():
    coll = SubsetCollection(np.eye(3), [(0, 2)], 1.0)
    fit = coll.tune(np.array([1.0, 2.0, 3.0]))
    assert fit.s_hat == (0, 2)


def test_batch_matches_scalar_tuning():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((8, 3))
    coll = SubsetCollection(X, make_all_subsets(3), 1.0)
    Y = rng.standard_normal((40, 8))
    batch = coll.tune_batch(Y)
    for r in range(Y.shape[0]):
        fit = coll.tune(Y[r])
        assert coll.subsets[int(batch.s_hat[r])] == fit.s_hat
        assert batch.sure_min[r] == pytest.approx(fit.sure_min)
        assert np.allclose(batch.theta_hat[r], fit.theta_hat)


def test_rank_deficient_subset_uses_actual_rank():
    X = np.column_stack([np.ones(4), np.ones(4), np.eye(4)[:, 0]])
    coll = SubsetCollection(X, [(0, 1)], 2.0)
    y = np.array([1.0, 2.0, 3.0, 4.0])
    # both columns are the same direction, rank 1, so the penalty is 2 sigma^2
    fitted = np.full(4, y.mean())
    expected = float(np.sum((y - fitted) ** 2)) + 2.0 * 4.0 * 1
    assert coll.criterion_matrix(y[None, :])[0, 0] == pytest.approx(expected)
    assert coll.naive_df((0, 1), y) == 1.0


class TestMakeNested:
    def test_full_chain_p2(self):
        coll = make_nested(np.eye(2), 1.0)
        assert coll.subsets == ((), (0,), (0, 1))

    def test_p1_chain(self):
        coll = make_nested(np.ones((3, 1)), 1.0)
        assert coll.subsets == ((), (0,))

    def test_two_model_sizes(self):
        X = np.eye(4)[:, :3]
        coll = make_nested(X, 1.0, sizes=(2, 3))
        assert coll.subsets == ((0, 1), (0, 1, 2))

    def test_order_permutes_columns(self):
        coll = make_nested(np.eye(3), 1.0, order=(2, 0, 1))
        assert coll.subsets == ((), (2,), (0, 2), (0, 1, 2))

    def test_bad_order_rejected(self):
        with pytest.raises(DomainError):
            make_nested(np.eye(3), 1.0, order=(0, 0, 1))

    def test_bad_size_rejected(self):
        with pytest.raises(DomainError):
            make_nested(np.eye(3), 1.0, sizes=(4,))

    def test_selects_supersets_of_true_support_at_tiny_noise(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((30, 5))
        beta = np.array([2.0, -1.5, 0.0, 0.0, 0.0])
        theta0 = X @ beta
        coll = make_nested(X, 0.01)
        model = GaussianModel(theta0, sigma=0.01)
        Y = model.draw(np.random.default_rng(12), 50)
        picks = coll.tune_batch(Y).s_hat.astype(int)
        for k in picks:
            assert set(coll.subsets[k]) >= {0, 1}


class TestTwoModelExact:
    def test_null_frozen_value(self):
        value = edf_two_model_exact(np.eye(3)[:, :2], np.zeros(3), 1.0)
        expected = 2.0 * math.sqrt(2.0) * _phi(math.sqrt(2.0))
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == pytest.approx(TWO_MODEL_NULL_EDF, abs=1e-14)

    def test_vanishes_for_far_mean(self):
        X = np.eye(2)
        theta0 = np.array([0.0, 50.0])
        assert edf_two_model_exact(X, theta0, 1.0) < 1e-100

    def test_max_over_offsets(self):
        # sweep the mean along the increment direction; the peak is ~0.575
        X = np.eye(2)
        grid = np.linspace(0.0, 6.0, 4001)
        vals = [edf_two_model_exact(X, np.array([0.0, m]), 1.0) for m in grid]
        assert max(vals) == pytest.approx(0.5753976713, abs=1e-6)

    def test_invariant_to_components_in_the_small_model(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((10, 4))
        theta0 = X[:, 0] * 2.0 - X[:, 1]
        base = edf_two_model_exact(X, theta0, 1.0)
        Q, _ = np.linalg.qr(X[:, :3])
        shifted = theta0 + Q @ np.array([5.0, -3.0, 2.0])
        assert edf_two_model_exact(X, shifted, 1.0) == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_theta0_rejected(self, bad):
        theta0 = np.zeros(3)
        theta0[1] = bad
        with pytest.raises(DomainError, match="theta0 is not finite at index 1"):
            edf_two_model_exact(np.eye(3)[:, :2], theta0, 1.0)

    def test_degenerate_last_column(self):
        X = np.column_stack([np.ones(4), 2.0 * np.ones(4)])
        with pytest.raises(DegenerateDesignError):
            edf_two_model_exact(X, np.zeros(4), 1.0)

    def test_mc_agrees_with_exact(self):
        X = np.eye(6)[:, :2]
        sigma = 1.0
        coll = make_nested(X, sigma, sizes=(1, 2))
        theta0 = np.zeros(6)
        theta0[1] = 1.0  # increment direction is the second column here
        model = GaussianModel(theta0, sigma=sigma)
        report = mc_edf(coll, model, reps=4000, seed=21)
        exact = edf_two_model_exact(X, theta0, sigma)
        assert abs(report.value - exact) <= 4.0 * report.std_error


def test_make_all_subsets_counts_and_guard():
    subs = make_all_subsets(4)
    assert len(subs) == 16
    assert len(set(subs)) == 16
    assert subs[0] == ()
    assert subs[-1] == (0, 1, 2, 3)
    with pytest.raises(DomainError):
        make_all_subsets(26)


@pytest.mark.parametrize("p", [2.5, -1])
def test_make_all_subsets_needs_a_count(p):
    # 2.5 raised numpy's TypeError and -1 returned ().
    with pytest.raises(DomainError, match="^p must be an integer at least 0"):
        make_all_subsets(p)


@pytest.mark.parametrize("size", [2.5, -1])
def test_make_nested_prefix_sizes_are_counts(size):
    # 2.5 passed the range check and then raised TypeError in the slice.
    with pytest.raises(DomainError, match="^every prefix size must be an integer at least 0"):
        make_nested(np.eye(3), 1.0, sizes=(size, 3))


def test_mc_edf_nonnegative_for_subset_selection():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((12, 4))
    coll = SubsetCollection(X, make_all_subsets(4), 1.0)
    model = GaussianModel(np.zeros(12), sigma=1.0)
    report = mc_edf(coll, model, reps=2500, seed=6)
    assert report.value >= -4.0 * report.std_error


class TestBestSubsetLagrangian:
    """Best subset under the penalty lam * rank is Cp over all subsets at
    sigma = sqrt(lam / 2); each subset solved on its own is the reference."""

    def setup_method(self):
        rng = np.random.default_rng(9)
        self.X = rng.standard_normal((15, 4))
        self.y = rng.standard_normal(15) + self.X[:, 1]

    def _tune(self, lam, y=None):
        coll = SubsetCollection(self.X, make_all_subsets(4), math.sqrt(lam / 2.0))
        return coll.tune(self.y if y is None else y)

    def test_zero_penalty_is_least_squares(self):
        # sigma must be positive, so a penalty of 1e-12 stands in for zero
        fit = self._tune(1e-12)
        coef, *_ = np.linalg.lstsq(self.X, self.y, rcond=None)
        assert fit.s_hat == (0, 1, 2, 3)
        assert np.allclose(fit.theta_hat, self.X @ coef)

    def test_huge_penalty_selects_nothing(self):
        fit = self._tune(1e9)
        assert fit.s_hat == ()
        assert fit.naive_df_at_shat == 0.0
        assert np.all(fit.theta_hat == 0.0)

    def test_matches_cp_selection_at_lambda_two_sigma_sq(self):
        sigma = 0.8
        subsets = make_all_subsets(4)
        ranks, crit, fits = _lstsq_reference(self.X, subsets, sigma, self.y[None])
        best = min(range(len(subsets)), key=lambda k: (crit[0, k], ranks[k], subsets[k]))
        fit = self._tune(2.0 * sigma**2)
        assert fit.s_hat == subsets[best]
        assert np.allclose(fit.theta_hat, fits[best][0], atol=1e-10)
        assert fit.sure_min == pytest.approx(crit[0, best])

    def test_guard_and_validation(self):
        with pytest.raises(DomainError):
            make_all_subsets(26)
        with pytest.raises(DomainError):
            SubsetCollection(self.X, make_all_subsets(4), -1.0)
        with pytest.raises(ShapeError):
            self._tune(1.0, self.y[:-1])

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_penalty_rejected(self, lam):
        # inf * rank 0 is nan, so every criterion would be nan and the
        # empty support would look like an answer
        with pytest.raises(DomainError, match="sigma"):
            self._tune(lam)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_data_rejected(self, bad):
        y = self.y.copy()
        y[3] = bad
        with pytest.raises(DomainError, match=r"data is not finite at \(row 0, column 3\)"):
            self._tune(1.0, y)


def test_oracle_enumeration_matches_direct_risk():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((10, 3))
    sigma = 0.7
    coll = SubsetCollection(X, make_all_subsets(3), sigma)
    theta0 = X[:, 0] * 1.5
    model = GaussianModel(theta0, sigma=sigma)
    oracle = coll.oracle(model)

    def exact_err(cols):
        Q, _ = np.linalg.qr(X[:, cols]) if cols else (np.zeros((10, 0)), None)
        proj = Q @ (Q.T @ theta0) if cols else np.zeros(10)
        rank = len(cols)
        return 10 * sigma**2 + float(np.sum((theta0 - proj) ** 2)) + rank * sigma**2

    errs = {cols: exact_err(cols) for cols in coll.subsets}
    assert oracle.err == pytest.approx(min(errs.values()))
    assert errs[oracle.s0] == pytest.approx(oracle.err)


@pytest.mark.filterwarnings("error")
def test_column_norms_of_huge_finite_entries_do_not_overflow():
    # Every squared column norm overflows here; norms of the columns scaled
    # by their largest entries do not, and every direction is kept.
    X = (np.arange(18.0).reshape(6, 3) / 7.0 + np.eye(6, 3)) * 1e300
    coll = make_nested(X, 1.0)
    assert coll.ranks.tolist() == [0, 1, 2, 3]
    assert np.allclose(coll.Q.T @ coll.Q, np.eye(3), atol=1e-12)
    assert ShrinkRegressionFamily(X, 1.0).rank == 3


@pytest.mark.filterwarnings("error")
def test_one_huge_column_keeps_its_direction():
    # Column 0 holds two entries of 1e300.  Its norm used to overflow to
    # inf, which dropped every direction; now column 0 is one direction, and
    # columns 1 and 2 (norms about 3) fall under the rank tolerance of 1e-10
    # times the largest column norm.
    X = np.arange(18.0).reshape(6, 3) / 7.0 + np.eye(6, 3)
    X[[1, 4], 0] = 1e300
    assert make_nested(X, 1.0).ranks.tolist() == [0, 1, 1, 1]
    assert ShrinkRegressionFamily(X, 1.0).rank == 1


def _lstsq_reference(X, subsets, sigma, Y):
    """Ranks, Cp values and fits of every subset, each solved on its own."""
    ranks, cp, fits = [], [], []
    for cols in subsets:
        Xs = X[:, list(cols)]
        if cols:
            tol = 1e-10 * np.linalg.norm(Xs, axis=0).max()
            rank = np.linalg.matrix_rank(Xs, tol=tol)
            # lstsq drops singular values below rcond times the largest one
            fit = (Xs @ np.linalg.lstsq(Xs, Y.T, rcond=tol / np.linalg.norm(Xs, 2))[0]).T
        else:
            rank, fit = 0, np.zeros_like(Y)
        ranks.append(rank)
        cp.append(np.sum((Y - fit) ** 2, axis=1) + 2.0 * sigma**2 * rank)
        fits.append(fit)
    return np.array(ranks), np.column_stack(cp), fits


def _designs():
    rng = np.random.default_rng(31)
    X = rng.standard_normal((12, 6))
    dup = X.copy()
    dup[:, 2] = dup[:, 0]
    dup[:, 4] = dup[:, 1] + dup[:, 3]
    hand = [(0, 2), (1,), (0, 1, 2), (3, 4), (2, 3, 4), (5,), (0, 5)]
    # Monomials up to degree 9 (condition number 3.5e6): one Gram-Schmidt
    # pass leaves the bases 5e-3 away from orthonormal.
    poly = np.linspace(0.0, 1.0, 40)[:, None] ** np.arange(10)
    scaled = _badly_scaled(X)
    return {
        "permuted chain": (X, make_nested(X, 0.8, order=(3, 0, 5, 1, 4, 2)).subsets),
        "gapped chain": (X, make_nested(X, 0.8, sizes=(1, 3, 4, 6)).subsets),
        "dependent chain": (dup, make_nested(dup, 0.8).subsets),
        "all subsets, duplicate": (dup[:, :3], make_all_subsets(3)),
        "hand-made": (X, hand),
        "polynomial chain": (poly, make_nested(poly, 0.8).subsets),
        "badly scaled chain": (scaled, make_nested(scaled, 0.8).subsets),
    }


def _badly_scaled(X):
    # Column 1 leaves column 0's span by 1e-12 of column 0's norm, which is
    # below the rank tolerance of any subset holding both.
    return np.column_stack([1e6 * X[:, 0], X[:, 0] + 1e-6 * X[:, 1], X[:, 2:4]])


@pytest.mark.parametrize("name", list(_designs()))
def test_shared_factor_matches_per_subset_least_squares(name):
    X, subsets = _designs()[name]
    sigma = 0.8
    coll = SubsetCollection(X, subsets, sigma)
    rng = np.random.default_rng(32)
    signal = (X / np.linalg.norm(X, axis=0)) @ rng.normal(0.0, 2.0, X.shape[1])
    Y = signal + sigma * rng.standard_normal((300, X.shape[0]))
    ranks, cp, fits = _lstsq_reference(X, coll.subsets, sigma, Y)
    assert np.array_equal(coll.ranks, ranks)
    assert np.allclose(coll.criterion_matrix(Y), cp, rtol=1e-10, atol=0.0)
    batch = coll.tune_batch(Y)
    for r in range(Y.shape[0]):
        # The pick is the reference minimizer; where subsets span the same
        # space their Cp values tie up to rounding, and any of them will do.
        near = np.flatnonzero(cp[r] <= cp[r].min() * (1.0 + 1e-10))
        pick = int(batch.s_hat[r])
        assert pick in near
        for k in near:
            # lstsq's own error reaches 3e-10 on the polynomial chain
            assert np.allclose(fits[k][r], batch.theta_hat[r], rtol=0.0, atol=1e-9)
    assert len(set(batch.s_hat)) > 1
    for k in range(len(coll.subsets)):
        basis = coll.Q[:, coll._qcols[k]]
        assert np.allclose(basis.T @ basis, np.eye(ranks[k]), atol=1e-12)


@pytest.mark.xfail(strict=True, reason="a grown subset's rank tests only the added column")
def test_rank_does_not_depend_on_which_column_joins_last():
    # {0, 1} has rank 1 at the 1e-10 tolerance, but grown from {1} the large
    # column 0 leaves span(column 1) by far more than the tolerance.
    X = _badly_scaled(np.random.default_rng(31).standard_normal((12, 6)))
    assert make_nested(X, 1.0).ranks[2] == 1
    assert make_nested(X, 1.0, order=(1, 0, 2, 3)).ranks[2] == 1


def test_chain_stores_one_direction_per_column():
    X = np.random.default_rng(33).standard_normal((12, 6))
    assert make_nested(X, 1.0).Q.shape == (12, 6)
    assert make_nested(X, 1.0, order=(5, 4, 3, 2, 1, 0)).Q.shape == (12, 6)
    assert SubsetCollection(X[:, :4], make_all_subsets(4), 1.0).Q.shape == (12, 15)
    dup = np.column_stack([X[:, :3], X[:, 1]])
    assert make_nested(dup, 1.0).Q.shape == (12, 3)


def test_long_chain_is_built_in_a_few_megabytes():
    X = np.random.default_rng(34).standard_normal((300, 150))
    tracemalloc.start()
    try:
        coll = make_nested(X, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(coll.ranks) == list(range(151))
    assert peak < 4e6


def test_chain_checks_each_subset_once_not_each_index(monkeypatch):
    # Checking every index of every prefix made 11 325 `_check_count` calls
    # for p = 150; plain int indices are now checked once per subset, which
    # leaves the p + 1 prefix sizes.
    calls = []
    real = subsets._check_count
    monkeypatch.setattr(subsets, "_check_count", lambda *a: calls.append(a) or real(*a))
    X = np.random.default_rng(36).standard_normal((300, 150))
    coll = make_nested(X, 1.0, order=tuple(range(149, -1, -1)))
    assert coll.subsets[-1] == tuple(range(150)) and coll.subsets[2] == (148, 149)
    assert {name for _, name, _ in calls} == {"every prefix size"} and len(calls) == 151


@pytest.mark.parametrize("subset, label", [
    ((2, 0, 2), (0, 2)),
    ([np.int64(1), True], (1,)),
    ((1.0, 0), (0, 1)),
    (iter([3, 1]), (1, 3)),
    ((), ()),
])
def test_indices_of_every_type_give_the_same_labels(subset, label):
    coll = SubsetCollection(np.eye(4), [subset], 1.0)
    assert coll.subsets == (label,)
    assert all(type(j) is int for j in coll.subsets[0])


@pytest.mark.parametrize("subset, message", [
    ((0, 4), "column index 4 outside design with 4 columns"),
    ((5, -1), "every column index must be an integer at least 0, got -1"),
    ((0, 0.5), "every column index must be an integer at least 0, got 0.5"),
])
def test_a_bad_index_names_the_same_entry(subset, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        SubsetCollection(np.eye(4), [subset], 1.0)


def test_a_bad_order_entry_is_named_before_the_permutation_check():
    with pytest.raises(DomainError, match="^every column index must be an integer at least 0"):
        make_nested(np.eye(3), 1.0, order=(0, -1, 2))
    with pytest.raises(DomainError, match="^order must be a permutation of the column indices$"):
        make_nested(np.eye(3), 1.0, order=(0, 1, 3))
    assert make_nested(np.eye(3), 1.0, order=(np.int64(2), 0.0, 1)).subsets[-2] == (0, 2)


def _direct_fitted2(coll, C2):
    return np.stack([C2[:, idx].sum(axis=1) for idx in coll._qcols])


def _tree_collections():
    rng = np.random.default_rng(35)
    X = rng.standard_normal((300, 150))
    X6 = rng.standard_normal((20, 6))
    X6[:, 4] = X6[:, 1] - 2.0 * X6[:, 3]
    signal = X @ (3.0 / np.sqrt(np.arange(1, 151)))
    return rng, [
        (make_nested(X, 1.0), signal),
        (make_nested(X, 1.0, sizes=(140, 141, 150)), signal),
        (SubsetCollection(X6, make_all_subsets(6), 1.0), X6 @ np.ones(6)),
    ]


@pytest.mark.parametrize("rows", [2, 3, 8, 218])
def test_tree_recurrence_gives_the_bytes_of_the_direct_sum(rows):
    rng, collections = _tree_collections()
    for coll, mean in collections:
        Y = mean + rng.standard_normal((rows, coll.n))
        C2 = (Y @ coll.Q) ** 2
        direct = _direct_fitted2(coll, C2)
        assert np.array_equal(coll._fitted2(C2), direct), (
            "numpy's axis-1 reduction of a (rows >= 2, k) array no longer adds "
            "its k columns one at a time, left to right, so the subset-tree "
            "recurrence no longer gives the bytes of C2[:, idx].sum(axis=1)")
        cp = np.sum(Y**2, axis=1)[:, None] - direct.T + 2.0 * coll.ranks
        assert np.array_equal(coll.criterion_matrix(Y), cp)


def test_one_row_fitted_sums_stay_within_the_summation_error():
    # numpy sums a single row pairwise, eight accumulators at a time, while
    # the recurrence adds in order: the two differ in the last few places,
    # and by at most rank * eps relative.
    rng, collections = _tree_collections()
    for coll, mean in collections:
        for _ in range(20):
            C2 = ((mean + rng.standard_normal(coll.n)) @ coll.Q)[None] ** 2
            got, want = coll._fitted2(C2)[:, 0], _direct_fitted2(coll, C2)[:, 0]
            assert np.all(np.abs(got - want) <= coll.ranks * np.finfo(float).eps * want)
