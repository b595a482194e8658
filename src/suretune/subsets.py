"""Subset regression tuned by Mallows-type unbiased error estimates.

A collection of candidate column subsets of a fixed design matrix defines a
discrete estimator family: theta_s(y) = P_s y, the least squares fit on
subset s, with plug-in degrees of freedom equal to the rank of the selected
submatrix.  SURE for this family is the Cp criterion

    cp(s, y) = ||y - P_s y||^2 + 2 sigma^2 rank(X_s).

Ties are broken toward the smaller rank and then lexicographically by column
indices, so the selection is deterministic.

For the two-model nested chain (drop or keep the last column) the excess
degrees of freedom of the Cp-tuned rule has a closed form, implemented in
`edf_two_model_exact`; the null-mean value 2 sqrt(2) phi(sqrt(2)) ~ 0.415 is
a frozen reference point for the Monte Carlo machinery.
"""

import itertools
import math

import numpy as np

from .core import (
    DomainError,
    EstimatorFamily,
    OracleTuning,
    ShapeError,
    TunedBatch,
    TuningDomain,
    _RANK_TOL,
    _check_batch,
    _normal_pdf,
    _rank_basis,
)

__all__ = [
    "DegenerateDesignError",
    "SubsetCollection",
    "cp_criterion",
    "tune_cp",
    "make_nested",
    "make_all_subsets",
    "edf_two_model_exact",
    "BestSubsetFit",
    "best_subset_lagrangian",
]

class DegenerateDesignError(DomainError):
    """A design submatrix adds no new direction where one is required."""


def _normalize_subset(subset, p):
    cols = tuple(sorted(set(int(j) for j in subset)))
    for j in cols:
        if not 0 <= j < p:
            raise DomainError(f"column index {j} outside design with {p} columns")
    return cols


class SubsetCollection(EstimatorFamily):
    """A finite family of least squares fits, one per column subset.

    Orthonormal bases for every subset are factored once at construction;
    tuning a (reps, n) batch then costs one matrix product per subset.
    """

    def __init__(self, X, subsets, sigma):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ShapeError("X must be a 2-d design matrix")
        self.X = X
        self.n = X.shape[0]
        self._set_noise(sigma=sigma)
        labels = tuple(dict.fromkeys(_normalize_subset(s, X.shape[1]) for s in subsets))
        if not labels:
            raise DomainError("need at least one candidate subset")
        self.domain = TuningDomain(kind="discrete", labels=labels)
        self._bases = []
        self.ranks = np.empty(len(labels), dtype=int)
        for k, cols in enumerate(labels):
            Q = _rank_basis(X[:, cols])[0]
            self._bases.append(Q)
            self.ranks[k] = Q.shape[1]
        # Evaluation order for argmin tie breaking: smaller rank first, then
        # lexicographic column indices.
        self._tie_order = sorted(range(len(labels)), key=lambda k: (self.ranks[k], labels[k]))
        self.is_nested = self._check_nested()

    def _check_nested(self):
        chain = [set(self.domain.labels[k]) for k in self._tie_order]
        return all(a <= b for a, b in zip(chain, chain[1:]))

    @property
    def subsets(self):
        return self.domain.labels

    def _index(self, s):
        try:
            return self.domain.labels.index(tuple(s))
        except ValueError:
            raise DomainError(f"subset {s!r} is not in the collection") from None

    def estimate(self, s, y):
        Q = self._bases[self._index(s)]
        y = np.asarray(y, dtype=float)
        return (y @ Q) @ Q.T

    def naive_df(self, s, y):
        return float(self.ranks[self._index(s)])

    def criterion_matrix(self, Y):
        """Cp values for every subset: shape (reps, n_subsets)."""
        return self._cp(_check_batch(Y, self.n))

    def _cp(self, Y):
        total = np.sum(Y**2, axis=1)
        out = np.empty((Y.shape[0], len(self.domain.labels)))
        for k, Q in enumerate(self._bases):
            fitted2 = np.sum((Y @ Q) ** 2, axis=1)
            out[:, k] = total - fitted2 + 2.0 * self.sigma**2 * self.ranks[k]
        return out

    def tune_batch(self, Y):
        Y = _check_batch(Y, self.n)
        cp = self._cp(Y)
        order = np.array(self._tie_order)
        pick = order[np.argmin(cp[:, order], axis=1)]
        theta = np.empty_like(Y)
        for k in np.unique(pick):
            rows = pick == k
            Q = self._bases[k]
            theta[rows] = (Y[rows] @ Q) @ Q.T
        return TunedBatch(
            s_hat=pick.astype(float),
            theta_hat=theta,
            sure_min=cp[np.arange(Y.shape[0]), pick],
            naive_df_at_shat=self.ranks[pick].astype(float),
            discrete=True,
        )

    def oracle(self, model):
        """Exact-risk minimizer over the collection (fixed, untuned fits).

        For fixed s, Err(theta_s) = n sigma^2 + ||(I - P_s) theta0||^2
        + rank_s sigma^2; enumeration is exact, no simulation involved.
        """
        if model.is_heteroskedastic or model.n != self.n:
            raise DomainError("model does not match this collection")
        base = model.n * model.sigma**2
        best_k, best_err = None, math.inf
        for k in self._tie_order:
            Q = self._bases[k]
            proj = (model.theta0 @ Q) @ Q.T
            bias2 = float(np.sum((model.theta0 - proj) ** 2))
            err = base + bias2 + self.ranks[k] * model.sigma**2
            if err < best_err:
                best_k, best_err = k, err
        return OracleTuning(s0=self.domain.labels[best_k], err=best_err)


def cp_criterion(collection, y):
    """Cp values over the collection's subsets, for one vector or a batch."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        return collection.criterion_matrix(y[None, :])[0]
    return collection.criterion_matrix(y)


def tune_cp(collection, y):
    """Select the Cp-minimizing subset; batch rows independently."""
    y = np.asarray(y, dtype=float)
    return collection.tune(y) if y.ndim == 1 else collection.tune_batch(y)


def make_nested(X, sigma, order=None, sizes=None):
    """Nested chain of prefix subsets, including the empty model by default.

    `order` permutes the columns before taking prefixes; `sizes` restricts
    which prefix lengths participate (e.g. sizes=(p-1, p) gives the
    drop-or-keep-last two-model family).
    """
    X = np.asarray(X, dtype=float)
    p = X.shape[1]
    if order is None:
        order = tuple(range(p))
    else:
        order = tuple(int(j) for j in order)
        if sorted(order) != list(range(p)):
            raise DomainError("order must be a permutation of the column indices")
    if sizes is None:
        sizes = range(p + 1)
    subsets = []
    for k in sizes:
        if not 0 <= k <= p:
            raise DomainError(f"prefix size {k} outside 0..{p}")
        subsets.append(order[:k])
    return SubsetCollection(X, subsets, sigma)


def make_all_subsets(p):
    """All 2^p column subsets of a p-column design, smallest first."""
    if p > 25:
        raise DomainError("refusing to enumerate more than 2^25 subsets")
    out = []
    for size in range(p + 1):
        out.extend(itertools.combinations(range(p), size))
    return tuple(out)


def edf_two_model_exact(X, theta0, sigma):
    """Exact excess df of Cp selection between the last-column-in/out models.

    The models are span(X[:, :p-1]) and span(X); with v the unit vector
    spanning the increment and m = <v, theta0>/sigma, the tuned rule's
    excess degrees of freedom is

        sqrt(2) * (phi(sqrt(2) - m) + phi(sqrt(2) + m)),

    where phi is the standard normal density.  At theta0 = 0 this is
    2 sqrt(2) phi(sqrt(2)) ~ 0.41511.  Raises DegenerateDesignError when
    the last column adds no direction beyond the first p-1.
    """
    X = np.asarray(X, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ShapeError("X must be a 2-d design with at least one column")
    Q_small = _rank_basis(X[:, :-1])[0]
    last = X[:, -1]
    v = last - Q_small @ (Q_small.T @ last)
    norm = np.linalg.norm(v)
    if norm <= _RANK_TOL * max(np.linalg.norm(last), 1e-300):
        raise DegenerateDesignError("last column lies in the span of the others")
    m = float(v @ theta0) / (norm * sigma)
    root2 = math.sqrt(2.0)
    return float(root2 * (_normal_pdf(root2 - m) + _normal_pdf(root2 + m)))


class BestSubsetFit:
    """Support, coefficients, fitted values and criterion of a subset fit."""

    def __init__(self, support, beta, fitted, criterion):
        self.support = support
        self.beta = beta
        self.fitted = fitted
        self.criterion = criterion


def best_subset_lagrangian(X, y, lam):
    """Exhaustive best-subset fit minimizing ||y - X_s b||^2 + lam * rank_s.

    At lam = 2 sigma^2 this is exactly Cp selection over all subsets.  Cost
    grows as 2^p; designs with more than 25 columns are refused.  Ties go to
    the smaller rank, then lexicographic column indices.  lam = 0 returns a
    full least squares fit.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ShapeError("X must be a 2-d design matrix")
    if y.shape != (X.shape[0],):
        raise ShapeError("y length must match the number of rows of X")
    if lam < 0:
        raise DomainError("lam must be nonnegative")
    p = X.shape[1]
    if p > 25:
        raise DomainError("best-subset enumeration limited to 25 columns")
    best = None
    for cols in make_all_subsets(p):
        Q = _rank_basis(X[:, cols])[0]
        r = Q.shape[1]
        fitted = Q @ (Q.T @ y)
        crit = float(np.sum((y - fitted) ** 2)) + lam * r
        key = (crit, r, cols)
        if best is None or key < best[0]:
            best = (key, cols, fitted, r, crit)
    _, cols, fitted, r, crit = best
    beta = np.zeros(p)
    if cols:
        coef, *_ = np.linalg.lstsq(X[:, cols], y, rcond=None)
        beta[list(cols)] = coef
    return BestSubsetFit(support=cols, beta=beta, fitted=fitted, criterion=crit)
