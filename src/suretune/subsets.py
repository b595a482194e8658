"""Subset regression tuned by Mallows-type unbiased error estimates.

A collection of candidate column subsets of a fixed design matrix defines a
discrete estimator family: theta_s(y) = P_s y, the least squares fit on
subset s, with plug-in degrees of freedom equal to the rank of the selected
submatrix.  SURE for this family is the Cp criterion

    cp(s, y) = ||y - P_s y||^2 + 2 sigma^2 rank(X_s).

Ties are broken toward the smaller rank and then lexicographically by column
indices, so the selection is deterministic.  Over `make_all_subsets(p)` this
is the best-subset fit with penalty lam * rank at lam = 2 sigma^2, computed
from one shared factor rather than one decomposition per subset.

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
    _as_float_vector,
    _check_batch,
    _check_design,
    _column_norms,
    _normal_pdf,
    _rank_basis,
)

__all__ = [
    "DegenerateDesignError",
    "SubsetCollection",
    "make_nested",
    "make_all_subsets",
    "edf_two_model_exact",
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

    Every subset's orthonormal basis is a set of columns of one factor `Q`,
    built smallest subset first.  A subset that is another subset of the
    collection plus one column reuses that subset's columns and adds the new
    column orthogonalized against them (two Gram-Schmidt passes), unless its
    norm is at most 1e-10 times the subset's largest column norm; any other
    subset adds the rank-revealing basis of its own columns.  The chain of
    all p + 1 prefixes thus stores at most p directions.  A (reps, n) batch
    costs one product Y @ Q, from which every subset reads its coordinates.
    """

    def __init__(self, X, subsets, sigma):
        X = _check_design(X)
        self.X = X
        self.n = X.shape[0]
        self._set_noise(sigma=sigma)
        labels = tuple(dict.fromkeys(_normalize_subset(s, X.shape[1]) for s in subsets))
        if not labels:
            raise DomainError("need at least one candidate subset")
        self.domain = TuningDomain(kind="discrete", labels=labels)
        position = {cols: k for k, cols in enumerate(labels)}
        norms, dirs, self._qcols = _column_norms(X), [], [None] * len(labels)
        for k in sorted(range(len(labels)), key=lambda k: len(labels[k])):
            cols = labels[k]
            parent, j = _grown_from(cols, position)
            if parent is None:
                own, new = [], _rank_basis(X[:, cols])[0]
            else:
                own, v = self._qcols[parent], X[:, j]
                basis = np.reshape([dirs[i] for i in own], (len(own), self.n))
                for _ in range(2):
                    v = v - basis.T @ (basis @ v)
                new = _rank_basis(v[:, None], _RANK_TOL * norms[list(cols)].max())[0]
            self._qcols[k] = own + list(range(len(dirs), len(dirs) + new.shape[1]))
            dirs.extend(new.T)
        self.Q = np.reshape(dirs, (len(dirs), self.n)).T
        self.ranks = np.array([len(idx) for idx in self._qcols], dtype=int)
        # Evaluation order for argmin tie breaking: smaller rank first, then
        # lexicographic column indices.
        self._tie_order = sorted(range(len(labels)), key=lambda k: (self.ranks[k], labels[k]))
        chain = [set(labels[k]) for k in self._tie_order]
        self.is_nested = all(a <= b for a, b in zip(chain, chain[1:]))

    @property
    def subsets(self):
        return self.domain.labels

    def _index(self, s):
        try:
            return self.domain.labels.index(tuple(s))
        except ValueError:
            raise DomainError(f"subset {s!r} is not in the collection") from None

    def estimate(self, s, y):
        Q = self.Q[:, self._qcols[self._index(s)]]
        y = np.asarray(y, dtype=float)
        return (y @ Q) @ Q.T

    def naive_df(self, s, y):
        return float(self.ranks[self._index(s)])

    def criterion_matrix(self, Y):
        """Cp values for every subset: shape (reps, n_subsets)."""
        Y = _check_batch(Y, self.n)
        return self._cp(np.sum(Y**2, axis=1), (Y @ self.Q) ** 2)

    def _cp(self, y2, C2):
        """Cp for every subset from ||y||^2 and the squared coordinates C2 = (Y @ Q)^2."""
        fitted2 = np.column_stack([C2[:, idx].sum(axis=1) for idx in self._qcols])
        return y2[:, None] - fitted2 + 2.0 * self.sigma**2 * self.ranks

    def _pick(self, cp):
        """Each row's argmin of the Cp matrix, ties going first in `_tie_order`."""
        order = np.array(self._tie_order)
        return order[np.argmin(cp[:, order], axis=1)]

    def tune_batch(self, Y):
        Y = _check_batch(Y, self.n)
        C = Y @ self.Q
        cp = self._cp(np.sum(Y**2, axis=1), C**2)
        pick = self._pick(cp)
        theta = np.empty_like(Y)
        for k in np.unique(pick):
            rows, idx = pick == k, self._qcols[k]
            theta[rows] = C[np.ix_(rows, idx)] @ self.Q[:, idx].T
        return TunedBatch(
            s_hat=pick.astype(float),
            theta_hat=theta,
            sure_min=cp[np.arange(Y.shape[0]), pick],
            naive_df_at_shat=self.ranks[pick].astype(float),
            discrete=True,
        )

    def oracle(self, model):
        self._check_model(model)
        theta0 = model.theta0
        cp = self._cp(np.array([theta0 @ theta0 + self.n * self.sigma**2]),
                      (theta0 @ self.Q)[None] ** 2 + self.sigma**2)
        k = self._pick(cp)[0]
        return OracleTuning(s0=self.domain.labels[k], err=float(cp[0, k]))


def _grown_from(cols, position):
    """(position of cols less one column, that column), or (None, None)."""
    for i in reversed(range(len(cols))):
        k = position.get(cols[:i] + cols[i + 1:])
        if k is not None:
            return k, cols[i]
    return None, None


def make_nested(X, sigma, order=None, sizes=None):
    """Nested chain of prefix subsets, including the empty model by default.

    `order` permutes the columns before taking prefixes; `sizes` restricts
    which prefix lengths participate (e.g. sizes=(p-1, p) gives the
    drop-or-keep-last two-model family).
    """
    X = _check_design(X)
    p = X.shape[1]
    order = tuple(range(p)) if order is None else tuple(int(j) for j in order)
    if sorted(order) != list(range(p)):
        raise DomainError("order must be a permutation of the column indices")
    sizes = range(p + 1) if sizes is None else tuple(sizes)
    for k in sizes:
        if not 0 <= k <= p:
            raise DomainError(f"prefix size {k} outside 0..{p}")
    return SubsetCollection(X, [order[:k] for k in sizes], sigma)


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
    the last column adds no direction beyond the first p-1, and DomainError
    on a non-finite design or theta0.
    """
    X = _check_design(X)
    if X.shape[1] < 1:
        raise ShapeError("X must be a 2-d design with at least one column")
    theta0 = _as_float_vector(theta0, "theta0", X.shape[0])
    if not np.all(np.isfinite(theta0)):
        raise DomainError("theta0 must be finite")
    pair = make_nested(X, sigma, sizes=(X.shape[1] - 1, X.shape[1]))
    if pair.ranks[1] == pair.ranks[0]:
        raise DegenerateDesignError("last column lies in the span of the others")
    m = float(pair.Q[:, pair._qcols[1][-1]] @ theta0) / sigma
    root2 = math.sqrt(2.0)
    return float(root2 * (_normal_pdf(root2 - m) + _normal_pdf(root2 + m)))
