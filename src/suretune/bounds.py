"""Numerical bound evaluation: chi-squared maxima, Gaussian surface areas,
the gas-stations rotation, nested-chain constants, and the best-subset
df constant.

Everything here is an exact closed form, evaluated in log space where sums
of exponentials can involve 2^p terms or densities underflow.  Gaussian
surface areas of spheres and the chi-squared guard probabilities of the
nested-chain bounds come from the noncentral chi-squared distribution
(Johnson, Kotz & Balakrishnan, Continuous Univariate Distributions vol. 2,
ch. 29): at integer degrees of freedom its density and both tails are
Poisson mixtures of terms of one lattice of Poisson probabilities,
e^{-y} y^m / Gamma(m + 1) for m = m0, m0 + 1, ... (`_log_poisson`; the
density steps along it by ratios).  The best-subset constant is the
minimum of a closed-form curve, found by bisecting its closed-form slope.
The module uses numpy and `math` only.
Nothing in this module draws random numbers; these are the deterministic
reference quantities the rest of the package is checked against.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (DomainError, ShapeError, _as_float_vector, _bisect_sign_change, _check_count,
                   _normal_pdf)

__all__ = [
    "chi_sq_max_bound",
    "edf_upper_bound_simplified",
    "gaussian_surface_area_ball",
    "GasStationsRotation",
    "gas_stations_rotation",
    "nested_null_edf_bound",
    "NestedBoundSplit",
    "nested_bound_tail_split",
    "GeneralThetaBound",
    "general_theta_bound",
    "BestSubsetConstant",
    "best_subset_penalty_curve",
    "best_subset_constant",
]


def _check_sizes(sizes):
    sizes = _as_float_vector(sizes, "sizes")
    if sizes.size == 0:
        raise ShapeError("sizes must be a nonempty vector")
    for k in sizes.tolist():
        _check_count(k, "every size", 0)
    return sizes


def _check_delta(delta):
    if not 0.0 <= delta < 1.0:
        raise DomainError("delta must lie in [0, 1)")
    return float(delta)


def _logsumexp(x):
    """log(sum(exp(x))) for a nonempty array, shifted by its largest entry."""
    top = float(x.max())
    if math.isinf(top):  # every term -inf (the sum is 0), or one +inf
        return top
    return top + math.log(float(np.exp(x - top).sum()))


def _log_poisson(m0, y, size):
    """log(e^{-y} y^m / Gamma(m + 1)) for m = m0, m0 + 1, ..., m0 + size - 1.

    The Poisson(y) log probabilities on the lattice through m0 (y > 0 and
    m0 > -1; m0 need not be an integer).  The first term comes from
    `math.lgamma`; each next one adds log(y / m), summed in order, which
    keeps the test suite's 3000 random chi-squared tails (df <= 11, tails
    down to 1e-12) within 4e-14 relative of `scipy.stats`.
    """
    log_y = math.log(y)
    terms = np.arange(m0, m0 + size)
    terms[0] = 1.0  # replaced by the first term below
    terms = log_y - np.log(terms)
    terms[0] = m0 * log_y - y - math.lgamma(m0 + 1.0)
    return terms.cumsum()


def chi_sq_max_bound(sizes, delta):
    """Moment-generating-function bound on E[max_s (W_s - p_s)].

    For chi-squared variables W_s with p_s degrees of freedom (any joint
    dependence) and delta in [0, 1),

        E[max_s (W_s - p_s)] <= (2/(1-delta)) log sum_s (delta e^{1-delta})^{-p_s/2}.

    Evaluated in log space (`_logsumexp`).  At delta = 0 the bound is +inf
    as soon as any p_s is positive.
    """
    sizes = _check_sizes(sizes)
    delta = _check_delta(delta)
    if delta == 0.0:
        if np.any(sizes > 0):
            return math.inf
        return 2.0 * math.log(sizes.size)
    exponents = -(sizes / 2.0) * (math.log(delta) + 1.0 - delta)
    return float(2.0 / (1.0 - delta) * _logsumexp(exponents))


def edf_upper_bound_simplified(sizes, delta):
    """Simplified form (2/(1-delta)) log|S| + p_max (log(1/delta)/(1-delta) - 1).

    Always at least `chi_sq_max_bound` on the same sizes (it replaces every
    summand by the largest one).  At delta = 9/10 the two constants are
    exactly 20 and log(10/9)/0.1 - 1 ~ 0.0536.
    """
    sizes = _check_sizes(sizes)
    delta = _check_delta(delta)
    k = sizes.size
    p_max = float(sizes.max())
    if delta == 0.0:
        return math.inf if p_max > 0 else 2.0 * math.log(k)
    per_size = math.log(1.0 / delta) / (1.0 - delta) - 1.0
    return 2.0 / (1.0 - delta) * math.log(k) + p_max * per_size


def _log_surface(d, lam, r, a):
    """log of 2 r f(r^2) for the chi2_d(2 lam) density f, d >= 2, a = sqrt(2 lam).

    f is the Poisson(lam) mixture of the central chi2_{d+2k} densities, and
    2 r times the chi2_{d+2k} density at r^2 is r e^{-y} y^{nu+k} /
    Gamma(nu + k + 1) with y = r^2/2 and nu = d/2 - 1.  Term k of the
    mixture is thus the one before it times lam y / (k (nu + k)); at k = 0
    it is e^{-lam} times the origin's closed form
    r^{d-1} e^{-r^2/2} / (2^{d/2 - 1} Gamma(d/2)).  The terms are
    log-concave in k with mode k*, and beyond k* -+ 10 sqrt(k* + 1) they
    have fallen below 1e-20 of the peak, so only that window is summed.
    (One ratio per term costs half of what two `_log_poisson` lattices
    would, and the nested-chain bound makes O(p^2) of these calls.)  Where
    y is not a normal double, log y is taken as 2 log r - log 2.

    Every point of the sphere lies at least |a - r| from the origin, so the
    area is at most the origin's form times e^{(r^2 - (a - r)^2)/2}; where
    that is below e^-800 the area is 0 in double precision, and -inf is
    returned without summing the O(r a) terms the mixture would need.
    Beyond k* = 2^32 (a window of a million terms whose logs would round
    away 1e-6 of the area; r a above about 2^33) it raises DomainError.
    """
    nu, y = d / 2.0 - 1.0, 0.5 * r * r
    log_y = (math.log(y) if sys.float_info.min <= y < math.inf
             else 2.0 * math.log(r) - math.log(2.0))
    log_origin = math.log(r) + nu * log_y - y - math.lgamma(nu + 1.0)
    if lam == 0.0:
        return log_origin
    if math.log(r) + nu * log_y - math.lgamma(nu + 1.0) - 0.5 * (a - r) * (a - r) < -800.0:
        return -math.inf
    mode = max(0.0, 0.5 * (math.hypot(nu, r * a) - nu) - 1.0)
    if mode > 2.0**32:
        raise DomainError(f"the Gaussian surface area needs a Poisson mode of at most 2^32 "
                          f"(|center| * radius up to about 2^33); this sphere's is {mode:.6g}")
    lo = int(max(0.0, mode - 10.0 * math.sqrt(mode + 1.0)))
    k = np.arange(float(lo), float(int(mode + 10.0 * math.sqrt(mode + 1.0)) + 10))
    k[0] = 1.0  # replaced by term lo below
    terms = math.log(lam) + log_y - np.log(k * (nu + k))
    terms[0] = (math.log(r) + lo * math.log(lam) - lam - math.lgamma(lo + 1.0)
                + (nu + lo) * log_y - y - math.lgamma(nu + lo + 1.0))
    return _logsumexp(terms.cumsum())


def gaussian_surface_area_ball(center, radius):
    """Gaussian surface area of the sphere with the given center and radius.

    For Z ~ N(0, I_d), P(||Z - c|| <= r) is the chi2_d(||c||^2) distribution
    function at r^2, so its derivative in r is the surface area

        Lambda = 2 r f_{chi2_d(||c||^2)}(r^2).

    Exact for every center: phi(c - r) + phi(c + r) in one dimension, and
    the Poisson mixture of central densities of `_log_surface` otherwise;
    a center whose ||c||^2 / 2 underflows to 0 takes the origin's closed
    form, which it equals to double precision.  Raises DomainError on a
    non-finite center, a radius that is not positive and finite, or a
    sphere beyond `_log_surface`'s window.
    """
    center = _as_float_vector(np.atleast_1d(center), "center")
    if center.size == 0:
        raise ShapeError("center must be a nonempty vector")
    if not (math.isfinite(radius) and radius > 0):
        raise DomainError("radius must be positive and finite")
    d = center.shape[0]
    with np.errstate(over="ignore"):  # a square beyond 1.8e308 is inf
        if d == 1:
            c = float(center[0])
            return float(_normal_pdf(c - radius) + _normal_pdf(c + radius))
        lam = 0.5 * float(center @ center)
    a = math.sqrt(2.0 * lam) if lam < math.inf else math.hypot(*center.tolist())
    return math.exp(_log_surface(d, lam, radius, a))


@dataclass(frozen=True)
class GasStationsRotation:
    """The unique admissible rotation start, and how many starts tied."""

    start: int
    multiplicity: int


_GAS_TOL = 1e-9  # slack of the sum check and of the comparison with max(f)


def gas_stations_rotation(w):
    """Find the circular rotation whose partial sums never exceed their budget.

    For nonnegative w summing to 2d (within 1e-9), exactly one circular
    rotation has all prefix sums bounded by 2q (q = 1, ..., d); vectors
    with rotational symmetry can tie, in which case the smallest start
    index is returned along with the multiplicity.  By the cyclic lemma,
    start r is admissible exactly when f_r = sum_{i<r} (w_i - 2) is a
    maximum of f, so one cumulative sum finds every start; one always is.
    The comparison allows slack `_GAS_TOL` so boundary cases like the
    all-twos vector count.
    """
    w = _as_float_vector(w, "w")
    if w.size == 0:
        raise ShapeError("w must be a nonempty vector")
    if np.any(w < 0):
        raise DomainError("entries must be nonnegative")
    d = w.size
    if abs(float(w.sum()) - 2.0 * d) > _GAS_TOL:
        raise DomainError(f"entries must sum to 2d (within {_GAS_TOL})")
    f = np.concatenate([[0.0], np.cumsum(w[:-1] - 2.0)])
    valid = np.flatnonzero(f >= f.max() - _GAS_TOL)
    return GasStationsRotation(start=int(valid[0]), multiplicity=len(valid))


def nested_null_edf_bound(p):
    """Partial sum of the nested-chain null bound, exact in log space.

    sum_{d=1}^p sqrt(2d)(1 + 1/d) Lambda_d(B_d(0, sqrt(2d))), where each
    surface area has the closed form; the summand simplifies to
    2 (1 + 1/d) d^{d/2} e^{-d} / Gamma(d/2).  Nondecreasing in p, since `math.fsum`
    rounds the sum of positive terms correctly, and below 10 for every p.
    """
    p = _check_count(p, "p", 1)
    # Every summand from d = 4881 on underflows to 0, so the sum stops there.
    d = np.arange(1, min(p, 4880) + 1, dtype=float)
    log_gamma = np.array([math.lgamma(k / 2.0) for k in range(1, d.size + 1)])
    log_terms = math.log(2.0) + np.log1p(1.0 / d) + (d / 2.0) * np.log(d) - d - log_gamma
    return math.fsum(np.exp(log_terms))


@dataclass(frozen=True)
class NestedBoundSplit:
    """Certified bound on the full infinite nested-chain series.

    The summands are bounded via the Stirling lower bound on the gamma
    function by (1 + 1/d) sqrt(d) x^d / sqrt(pi) with x = sqrt(2/e); the
    factor (1 + 1/d) splits the series into a sqrt(d) x^d part and a
    x^d/sqrt(d) part.  Each part is an exact head sum plus a geometric
    tail bound (Jensen on sqrt(N+1+G) for a geometric G), so the total
    dominates nested_null_edf_bound(p) for every p.
    """

    sqrt_series: float
    inv_sqrt_series: float
    total: float
    n_terms: int


def nested_bound_tail_split(n_terms=1000):
    """Head-plus-tail certification of the < 10 nested-chain constant."""
    n_terms = _check_count(n_terms, "n_terms", 1)
    x = math.sqrt(2.0 / math.e)
    d = np.arange(1, n_terms + 1, dtype=float)
    powers = np.exp(d * math.log(x))
    sqrt_head = float(np.sum(np.sqrt(d) * powers))
    inv_head = float(np.sum(powers / np.sqrt(d)))
    lead = x ** (n_terms + 1) / (1.0 - x)
    mean_extra = x / (1.0 - x)
    sqrt_tail = lead * math.sqrt(n_terms + 1 + mean_extra)
    inv_tail = lead / math.sqrt(n_terms + 1)
    rt_pi = math.sqrt(math.pi)
    sqrt_series = (sqrt_head + sqrt_tail) / rt_pi
    inv_series = (inv_head + inv_tail) / rt_pi
    return NestedBoundSplit(
        sqrt_series=sqrt_series,
        inv_sqrt_series=inv_series,
        total=sqrt_series + inv_series,
        n_terms=n_terms,
    )


@dataclass(frozen=True)
class GeneralThetaBound:
    """Windowed and pairwise excess-df bounds for a nested chain.

    Both values are exact evaluations of the bound formulas for the given
    rotated mean mu.  `cap` is the loose ceiling sqrt(2p) p (p+1).
    """

    windowed: float
    alternate: float
    cap: float
    p: int


def _chi2_prob(df, nonc, threshold, upper):
    """P(W > threshold) for W ~ chi2_df(nonc), or P(W < threshold) if not upper.

    With y = threshold/2, a = df/2 and t_m = e^{-y} y^m / Gamma(m + 1) on
    the lattice m = a mod 1, a mod 1 + 1, ... (`_log_poisson`), the
    central tails are sums of positive terms,

        Q_a = P(chi2_df > 2y) = sum_{m < a} t_m  (+ erfc(sqrt y) for odd df),
        P(chi2_df < 2y) = sum_{m >= a} t_m,

    and with N ~ Poisson(nonc/2) the noncentral tails are their mixtures
    over df + 2N, again with positive terms:

        upper = sum_k P(N = k) (Q_a + sum_{i < k} t_{a+i}),
        lower = sum_k t_{a+k} P(N <= k).

    Neither tail is 1 minus the other, so both keep their relative
    precision however small they are.  The terms are log-concave in k; the
    sum stops at a term below 1e-20 of the total and at most half the one
    before it, which bounds what is left by that term.
    """
    if df == 0:
        # No coordinates left to constrain; the event is vacuous.
        return 1.0
    y = 0.5 * threshold
    if y <= 0.0:
        return 1.0 if upper else 0.0
    # W = |Z + c|^2 with |c|^2 = nonc; with gap = sqrt(threshold) - |c|,
    # P(W < threshold) <= Phi(gap) and P(W > threshold) <=
    # exp(-(gap - sqrt(df))^2 / 2).  Past 40 standard deviations the far
    # tail is 0 and the near one 1 in double precision, where the sums
    # would need O(nonc + threshold) terms.
    gap = math.sqrt(threshold) - math.sqrt(nonc)
    if gap < -40.0:
        return 1.0 if upper else 0.0
    if gap - math.sqrt(df) > 40.0:
        return 0.0 if upper else 1.0
    lam, head = 0.5 * nonc, df // 2
    size = 16 + int(lam + y + 10.0 * math.sqrt(lam + y + 1.0))
    while True:
        t = np.exp(_log_poisson(0.5 * (df % 2), y, head + size))
        # P(N = k); at nonc = 0, N = 0.
        weights = np.exp(_log_poisson(0.0, lam, size)) if lam > 0.0 else np.eye(1, size)[0]
        if upper:
            q = float(t[:head].sum()) + (math.erfc(math.sqrt(y)) if df % 2 else 0.0)
            terms = weights * (q + np.concatenate(([0.0], t[head:-1].cumsum())))
        else:
            terms = t[head:] * weights.cumsum()
        total = float(terms.sum())
        if terms[-1] <= 1e-20 * total and terms[-1] <= 0.5 * terms[-2]:
            return total
        size *= 2


def general_theta_bound(mu):
    """Windowed-max and pairwise excess-df bounds for the full nested chain.

    mu is the rotated, noise-scaled mean: its coordinates lie along the
    chain's successive orthonormal increments.  The windowed bound is

        sum_{d=1}^p sqrt(2d) (d+1) max_j Lambda_d(B_d(mu_{(j+1):(j+d)}, sqrt(2d)))

    with the max over every length-d window (j = 0, ..., p-d).  The
    pairwise bound multiplies each window's surface area by the
    probabilities that a noncentral chi-squared variable stays above
    2(j-1) below the window and below 2(p-k) above it; chains with nothing
    below (j = 0) or above (k = p) get vacuous factors of 1.  Raises
    DomainError on a non-finite mu.
    """
    mu = _as_float_vector(mu, "mu")
    if mu.size == 0:
        raise ShapeError("mu must be a nonempty vector")
    p = mu.shape[0]
    # One surface area per window mu[j:k]; both bounds reuse them.
    areas = {
        (j, k): gaussian_surface_area_ball(mu[j:k], math.sqrt(2.0 * (k - j)))
        for j in range(p)
        for k in range(j + 1, p + 1)
    }
    windowed = sum(
        math.sqrt(2.0 * d) * (d + 1) * max(areas[j, j + d] for j in range(p - d + 1))
        for d in range(1, p + 1)
    )
    low = [_chi2_prob(j, float(np.sum(mu[:j] ** 2)), 2.0 * (j - 1), True) for j in range(p + 1)]
    high = [_chi2_prob(p - k, float(np.sum(mu[k:] ** 2)), 2.0 * (p - k), False)
            for k in range(p + 1)]
    alternate = sum(
        math.sqrt(2.0 * (k - j)) * low[j] * high[k] * area for (j, k), area in areas.items()
    )
    return GeneralThetaBound(
        windowed=windowed,
        alternate=alternate,
        cap=math.sqrt(2.0 * p) * p * (p + 1),
        p=p,
    )


def best_subset_penalty_curve(delta):
    """f(delta) = (2/(1-delta)) log(1 + (delta e^{1-delta})^{-1/2})."""
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")
    return 2.0 / (1.0 - delta) * math.log1p(_best_subset_h(delta))


def _best_subset_h(delta):
    """h = (delta e^{1-delta})^{-1/2}, the argument of the curve's log1p."""
    return math.exp(-0.5 * (math.log(delta) + 1.0 - delta))


def _best_subset_slope(delta):
    """f'(delta) = 2 log1p(h)/(1-delta)^2 - h/(delta (1+h)) for 0 < delta < 1.

    f falls from +inf near 0 and rises to +inf near 1, and its slope changes
    sign once on (0, 1), from - to +, at the minimizer.
    """
    h = _best_subset_h(delta)
    return 2.0 * math.log1p(h) / (1.0 - delta) ** 2 - h / (delta * (1.0 + h))


@dataclass(frozen=True)
class BestSubsetConstant:
    """Minimized per-predictor df constant, its minimizer, and half itself.

    `half_value` exists because the constant circulates in two conventions
    (with and without the leading factor 2); both are reported so either
    can be compared against directly.
    """

    value: float
    delta: float
    half_value: float


def best_subset_constant():
    """Minimize the per-predictor search-df penalty curve over delta.

    The slope is bisected on (0, 1) down to the two adjacent doubles around
    its sign change; delta is whichever of them gives the lower curve value
    (the lower double on a tie).
    """
    value, delta = min((best_subset_penalty_curve(d), d)
                       for d in _bisect_sign_change(_best_subset_slope, 0.0, 1.0))
    return BestSubsetConstant(value=value, delta=delta, half_value=value / 2.0)
