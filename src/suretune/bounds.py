"""Numerical bound evaluation: chi-squared maxima, Gaussian surface areas,
the gas-stations rotation, nested-chain constants, and the best-subset
df constant.

Everything here is an exact closed form, evaluated in log space where sums
of exponentials can involve 2^p terms or densities underflow.  Gaussian
surface areas of spheres and the chi-squared guard probabilities of the
nested-chain bounds come from the noncentral chi-squared distribution
(Johnson, Kotz & Balakrishnan, Continuous Univariate Distributions vol. 2,
ch. 29), evaluated with `scipy.special` alone: importing `scipy.stats`
would add about half a second to the first bound evaluated.  Each
function imports the scipy names it uses when it runs, so `import
suretune` loads numpy only and scipy loads on the first call that needs
it.  Nothing in this module draws random numbers; these are the
deterministic reference quantities the rest of the package is checked
against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, ShapeError, _check_count, _normal_pdf

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
    arr = np.asarray(sizes)
    if arr.ndim != 1 or arr.size == 0:
        raise ShapeError("sizes must be a nonempty vector")
    if np.any(arr < 0) or np.any(arr != np.floor(arr)):
        raise DomainError("sizes must be nonnegative integers")
    return arr.astype(float)


def _check_delta(delta):
    if not 0.0 <= delta < 1.0:
        raise DomainError("delta must lie in [0, 1)")
    return float(delta)


def chi_sq_max_bound(sizes, delta):
    """Moment-generating-function bound on E[max_s (W_s - p_s)].

    For chi-squared variables W_s with p_s degrees of freedom (any joint
    dependence) and delta in [0, 1),

        E[max_s (W_s - p_s)] <= (2/(1-delta)) log sum_s (delta e^{1-delta})^{-p_s/2}.

    Evaluated via logsumexp.  At delta = 0 the bound is +inf as soon as any
    p_s is positive.
    """
    from scipy.special import logsumexp

    sizes = _check_sizes(sizes)
    delta = _check_delta(delta)
    if delta == 0.0:
        if np.any(sizes > 0):
            return math.inf
        return 2.0 * math.log(sizes.size)
    exponents = -(sizes / 2.0) * (math.log(delta) + 1.0 - delta)
    return float(2.0 / (1.0 - delta) * logsumexp(exponents))


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


def _log_surface_origin(d, r):
    # Ball's closed form: r^{d-1} e^{-r^2/2} / (2^{d/2 - 1} Gamma(d/2)).
    from scipy.special import gammaln

    return (d - 1) * math.log(r) - 0.5 * r**2 - (d / 2.0 - 1.0) * math.log(2.0) - gammaln(d / 2.0)


# Smallest scaled Bessel value trusted to full relative precision; far
# enough above the smallest normal double (2.2e-308) that no subnormal
# intermediate has rounded it.
_BESSEL_FLOOR = 1e-280


def _log_surface_off_center(d, a, r):
    """log of 2 r f(r^2) for the chi2_d(a^2) density f, d >= 2 and a > 0."""
    from scipy.special import gammaln, ive, logsumexp

    nu = d / 2.0 - 1.0
    bessel = float(ive(nu, r * a))
    if bessel >= _BESSEL_FLOOR:
        # ive carries e^{-r a}; with e^{-(r^2 + a^2)/2} it leaves -(r - a)^2/2.
        return math.log(r) - 0.5 * (r - a) ** 2 + nu * math.log(r / a) + math.log(bessel)
    # Tiny centers or many dimensions: the Poisson(a^2/2) mixture of origin
    # forms in dimensions d + 2k.  Its terms are log-concave in k with mode
    # k*, and past k* + 10 sqrt(k* + 1) they have fallen below 1e-20 of the peak.
    mode = max(0.0, 0.5 * (math.hypot(nu, r * a) - nu) - 1.0)
    k = np.arange(int(mode + 10.0 * math.sqrt(mode + 1.0)) + 10, dtype=float)
    log_weights = k * (2.0 * math.log(a) - math.log(2.0)) - 0.5 * a * a - gammaln(k + 1.0)
    return float(logsumexp(log_weights + _log_surface_origin(d + 2.0 * k, r)))


def gaussian_surface_area_ball(center, radius):
    """Gaussian surface area of the sphere with the given center and radius.

    For Z ~ N(0, I_d), P(||Z - c|| <= r) is the chi2_d(||c||^2) distribution
    function at r^2, so its derivative in r is the surface area

        Lambda = 2 r f_{chi2_d(||c||^2)}(r^2).

    Exact for every center: phi(c - r) + phi(c + r) in one dimension, the
    closed form r^{d-1} e^{-r^2/2} / (2^{d/2 - 1} Gamma(d/2)) at the origin,
    and the Bessel form of the noncentral density elsewhere (its Poisson
    mixture where the Bessel factor underflows).  Raises DomainError on a
    non-finite center or a radius that is not positive and finite.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.ndim != 1 or center.size == 0:
        raise ShapeError("center must be a nonempty vector")
    if not np.all(np.isfinite(center)):
        raise DomainError("center must be finite")
    if not (math.isfinite(radius) and radius > 0):
        raise DomainError("radius must be positive and finite")
    d = center.shape[0]
    if d == 1:
        c = float(center[0])
        return float(_normal_pdf(c - radius) + _normal_pdf(c + radius))
    a = float(np.linalg.norm(center))
    if a == 0.0:
        return math.exp(_log_surface_origin(d, radius))
    return math.exp(_log_surface_off_center(d, a, radius))


@dataclass(frozen=True)
class GasStationsRotation:
    """The unique admissible rotation start, and how many starts tied."""

    start: int
    multiplicity: int


def gas_stations_rotation(w, *, tol=1e-9):
    """Find the circular rotation whose partial sums never exceed their budget.

    For nonnegative w summing to 2d (within 1e-9), exactly one circular
    rotation has all prefix sums bounded by 2q (q = 1, ..., d); vectors
    with rotational symmetry can tie, in which case the smallest start
    index is returned along with the multiplicity.  Comparisons allow
    slack `tol` so boundary cases like the all-twos vector count.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ShapeError("w must be a nonempty vector")
    if np.any(w < 0):
        raise DomainError("entries must be nonnegative")
    d = w.size
    if abs(float(w.sum()) - 2.0 * d) > 1e-9:
        raise DomainError("entries must sum to 2d (within 1e-9)")
    budget = 2.0 * np.arange(1, d + 1)
    valid = []
    for r in range(d):
        prefix = np.cumsum(np.roll(w, -r))
        if np.all(prefix <= budget + tol):
            valid.append(r)
    if not valid:
        raise DomainError("no admissible rotation found; tolerance too tight?")
    return GasStationsRotation(start=valid[0], multiplicity=len(valid))


def nested_null_edf_bound(p):
    """Partial sum of the nested-chain null bound, exact in log space.

    sum_{d=1}^p sqrt(2d)(1 + 1/d) Lambda_d(B_d(0, sqrt(2d))), where each
    surface area has the closed form; the summand simplifies to
    2 (1 + 1/d) d^{d/2} e^{-d} / Gamma(d/2).  Nondecreasing in p and below
    10 for every p.
    """
    p = _check_count(p, "p", 1)
    from scipy.special import gammaln

    d = np.arange(1, p + 1, dtype=float)
    log_terms = (
        math.log(2.0) + np.log1p(1.0 / d) + (d / 2.0) * np.log(d) - d - gammaln(d / 2.0)
    )
    return float(np.sum(np.exp(log_terms)))


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
    """P(W > threshold) for W ~ chi2_df(nonc), or P(W < threshold) if not upper."""
    from scipy.special import chdtr, chdtrc, chndtr

    if df == 0:
        # No coordinates left to constrain; the event is vacuous.
        return 1.0
    if nonc == 0.0:
        return float(chdtrc(df, threshold) if upper else chdtr(df, threshold))
    cdf = float(chndtr(threshold, df, nonc))
    return 1.0 - cdf if upper else cdf


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
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or mu.size == 0:
        raise ShapeError("mu must be a nonempty vector")
    if not np.all(np.isfinite(mu)):
        raise DomainError("mu must be finite")
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
    inner = math.exp(-0.5 * (math.log(delta) + 1.0 - delta))
    return 2.0 / (1.0 - delta) * math.log1p(inner)


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
    """Minimize the per-predictor search-df penalty curve over delta."""
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        best_subset_penalty_curve,
        bounds=(1e-6, 1.0 - 1e-6),
        method="bounded",
        options={"xatol": 1e-12},
    )
    value = float(res.fun)
    return BestSubsetConstant(value=value, delta=float(res.x), half_value=value / 2.0)
