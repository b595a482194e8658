"""Gating checks for the whole package, runnable as one battery.

Each criterion is a zero-argument callable returning (clauses, detail): a
dict of named boolean clauses and the text of its report.  `CRITERIA` maps
each id to its description and callable; `run_all` alone judges them (a
criterion passes when every clause holds) and prints one PASS/FAIL line
apiece.  Every randomized check carries its own fixed seed, so the battery is
deterministic end to end.  Tolerances follow the usual Monte Carlo
convention: a comparison of means must land within four standard errors
(two where a one-sided dominance claim already includes slack).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import bounds  # c13 and c14 check whatever `bounds` holds at call time
from .bootstrap import BootstrapConfig, _pass_statistic
from .bounds import (
    _best_subset_slope,
    chi_sq_max_bound,
    edf_upper_bound_simplified,
    gas_stations_rotation,
    nested_null_edf_bound,
)
from .core import (DomainError, GaussianModel, _df_unit, _mean_se, _sq_error, _tuned_stats,
                   mc_df, mc_edf)
from .shrinkage import (
    ShrinkMeansFamily,
    ShrinkRegressionFamily,
    SingletonShrinkFamily,
    edf_unbiased_shrink,
    james_stein_positive,
)
from .simulate import PRESETS, SimSpec, rows_to_csv_text, run_simulation, theta0_for
from .softthresh import SoftThreshFamily, scan_jumps
from .stein import (
    HeteroShrinkFamily,
    RidgeRotation,
    SmoothFamilyHooks,
    _implicit_diff_stats,
    exopt_hetero_shrink,
)
from .subsets import SubsetCollection, edf_two_model_exact, make_all_subsets, make_nested

__all__ = ["CriterionResult", "CRITERIA", "run_all"]


@dataclass
class CriterionResult:
    cid: str
    description: str
    passed: bool
    detail: str
    clauses: dict


def c01_sure_unbiased():
    """SURE matches Monte Carlo prediction error at fixed tuning values."""
    n, reps = 50, 2000
    rng = np.random.default_rng(1001)
    Xr = rng.standard_normal((n, 4))
    Xs = rng.standard_normal((n, 5))
    sigmas = 0.5 + rng.random(n)
    theta0 = theta0_for("weak_sparsity", n)

    nested = make_nested(Xs, 1.0)
    cases = [
        ("shrink_means", ShrinkMeansFamily(n, 1.0), (0.2, 1.0, 5.0), None),
        ("shrink_regression", ShrinkRegressionFamily(Xr, 1.0), (0.2, 1.0, 5.0), None),
        ("soft_threshold", SoftThreshFamily(n, 1.0), (0.5, 1.0, 2.0), None),
        ("subsets", nested, tuple(nested.subsets[k] for k in (1, 3, 5)), None),
        ("hetero_shrink", HeteroShrinkFamily(sigmas), (0.3, 1.0, 3.0), sigmas),
    ]
    worst_z, worst_tag = 0.0, ""
    for idx, (name, family, svals, sds) in enumerate(cases):
        model = (GaussianModel(theta0, sigmas=sds) if sds is not None
                 else GaussianModel(theta0, sigma=1.0))
        Y = model.draw(np.random.default_rng((1001, idx)), reps)
        Ystar = model.draw(np.random.default_rng((1002, idx)), reps)
        for s in svals:
            err = _sq_error(Ystar - family.estimate(s, Y), family)
            diff = np.asarray(family.sure(s, Y)) - err
            mean, se, _ = _mean_se(diff)
            z = abs(mean) / se
            if z > worst_z:
                worst_z, worst_tag = z, f"{name} s={s}"
        del Y, Ystar
    return ({"within 4 SE": worst_z <= 4.0},
            f"worst |z| = {worst_z:.2f} ({worst_tag}), limit 4")


def c02_shrinkage_edf():
    """Null-case tuned-shrinkage edf sits in [0, 2] and matches 2s/(1+s)."""
    n, reps = 50, 5000
    model = GaussianModel(np.zeros(n), sigma=1.0)
    family = ShrinkMeansFamily(n, 1.0)
    stats = _tuned_stats(family.tune_batch, model, 1003, reps, "edf",
                         unbiased=lambda Y, fit: family.edf_unbiased(fit))
    stats_mc, stats_an = stats["edf"], stats["unbiased"]
    mc_mean, mc_se, _ = _mean_se(stats_mc)
    dmean, dse, _ = _mean_se(stats_mc - stats_an)
    return ({"edf in [0, 2]": 0.0 <= mc_mean <= 2.0,
             "matches unbiased": abs(dmean) <= 4.0 * dse},
            f"MC edf = {mc_mean:.3f} +- {mc_se:.3f}, paired gap z = {abs(dmean)/dse:.2f}")


_SHRINK_MEANS = (("null", 0.0, 1004), ("moderate", 1.0, 1005), ("large", 3.0, 1006))


def c03_dominance():
    """Tuned-shrinkage prediction error beats 2 n sigma^2; JS+ never loses.

    The second clause is expected red at theta0 = 0 and kept that way: the
    tuned rule shrinks by n sigma^2/||Y||^2 against JS+'s (n-2), so at a
    zero mean the harder shrinkage wins pointwise ((W-(n-2))_+^2/W
    >= (W-n)_+^2/W for every W = ||Y||^2) and no Monte Carlo tolerance can
    flip the sign.  The clause does hold away from zero, where the
    classical n-2 factor is the better one.
    """
    n, clauses, notes = 10, {}, []
    for tag, mean, seed in _SHRINK_MEANS:
        model = GaussianModel(np.full(n, mean), sigma=1.0)
        stats = _tuned_stats(
            ShrinkMeansFamily(n, 1.0).tune_batch, model, seed, 5000,
            tuned=lambda Y, fit: _sq_error(fit.theta_hat - model.theta0, model),
            js=lambda Y, fit: _sq_error(james_stein_positive(Y, 1.0) - model.theta0, model))
        mean_rt, se_rt, _ = _mean_se(stats["tuned"])
        err_tuned = n * 1.0 + mean_rt
        dmean, dse, _ = _mean_se(stats["js"] - stats["tuned"])
        clauses[f"{tag} Err < 2n"] = err_tuned < 2.0 * n
        clauses[f"{tag} JS+ never loses"] = dmean <= 2.0 * dse
        notes.append(f"{tag}: Err={err_tuned:.2f}<{2*n} ({(2*n-err_tuned)/se_rt:.0f} SE), "
                     f"JS gap z={dmean/dse:+.2f}")
    return clauses, "; ".join(notes)


def c04_risk_bound():
    """Property (ii) on every family: the tuned error is at most the oracle
    error plus the excess optimism 2 unit edf.

    SURE is unbiased at every fixed s, so E[sure_min] <= min_s E[SURE(s)] =
    oracle err, and E[sure_min] = Err(s_hat) - 2 unit edf.  Each case reduces
    one pass, with err_r = ||theta_hat_r - theta0||^2 + n unit, and must meet:
    (a) mean(err_r - 2 unit edf_r - oracle err) <= 4 SE;
    (b) mean(sure_min_r - oracle err) <= 4 SE;
    (c) gap_r = SURE(s0; Y_r) - sure_min_r >= -1e-9 max|sure_min| on every
        draw, which a tuner that misses its minimum breaks;
    (d) shrink means only: mean(err_r - oracle err) <= 4 unit + 4 SE, since
        that family's excess df is at most 2.
    """
    n = 30
    rng = np.random.default_rng(1028)
    X, sigmas = rng.standard_normal((n, 5)), np.geomspace(0.5, 2.0, n)
    weak = theta0_for("weak_sparsity", n)
    homo = GaussianModel(weak, sigma=1.0)
    cases = [(f"shrink_means {tag}", ShrinkMeansFamily(10, 1.0),
              GaussianModel(np.full(10, mean), sigma=1.0), seed, 5000)
             for tag, mean, seed in _SHRINK_MEANS]
    cases += [(name, family, model, (1027, idx), 2000)
              for idx, (name, family, model) in enumerate((
                  ("shrink_regression", ShrinkRegressionFamily(X[:, :4], 1.0), homo),
                  ("soft_threshold", SoftThreshFamily(n, 1.0), homo),
                  ("nested", make_nested(X, 1.0), homo),
                  ("singleton_shrink", SingletonShrinkFamily(n, 1.0), homo),
                  ("hetero_shrink", HeteroShrinkFamily(sigmas),
                   GaussianModel(weak, sigmas=sigmas))))]
    clauses, worst_z, worst_gap, excess = {}, (-math.inf, ""), (math.inf, ""), []
    for name, family, model, seed, reps in cases:
        oracle, unit = family.oracle(model), _df_unit(model)
        stats = _tuned_stats(
            family.tune_batch, model, seed, reps, "edf", "sure_min",
            risk=lambda Y, fit: _sq_error(fit.theta_hat - model.theta0, model),
            gap=lambda Y, fit: family.sure(oracle.s0, Y) - fit.sure_min)
        err = stats["risk"] + model.n * unit
        for clause, (mean, se, _) in (
                ("a", _mean_se(err - 2.0 * unit * stats["edf"] - oracle.err)),
                ("b", _mean_se(stats["sure_min"] - oracle.err))):
            clauses[f"{name} ({clause})"] = mean <= 4.0 * se
            worst_z = max(worst_z, (mean / se, name))
        gap = float(np.min(stats["gap"]) / np.max(np.abs(stats["sure_min"])))
        clauses[f"{name} (c)"] = gap >= -1e-9
        worst_gap = min(worst_gap, (gap, name))
        if name.startswith("shrink_means"):
            mean, se, _ = _mean_se(err - oracle.err)
            clauses[f"{name} (d)"] = mean <= 4.0 * unit + 4.0 * se
            excess.append(f"{name.split()[1]} {mean:.2f}")
    return clauses, (
        f"worst z = {worst_z[0]:+.2f} ({worst_z[1]}), limit 4; worst per-draw gap "
        f"{worst_gap[0]:.1e} of scale ({worst_gap[1]}), limit -1e-9; "
        f"shrink-means excess risk {', '.join(excess)}, limit 4")


def c05_two_model():
    """Two-model Cp selection edf matches the exact normal-density formula.

    The pair is the empty model against a single direction, which keeps the
    per-repetition statistic's variance low enough to meet the SE <= 0.02
    target at 5000 repetitions.
    """
    n, reps = 20, 5000
    rng = np.random.default_rng(1007)
    X = rng.standard_normal((n, 1))
    family = make_nested(X, 1.0, sizes=(0, 1))
    uv = X[:, 0] / np.linalg.norm(X[:, 0])
    w = rng.standard_normal(n)
    w -= uv * (uv @ w)
    w /= np.linalg.norm(w)
    clauses, notes = {}, []
    for m, seed in ((0.0, 1008), (1.0, 1009), (3.0, 1010)):
        theta0 = np.zeros(n) if m == 0.0 else m * uv + 5.0 * w
        exact = edf_two_model_exact(X, theta0, 1.0)
        report = mc_edf(family, GaussianModel(theta0, sigma=1.0), reps=reps, seed=seed)
        clauses[f"m={m:g} within 4 SE"] = abs(report.value - exact) <= 4.0 * report.std_error
        notes.append(f"m={m:g}: MC {report.value:.4f}+-{report.std_error:.4f} vs {exact:.4f}")
        if m == 0.0:
            clauses["m=0 SE <= 0.02"] = report.std_error <= 0.02
            clauses["m=0 exact value"] = abs(exact - 0.41510749742059466) < 1e-12
    return clauses, "; ".join(notes)


def c06_nested_chains():
    """Null nested-chain edf is nonnegative and under the universal bound."""
    n, reps = 30, 3000
    rng = np.random.default_rng(1011)
    clauses, notes = {}, []
    for p, seed in ((5, 1012), (10, 1013), (20, 1014)):
        X = rng.standard_normal((n, p))
        family = make_nested(X, 1.0)
        report = mc_edf(family, GaussianModel(np.zeros(n), sigma=1.0), reps=reps, seed=seed)
        bound = nested_null_edf_bound(p)
        clauses[f"p={p} nonnegative"] = report.value >= -4.0 * report.std_error
        clauses[f"p={p} under 10"] = report.value <= 10.0 and bound < 10.0
        clauses[f"p={p} under bound"] = report.value <= bound + 4.0 * report.std_error
        notes.append(f"p={p}: MC {report.value:.3f}+-{report.std_error:.3f}, bound {bound:.3f}")
    return clauses, "; ".join(notes)


def c07_chi_sq_max():
    """Expected max of centered chi-squares never exceeds the delta bounds."""
    rng = np.random.default_rng(1015)
    deltas = (0.3, 0.5, 0.7, 0.9)
    reps = 2000
    worst = -math.inf
    for _ in range(50):
        K = int(rng.integers(1, 13))
        sizes = rng.integers(0, 13, size=K)
        pmax = int(sizes.max())
        if pmax == 0:
            emax, se = 0.0, 0.0
        else:
            Z = rng.standard_normal((reps, pmax))
            cums = np.concatenate([np.zeros((reps, 1)), np.cumsum(Z**2, axis=1)], axis=1)
            stat = np.max(cums[:, sizes] - sizes, axis=1)
            emax, se, _ = _mean_se(stat)
        for delta in deltas:
            bound = chi_sq_max_bound(sizes, delta)
            worst = max(worst, emax - bound - 4.0 * se)
    lead = edf_upper_bound_simplified(np.array([1]), 0.9)
    factor = (edf_upper_bound_simplified(np.array([1, 1]), 0.9) - lead) / math.log(2.0)
    consts = abs(factor - 20.0) <= 1e-9 and abs(lead - 0.05360515657826381) <= 1e-12
    return ({"bound holds": worst <= 0.0, "constants exact": consts},
            f"worst violation {worst:.3f} (<=0 required), constants 20/{lead:.6f}")


def c08_soft_threshold():
    """Candidate search is exact; jumps are nonnegative; df covers the count."""
    n = 20
    rng = np.random.default_rng(1016)
    family = SoftThreshFamily(n, 1.0)
    # Between candidate thresholds the criterion climbs with slope
    # 2 * (active count) * s, so a grid of spacing `step` can sit at most
    # 2 n s_max step above the exact minimum; the candidate value must never
    # exceed the grid value, and the minimizing locations must agree.
    worst_ratio, loc_ok, below = 0.0, True, True
    for trial in range(100):
        mean = np.zeros(n) if trial % 2 == 0 else 3.0 / np.sqrt(np.arange(1, n + 1))
        y = rng.normal(mean, 1.0)
        fit = family.tune(y)
        smax = np.abs(y).max()
        s_grid = np.linspace(0.0, smax, 4001)
        step = s_grid[1] - s_grid[0]
        thr = np.maximum(np.abs(y)[None, :] - s_grid[:, None], 0.0)
        resid2 = np.sum((np.abs(y)[None, :] - thr) ** 2, axis=1)
        df = np.sum(np.abs(y)[None, :] > s_grid[:, None], axis=1)
        F = resid2 + 2.0 * df
        gidx = int(np.argmin(F))
        below = below and fit.sure_min <= F[gidx] + 1e-9
        worst_ratio = max(worst_ratio,
                          (F[gidx] - fit.sure_min) / (2.0 * n * smax * step))
        if abs(fit.s_hat - s_grid[gidx]) > 2.0 * step and F[gidx] - fit.sure_min > 1e-9:
            loc_ok = False

    n_jumps, min_size = 0, math.inf
    fam6 = SoftThreshFamily(6, 1.0)
    for trial in range(200):
        base = 1.5 * rng.standard_normal(6)
        coord = trial % 6
        grid = base[coord] + np.linspace(-4.5, 4.5, 41)
        for jump in scan_jumps(fam6, base, coord, grid):
            n_jumps += 1
            min_size = min(min_size, jump.size)

    # The excess df of the tuned rule, df minus E[count], lies above -4 SE.
    lower_ok = True
    for theta0, seed in ((np.zeros(n), 1017), (theta0_for("weak_sparsity", n), 1018)):
        edf = mc_edf(family, GaussianModel(theta0, sigma=1.0), reps=3000, seed=seed)
        lower_ok = lower_ok and edf.value >= -4.0 * edf.std_error
    return ({"search exact": below and worst_ratio <= 1.0 and loc_ok,
             "jumps nonnegative": n_jumps > 0 and min_size >= -1e-8, "df >= count": lower_ok},
            f"grid gap at {worst_ratio:.2f} of resolution limit, {n_jumps} jumps "
            f"(min size {min_size:.2e}), df lower bound {'holds' if lower_ok else 'fails'}")


def c09_implicit_diff():
    """Implicit-diff edf agrees with closed forms, homo and hetero."""
    rng = np.random.default_rng(1019)
    n, sigma = 15, 1.0
    family = ShrinkMeansFamily(n, sigma)
    numeric_hooks = SmoothFamilyHooks(
        theta=lambda s, y: y / (1.0 + s[..., None]),
        g=lambda s, y: (np.sum((y - y / (1.0 + s[..., None])) ** 2, axis=-1)
                        + 2.0 * sigma**2 * n / (1.0 + s)),
    )
    Y = rng.normal(1.5, sigma, (100, n))
    fit = family.tune_batch(Y)
    used = int(np.isfinite(fit.s_hat).sum())
    target = edf_unbiased_shrink(fit.s_hat)
    worst = max(float(np.max(np.abs(_implicit_diff_stats(hooks, Y, fit.s_hat) - target)))
                for hooks in (family.hooks, numeric_hooks))

    worst_h = 0.0
    for _ in range(50):
        sc = 0.7 + rng.random()
        sigmas = np.full(12, sc)
        y = rng.normal(1.0, sc, 12)
        fit = HeteroShrinkFamily(sigmas).tune(y)
        if not math.isfinite(fit.s_hat) or fit.s_hat <= 0:
            continue
        edf_h = exopt_hetero_shrink(y, sigmas, fit.s_hat) / 2.0
        x = sc**2 * fit.s_hat
        worst_h = max(worst_h, abs(edf_h - 2.0 * x / (1.0 + x)))
    return ({"homo matches": used >= 95 and worst <= 1e-4,
             "equal-sigma matches": worst_h <= 1e-8},
            f"homo max err {worst:.2e} over {used} points, equal-sigma max err {worst_h:.2e}")


def c10_ridge_round_trip():
    """Rotated-family ridge fits equal direct linear solves."""
    rng = np.random.default_rng(1020)
    worst = 0.0
    for _ in range(100):
        n, p = 25, 6
        X = rng.standard_normal((n, p))
        y = X @ rng.standard_normal(p) + rng.standard_normal(n)
        rot = RidgeRotation(X, y, sigma=1.0)
        s = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        candidates = [s]
        fit = rot.tune()
        if math.isfinite(fit.s_hat) and fit.s_hat > 0:
            candidates.append(fit.s_hat)
        for sv in candidates:
            t = rot.penalty_of(sv)
            direct = np.linalg.solve(X.T @ X + t * np.eye(p), X.T @ y)
            worst = max(worst,
                        np.abs(rot.coef(sv) - direct).max(),
                        np.abs(rot.fitted(sv) - X @ direct).max())
    return {"round trip exact": worst <= 1e-8}, f"max deviation {worst:.2e}, limit 1e-8"


def _bootstrap_pass(family, model, seed, reps, B, *names):
    # The pass over `reps` draws from default_rng(seed) with "boot", the
    # parametric bootstrap's (reps, 4) `_bootstrap_stats` block; its row seeds
    # follow `_pass_statistic`'s rule with entropy (seed,).
    return _tuned_stats(family.tune_batch, model, seed, reps, *names,
                        boot=_pass_statistic(family, BootstrapConfig(B=B), (seed,)))


def c11_bootstrap():
    """Parametric bootstrap edf tracks Monte Carlo edf on the null case."""
    n = 50
    family = ShrinkMeansFamily(n, 1.0)
    model = GaussianModel(np.zeros(n), sigma=1.0)
    mc = mc_edf(family, model, reps=4000, seed=1021)
    boot_mean = float(_bootstrap_pass(family, model, 1022, 500, 500)["boot"][:, 0].mean())
    gap = abs(boot_mean - mc.value)

    # Known weakness, recorded without a tolerance: under weak sparsity the
    # bootstrap df (plug-in df plus bootstrap excess) runs below the Monte
    # Carlo df of the tuned rule.
    model_w = GaussianModel(theta0_for("weak_sparsity", n), sigma=1.0)
    df_mc = mc_df(lambda Y: family.tune_batch(Y).theta_hat, model_w, reps=4000, seed=1023)
    weak = _bootstrap_pass(family, model_w, 1024, 100, 200, "naive_df_at_shat")
    wvals = weak["naive_df_at_shat"] + weak["boot"][:, 0]
    return ({"within 0.3 of MC": gap <= 0.3},
            f"boot {boot_mean:.3f} vs MC {mc.value:.3f} (gap {gap:.3f}); recorded: "
            f"weak-sparsity boot df {float(wvals.mean()):.2f} vs MC df {df_mc.value:.2f}")


def c12_gas_stations():
    """Every continuous weight vector admits exactly one valid rotation."""
    rng = np.random.default_rng(1025)
    for trial in range(1000):
        d = 2 + trial % 7
        w = rng.dirichlet(np.ones(d)) * 2.0 * d
        rot = gas_stations_rotation(w)
        starts = []
        for q in range(d):
            pref = np.cumsum(np.roll(w, -q))
            if np.all(pref <= 2.0 * np.arange(1, d + 1) + 1e-9):
                starts.append(q)
        if rot.multiplicity != 1 or len(starts) != 1 or starts[0] != rot.start:
            return {"brute force agrees": False}, f"mismatch at trial {trial}"
    return {"brute force agrees": True}, "brute force agrees"


def _sphere_average_area(center, radius, points, seed):
    """Gaussian surface area as the sphere's area times the mean density on it.

    The density is averaged over `points` uniform unit vectors u, each
    paired with -u; returns the mean and its standard error.
    """
    d = center.shape[0]
    u = np.random.default_rng(seed).standard_normal((points, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    # log(sphere area) + log(normal density normalizer)
    log_scale = (math.log(2.0) + (d / 2.0) * math.log(math.pi) - math.lgamma(d / 2.0)
                 + (d - 1) * math.log(radius) - 0.5 * d * math.log(2.0 * math.pi))

    def density(x):
        return np.exp(log_scale - 0.5 * np.sum(x**2, axis=1))

    mean, se, _ = _mean_se(0.5 * (density(center + radius * u) + density(center - radius * u)))
    return mean, se


def c13_surface_area():
    """Exact off-center surface areas match a sphere average; all are <= 1."""
    worst_z = 0.0
    cases = (
        (np.array([0.6, -0.3]), 1.5),
        (np.array([0.5, 0.2, -0.4]), math.sqrt(6.0)),
        (np.full(7, 0.3), math.sqrt(14.0)),
    )
    for idx, (center, r) in enumerate(cases):
        exact = bounds.gaussian_surface_area_ball(center, r)
        mean, se = _sphere_average_area(center, r, 200_000, (1026, idx))
        worst_z = max(worst_z, abs(exact - mean) / se)
    vmax = max(
        bounds.gaussian_surface_area_ball(scale * np.ones(d) / math.sqrt(d), r)
        for d in (1, 2, 3, 5, 7)
        for r in (0.25, 1.0, math.sqrt(2.0 * d))
        for scale in (0.0, 0.7, 2.0)
    )
    return ({"matches sphere average": worst_z <= 4.0, "all <= 1": vmax <= 1.0},
            f"worst |z| = {worst_z:.2f} (d = 2, 3, 7; limit 4), max value {vmax:.4f}")


def c14_best_subset():
    """All-subset search df on orthogonal X respects the 2.29 p ceiling, and
    the constant is the minimum of the penalty curve: the curve at the
    reported delta equals it to 1e-12 relative, and the curve's slope is
    negative at the double below delta and nonnegative at the double above.
    """
    p, reps = 6, 5000
    family = SubsetCollection(np.eye(p), make_all_subsets(p), 1.0)
    model = GaussianModel(np.zeros(p), sigma=1.0)
    report = mc_edf(family, model, reps=reps, seed=1029)
    const = bounds.best_subset_constant()
    in_band = (-4.0 * report.std_error <= report.value
               <= const.value * p + 4.0 * report.std_error)
    on_curve = math.isclose(bounds.best_subset_penalty_curve(const.delta), const.value,
                            rel_tol=1e-12, abs_tol=0.0)
    at_minimum = (_best_subset_slope(math.nextafter(const.delta, 0.0)) < 0.0
                  <= _best_subset_slope(math.nextafter(const.delta, 1.0)))
    return ({"within 2.29 p": in_band, "on curve": on_curve, "at minimum": at_minimum},
            f"MC search df {report.value:.3f}+-{report.std_error:.3f} vs cap "
            f"{const.value * p:.2f}; constant {const.value:.4f}")


def c15_presets():
    """Paper-scale preset is wired; the smoke grid is complete and stable."""
    paper, smoke = PRESETS["paper-scale"], PRESETS["smoke"]
    structural = (len(paper.sizes) == 10 and paper.sizes[0] == 10
                  and paper.sizes[-1] == 5000 and paper.outer_reps == 5000
                  and paper.bootstrap_B == 1000 and len(paper.setting) == 3
                  and "desk" in PRESETS)
    rows = run_simulation(smoke)
    stable = rows_to_csv_text(rows) == rows_to_csv_text(run_simulation(smoke))
    want = {("edf", m) for m in ("monte_carlo", "unbiased", "implicit_diff",
                                 "bootstrap", "observed_scaled_exopt")}
    want |= {("df", m) for m in ("naive", "unbiased", "monte_carlo",
                                 "bootstrap", "naive_bootstrap")}
    want |= {(q, m) for q in ("err", "err_over_n")
             for m in ("naive", "corrected", "test")}
    cells = {(setting, n): set() for setting in smoke.setting for n in smoke.sizes}
    for r in rows:
        cells.setdefault((r.setting, r.n), set()).add((r.quantity, r.method))
    complete = all(got == want for got in cells.values()) and all(r.status == "ok" for r in rows)
    sing = run_simulation(SimSpec(family="singleton_shrink", setting=("null",),
                                  sizes=(12,), outer_reps=30, bootstrap_B=8, seed=2))
    sing_ok = all(
        (r.status == "skipped") == (r.method == "implicit_diff") for r in sing
    ) and any(r.method == "unbiased" and r.value == 0.0 for r in sing)
    return ({"paper preset wired": structural, "byte-stable": stable, "complete": complete,
             "singleton skips implicit diff": sing_ok},
            f"paper preset {paper.sizes[0]}..{paper.sizes[-1]} x {paper.outer_reps} reps "
            f"B={paper.bootstrap_B} (not run here); smoke grid complete and byte-stable")


CRITERIA = {
    "c01": ("SURE unbiased at fixed s, every family", c01_sure_unbiased),
    "c02": ("tuned shrinkage edf in [0,2], matches unbiased statistic", c02_shrinkage_edf),
    "c03": ("tuned rule dominated by JS+, beats 2n sigma^2", c03_dominance),
    "c04": ("tuned error within oracle error + excess optimism, every family", c04_risk_bound),
    "c05": ("two-model selection edf matches closed form", c05_two_model),
    "c06": ("nested-chain edf within the <10 bound", c06_nested_chains),
    "c07": ("chi-square max bound holds; delta=0.9 constants exact", c07_chi_sq_max),
    "c08": ("soft-threshold search exact, jumps nonnegative, df >= count", c08_soft_threshold),
    "c09": ("implicit-diff edf matches closed forms", c09_implicit_diff),
    "c10": ("ridge-as-shrinkage round trip exact", c10_ridge_round_trip),
    "c11": ("bootstrap edf within 0.3 of MC edf (null case)", c11_bootstrap),
    "c12": ("gas-stations rotation unique on 1000 random tours", c12_gas_stations),
    "c13": ("exact surface areas vs sphere average, all <= 1", c13_surface_area),
    "c14": ("orthogonal best-subset search df within 2.29 p", c14_best_subset),
    "c15": ("presets wired (paper scale long-running; desk/smoke gate)", c15_presets),
}


def run_all(stream=None, only=None):
    """Run the battery (optionally one criterion); returns all results.

    A criterion passes when every clause it returns holds.  One that raises
    fails with the single clause "ran" false and the exception as its
    detail, and the battery goes on to the next.
    """
    if only is not None and only not in CRITERIA:
        raise DomainError(f"no criterion named {only!r}")
    results = []
    for cid in CRITERIA if only is None else (only,):
        description, criterion = CRITERIA[cid]
        try:
            clauses, detail = criterion()
        except Exception as exc:
            clauses, detail = {"ran": False}, f"raised {type(exc).__name__}: {exc}"
        clauses = {name: bool(holds) for name, holds in clauses.items()}
        res = CriterionResult(cid, description, all(clauses.values()), detail, clauses)
        results.append(res)
        if stream is not None:
            stream.write(f"[{'PASS' if res.passed else 'FAIL'}] {cid} {description}: {detail}\n")
    return results
