"""Output checks for the benchmark workloads.

Every check returns a mapping from operation key to a list of failure
messages; an empty list means the operation's output passed.  The checks
are pure functions of the outputs and their references so that the
benchmark's tests can feed them perturbed outputs.

Simulation CSVs (`desk`, `paper-n5000`): on the default seed every cell's
rows must byte-match the recorded rows.  On every seed the rows must have
the recorded structure and satisfy identities that hold whatever the draws:

    edf.implicit_diff == edf.unbiased        (shrink_means, printed digits)
    df.unbiased  == df.naive + edf.unbiased
    df.bootstrap == df.naive + edf.bootstrap
    df.monte_carlo == df.naive + edf.monte_carlo
    err_over_n.* == err.* / n
    |edf.monte_carlo - edf.unbiased| <= 4 SE(edf.monte_carlo)

Library calls (`library-mix`): on the default seed each deterministic
result must match its recorded value to 1e-12 relative, and the Monte
Carlo bound values within 4 of the recorded standard errors.  On every seed
each Monte Carlo estimate must lie within 4 combined standard errors of an
independent reference for the same model, and each deterministic result
must pass a check computed here without the package.
"""

import math

import numpy as np

SE_MULT = 4.0
DET_RTOL = 1e-12
# The CSV prints 12 significant digits; two values that agree before
# printing may still differ by one unit in the last printed place.
PRINTED_RTOL = 1e-11
IDENTITY_RTOL = 1e-10

CSV_HEADER = "family,setting,n,quantity,method,value,std_error,reps,status"


def rel_close(a, b, rtol):
    if a == b:
        return True
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def within_se(value, ref, se, ref_se=0.0, slack=0.0):
    return abs(value - ref) <= SE_MULT * math.hypot(se, ref_se) + slack


# --------------------------------------------------------------------------
# Simulation CSV


def parse_sim_csv(text):
    """Split CSV text into {cell: {(quantity, method): row}} plus cell order.

    A cell is (family, setting, n); each row keeps its raw line and parsed
    fields so checks can compare bytes and numbers.
    """
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or wrong CSV header")
    cells = {}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 9:
            raise ValueError(f"malformed CSV row {line!r}")
        family, setting, n, quantity, method, value, se, reps, status = parts
        row = {
            "line": line,
            "n": int(n),
            "value": float(value) if value else None,
            "se": float(se) if se else None,
            "reps": int(reps),
            "status": status,
        }
        cells.setdefault((family, setting, int(n)), {})[(quantity, method)] = row
    return cells


def _structure(rows):
    return [(key, r["reps"], r["status"]) for key, r in rows.items()]


def _cell_invariants(family, rows):
    fails = []

    def ok(key):
        r = rows.get(key)
        return r is not None and r["status"] == "ok" and r["value"] is not None

    for key, r in rows.items():
        if r["status"] == "ok":
            if r["value"] is None or not math.isfinite(r["value"]):
                fails.append(f"{key} value is not finite")
            if r["se"] is None or not r["se"] >= 0.0 or not math.isfinite(r["se"]):
                fails.append(f"{key} std_error is not a finite nonnegative number")
    if fails:
        return fails

    def val(key):
        return rows[key]["value"]

    if family == "shrink_means":
        imp, unb = rows.get(("edf", "implicit_diff")), rows.get(("edf", "unbiased"))
        if not (ok(("edf", "implicit_diff")) and ok(("edf", "unbiased"))):
            fails.append("shrink_means cell lacks edf.implicit_diff or edf.unbiased")
        elif not (rel_close(imp["value"], unb["value"], PRINTED_RTOL)
                  and rel_close(imp["se"], unb["se"], PRINTED_RTOL)):
            fails.append(
                f"edf.implicit_diff {imp['value']!r} differs from edf.unbiased {unb['value']!r}"
            )

    for method in ("unbiased", "bootstrap", "monte_carlo"):
        df_key, edf_key = ("df", method), ("edf", method)
        if ok(df_key) and ok(edf_key) and ok(("df", "naive")):
            want = val(("df", "naive")) + val(edf_key)
            if not rel_close(val(df_key), want, IDENTITY_RTOL) and abs(val(df_key) - want) > 1e-11:
                fails.append(f"df.{method} {val(df_key)!r} != df.naive + edf.{method} {want!r}")

    for (quantity, method), r in rows.items():
        if quantity != "err_over_n" or not ok((quantity, method)):
            continue
        base = rows.get(("err", method))
        if base is None or base["value"] is None:
            fails.append(f"err_over_n.{method} has no err.{method} row")
            continue
        if not (rel_close(r["value"], base["value"] / r["n"], PRINTED_RTOL)
                and rel_close(r["se"], base["se"] / r["n"], PRINTED_RTOL)):
            fails.append(f"err_over_n.{method} is not err.{method} / n")

    if ok(("edf", "monte_carlo")) and ok(("edf", "unbiased")):
        mc = rows[("edf", "monte_carlo")]
        if not within_se(mc["value"], val(("edf", "unbiased")), mc["se"]):
            fails.append(
                f"edf.monte_carlo {mc['value']!r} is more than {SE_MULT:g} SE "
                f"({mc['se']!r}) from edf.unbiased {val(('edf', 'unbiased'))!r}"
            )
    return fails


def check_sim_csv(text, reference_text, default_seed):
    """Check simulation CSV text cell by cell against the reference."""
    ref = parse_sim_csv(reference_text)
    result = {cell: [] for cell in ref}
    try:
        got = parse_sim_csv(text)
    except ValueError as exc:
        return {cell: [f"unparsable output: {exc}"] for cell in ref}
    if list(got) != list(ref):
        extra = [c for c in got if c not in ref]
        for cell in ref:
            result[cell].append("grid cells differ from the reference grid")
        if extra:
            result[next(iter(ref))].append(f"unexpected cells {extra}")
        return result
    for cell, ref_rows in ref.items():
        rows = got[cell]
        if _structure(rows) != _structure(ref_rows):
            result[cell].append("rows differ in shape (quantity, method, reps, status)")
            continue
        if default_seed:
            for key, r in rows.items():
                if r["line"] != ref_rows[key]["line"]:
                    result[cell].append(f"{key} row differs from the recorded row")
        result[cell].extend(_cell_invariants(cell[0], rows))
    return result


# --------------------------------------------------------------------------
# Library calls


def surface_area_exact(center, radius):
    """Gaussian surface area of a sphere: 2 r f_{chi2_d(|c|^2)}(r^2)."""
    from scipy.stats import chi2, ncx2

    center = np.asarray(center, dtype=float)
    d = center.shape[0]
    nonc = float(center @ center)
    dist = ncx2(d, nonc) if nonc > 0 else chi2(d)
    return 2.0 * radius * float(dist.pdf(radius**2))


def general_theta_exact(mu):
    """Windowed and pairwise nested-chain bounds with exact geometry."""
    from scipy.stats import chi2, ncx2

    mu = np.asarray(mu, dtype=float)
    p = mu.shape[0]

    def area(window):
        return surface_area_exact(window, math.sqrt(2.0 * window.shape[0]))

    windowed = 0.0
    for d in range(1, p + 1):
        best = max(area(mu[j : j + d]) for j in range(p - d + 1))
        windowed += math.sqrt(2.0 * d) * (d + 1) * best

    def prob(df, nonc, threshold, upper):
        if df == 0:
            return 1.0
        dist = ncx2(df, nonc) if nonc > 0 else chi2(df)
        return float(dist.sf(threshold) if upper else dist.cdf(threshold))

    low = [prob(j, float(mu[:j] @ mu[:j]), 2.0 * (j - 1), True) for j in range(p + 1)]
    high = [prob(p - k, float(mu[k:] @ mu[k:]), 2.0 * (p - k), False) for k in range(p + 1)]
    alternate = 0.0
    for j in range(p + 1):
        for k in range(j + 1, p + 1):
            alternate += math.sqrt(2.0 * (k - j)) * low[j] * high[k] * area(mu[j:k])
    return windowed, alternate


def hetero_sure(w, sig2, s):
    """Scaled SURE of per-coordinate shrinkage w_i/(1 + sig2_i s)."""
    if math.isinf(s):
        return float(np.sum(w**2 / sig2))
    u = sig2 * s
    return float(np.sum(w**2 * sig2 * s**2 / (1.0 + u) ** 2) + 2.0 * np.sum(1.0 / (1.0 + u)))


def _mc_fields(out, reps):
    fails = []
    if out.get("reps") != reps:
        fails.append(f"reps {out.get('reps')!r} != {reps}")
    if not (math.isfinite(out.get("value", math.nan)) and out.get("se", -1.0) > 0.0):
        fails.append("value is not finite or std_error is not positive")
    return fails


def _mc_vs_reference(out, ref, reps):
    fails = _mc_fields(out, reps)
    if not fails and not within_se(out["value"], ref["value"], out["se"], ref["se"]):
        fails.append(
            f"value {out['value']!r} (SE {out['se']!r}) is more than {SE_MULT:g} combined SE "
            f"from the reference {ref['value']!r} (SE {ref['se']!r})"
        )
    return fails


def check_hetero_mc(out, ctx):
    return _mc_vs_reference(out, ctx["refs"]["hetero_mc"], ctx["sizes"]["hetero_reps"])


def check_ridge(out, ctx):
    inp = ctx["inputs"]
    fails = []
    d = np.sort(np.asarray(out["d"]))
    if d.shape != inp["ridge_d"].shape or not np.allclose(d, np.sort(inp["ridge_d"]),
                                                         rtol=1e-9, atol=0.0):
        fails.append("singular values differ from the designed spectrum")
    sigma = inp["ridge_sigma"]
    sig2 = (sigma / inp["ridge_d"]) ** 2
    w = (inp["ridge_U"].T @ inp["ridge_y"]) / inp["ridge_d"]
    s_hat, sure_min = out["s_hat"], out["sure_min"]
    if not (s_hat >= 0.0):
        fails.append(f"s_hat {s_hat!r} is not a tuning value")
        return fails
    scale = max(1.0, abs(sure_min))
    if abs(hetero_sure(w, sig2, s_hat) - sure_min) > 1e-9 * scale:
        fails.append("sure_min is not the criterion at s_hat")
    grid = np.concatenate([[0.0], np.geomspace(1e-8, 1e12, 4001) / float(np.mean(sig2))])
    best = min(min(hetero_sure(w, sig2, s) for s in grid), hetero_sure(w, sig2, math.inf))
    if sure_min > best + 1e-9 * scale:
        fails.append(f"sure_min {sure_min!r} exceeds a dense-grid value {best!r}")
    X, y = inp["ridge_X"], inp["ridge_y"]
    coef = np.asarray(out["coef"])
    if math.isinf(s_hat):
        resid = float(np.max(np.abs(coef)))
    else:
        t = sigma**2 * s_hat
        lhs = X.T @ (X @ coef) + t * coef
        resid = float(np.linalg.norm(lhs - X.T @ y) / np.linalg.norm(X.T @ y))
    if resid > 1e-8:
        fails.append(f"ridge coefficients miss the normal equations (residual {resid:.3g})")
    fails += _mc_vs_reference(out["mc"], ctx["refs"]["ridge_mc"], ctx["sizes"]["ridge_reps"])
    return fails


def check_bootstrap(out, ctx):
    B = ctx["sizes"]["boot_B"]
    fails = _mc_fields(out, B)
    cross = ctx["boot_cross"]
    if "error" in cross:
        return fails + [cross["error"]]
    # The parametric bootstrap centres its covariance form on the replicate
    # mean, which lowers its expectation by df/B <= n/B; the cross estimate
    # is Monte Carlo around the same fitted mean.
    slack = ctx["sizes"]["hetero_n"] / B
    if not fails and not within_se(out["value"], cross["value"], out["se"], cross["se"], slack):
        fails.append(
            f"bootstrap edf {out['value']!r} (SE {out['se']!r}) disagrees with Monte Carlo "
            f"{cross['value']!r} (SE {cross['se']!r}) around the same fit"
        )
    return fails


def check_general_theta(out, ctx):
    mu = ctx["inputs"]["gtb_mu"]
    p = mu.shape[0]
    fails = []
    if out["p"] != p or not rel_close(out["cap"], math.sqrt(2.0 * p) * p * (p + 1), DET_RTOL):
        fails.append("p or cap differ from sqrt(2p) p (p+1)")
    windowed, alternate = ctx["gtb_exact"]
    for field, exact in (("windowed", windowed), ("alternate", alternate)):
        se = out.get(field + "_se", 0.0)
        if not within_se(out[field], exact, se, slack=1e-9 * abs(exact)):
            fails.append(f"{field} {out[field]!r} (SE {se!r}) is off the exact value {exact!r}")
    return fails


def check_nested(out, ctx):
    p = ctx["sizes"]["nested_p"]
    fails = []
    if list(out["ranks"]) != list(range(p + 1)):
        fails.append("nested chain ranks are not 0..p")
    fails += _mc_vs_reference(out["mc"], ctx["refs"]["nested_mc"], ctx["sizes"]["nested_reps"])
    return fails


def check_soft_mc(out, ctx):
    return _mc_vs_reference(out, ctx["refs"]["soft_mc"], ctx["sizes"]["soft_reps"])


LIBRARY_CHECKS = {
    "hetero_mc": check_hetero_mc,
    "ridge": check_ridge,
    "bootstrap": check_bootstrap,
    "general_theta": check_general_theta,
    "nested": check_nested,
    "soft_mc": check_soft_mc,
}

# Monte Carlo results that exact Gaussian geometry may replace: compared
# with the recorded value within its recorded SE, not to 1e-12.
MC_BOUND_FIELDS = {"general_theta": ("windowed", "alternate")}


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _flatten(val, f"{prefix}{key}.")
    elif isinstance(obj, (list, tuple)):
        for i, val in enumerate(obj):
            yield from _flatten(val, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), obj


def _seed_reference_fails(op, out, ref):
    fails = []
    mc_fields = MC_BOUND_FIELDS.get(op, ())
    got = dict(_flatten(out))
    for key, want in _flatten(ref):
        if key.endswith("_se") and key[: -len("_se")] in mc_fields:
            continue
        if key not in got:
            fails.append(f"{key} missing")
        elif key in mc_fields:
            if not within_se(got[key], want, ref[key + "_se"]):
                fails.append(f"{key} {got[key]!r} is more than {SE_MULT:g} recorded SE from {want!r}")
        elif isinstance(want, float):
            if not rel_close(got[key], want, DET_RTOL):
                fails.append(f"{key} {got[key]!r} != recorded {want!r}")
        elif got[key] != want:
            fails.append(f"{key} {got[key]!r} != recorded {want!r}")
    return fails


def check_library_mix(outputs, ctx, seed_reference=None):
    """Check each library call; `seed_reference` holds default-seed results."""
    result = {}
    for op, check in LIBRARY_CHECKS.items():
        out = outputs.get(op)
        if out is None:
            result[op] = ["no output"]
            continue
        if "error" in out:
            result[op] = [out["error"]]
            continue
        try:
            fails = check(out, ctx)
        except (KeyError, TypeError, ValueError) as exc:
            fails = [f"malformed output: {exc!r}"]
        if seed_reference is not None:
            fails += _seed_reference_fails(op, out, seed_reference[op])
        result[op] = fails
    return result
