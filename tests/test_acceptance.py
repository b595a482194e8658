"""Run every gating criterion and pin its expected outcome.

All criteria are expected green except c03, which is red on purpose.  Its
dominance clause asks the positive-part James-Stein rule never to lose to
the tuned shrinkage fit, but at a zero mean both losses are functions of
W = ||Y||^2 alone and compare pointwise as

    (W - (n-2))_+^2 / W  >=  (W - n)_+^2 / W,

so the tuned rule, which shrinks by the larger constant n, wins at every
single sample point.  The measured gap sits around +57 standard errors;
no replication budget or tolerance can flip a pointwise inequality, so the
criterion is recorded as failing rather than weakened until it passes.
"""

import hashlib
import io

import numpy as np
import pytest

from suretune import (RidgeRotation, ShrinkMeansFamily, SoftThreshFamily, StationarityError,
                      TunedBatch, acceptance, bootstrap, bounds)
from suretune.acceptance import CRITERIA, run_all
from suretune.shrinkage import _tuned_shrink

EXPECTED = {
    "c01": True,   # SURE unbiased for prediction error at fixed tuning
    "c02": True,   # analytic shrinkage edf matches Monte Carlo
    "c03": False,  # see module docstring: pointwise-impossible at the null
    "c04": True,   # tuned error within oracle error + excess optimism, every family
    "c05": True,   # two-model Cp edf matches the exact formula
    "c06": True,   # nested-chain edf under the sharpened null bound
    "c07": True,   # chi-square max bound dominates simulation
    "c08": True,   # soft threshold: jumps nonnegative, df lower bound
    "c09": True,   # implicit-diff edf agrees with unbiased statistic
    "c10": True,   # ridge rotation reproduces direct solves
    "c11": True,   # bootstrap edf centered and corrected error calibrated
    "c12": True,   # gas-stations rotation existence and uniqueness
    "c13": True,   # exact surface areas match an independent sphere average
    "c14": True,   # best-subset constant and penalty curve
    "c15": True,   # simulation presets wired and byte-stable
}


# sha256 of each printed "[TAG] cid description: detail" line, the same line
# `suretune selfcheck` prints.  Every criterion has a fixed seed, so a change
# in any printed digit is a change in the package's output: it fails here
# rather than first in the benchmark's output checks.  A deliberate change
# updates the pin from the line the failing assertion shows.  Digits at
# rounding level (c09's and c10's errors) may differ on other BLAS builds.
LINE_SHA256 = {
    "c01": "1ae8f9769c091c7d2f98fd719628382a8c919f707e7b789b3a9b8a68c63e19f3",
    "c02": "c7289cb8feb5df8e3f51e92f2b9f6e4a7d6d480b595eafcb273493c945b4c890",
    "c03": "36b177f0158169b7493c40ec8fe2ed0abaf1dc29d03bfdfeec14f6c20282f02c",
    "c04": "0682b64dab5337ba52be4009bc4d271a5a5efea07172c1d11238de4892d12a26",
    "c05": "fb760a54e4a45afeaad38a1748b0074a9b2e7480578fdf6a9d8a920a004c7d1a",
    "c06": "5b7ae3d5c5df8ccedb42e62cabf54cc3ff232df304e5f57987cce80204d5d3e6",
    "c07": "9312d0d6b0babfba466349f8fb384d5cca045294e0e79142b58b6b19c40f47cc",
    "c08": "b347be19fc88ee0b1ee12126f15e50b0c97712bdb160dcc16dd2b3f0b278244b",
    "c09": "8c418fbeaae2f5dd22c7843b72391f6a9a0fb261fbe55ac45cd7c5a495155a93",
    "c10": "4cd9d27d2942e0a8d2ee5f25fbb9ca3536112ed87c8b9300bc7d8dc2c7f6aebe",
    "c11": "36b0fdd0a153d922ed4dc987ac7e8af6c4f60caa9da3f5d6573ff20f3693cb28",
    "c12": "f2f379ea0ef56ce038389de83464dd97e308dc28f2a09d6c7af4e8adbfb7adab",
    "c13": "03382ccd5ed8908a418e39a4a3659e5a983edb8b48d67921222b63ef9afe0acd",
    "c14": "e102e56fb20adbf4d31ff83040c8e4fc4f85e0ab236724ac305bd3b36ae70f1c",
    "c15": "acbfea4396ec854c0962ea72db5f5b11fa483bfc1c4ce5ae97d6180e4ba325ff",
}


def _run(cid, stream=None):
    (res,) = run_all(stream=stream, only=cid)
    return res


def test_expectations_cover_the_battery():
    assert set(CRITERIA) == set(EXPECTED) == set(LINE_SHA256)


@pytest.mark.parametrize("cid", list(CRITERIA))
def test_criterion(cid):
    stream = io.StringIO()
    res = _run(cid, stream)
    line = stream.getvalue().removesuffix("\n")
    print(line)
    assert type(res.passed) is bool and res.passed == all(res.clauses.values())
    assert res.passed == EXPECTED[cid], f"{cid}: {res.detail}"
    assert hashlib.sha256(line.encode()).hexdigest() == LINE_SHA256[cid], line


def test_c03_fails_for_the_documented_reason():
    # Only the null cell's dominance clause is red; every other holds.
    res = _run("c03")
    assert {name for name, holds in res.clauses.items() if not holds} == {"null JS+ never loses"}


def test_run_all_filter_returns_single_result():
    results = run_all(only="c12")
    assert len(results) == 1
    assert results[0].cid == "c12"
    assert results[0].passed


def test_run_all_reports_a_raising_criterion_and_goes_on(monkeypatch):
    def raises():
        raise ValueError("planted")

    monkeypatch.setattr(acceptance, "CRITERIA", {
        "c01": ("raises", raises), "c02": ("holds", lambda: ({"holds": True}, "fine"))})
    stream = io.StringIO()
    results = run_all(stream=stream)
    assert [(r.cid, r.passed, r.clauses) for r in results] == [
        ("c01", False, {"ran": False}), ("c02", True, {"holds": True})]
    assert stream.getvalue() == ("[FAIL] c01 raises: raised ValueError: planted\n"
                                 "[PASS] c02 holds: fine\n")


def test_c09_fails_when_the_shrink_tuner_uses_the_js_constant(monkeypatch):
    # With JS+'s n - 2 in place of n the tuned s is not SURE's stationary point.
    monkeypatch.setattr(ShrinkMeansFamily, "_tuned", lambda self, Y, sigma: _tuned_shrink(
        np.einsum("ij,ij->i", Y, Y), self.n - 2, sigma, Y))
    res = _run("c09")
    assert res.clauses == {"ran": False}
    assert res.detail.startswith(f"raised {StationarityError.__name__}: row "), res.detail


def _second_best_soft_threshold(Y, sigma):
    """SoftThreshFamily's tuner with the runner-up candidate in place of the minimum."""
    reps, n = Y.shape
    a = np.concatenate([np.sort(np.abs(Y), axis=1)[:, ::-1], np.zeros((reps, 1))], axis=1)
    k = np.arange(1, n + 2)
    F = k * a**2 + (np.cumsum(a[:, ::-1] ** 2, axis=1)[:, ::-1] - a**2) + 2.0 * sigma**2 * (k - 1)
    pick, rows = np.argsort(F, axis=1, kind="stable")[:, 1], np.arange(reps)
    s_hat = a[rows, pick]
    theta = np.sign(Y) * np.maximum(np.abs(Y) - s_hat[:, None], 0.0)
    return TunedBatch(s_hat=s_hat, theta_hat=theta, sure_min=F[rows, pick],
                      naive_df_at_shat=pick.astype(float))


def _patched(owner, name, wrap):
    """A plant that replaces `owner.name` by `wrap(real)`."""
    real = getattr(owner, name)
    return lambda monkeypatch: monkeypatch.setattr(owner, name, wrap(real))


def _scaled(owner, name, factor):
    """A plant that multiplies whatever `owner.name` returns by `factor`."""
    return _patched(owner, name,
                    lambda real: lambda *args, **kwargs: factor * real(*args, **kwargs))


_SECOND_BEST_SOFT_THRESHOLD = _patched(
    SoftThreshFamily, "_tuned", lambda real: staticmethod(_second_best_soft_threshold))


def _start_off_by_one(real):
    def rotation(w):
        rot = real(w)
        return bounds.GasStationsRotation(start=(rot.start + 1) % len(w),
                                          multiplicity=rot.multiplicity)
    return rotation


def _constant_three_per_mille_high(real):
    def constant():
        exact = real()
        return bounds.BestSubsetConstant(value=1.003 * exact.value, delta=exact.delta,
                                         half_value=1.003 * exact.half_value)
    return constant


# One planted defect per green criterion, and the named clause it turns red.
# `acceptance` imports most names into its own namespace, so each plant
# patches the name where the battery reads it.
PLANTED = {
    "c01": (_scaled(ShrinkMeansFamily, "naive_df", 1.1), "within 4 SE"),
    "c02": (_scaled(ShrinkMeansFamily, "edf_unbiased", 1.1), "matches unbiased"),
    "c04": (_SECOND_BEST_SOFT_THRESHOLD, "soft_threshold (c)"),
    "c05": (_scaled(acceptance, "edf_two_model_exact", 1.05), "m=0 exact value"),
    "c07": (_scaled(acceptance, "edf_upper_bound_simplified", 1.001), "constants exact"),
    "c08": (_SECOND_BEST_SOFT_THRESHOLD, "search exact"),
    "c09": (_scaled(acceptance, "edf_unbiased_shrink", 1.1), "homo matches"),
    "c10": (_scaled(RidgeRotation, "penalty_of", 1.0001), "round trip exact"),
    "c11": (_scaled(bootstrap, "_noise_sd", 1.15), "within 0.3 of MC"),
    "c12": (_patched(acceptance, "gas_stations_rotation", _start_off_by_one),
            "brute force agrees"),
    "c13": (_scaled(bounds, "gaussian_surface_area_ball", 1.01), "matches sphere average"),
    "c14": (_patched(bounds, "best_subset_constant", _constant_three_per_mille_high),
            "on curve"),
    "c15": (_patched(acceptance, "run_simulation", lambda real: lambda spec: real(spec)[:-1]),
            "complete"),
}


def test_every_green_criterion_but_c06_has_a_planted_defect():
    assert set(PLANTED) == {cid for cid, passes in EXPECTED.items() if passes} - {"c06"}


@pytest.mark.parametrize("cid", list(PLANTED))
def test_planted_defect_turns_its_clause_red(cid, monkeypatch):
    plant, clause = PLANTED[cid]
    plant(monkeypatch)
    res = _run(cid)
    assert res.clauses[clause] is False, res.detail
    assert res.passed is False


@pytest.mark.xfail(strict=True, reason=(
    "c06 cannot see a halved bound: its Monte Carlo edf of 1.2-1.5 stays under "
    "bounds of 1.9-4.4; ROADMAP item 3's exact null edf gives it a clause that can"))
def test_c06_fails_when_the_nested_bound_is_halved(monkeypatch):
    _scaled(acceptance, "nested_null_edf_bound", 0.5)(monkeypatch)
    res = _run("c06")
    assert res.clauses["p=5 under bound"] is False, res.detail
