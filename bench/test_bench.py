"""Tests for the benchmark itself: every output check must be able to fail.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import suretune as st  # noqa: E402
import suretune.cli  # noqa: E402,F401

import checks  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wls  # noqa: E402

DESK = (wls.REFERENCE / "desk_seed0.csv").read_text(encoding="ascii")
PAPER = (wls.REFERENCE / "paper_n5000_seed0.csv").read_text(encoding="ascii")


def edit_row(text, setting, n, quantity, method, field, fn):
    """Apply fn to one numeric field (value=5, std_error=6) of one CSV row."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        parts = line.split(",")
        if parts[1:5] == [setting, str(n), quantity, method]:
            col = {"value": 5, "std_error": 6}[field]
            parts[col] = f"{fn(float(parts[col])):.12g}"
            lines[i] = ",".join(parts)
            return "\n".join(lines) + "\n"
    raise AssertionError("row not found")


def flagged(result, cell=None):
    return any(result[cell]) if cell else any(any(v) for v in result.values())


@pytest.mark.parametrize("text", [DESK, PAPER])
@pytest.mark.parametrize("default_seed", [True, False])
def test_recorded_csv_passes(text, default_seed):
    assert not flagged(checks.check_sim_csv(text, text, default_seed))


@pytest.mark.parametrize("quantity,method,field,fn", [
    ("edf", "implicit_diff", "value", lambda v: v * 1.0001),
    ("edf", "implicit_diff", "std_error", lambda v: v * 1.0001),
    ("df", "unbiased", "value", lambda v: v + 1e-6),
    ("df", "bootstrap", "value", lambda v: v + 1e-6),
    ("df", "monte_carlo", "value", lambda v: v - 1e-6),
    ("err_over_n", "test", "value", lambda v: v * 1.001),
    ("edf", "monte_carlo", "value", None),
    ("edf", "bootstrap", "value", lambda v: math.nan),
])
@pytest.mark.parametrize("text", [DESK, PAPER])
def test_invariants_flag_perturbed_rows(text, quantity, method, field, fn):
    setting, n = "weak_sparsity", int(text.splitlines()[-1].split(",")[2])
    if fn is None:
        # Move the Monte Carlo edf 5 of its SEs away from the unbiased edf.
        rows = checks.parse_sim_csv(text)[("shrink_means", setting, n)]
        se = rows[("edf", "monte_carlo")]["se"]
        target = rows[("edf", "unbiased")]["value"] + 5 * se
        fn = lambda v: target  # noqa: E731
    bad = edit_row(text, setting, n, quantity, method, field, fn)
    result = checks.check_sim_csv(bad, text, default_seed=False)
    assert flagged(result, ("shrink_means", setting, n))
    assert sum(bool(v) for v in result.values()) == 1


def test_default_seed_flags_any_changed_byte():
    bad = edit_row(DESK, "null", 10, "err", "test", "value", lambda v: v * (1 + 1e-11))
    assert bad != DESK
    assert not flagged(checks.check_sim_csv(bad, DESK, default_seed=False))
    assert flagged(checks.check_sim_csv(bad, DESK, default_seed=True), ("shrink_means", "null", 10))


@pytest.mark.parametrize("mutate", [
    lambda lines: lines[:-1],                                   # a row dropped
    lambda lines: lines[:1] + lines[2:] + lines[1:2],           # rows reordered
    lambda lines: [l.replace(",1000,ok", ",999,ok") for l in lines],  # reps changed
    lambda lines: ["family,setting"] + lines[1:],               # header broken
])
def test_structure_changes_are_flagged(mutate):
    bad = "\n".join(mutate(DESK.splitlines())) + "\n"
    assert flagged(checks.check_sim_csv(bad, DESK, default_seed=False))


@pytest.fixture(scope="module")
def library():
    lib = wls.LibraryMix(st, wls.DEFAULT_SEED)
    good = json.loads(json.dumps(lib.reference["seed_results"]))
    return lib, good, lib.check_context


def test_recorded_library_results_pass(library):
    lib, good, ctx = library
    assert not flagged(checks.check_library_mix(good, ctx, lib.reference["seed_results"]))
    assert not flagged(checks.check_library_mix(good, ctx, None))


def shift_se(field="value", se="se", k=10.0):
    def fn(out):
        out[field] += k * out[se]
    return fn


@pytest.mark.parametrize("op,perturb", [
    ("hetero_mc", shift_se()),
    ("hetero_mc", lambda o: o.update(reps=1999)),
    ("ridge", lambda o: o.update(s_hat=o["s_hat"] * 1.5)),
    ("ridge", lambda o: o.update(sure_min=o["sure_min"] + 1e-3)),
    ("ridge", lambda o: o["coef"].__setitem__(3, o["coef"][3] * 1.01)),
    ("ridge", lambda o: o["d"].__setitem__(0, o["d"][0] * 1.01)),
    ("ridge", lambda o: shift_se()(o["mc"])),
    ("bootstrap", shift_se()),
    ("bootstrap", lambda o: o.update(se=0.0)),
    ("general_theta", shift_se("windowed", "windowed_se")),
    ("general_theta", shift_se("alternate", "alternate_se")),
    ("general_theta", lambda o: o.update(cap=o["cap"] + 1.0)),
    ("nested", lambda o: o["ranks"].__setitem__(5, 4)),
    ("nested", lambda o: shift_se()(o["mc"])),
    ("soft_mc", shift_se()),
    ("soft_mc", lambda o: o.update(value=math.inf)),
    ("soft_mc", lambda o: o.clear() or o.update(error="RuntimeError: boom")),
])
def test_library_checks_flag_perturbed_results(library, op, perturb):
    lib, good, ctx = library
    bad = json.loads(json.dumps(good))
    perturb(bad[op])
    for seed_ref in (None, lib.reference["seed_results"]):
        result = checks.check_library_mix(bad, ctx, seed_ref)
        assert result[op], (op, result)
        assert not any(v for k, v in result.items() if k != op)


def test_exact_general_theta_tracks_monte_carlo(library):
    lib, good, ctx = library
    windowed, alternate = checks.general_theta_exact(lib.inputs["gtb_mu"])
    out = good["general_theta"]
    assert abs(out["windowed"] - windowed) < 4 * out["windowed_se"]
    assert abs(out["alternate"] - alternate) < 4 * out["alternate_se"]
    origin = checks.surface_area_exact(np.zeros(3), math.sqrt(6.0))
    assert origin == pytest.approx(st.gaussian_surface_area_ball(np.zeros(3), math.sqrt(6.0)).value,
                                   rel=1e-12)


def test_seed_changes_library_inputs():
    a, b = wls.make_library_inputs(1), wls.make_library_inputs(2)
    assert not np.array_equal(a["ridge_X"], b["ridge_X"])
    assert np.array_equal(a["ridge_X"], wls.make_library_inputs(1)["ridge_X"])


def test_tracer_restores_everything():
    before = (st.simulate._bootstrap_stats, st.bootstrap._bootstrap_stats,
              st.core.GaussianModel.__dict__["draw"], st.ShrinkMeansFamily.__dict__["tune_batch"],
              st.cli.main, st.mc_edf)
    t = tr.Tracer(st)
    t.install()
    assert st.simulate._bootstrap_stats is st.bootstrap._bootstrap_stats is not before[0]
    t.uninstall()
    after = (st.simulate._bootstrap_stats, st.bootstrap._bootstrap_stats,
             st.core.GaussianModel.__dict__["draw"], st.ShrinkMeansFamily.__dict__["tune_batch"],
             st.cli.main, st.mc_edf)
    assert all(x is y for x, y in zip(before, after))
    assert t.absent == []


def test_tracer_reports_absent_targets(monkeypatch):
    monkeypatch.delattr(st.bootstrap, "_bootstrap_stats")
    monkeypatch.delattr(st.simulate, "_bootstrap_stats")
    t = tr.Tracer(st)
    t.install()
    try:
        theta0, sigmas = wls.hetero_model()
        st.mc_edf(st.HeteroShrinkFamily(sigmas), st.GaussianModel(theta0, sigmas=sigmas),
                  reps=3, seed=0)
    finally:
        t.uninstall()
    assert t.absent == ["bootstrap._bootstrap_stats"]
    assert "bootstrap.stats_calls" in tr.absent_metrics(t.absent)
    assert tr.layer_metrics(t.spans)["bootstrap.stats_calls"] == 0


def test_traced_spans_give_layer_counts():
    t = tr.Tracer(st)
    t.install()
    try:
        text = wls.run_cli(st, ["--seed", "4", "simulate",
                                "--config", str(HERE / "warmup.cfg")])
        theta0, sigmas = wls.hetero_model()
        st.mc_edf(st.HeteroShrinkFamily(sigmas), st.GaussianModel(theta0, sigmas=sigmas),
                  reps=5, seed=0)
    finally:
        t.uninstall()
    m = tr.layer_metrics(t.spans)
    cells, reps, B = 2 * 3, 2, 2
    assert text.startswith(checks.CSV_HEADER)
    assert m["bootstrap.stats_calls"] == cells * reps
    assert m["bootstrap.draw_bytes"] == 8 * B * reps * 2 * (10 + 200 + 5000)
    # One tune_batch per cell, then per bootstrap call a one-row fit and a refit.
    assert m["shrinkage.tune_batch_calls"] == cells * (1 + 2 * reps)
    assert m["stein.scalar_tunes_per_row"] == 1.0
    assert m["core.draw_values"] == 2 * reps * 2 * (10 + 200 + 5000) + 5 * 50
    assert 0 < m["cli.self_s"] < m["cli.main_s"]
    assert 0 < m["simulate.self_s"] < m["simulate.run_s"] <= m["cli.main_s"]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_traced_run_reports_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "library-mix",
                           "--seed", "5", "--seconds", "0", "--trace", "1"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 12
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["stein.scalar_tunes_per_row"]["value"] == 1.0
    assert result["metrics"]["bounds.mc_directions"]["value"] > 0


def test_raising_or_unrepeatable_bodies_count_as_failed_ops():
    import run

    class Broken:
        ops_per_body = 9

        def body(self):
            raise RuntimeError("boom")

    raised, _ = run.timed(Broken().body)
    assert isinstance(raised, run.BodyError)
    assert run.check_outputs(Broken(), [raised, raised])[0] == 18

    class Drifting:
        ops_per_body = 2

        def check(self, out):
            return {"a": [], "b": []}

    assert run.check_outputs(Drifting(), [{"x": 1}, {"x": 1}])[0] == 0
    assert run.check_outputs(Drifting(), [{"x": 1}, {"x": 2}])[0] == 2
