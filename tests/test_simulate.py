"""Simulation harness: grid layout, determinism, config parsing, presets."""

import hashlib
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from suretune import (
    BootstrapConfig,
    GaussianModel,
    ShrinkMeansFamily,
    bootstrap_edf,
    mc_edf,
    mc_prediction_error,
)
from suretune import core
from suretune import bootstrap as bootstrap_module
from suretune.cli import main
from suretune.core import DomainError
from suretune.simulate import (
    FAMILY_REGISTRY,
    PRESETS,
    ConfigError,
    SimSpec,
    SingletonShrinkFamily,
    parse_config,
    rows_to_csv_text,
    run_simulation,
    theta0_for,
    write_csv,
)

HEADER = "family,setting,n,quantity,method,value,std_error,reps,status"


class TestThetaZeroFor:
    def test_null_is_zeros(self):
        assert np.array_equal(theta0_for("null", 7), np.zeros(7))

    def test_weak_sparsity_decays_like_inverse_root(self):
        got = theta0_for("weak_sparsity", 4)
        expected = np.array([4.0, 4.0 / math.sqrt(2), 4.0 / math.sqrt(3), 2.0])
        assert got == pytest.approx(expected, abs=1e-15)

    def test_strong_sparsity_spikes_log_n_coordinates(self):
        got = theta0_for("strong_sparsity", 10)
        assert np.array_equal(got[:2], [4.0, 4.0])
        assert np.array_equal(got[2:], np.zeros(8))

    def test_custom_passthrough(self):
        vec = [1.0, -2.0, 0.5]
        assert np.array_equal(theta0_for("custom", 3, custom=vec), vec)

    def test_custom_requires_matching_vector(self):
        with pytest.raises(DomainError):
            theta0_for("custom", 3)
        with pytest.raises(DomainError):
            theta0_for("custom", 3, custom=[1.0, 2.0])

    def test_unknown_setting(self):
        with pytest.raises(DomainError):
            theta0_for("dense", 3)


class TestSimSpecValidation:
    def test_defaults_pass(self):
        spec = SimSpec()
        assert spec.family == "shrink_means"
        assert spec.setting == ("null",)
        assert spec.sizes == (10, 50, 200)
        assert spec.bootstrap_B == 0

    def test_string_setting_coerced_to_tuple(self):
        assert SimSpec(setting="weak_sparsity").setting == ("weak_sparsity",)

    def test_rejections(self):
        with pytest.raises(DomainError):
            SimSpec(family="lasso")
        with pytest.raises(DomainError):
            SimSpec(setting=("null", "dense"))
        with pytest.raises(DomainError):
            SimSpec(outer_reps=1)
        with pytest.raises(DomainError):
            SimSpec(sigma=0.0)
        with pytest.raises(DomainError):
            SimSpec(sizes=())
        with pytest.raises(DomainError):
            SimSpec(sizes=(10, 0))
        with pytest.raises(DomainError):
            SimSpec(bootstrap_B=-1)

    @pytest.mark.parametrize("sizes", [(2.5,), (10, 7.5), (math.inf,), (math.nan,)])
    def test_non_integer_sizes_rejected(self, sizes):
        with pytest.raises(DomainError, match="every size must be an integer at least 1"):
            SimSpec(sizes=sizes)

    @pytest.mark.parametrize("field", ["outer_reps", "bootstrap_B"])
    def test_fractional_counts_rejected(self, field):
        with pytest.raises(DomainError, match="must be an integer at least 2, got 2.5"):
            SimSpec(**{field: 2.5})

    def test_bootstrap_options_checked_up_front(self):
        with pytest.raises(DomainError):
            SimSpec(bootstrap_B=10, bootstrap_sampler="jackknife")
        with pytest.raises(DomainError):
            SimSpec(bootstrap_B=10, bootstrap_c=0.0)
        # bad sampler is fine while the bootstrap is disabled
        SimSpec(bootstrap_B=0, bootstrap_sampler="jackknife")

    def test_custom_setting_needs_theta0_of_every_size(self):
        with pytest.raises(DomainError):
            SimSpec(setting=("custom",))
        with pytest.raises(DomainError):
            SimSpec(setting=("custom",), sizes=(3,), theta0=(1.0, 2.0))
        spec = SimSpec(setting=("custom",), sizes=(2, 2), theta0=(1.0, 2.0))
        assert spec.theta0 == (1.0, 2.0)


def _smoke_spec(**overrides):
    base = dict(family="shrink_means", setting=("null",), sizes=(8,),
                sigma=1.0, outer_reps=30, bootstrap_B=8, seed=0)
    base.update(overrides)
    return SimSpec(**base)


class TestRunSimulation:
    def test_grid_cell_emits_sixteen_rows(self):
        rows = run_simulation(_smoke_spec())
        assert len(rows) == 16
        assert all(r.status == "ok" for r in rows)
        got = {(r.quantity, r.method) for r in rows}
        expected = {
            ("edf", "monte_carlo"), ("edf", "unbiased"), ("edf", "implicit_diff"),
            ("edf", "bootstrap"), ("edf", "observed_scaled_exopt"),
            ("df", "naive"), ("df", "unbiased"), ("df", "monte_carlo"),
            ("df", "bootstrap"), ("df", "naive_bootstrap"),
            ("err", "naive"), ("err", "corrected"), ("err", "test"),
            ("err_over_n", "naive"), ("err_over_n", "corrected"),
            ("err_over_n", "test"),
        }
        assert got == expected

    def test_row_count_scales_with_grid(self):
        spec = _smoke_spec(setting=("null", "strong_sparsity"), sizes=(8, 12),
                           outer_reps=10, bootstrap_B=0)
        rows = run_simulation(spec)
        assert len(rows) == 64

    def test_disabled_bootstrap_rows_are_skipped_not_dropped(self):
        rows = run_simulation(_smoke_spec(bootstrap_B=0))
        skipped = {(r.quantity, r.method) for r in rows if r.status == "skipped"}
        assert skipped == {
            ("edf", "bootstrap"), ("df", "bootstrap"), ("df", "naive_bootstrap"),
            ("err", "corrected"), ("err_over_n", "corrected"),
        }
        for r in rows:
            if r.status == "skipped":
                assert r.value is None and r.std_error is None and r.reps == 0

    def test_soft_threshold_skips_smooth_only_methods(self):
        spec = _smoke_spec(family="soft_threshold", bootstrap_B=0, outer_reps=12)
        rows = run_simulation(spec)
        skipped = {(r.quantity, r.method) for r in rows if r.status == "skipped"}
        assert ("edf", "unbiased") in skipped
        assert ("edf", "implicit_diff") in skipped
        assert ("df", "unbiased") in skipped

    def test_fixed_rule_has_exactly_zero_excess(self):
        spec = _smoke_spec(family="singleton_shrink", bootstrap_B=0, outer_reps=30)
        rows = {(r.quantity, r.method): r for r in run_simulation(spec)}
        unbiased = rows[("edf", "unbiased")]
        assert unbiased.value == 0.0
        assert unbiased.std_error == 0.0
        # at the fixed s = 1 the plug-in df is n/2 on every draw
        naive = rows[("df", "naive")]
        assert naive.value == 4.0
        assert naive.std_error == 0.0
        assert rows[("edf", "implicit_diff")].status == "skipped"

    def test_monte_carlo_edf_is_mc_edf_of_the_cell_stream(self):
        # The grid and `mc_edf` reduce the same pass over the same Y draws
        # (the grid also pairs them with test copies Y*), so the edf row is
        # mc_edf's value and standard error to the bit in every cell.
        spec = PRESETS["smoke"]
        rows = {(r.setting, r.n): r for r in run_simulation(spec)
                if (r.quantity, r.method) == ("edf", "monte_carlo")}
        assert len(rows) == len(spec.setting) * len(spec.sizes)
        for i, setting in enumerate(spec.setting):
            for j, n in enumerate(spec.sizes):
                model = GaussianModel(theta0_for(setting, n), sigma=spec.sigma)
                cls, _ = FAMILY_REGISTRY[spec.family]
                family = cls(n, spec.sigma)
                report = mc_edf(family, model, reps=spec.outer_reps,
                                seed=np.random.SeedSequence([spec.seed, j, i]))
                row = rows[setting, n]
                assert (report.value, report.std_error) == (row.value, row.std_error)

    def test_err_over_n_is_err_divided_by_n(self):
        rows = run_simulation(_smoke_spec())
        by_key = {(r.quantity, r.method): r for r in rows}
        for method in ("naive", "corrected", "test"):
            whole = by_key[("err", method)]
            perc = by_key[("err_over_n", method)]
            assert perc.value == pytest.approx(whole.value / 8.0, rel=1e-12)

    def test_smoke_implicit_diff_equals_unbiased_to_printed_digits(self):
        # For shrink-means the implicit-diff statistic is 2 s/(1 + s) exactly,
        # so both rows print the same mean and standard error in every cell.
        printed = {}
        for r in run_simulation(PRESETS["smoke"]):
            if r.quantity == "edf" and r.method in ("implicit_diff", "unbiased"):
                assert r.status == "ok"
                printed.setdefault((r.setting, r.n), {})[r.method] = (
                    f"{r.value:.12g}", f"{r.std_error:.12g}")
        assert len(printed) == 2
        for cell in printed.values():
            assert cell["implicit_diff"] == cell["unbiased"]

    def test_bootstrap_row_averages_bootstrap_edf_over_reps(self):
        # Each rep's bootstrap draws around that rep's fit from the stream
        # SeedSequence([seed, j, i, rep]); bootstrap_edf tunes the rep itself.
        rows = {(r.quantity, r.method): r
                for r in run_simulation(_smoke_spec(setting=("weak_sparsity",)))}
        model = GaussianModel(theta0_for("weak_sparsity", 8), sigma=1.0)
        Y = model.draw(np.random.default_rng(np.random.SeedSequence([0, 0, 0])), 30)
        per_rep = [
            bootstrap_edf(ShrinkMeansFamily(8, 1.0), y, BootstrapConfig(
                B=8, seed=int(np.random.SeedSequence([0, 0, 0, r]).generate_state(1)[0]))).value
            for r, y in enumerate(Y)
        ]
        assert rows[("edf", "bootstrap")].value == pytest.approx(np.mean(per_rep),
                                                                 rel=1e-12, abs=0)
        assert rows[("edf", "bootstrap")].std_error == pytest.approx(
            np.std(per_rep, ddof=1) / math.sqrt(30), rel=1e-12, abs=0)

    def test_df_unbiased_is_naive_plus_edf_unbiased(self):
        rows = {(r.quantity, r.method): r for r in run_simulation(_smoke_spec())}
        lhs = rows[("df", "unbiased")].value
        rhs = rows[("df", "naive")].value + rows[("edf", "unbiased")].value
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestDeterminism:
    def test_reruns_are_byte_identical(self):
        spec = _smoke_spec()
        first = rows_to_csv_text(run_simulation(spec))
        second = rows_to_csv_text(run_simulation(spec))
        assert first == second

    def test_seed_changes_output(self):
        a = rows_to_csv_text(run_simulation(_smoke_spec(seed=0)))
        b = rows_to_csv_text(run_simulation(_smoke_spec(seed=5)))
        assert a != b

    def test_write_csv_to_path_matches_text(self, tmp_path):
        rows = run_simulation(_smoke_spec(bootstrap_B=0, outer_reps=10))
        out = tmp_path / "rows.csv"
        write_csv(rows, str(out))
        assert out.read_text() == rows_to_csv_text(rows)

    def test_header_and_sample_row(self):
        rows = run_simulation(_smoke_spec(family="singleton_shrink",
                                          bootstrap_B=0, outer_reps=30))
        text = rows_to_csv_text(rows)
        lines = text.splitlines()
        assert lines[0] == HEADER
        assert "singleton_shrink,null,8,df,naive,4,0,30,ok" in lines

    def test_values_are_twelve_significant_digit_reprs(self):
        rows = run_simulation(_smoke_spec(bootstrap_B=0, outer_reps=10))
        for line in rows_to_csv_text(rows).splitlines()[1:]:
            fields = line.split(",")
            if fields[8] != "ok":
                continue
            for field in fields[5:7]:
                assert field == f"{float(field):.12g}"


# sha256 of the CSV of each family x sampler grid below, as produced by the
# per-rep bootstrap loop that predates blocked retuning.  At sizes 1, 40 and
# 700 with B = 100 the bootstrap puts 655 reps, 16 reps and a 93-row chunk of
# one rep into each retuning block, so every blocking path is pinned.
GOLDEN_SHA256 = {
    ("shrink_means", "parametric"): "505fa00bf845edc5fc9720d53a869f65fef496d2d0d38066bc6014e7db2c8294",
    ("shrink_means", "bigmodel"): "293a1b87ec885bd33b843e827df21e96e0c9253be25f3e06a65909eec00fb02a",
    ("shrink_means", "residual"): "ef9d1f07b072c3b33b326c566e18e6c83003fbbea30d083701f7b67d354e4502",
    ("soft_threshold", "parametric"): "fc58be779f757d9d86adf1c373eb5aefc7c12bde888683ab7c10586630a1e973",
    ("soft_threshold", "bigmodel"): "1f8c2551013b30e19f07a89b27fe138af150ab64778f2863202d44c530e7652d",
    ("soft_threshold", "residual"): "57b137be2ac030382d8ba64335766a61f53c11502099446bc9662057ee93c7ad",
    ("singleton_shrink", "parametric"): "ec3b811872dbacdd117db4de59c63e713d48321edee4951812066324abde6d9f",
    ("singleton_shrink", "bigmodel"): "328b015864cfe88460d644af313d6e210116b28ae23a948f670b4cef5a6263b7",
    ("singleton_shrink", "residual"): "d9c3d16a3f4be7e2197200880965764242d484514e2df9641c1851d43f80196b",
}


def _golden_spec(family, sampler):
    return SimSpec(family=family, setting=("null", "weak_sparsity"), sizes=(1, 40, 700),
                   outer_reps=20, bootstrap_B=100, bootstrap_sampler=sampler,
                   bootstrap_c=0.5 if sampler == "bigmodel" else 1.0, seed=0)


@pytest.mark.parametrize("family, sampler", sorted(GOLDEN_SHA256))
def test_bootstrap_grid_bytes_are_pinned(family, sampler):
    text = rows_to_csv_text(run_simulation(_golden_spec(family, sampler)))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[family, sampler]


@pytest.mark.parametrize("family, sampler", sorted(GOLDEN_SHA256))
def test_many_outer_blocks_give_the_pinned_bytes(monkeypatch, family, sampler):
    # With 64-value blocks the outer reps of n = 40 and 700 stream one row
    # at a time, and the bootstrap retunes in chunks of 64 // n rows while
    # the next outer block is drawn and tuned.
    monkeypatch.setattr(core, "_BLOCK_VALUES", 64)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    text = rows_to_csv_text(run_simulation(_golden_spec(family, sampler)))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[family, sampler]


def test_many_outer_blocks_give_the_same_smoke_csv(monkeypatch):
    whole = rows_to_csv_text(run_simulation(PRESETS["smoke"]))
    monkeypatch.setattr(core, "_BLOCK_VALUES", 64)
    assert rows_to_csv_text(run_simulation(PRESETS["smoke"])) == whole


def test_the_bootstrap_runs_once_per_outer_block_with_the_rep_seeds(monkeypatch):
    # Each cell bootstraps every tuned block of its pass once, in row order,
    # with rep r's stream seeded by SeedSequence([seed, j, i, r]).
    monkeypatch.setattr(core, "_BLOCK_VALUES", 64)
    calls = []

    def recording(family, Y, theta_hat, config, seeds):
        calls.append((family.n, list(seeds)))
        return bootstrap_stats(family, Y, theta_hat, config, seeds)

    bootstrap_stats = bootstrap_module._bootstrap_stats
    monkeypatch.setattr(bootstrap_module, "_bootstrap_stats", recording)
    spec = SimSpec(family="shrink_means", setting=("null", "weak_sparsity"), sizes=(10, 25),
                   outer_reps=9, bootstrap_B=4, seed=3)
    run_simulation(spec)
    want = []
    for i, setting in enumerate(spec.setting):
        for j, n in enumerate(spec.sizes):
            seeds = [int(np.random.SeedSequence([3, j, i, r]).generate_state(1)[0])
                     for r in range(9)]
            want += [(n, seeds[rows]) for rows in core._row_blocks(9, n)]
    assert len(want) == 2 * (2 + 5)  # blocks of 6 rows at n = 10, of 2 at n = 25
    assert calls == want


def test_a_bootstrap_cell_keeps_its_bytes_over_many_calls(monkeypatch):
    # One call bootstraps the whole cell at the default block size; with
    # 32-value blocks the pass cuts its 9 reps of n = 10 into blocks of 3 and
    # bootstraps each block by its own call.  The CSV keeps its bytes, so
    # each rep's stream follows the rep, not the call.
    spec = SimSpec(family="shrink_means", setting=("weak_sparsity",), sizes=(10,),
                   outer_reps=9, bootstrap_B=4, seed=5)
    bootstrap_stats = bootstrap_module._bootstrap_stats
    calls = []

    def counting(family, Y, theta_hat, config, seeds):
        calls.append(len(Y))
        return bootstrap_stats(family, Y, theta_hat, config, seeds)

    monkeypatch.setattr(bootstrap_module, "_bootstrap_stats", counting)
    whole = rows_to_csv_text(run_simulation(spec))
    assert calls == [9]
    monkeypatch.setattr(core, "_BLOCK_VALUES", 32)
    calls.clear()
    assert rows_to_csv_text(run_simulation(spec)) == whole
    assert calls == [3, 3, 3]


def _traced_peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("B", [0, 2])
def test_a_large_cell_runs_in_bounded_memory(monkeypatch, B):
    # 400 reps of n = 5000 are 16 MB per (R, n) array; the streamed cell
    # holds a few 13-row blocks and length-R vectors (about 5 MB at B = 0
    # and 6 MB at B = 2 on two threads, against 92 MB for whole arrays).
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    spec = SimSpec(sizes=(5000,), outer_reps=400, bootstrap_B=B)
    assert _traced_peak_mb(lambda: run_simulation(spec)) < 8.0


class TestParseConfig:
    def test_happy_path(self):
        text = "\n".join([
            "# simulation request",
            "family = shrink_means",
            "setting = null, strong_sparsity",
            "",
            "sizes = 10, 25",
            "sigma = 2.0",
            "outer_reps = 50",
            "bootstrap_B = 8",
            "bootstrap_sampler = bigmodel",
            "bootstrap_c = 0.5",
            "seed = 3",
        ])
        spec = parse_config(text)
        assert spec.setting == ("null", "strong_sparsity")
        assert spec.sizes == (10, 25)
        assert spec.sigma == 2.0
        assert spec.outer_reps == 50
        assert spec.bootstrap_sampler == "bigmodel"
        assert spec.bootstrap_c == 0.5
        assert spec.seed == 3

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as info:
            parse_config("family = shrink_means\nreps = 100\n")
        assert info.value.line == 2
        assert "unknown key" in str(info.value)

    def test_out_is_not_a_config_key(self):
        # The output path is the global --out flag alone.
        with pytest.raises(ConfigError, match="unknown key 'out'") as info:
            parse_config("seed = 1\nout = rows.csv\n")
        assert info.value.line == 2

    def test_duplicate_key_reports_second_line(self):
        with pytest.raises(ConfigError) as info:
            parse_config("seed = 1\nsigma = 1.0\nseed = 2\n")
        assert info.value.line == 3

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError) as info:
            parse_config("outer_reps = ten\n")
        assert info.value.line == 1

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError) as info:
            parse_config("family shrink_means\n")
        assert info.value.line == 1

    def test_spec_level_problem_reports_line_zero(self):
        with pytest.raises(ConfigError) as info:
            parse_config("outer_reps = 1\n")
        assert info.value.line == 0

    @pytest.mark.parametrize("text, message", [
        ("sigma = nan\n", "sigma must be positive and finite"),
        ("sigma = inf\n", "sigma must be positive and finite"),
        ("setting = custom\nsizes = 3\ntheta0 = 1, nan, 2\n", "theta0 is not finite at index 1"),
        ("setting = custom\nsizes = 2\ntheta0 = -inf, 0\n", "theta0 is not finite at index 0"),
    ])
    def test_non_finite_values_are_config_errors(self, text, message):
        with pytest.raises(ConfigError, match=message) as info:
            parse_config(text)
        assert info.value.line == 0

    @pytest.mark.parametrize("sigma", ["1e200", "1e-200"])
    def test_a_sigma_whose_square_is_not_a_normal_float_is_a_config_error(self, sigma):
        # SimSpec accepted both; every cell then divides by sigma^2.
        with pytest.raises(ConfigError, match="sigma must be positive and finite") as info:
            parse_config(f"sigma = {sigma}\n")
        assert info.value.line == 0

    def test_theta0_list(self):
        text = "setting = custom\nsizes = 3\ntheta0 = 1.5, -2, 0\n"
        spec = parse_config(text)
        assert spec.theta0 == (1.5, -2.0, 0.0)


class TestPresets:
    def test_names(self):
        assert set(PRESETS) == {"paper-scale", "desk", "smoke"}

    def test_paper_scale_grid(self):
        spec = PRESETS["paper-scale"]
        expected_sizes = tuple(int(round(v)) for v in np.geomspace(10, 5000, 10))
        assert spec.sizes == expected_sizes
        assert len(spec.sizes) == 10
        assert spec.sizes[0] == 10 and spec.sizes[-1] == 5000
        assert spec.outer_reps == 5000
        assert spec.bootstrap_B == 1000
        assert spec.setting == ("null", "weak_sparsity", "strong_sparsity")

    def test_desk_grid(self):
        spec = PRESETS["desk"]
        assert spec.sizes == (10, 50, 200)
        assert spec.outer_reps == 1000
        assert spec.bootstrap_B == 200

    def test_smoke_is_small(self):
        spec = PRESETS["smoke"]
        assert spec.sizes == (10, 25)
        assert spec.outer_reps == 40
        assert spec.bootstrap_B == 16

    def test_desk_seed_0_output_is_pinned(self, capsys):
        # The sha256 of the benchmark's seed-0 desk reference CSV: any byte
        # change to the desk grid's draws, tuners or bootstrap shows here.
        assert main(["--seed", "0", "simulate", "--preset", "desk"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == \
            "65bf10c748217b8515a494a441c32e74bb4c58f58121d3f456b01d6881900c45"

    def test_paper_n5000_seed_0_output_is_pinned(self, capsys):
        # The sha256 of the benchmark's seed-0 paper-n5000 reference CSV.  Of
        # the benchmark's cells only this one has B * n above
        # `core._BLOCK_VALUES`, where the bootstrap retunes one rep in chunks.
        config = Path(__file__).resolve().parents[1] / "bench" / "paper_n5000.cfg"
        assert main(["--seed", "0", "simulate", "--config", str(config)]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == \
            "4346773be38fb8ef9fd7d6f249df3ebd4d87207d7114e07d4773438a5ec3bda3"


def test_singleton_oracle_is_the_fixed_value_and_its_exact_error():
    # n sigma^2 + (||theta0||^2 s^2 + n sigma^2) / (1 + s)^2 = 10 + 100 / 4
    family = SingletonShrinkFamily(10, 1.0, s=1.0)
    model = GaussianModel(np.full(10, 3.0), sigma=1.0)
    ora = family.oracle(model)
    assert ora.s0 == 1.0 and family._check_s(ora.s0) == 1.0
    assert ora.err == 35.0
    mc = mc_prediction_error(lambda Y: family.estimate(1.0, Y), model, reps=20000, seed=41)
    assert abs(mc.value - ora.err) <= 4.0 * mc.std_error
