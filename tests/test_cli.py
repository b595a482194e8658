"""End-to-end command line checks, run in process through main(argv)."""

import numpy as np
import pytest

from suretune.cli import main


def _kv(text):
    """Parse key=value output lines into a dict of strings."""
    out = {}
    for line in text.strip().splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            out[key] = val
    return out


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "y.txt"
    path.write_text("3,1,1,1\n")
    return str(path)


class TestTune:
    def test_shrink_means(self, data_file, capsys):
        rc = main(["tune", "--family", "shrink-means", "--data", data_file])
        assert rc == 0
        kv = _kv(capsys.readouterr().out)
        assert kv["family"] == "shrink-means"
        assert kv["n"] == "4"
        assert float(kv["s_hat"]) == 0.5
        assert float(kv["sure_min"]) == pytest.approx(20.0 / 3.0, rel=1e-11)
        assert float(kv["naive_df"]) == pytest.approx(8.0 / 3.0, rel=1e-11)

    def test_soft_threshold_single_point(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("3\n")
        rc = main(["tune", "--family", "soft-threshold", "--data", str(path)])
        assert rc == 0
        kv = _kv(capsys.readouterr().out)
        assert float(kv["s_hat"]) == 0.0
        assert float(kv["sure_min"]) == 2.0

    @pytest.mark.parametrize("family", [
        ["--family", "shrink-means"],
        ["--family", "soft-threshold"],
        ["--family", "hetero-shrink", "--sigmas", "1,2,3,4"],
    ])
    def test_non_finite_data_exits_1_naming_the_index(self, family, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("3,1,nan,1\n")
        assert main(["tune", *family, "--data", str(path)]) == 1
        captured = capsys.readouterr()
        assert "column 2" in captured.err
        assert "s_hat" not in captured.out

    def test_out_writes_estimate(self, data_file, tmp_path, capsys):
        dest = tmp_path / "theta.txt"
        rc = main(["--out", str(dest), "tune", "--data", data_file])
        assert rc == 0
        assert f"wrote {dest}" in capsys.readouterr().out
        theta = np.loadtxt(dest)
        assert theta == pytest.approx(np.array([3, 1, 1, 1]) / 1.5, rel=1e-10)


class TestEdf:
    def test_analytic(self, data_file, capsys):
        rc = main(["edf", "--method", "analytic", "--data", data_file])
        assert rc == 0
        kv = _kv(capsys.readouterr().out)
        assert kv["method"] == "analytic_unbiased"
        assert float(kv["value"]) == pytest.approx(2.0 / 3.0, rel=1e-11)
        assert float(kv["std_error"]) == 0.0
        assert kv["reps"] == "1"

    def test_implicit_diff_matches_analytic(self, data_file, capsys):
        rc = main(["edf", "--method", "implicit-diff", "--data", data_file])
        assert rc == 0
        kv = _kv(capsys.readouterr().out)
        assert kv["method"] == "implicit_diff"
        assert float(kv["value"]) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_monte_carlo(self, capsys):
        rc = main(["--seed", "7", "edf", "--method", "monte-carlo",
                   "--n", "10", "--reps", "200"])
        assert rc == 0
        kv = _kv(capsys.readouterr().out)
        assert kv["method"] == "monte_carlo"
        assert kv["reps"] == "200"
        assert float(kv["std_error"]) > 0.0

    def test_bootstrap_parametric(self, data_file, capsys):
        rc = main(["edf", "--method", "bootstrap-parametric", "--data", data_file,
                   "--B", "50"])
        assert rc == 0
        kv = _kv(capsys.readouterr().out)
        assert kv["method"] == "bootstrap_parametric"
        assert kv["reps"] == "50"

    def test_analytic_rejects_soft_threshold(self, data_file, capsys):
        rc = main(["edf", "--method", "analytic", "--family", "soft-threshold",
                   "--data", data_file])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_monte_carlo_needs_a_size(self, capsys):
        rc = main(["edf", "--method", "monte-carlo"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestBounds:
    def test_nested_null_edf(self, capsys):
        rc = main(["bounds", "nested-null-edf", "--p", "100"])
        assert rc == 0
        kv = _kv(capsys.readouterr().out)
        assert float(kv["bound"]) == pytest.approx(9.557423268177821, rel=1e-11)
        assert kv["less_than_10"] == "True"

    def test_chi_sq_max(self, capsys):
        rc = main(["bounds", "chi-sq-max", "--sizes", "1,2,4,8", "--delta", "0.5"])
        assert rc == 0
        kv = _kv(capsys.readouterr().out)
        assert float(kv["bound"]) == pytest.approx(7.134461749576677, rel=1e-11)

    def test_gas_stations(self, capsys):
        rc = main(["bounds", "gas-stations", "--weights", "1,3"])
        assert rc == 0
        kv = _kv(capsys.readouterr().out)
        assert kv["start"] == "0"
        assert kv["multiplicity"] == "1"

    def test_best_subset_constant(self, capsys):
        rc = main(["bounds", "best-subset-constant"])
        assert rc == 0
        kv = _kv(capsys.readouterr().out)
        assert float(kv["value"]) == pytest.approx(2.2891486505747194, rel=1e-9)
        assert float(kv["half_value"]) == pytest.approx(float(kv["value"]) / 2)

    def test_surface_area_ball(self, capsys):
        rc = main(["bounds", "surface-area-ball", "--center", "0.7",
                   "--radius", "1.3"])
        assert rc == 0
        kv = _kv(capsys.readouterr().out)
        assert set(kv) == {"value", "at_most_one"}
        phi = lambda t: np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
        assert float(kv["value"]) == pytest.approx(phi(2.0) + phi(-0.6), rel=1e-11)
        assert kv["at_most_one"] == "True"

    def test_general_theta(self, capsys):
        rc = main(["bounds", "general-theta", "--mu", "1.2"])
        assert rc == 0
        kv = _kv(capsys.readouterr().out)
        assert set(kv) == {"windowed", "alternate", "cap", "p"}
        root2 = np.sqrt(2.0)
        phi = lambda t: np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
        exact = root2 * (phi(root2 - 1.2) + phi(root2 + 1.2))
        assert float(kv["alternate"]) == pytest.approx(exact, rel=1e-11)
        assert float(kv["windowed"]) == pytest.approx(2.0 * exact, rel=1e-11)
        assert kv["p"] == "1"

    @pytest.mark.parametrize("argv", [
        ["bounds", "general-theta", "--mu", "nan,1"],
        ["bounds", "surface-area-ball", "--center", "0,inf", "--radius", "1"],
        ["bounds", "surface-area-ball", "--center", "0,1", "--radius", "nan"],
    ])
    def test_non_finite_input_exits_1(self, argv, capsys):
        assert main(argv) == 1
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bounds", "general-theta", "--mu", "1,2", "--directions", "5"],
        ["bounds", "general-theta", "--mu", "1,2", "--chi2-draws", "5"],
        ["bounds", "surface-area-ball", "--center", "1,1", "--radius", "1", "--mc"],
        ["--threads", "2", "selfcheck"],
    ])
    def test_removed_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()

    def test_nested_tail_split(self, capsys):
        rc = main(["bounds", "nested-tail-split", "--terms", "1000"])
        assert rc == 0
        kv = _kv(capsys.readouterr().out)
        assert float(kv["total"]) == pytest.approx(9.951807591621762, rel=1e-11)
        assert kv["less_than_10"] == "True"


class TestSimulate:
    def test_smoke_preset_round_trip(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        rc = main(["--out", str(out), "simulate", "--preset", "smoke"])
        assert rc == 0
        assert f"wrote 32 rows to {out}" in capsys.readouterr().out
        first = out.read_text()
        lines = first.splitlines()
        assert lines[0] == "family,setting,n,quantity,method,value,std_error,reps,status"
        assert len(lines) == 33
        # reruns are byte identical; a new seed is not
        rc = main(["--out", str(out), "simulate", "--preset", "smoke"])
        assert rc == 0
        assert out.read_text() == first
        rc = main(["--seed", "5", "--out", str(out), "simulate", "--preset", "smoke"])
        assert rc == 0
        assert out.read_text() != first
        capsys.readouterr()

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sizes = 6\nouter_reps = 8\nbootstrap_B = 0\nseed = 1\n")
        out = tmp_path / "rows.csv"
        rc = main(["--out", str(out), "simulate", "--config", str(cfg)])
        assert rc == 0
        assert out.exists()
        capsys.readouterr()

    def test_bad_config_exits_2_with_line_number(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sizes = 6\nrepetitions = 8\n")
        rc = main(["simulate", "--config", str(cfg)])
        assert rc == 2
        assert "config error: line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "sizes = 3\nsigma = nan\n",
        "setting = custom\nsizes = 3\ntheta0 = 1,nan,2\n",
    ])
    def test_non_finite_config_value_exits_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_needs_exactly_one_source(self, tmp_path, capsys):
        assert main(["simulate"]) == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sizes = 6\nouter_reps = 8\n")
        assert main(["simulate", "--config", str(cfg), "--preset", "smoke"]) == 2
        capsys.readouterr()


class TestErrorPaths:
    def test_missing_data_file(self, capsys):
        rc = main(["tune", "--data", "/no/such/file.txt"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_family_is_a_usage_error(self, data_file, capsys):
        with pytest.raises(SystemExit) as info:
            main(["tune", "--family", "ridge", "--data", data_file])
        assert info.value.code == 2
        capsys.readouterr()


class TestSelfcheck:
    def test_single_criterion(self, capsys):
        rc = main(["selfcheck", "--only", "c12"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[PASS] c12" in out

    def test_unknown_criterion(self, capsys):
        rc = main(["selfcheck", "--only", "bogus"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
