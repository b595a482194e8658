"""End-to-end command line checks, run in process through main(argv)."""

import hashlib
import shlex
from pathlib import Path

import numpy as np
import pytest

from suretune.cli import BOUNDS, CLI_FAMILIES, build_parser, main


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

    def test_singleton_shrink_round_trip(self, data_file, capsys):
        # Nothing is tuned: s stays at its fixed 1, and the excess df is 0.
        assert main(["tune", "--family", "singleton-shrink", "--data", data_file]) == 0
        assert _kv(capsys.readouterr().out)["s_hat"] == "1"
        assert main(["edf", "--method", "analytic", "--family", "singleton-shrink",
                     "--data", data_file]) == 0
        assert _kv(capsys.readouterr().out)["value"] == "0"

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


    @pytest.mark.parametrize("command, flag", [
        ("tune --family shrink-means --sigmas 0.1,1,1,1", "--sigmas"),
        ("tune --family soft-threshold --sigmas 0.1,1,1,1", "--sigmas"),
        ("tune --family shrink-means --design {y}", "--design"),
        ("tune --family hetero-shrink --design {y} --sigmas 1,1,1,1", "--design"),
        ("tune --family hetero-shrink --sigmas 1,1,1,1 --sigma 2", "--sigma"),
        ("tune --family hetero-shrink --sigmas 1,1,1,1 --sigma 1", "--sigma"),
        ("edf --method monte-carlo --n 4 --family shrink-means --sigmas 1,1,1,1", "--sigmas"),
    ])
    def test_a_family_flag_the_family_would_ignore_exits_1(self, data_file, capsys, command,
                                                            flag):
        # Dropped, `--sigmas` would tune shrink-means at sigma = 1 silently.
        argv = command.format(y=data_file).split()
        if argv[0] == "tune":
            argv += ["--data", data_file]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        family = argv[argv.index("--family") + 1]
        assert captured.err == f"error: {flag} does not apply to --family {family}\n"


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

    def test_implicit_diff_rejects_soft_threshold(self, data_file, capsys):
        rc = main(["edf", "--method", "implicit-diff", "--family", "soft-threshold",
                   "--data", data_file])
        assert rc == 1
        assert "soft-threshold has no hooks" in capsys.readouterr().err

    @pytest.mark.parametrize("reps", ["1", "0"])
    def test_monte_carlo_needs_two_reps(self, reps, capsys):
        rc = main(["edf", "--method", "monte-carlo", "--n", "5", "--reps", reps])
        assert rc == 1
        assert "reps must be an integer at least 2" in capsys.readouterr().err

    def test_monte_carlo_needs_a_size(self, capsys):
        rc = main(["edf", "--method", "monte-carlo"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


# sha256 of stdout for edf runs whose bytes must not change.  {y} is
# 3,1,1,1; {X} is a 4 x 2 design; {yh} is 4,1,-2,1 with sigmas 0.5,1,1.5,2.
EDF_SHA256 = {
    "analytic-shrink-means": (
        "edf --method analytic --family shrink-means --data {y}",
        "b6eef859e538f91d9071c38fa4aed31c3d42fb666e4c66737f7cd44e8298c461"),
    "analytic-shrink-regression": (
        "edf --method analytic --family shrink-regression --design {X} --data {y}",
        "2d15668320fa01f9d0cf9df4dc4b8d886ad515b6e69423ae15db029586abe0c1"),
    "implicit-diff-shrink-means": (
        "edf --method implicit-diff --family shrink-means --data {y}",
        "99a32c891dd0facbceee4d9ff70cab1be683e6718d250350a351eb2a3bc1c119"),
    "implicit-diff-hetero-shrink": (
        "edf --method implicit-diff --family hetero-shrink --sigmas 0.5,1,1.5,2 --data {yh}",
        "c79a9177f98a64cb43bc4e65c07f117ef7c70b5c49fdcbf337475b43fff90b09"),
    "monte-carlo-hetero-shrink": (
        "edf --method monte-carlo --family hetero-shrink --sigmas 0.5,1,1.5,2 --reps 500",
        "41b8e8c69847aaf288ad0548a429be361e0e85eda94db7b9864654513064f6a4"),
}


@pytest.mark.parametrize("case", sorted(EDF_SHA256))
def test_edf_stdout_bytes_are_pinned(case, tmp_path, capsys):
    paths = {"y": "3,1,1,1\n", "X": "1 0\n0 1\n1 1\n1 -1\n", "yh": "4,1,-2,1\n"}
    for name, text in paths.items():
        (tmp_path / f"{name}.txt").write_text(text)
    command, digest = EDF_SHA256[case]
    argv = command.format(**{name: str(tmp_path / f"{name}.txt") for name in paths}).split()
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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

    @pytest.mark.parametrize("argv, message", [
        (["bounds", "general-theta", "--mu", "nan,1"], "mu is not finite at index 0"),
        (["bounds", "surface-area-ball", "--center", "0,inf", "--radius", "1"],
         "center is not finite at index 1"),
        (["bounds", "surface-area-ball", "--center", "0,1", "--radius", "nan"], "must be"),
    ], ids=["argv0", "argv1", "argv2"])
    def test_non_finite_input_exits_1(self, argv, message, capsys):
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    def test_surface_area_ball_at_a_tiny_radius(self, capsys):
        rc = main(["bounds", "surface-area-ball", "--center", "1e-200,0", "--radius", "1e-300"])
        assert rc == 0
        kv = _kv(capsys.readouterr().out)
        assert float(kv["value"]) == pytest.approx(1e-300, rel=1e-13)
        assert kv["at_most_one"] == "True"

    def test_surface_area_ball_beyond_its_window_exits_1(self, capsys):
        rc = main(["bounds", "surface-area-ball", "--center", "1e150,0", "--radius", "1e150"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the Gaussian surface area needs a Poisson mode of at most")

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

    @pytest.mark.parametrize("bound", ["chi-sq-max", "edf-upper-simplified"])
    @pytest.mark.parametrize("sizes, message", [
        ("1.5,2", "every size must be an integer at least 0, got 1.5"),
        ("nan", "sizes is not finite at index 0"),
    ])
    def test_a_size_the_bound_refuses_is_not_truncated(self, bound, sizes, message, capsys):
        assert main(["bounds", bound, "--sizes", sizes, "--delta", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

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

    @pytest.mark.parametrize("sigma", ["1e200", "1e-200"])
    def test_a_sigma_whose_square_is_not_a_normal_float_exits_2(self, tmp_path, capsys, sigma):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"sizes = 3\nouter_reps = 2\nsigma = {sigma}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "config error: line 0: sigma must be positive" in capsys.readouterr().err

    def test_a_family_the_grid_does_not_run_exits_2(self, tmp_path, capsys):
        # hetero_shrink is registered, but it is built from sigmas, not (n, sigma).
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = hetero_shrink\nsizes = 4\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("config error: line 0: family must be one of "
                                "('shrink_means', 'soft_threshold', 'singleton_shrink')\n")
        assert captured.out == ""

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

    # A path that exists but is not a readable file is an OSError like a
    # missing one.  An unreadable file (PermissionError) takes the same
    # branch; it is not tested, because file modes do not stop root.
    @pytest.mark.parametrize("argv", ["tune --data {dir}", "simulate --config {dir}"],
                             ids=["data", "config"])
    def test_a_directory_for_a_file_exits_1(self, argv, tmp_path, capsys):
        assert main(argv.format(dir=tmp_path).split()) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, text, source", [
        ("tune --data {empty}", "", "{empty}"),
        ("tune --data {empty}", "# a comment\n, ,\n", "{empty}"),
        ("edf --method monte-carlo --theta0= --reps 4", "", "--theta0"),
    ], ids=["data", "comment", "inline"])
    def test_input_without_numbers_exits_1_naming_it(self, argv, text, source, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text(text)
        assert main(argv.format(empty=empty).split()) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {source.format(empty=empty)} holds no numbers\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        "simulate --preset smoke",
        "edf --method monte-carlo --n 5 --reps 4",
        "edf --method bootstrap-parametric --data {y} --B 4",
        "tune --data {y}",
    ])
    def test_a_negative_seed_exits_1(self, argv, data_file, capsys):
        assert main(["--seed", "-1", *argv.format(y=data_file).split()]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be an integer at least 0, got -1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        "edf --method monte-carlo --family hetero-shrink --sigmas 1,2,3 --n -3",
        "edf --method monte-carlo --family shrink-regression --design {X} --n -3",
    ], ids=["hetero-shrink", "shrink-regression"])
    def test_a_negative_size_exits_1(self, argv, tmp_path, capsys):
        # Both families size themselves, so -3 reached np.zeros unchecked.
        design = tmp_path / "X.txt"
        design.write_text("1 0\n0 1\n1 1\n")
        assert main(argv.format(X=design).split()) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --n must be an integer at least 1, got -3\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, source, size", [
        ("edf --method monte-carlo --theta0 1,2,3 --n 7 --reps 4", "--theta0", 3),
        ("edf --method analytic --data {y} --n 7", "--data", 4),
        ("edf --method bootstrap-parametric --data {y} --n 5 --B 4", "--data", 4),
        ("edf --method monte-carlo --family hetero-shrink --sigmas 1,2,3 --n 4 --reps 4",
         "--sigmas", 3),
        ("edf --method monte-carlo --family shrink-regression --design {X} --n 2 --reps 4",
         "--design", 3),
    ], ids=["theta0", "data-analytic", "data-bootstrap", "sigmas", "design"])
    def test_an_n_the_model_contradicts_exits_2(self, argv, source, size, data_file,
                                                tmp_path, capsys):
        # --n 7 with a 3-entry --theta0 ran at n = 3 and exited 0.
        design = tmp_path / "X.txt"
        design.write_text("1 0\n0 1\n1 1\n")
        assert main(argv.format(y=data_file, X=design).split()) == 2
        captured = capsys.readouterr()
        n = argv.split("--n ")[1].split()[0]
        assert captured.err == f"usage error: --n {n} contradicts {source}, which has size {size}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        "edf --method monte-carlo --theta0 1,2,3 --n 3 --reps 4",
        "edf --method analytic --data {y} --n 4",
    ])
    def test_an_n_that_agrees_is_accepted(self, argv, data_file, capsys):
        assert main(argv.format(y=data_file).split()) == 0
        assert "method=" in capsys.readouterr().out

    def test_a_negative_seed_in_a_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sizes = 6\nouter_reps = 8\nseed = -3\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("config error: line 0: seed must be an integer at least 0, "
                                "got -3\n")
        assert captured.out == ""

    @pytest.mark.parametrize("text", ["1,2,abc\n", "1 2\n3\n"], ids=["word", "ragged"])
    @pytest.mark.parametrize("argv", [
        "tune --data {bad}",
        "tune --family shrink-regression --design {bad} --data {y}",
        "edf --method monte-carlo --theta0 @{bad} --reps 4",
        "tune --family hetero-shrink --sigmas @{bad} --data {y}",
    ], ids=["data", "design", "mean", "sigmas"])
    def test_a_malformed_file_exits_1_naming_it(self, argv, text, data_file, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(argv.format(bad=bad, y=data_file).split()) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: could not parse {bad} as numbers: ")
        assert captured.out == ""

    def test_an_inline_list_that_is_not_numbers_exits_1_naming_its_option(self, capsys):
        assert main(["bounds", "chi-sq-max", "--sizes", "1,abc", "--delta", "0.5"]) == 1
        assert capsys.readouterr().err.startswith("error: could not parse --sizes as numbers: ")

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


def _readme_section():
    """The text of README's Command line section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def _readme_commands():
    """Each `suretune ...` line of README's Command line section, as argv."""
    return [shlex.split(line)[1:] for line in _readme_section().splitlines()
            if line.startswith("suretune ")]


class TestReadme:
    # The family and bound choices are derived from registries; these keep
    # the documented commands in step with them.  Nothing is run.
    def test_every_command_line_example_parses(self):
        commands = _readme_commands()
        assert len(commands) > 10
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv)

    def test_the_section_names_every_bound_and_family(self):
        named = {word for argv in _readme_commands() for word in argv}
        assert sorted(set(BOUNDS) - named) == []
        section = _readme_section()
        assert [name for name in CLI_FAMILIES if f"`{name}`" not in section] == []
