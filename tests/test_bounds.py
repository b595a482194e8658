"""Checks for the exact bound evaluations."""

import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2, ncx2

import suretune
from suretune.acceptance import _sphere_average_area
from suretune.bounds import (
    _chi2_prob,
    best_subset_constant,
    best_subset_penalty_curve,
    chi_sq_max_bound,
    edf_upper_bound_simplified,
    gas_stations_rotation,
    gaussian_surface_area_ball,
    general_theta_bound,
    nested_bound_tail_split,
    nested_null_edf_bound,
)
from suretune.core import DomainError, ShapeError


def _phi(t):
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


class TestChiSqMaxBound:
    def test_input_validation(self):
        with pytest.raises(ShapeError):
            chi_sq_max_bound([], 0.5)
        with pytest.raises(DomainError):
            chi_sq_max_bound([1, -2], 0.5)
        with pytest.raises(DomainError):
            chi_sq_max_bound([1.5], 0.5)
        with pytest.raises(DomainError):
            chi_sq_max_bound([1, 2], 1.0)
        with pytest.raises(DomainError):
            chi_sq_max_bound([1, 2], -0.1)

    def test_delta_zero_degenerate_cases(self):
        assert chi_sq_max_bound([0, 0, 0], 0.0) == pytest.approx(2.0 * math.log(3))
        assert chi_sq_max_bound([0, 1], 0.0) == math.inf

    def test_frozen_reference_value(self):
        assert chi_sq_max_bound([1, 2, 4, 8], 0.5) == pytest.approx(
            7.134461749576677, abs=1e-12
        )

    def test_single_subset_limit_vanishes_as_delta_to_one(self):
        # E[W_p - p] = 0, and the single-subset bound deflates toward it
        vals = [chi_sq_max_bound([5], d) for d in (0.9, 0.99, 0.999)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 0.01
        expected = 5.0 * (math.log(1 / 0.999) / 0.001 - 1.0)
        assert vals[2] == pytest.approx(expected, rel=1e-9)

    def test_dominated_by_simplified_form(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            k = int(rng.integers(1, 10))
            sizes = rng.integers(0, 15, size=k)
            delta = float(rng.uniform(0.05, 0.95))
            tight = chi_sq_max_bound(sizes, delta)
            loose = edf_upper_bound_simplified(sizes, delta)
            assert tight <= loose + 1e-12

    def test_dominates_monte_carlo_maximum(self):
        # correlated chi-squares built from nested sums of shared gaussians
        rng = np.random.default_rng(20)
        sizes = np.array([1, 3, 6, 10])
        reps = 1500
        Z = rng.standard_normal((reps, sizes.max()))
        stats = np.empty((reps, sizes.size))
        for j, p in enumerate(sizes):
            stats[:, j] = np.sum(Z[:, :p] ** 2, axis=1) - p
        observed = stats.max(axis=1)
        mean = float(observed.mean())
        se = float(observed.std(ddof=1) / math.sqrt(reps))
        for delta in (0.3, 0.5, 0.7, 0.9):
            assert mean <= chi_sq_max_bound(sizes, delta) + 4.0 * se


class TestSimplifiedBound:
    def test_reference_constants_at_nine_tenths(self):
        lead = edf_upper_bound_simplified([1], 0.9)
        assert lead == pytest.approx(0.05360515657826381, abs=1e-15)
        two_log = edf_upper_bound_simplified([1, 1], 0.9) - lead
        assert two_log == pytest.approx(20.0 * math.log(2.0), rel=1e-12)

    def test_printed_example(self):
        value = edf_upper_bound_simplified([20] * 10, 0.9)
        expected = 20.0 * math.log(10.0) + 20.0 * 0.05360515657826381
        assert value == pytest.approx(expected, rel=1e-12)

    def test_single_model_keeps_only_size_term(self):
        delta = 0.6
        per = math.log(1.0 / delta) / (1.0 - delta) - 1.0
        assert edf_upper_bound_simplified([7], delta) == pytest.approx(7 * per)

    def test_delta_zero(self):
        assert edf_upper_bound_simplified([0, 0], 0.0) == pytest.approx(2 * math.log(2))
        assert edf_upper_bound_simplified([3], 0.0) == math.inf


def _scipy_area(center, radius):
    """Independent reference: 2 r f(r^2) from scipy.stats."""
    center = np.asarray(center, dtype=float)
    nonc = float(center @ center)
    dist = ncx2(center.size, nonc) if nonc > 0 else chi2(center.size)
    return 2.0 * radius * float(dist.pdf(radius**2))


class TestGaussianSurfaceArea:
    def test_one_dimensional_closed_form(self):
        out = gaussian_surface_area_ball([0.7], 1.3)
        assert isinstance(out, float)
        assert out == pytest.approx(_phi(0.7 + 1.3) + _phi(0.7 - 1.3), abs=1e-15)

    def test_origin_closed_form_d1_is_two_densities(self):
        r = 1.9
        out = gaussian_surface_area_ball([0.0], r)
        assert out == pytest.approx(2.0 * _phi(r), abs=1e-15)

    def test_mc_is_exact_in_one_dimension(self):
        # c13's sphere average: the pair (u, -u) IS the sphere when d = 1
        closed = gaussian_surface_area_ball([0.7], 1.3)
        mean, _ = _sphere_average_area(np.array([0.7]), 1.3, 100, 0)
        assert mean == pytest.approx(closed, abs=1e-14)

    def test_mc_matches_closed_form_at_origin(self):
        # the density is constant on an origin-centered sphere
        closed = gaussian_surface_area_ball([0.0, 0.0, 0.0], 2.0)
        mean, se = _sphere_average_area(np.zeros(3), 2.0, 1000, 0)
        assert mean == pytest.approx(closed, rel=1e-12, abs=0.0)
        assert se <= 1e-12 * closed

    def test_off_center_seeds_agree(self):
        center = np.array([1.0, 0.0, 0.0])
        exact = gaussian_surface_area_ball(center, 2.0)
        for seed in (1, 2):
            mean, se = _sphere_average_area(center, 2.0, 40_000, seed)
            assert abs(mean - exact) <= 4.0 * se

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 30])
    def test_matches_scipy_noncentral_density(self, d):
        rng = np.random.default_rng(100 + d)
        for norm in (0.05, 0.5, 1.0, 2.0, 4.0, 8.0):
            u = rng.standard_normal(d)
            center = norm * u / np.linalg.norm(u)
            for radius in (0.3, 1.0, math.sqrt(2.0 * d), 2.0 * math.sqrt(d) + 3.0):
                got = gaussian_surface_area_ball(center, radius)
                assert got == pytest.approx(_scipy_area(center, radius), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d,norm,rel", [
        (600, 0.1, 1e-12),  # e^{-z} I_nu(z) < 1e-280: Poisson mixture, mode near 0
        (600, 1.0, 1e-12),  # back on the Bessel form
        # mixture peaking near k = 87; log terms near 1e4 leave ~1e-12 rounding
        (3000, 9.7, 1e-10),
    ])
    def test_many_dimensions_where_the_bessel_factor_underflows(self, d, norm, rel):
        radius = math.sqrt(2.0 * d)
        center = np.zeros(d)
        center[0] = norm
        got = gaussian_surface_area_ball(center, radius)
        assert got == pytest.approx(_scipy_area(center, radius), rel=rel, abs=0.0)

    @pytest.mark.parametrize("d", [2, 3, 7, 30])
    def test_tiny_centers_approach_the_origin_value(self, d):
        # the value moves from the origin's by O(|c|^2): about 5e-9 relative
        # at |c|^2 = 1e-8, below 1e-30 from |c|^2 = 1e-40 on
        radius = math.sqrt(2.0 * d)
        origin = gaussian_surface_area_ball(np.zeros(d), radius)
        for nonc in (1e-8, 1e-40, 1e-160, 1e-300):
            center = np.zeros(d)
            center[-1] = math.sqrt(nonc)
            got = gaussian_surface_area_ball(center, radius)
            assert math.isfinite(got)
            want = _scipy_area(center, radius) if nonc > 1e-20 else origin
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_values_never_exceed_one(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            d = int(rng.integers(1, 8))
            center = rng.normal(0.0, 1.5, d)
            radius = float(rng.uniform(0.05, 4.0))
            assert gaussian_surface_area_ball(center, radius) <= 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            gaussian_surface_area_ball([0.0], 0.0)
        with pytest.raises(DomainError):
            gaussian_surface_area_ball([0.0], math.inf)
        with pytest.raises(DomainError):
            gaussian_surface_area_ball([0.0, 0.0], math.nan)
        with pytest.raises(DomainError):
            gaussian_surface_area_ball([math.nan, 1.0], 1.0)
        with pytest.raises(DomainError):
            gaussian_surface_area_ball([1.0, -math.inf], 1.0)
        with pytest.raises(ShapeError):
            gaussian_surface_area_ball([], 1.0)
        with pytest.raises(ShapeError):
            gaussian_surface_area_ball(np.zeros((2, 2)), 1.0)


class TestGasStations:
    def test_hand_example(self):
        rot = gas_stations_rotation([1.0, 3.0])
        assert rot.start == 0
        assert rot.multiplicity == 1
        rot = gas_stations_rotation([3.0, 1.0])
        assert rot.start == 1

    def test_symmetric_vector_ties_at_full_multiplicity(self):
        rot = gas_stations_rotation([2.0, 2.0, 2.0, 2.0])
        assert rot.start == 0
        assert rot.multiplicity == 4

    def test_validation(self):
        with pytest.raises(DomainError):
            gas_stations_rotation([1.0, 2.0])  # sums to 3, needs 4
        with pytest.raises(DomainError):
            gas_stations_rotation([-1.0, 5.0])
        with pytest.raises(ShapeError):
            gas_stations_rotation([])

    def test_continuous_inputs_have_unique_admissible_rotation(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            w = rng.dirichlet(np.ones(d)) * 2.0 * d
            rot = gas_stations_rotation(w)
            assert rot.multiplicity == 1
            # brute force: the reported start is the only one that works
            budget = 2.0 * np.arange(1, d + 1)
            valid = [r for r in range(d)
                     if np.all(np.cumsum(np.roll(w, -r)) <= budget + 1e-9)]
            assert valid == [rot.start]


class TestNestedNullBound:
    def test_first_term(self):
        expected = 2.0 * math.sqrt(2.0) * 2.0 * _phi(math.sqrt(2.0))
        assert nested_null_edf_bound(1) == pytest.approx(expected, abs=1e-15)
        assert nested_null_edf_bound(1) == pytest.approx(0.8302149948411894, abs=1e-14)

    def test_frozen_value_at_p_100(self):
        assert nested_null_edf_bound(100) == pytest.approx(9.557423268177821, abs=1e-10)

    def test_monotone_and_below_ten(self):
        vals = [nested_null_edf_bound(p) for p in range(1, 61)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert nested_null_edf_bound(5000) < 10.0

    def test_validation(self):
        with pytest.raises(DomainError):
            nested_null_edf_bound(0)

    @pytest.mark.parametrize("p", [2.5, math.nan, math.inf])
    def test_non_integer_p_rejected(self, p):
        with pytest.raises(DomainError, match="integer"):
            nested_null_edf_bound(p)

    def test_integral_float_and_numpy_p_accepted(self):
        assert nested_null_edf_bound(3.0) == nested_null_edf_bound(np.int64(3))


class TestNestedTailSplit:
    def test_reference_decomposition(self):
        split = nested_bound_tail_split()
        assert split.sqrt_series == pytest.approx(8.204906648441076, abs=1e-10)
        assert split.inv_sqrt_series == pytest.approx(1.746900943180685, abs=1e-10)
        assert split.total == pytest.approx(9.951807591621762, abs=1e-10)
        assert split.total < 10.0

    def test_certifies_every_partial_sum(self):
        split = nested_bound_tail_split(n_terms=400)
        assert split.total >= nested_null_edf_bound(5000)

    def test_more_terms_never_loosen(self):
        coarse = nested_bound_tail_split(n_terms=20)
        fine = nested_bound_tail_split(n_terms=2000)
        assert fine.total <= coarse.total + 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            nested_bound_tail_split(n_terms=0)

    def test_fractional_term_count_rejected(self):
        # A fraction would otherwise sum 2.5 head terms into a total of 11.07.
        with pytest.raises(DomainError, match="n_terms must be an integer at least 1, got 2.5"):
            nested_bound_tail_split(2.5)


class TestChiSquareProbabilities:
    def test_central_against_scipy(self):
        sf, cdf = chi2.sf(4.0, 3), chi2.cdf(3.0, 5)
        assert _chi2_prob(3, 0.0, 4.0, True) == pytest.approx(sf, rel=1e-12, abs=0.0)
        assert _chi2_prob(5, 0.0, 3.0, False) == pytest.approx(cdf, rel=1e-12, abs=0.0)

    def test_noncentral_against_scipy(self):
        cdf, sf = ncx2.cdf(6.0, 4, 2.5), ncx2.sf(6.0, 4, 2.5)
        assert _chi2_prob(4, 2.5, 6.0, False) == pytest.approx(cdf, rel=1e-12, abs=0.0)
        assert _chi2_prob(4, 2.5, 6.0, True) == pytest.approx(sf, rel=1e-12, abs=0.0)

    def test_zero_df_is_vacuous(self):
        assert _chi2_prob(0, 0.0, 1.0, True) == 1.0


def _scipy_general_theta(mu):
    """Windowed and pairwise sums written out with scipy.stats."""
    p = mu.size

    def area(window):
        return _scipy_area(window, math.sqrt(2.0 * window.size))

    def prob(df, nonc, threshold, upper):
        if df == 0:
            return 1.0
        dist = ncx2(df, nonc) if nonc > 0 else chi2(df)
        return float(dist.sf(threshold) if upper else dist.cdf(threshold))

    windowed = sum(
        math.sqrt(2.0 * d) * (d + 1) * max(area(mu[j : j + d]) for j in range(p - d + 1))
        for d in range(1, p + 1)
    )
    alternate = 0.0
    for j in range(p + 1):
        for k in range(j + 1, p + 1):
            low = prob(j, float(mu[:j] @ mu[:j]), 2.0 * (j - 1), True)
            high = prob(p - k, float(mu[k:] @ mu[k:]), 2.0 * (p - k), False)
            alternate += math.sqrt(2.0 * (k - j)) * low * high * area(mu[j:k])
    return windowed, alternate


class TestGeneralThetaBound:
    def test_zero_mean_windowed_matches_origin_formula(self):
        rep = general_theta_bound(np.zeros(3))
        expected = 0.0
        for d in (1, 2, 3):
            log_area = ((d - 1) * math.log(math.sqrt(2.0 * d)) - d
                        - (d / 2.0 - 1.0) * math.log(2.0) - math.lgamma(d / 2.0))
            expected += math.sqrt(2.0 * d) * (d + 1) * math.exp(log_area)
        assert rep.windowed == pytest.approx(expected, rel=1e-12, abs=0.0)
        # (d+1) >= (1 + 1/d), so this dominates the sharpened null constant
        assert rep.windowed >= nested_null_edf_bound(3)
        assert rep.cap == pytest.approx(math.sqrt(6.0) * 3 * 4)

    def test_single_coordinate_alternate_is_the_exact_edf(self):
        m = 1.2
        rep = general_theta_bound(np.array([m]))
        root2 = math.sqrt(2.0)
        exact = root2 * (_phi(root2 - m) + _phi(root2 + m))
        assert rep.alternate == pytest.approx(exact, abs=1e-14)
        assert rep.windowed == pytest.approx(2.0 * exact, abs=1e-14)

    def test_windowed_dominates_alternate_guards(self):
        rng = np.random.default_rng(26)
        mu = rng.normal(0.0, 1.0, 3)
        rep = general_theta_bound(mu)
        assert rep.alternate <= rep.windowed <= rep.cap

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_independent_scipy_evaluation(self, seed):
        rng = np.random.default_rng(300 + seed)
        mu = rng.normal(0.0, 1.5, 6) * (rng.random(6) < 0.7)
        rep = general_theta_bound(mu)
        windowed, alternate = _scipy_general_theta(mu)
        assert rep.windowed == pytest.approx(windowed, rel=1e-12, abs=0.0)
        assert rep.alternate == pytest.approx(alternate, rel=1e-12, abs=0.0)
        assert general_theta_bound(mu) == rep

    def test_takes_only_mu(self):
        assert list(inspect.signature(general_theta_bound).parameters) == ["mu"]

    def test_validation(self):
        with pytest.raises(ShapeError):
            general_theta_bound(np.zeros(0))
        with pytest.raises(DomainError, match="mu must be finite"):
            general_theta_bound([math.nan, 1.0])
        with pytest.raises(DomainError, match="mu must be finite"):
            general_theta_bound([0.5, math.inf, 1.0])


def test_bounds_never_import_scipy_stats():
    # scipy.stats costs about 0.4 s to import; the package must not need it
    code = (
        "import sys, suretune, suretune.cli\n"
        "suretune.general_theta_bound([0.5, 1.0, 0.0])\n"
        "suretune.gaussian_surface_area_ball([1.0, 2.0], 1.5)\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
    )
    src = str(Path(suretune.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_import_and_smoke_simulation_leave_scipy_unloaded(tmp_path):
    # scipy loads on the first call that needs it, so a numpy-only workload
    # never pays its import; the calls that do need it give the same values.
    code = (
        "import contextlib, io, sys\n"
        "import numpy as np\n"
        "import suretune, suretune.cli\n"
        f"argv = ['--out', {str(tmp_path / 'smoke.csv')!r}, 'simulate', '--preset', 'smoke']\n"
        "assert suretune.cli.main(argv) == 0\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, f'{len(loaded)} scipy modules loaded, first {loaded[:3]}'\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    assert suretune.cli.main(['bounds', 'best-subset-constant']) == 0\n"
        "print(out.getvalue(), end='')\n"
        "model = suretune.GaussianModel(theta0=np.array([3.0, 0.0, -1.5, 0.25]), sigma=1.0)\n"
        "print(repr(suretune.SoftThreshFamily(4, 1.0).oracle(model)))\n"
    )
    src = str(Path(suretune.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-4:] == [
        "value=2.28914865057",
        "delta=0.206751744196",
        "half_value=1.14457432529",
        "OracleTuning(s0=0.557724016697408, err=7.046402841124485)",
    ]


class TestBestSubsetConstant:
    def test_curve_reference_point(self):
        assert best_subset_penalty_curve(0.5) == pytest.approx(
            2.970397320953245, abs=1e-12
        )

    def test_curve_domain(self):
        with pytest.raises(DomainError):
            best_subset_penalty_curve(0.0)
        with pytest.raises(DomainError):
            best_subset_penalty_curve(1.0)

    def test_minimum_and_both_conventions(self):
        c = best_subset_constant()
        assert c.value == pytest.approx(2.2891486505747194, abs=1e-9)
        assert c.delta == pytest.approx(0.2067517441961714, abs=1e-6)
        assert c.half_value == pytest.approx(c.value / 2.0, abs=1e-15)
        assert best_subset_penalty_curve(0.05) > c.value
        assert best_subset_penalty_curve(0.9) > c.value
