"""The public surface: each concept is reached one way.

A family is used through its methods (`tune`, `tune_batch`, `sure`,
`estimate` and `oracle`); the package exports no module-level wrapper that
only forwards to one of them.  Bad input is refused at one boundary,
`core`'s input checks (the last table).
"""

import ast
import importlib
import inspect
import math
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

import suretune
from suretune import (
    BootstrapConfig,
    ConfigError,
    DomainError,
    EdfReport,
    EstimatorFamily,
    GaussianModel,
    HeteroShrinkFamily,
    RidgeRotation,
    ShapeError,
    ShrinkMeansFamily,
    ShrinkRegressionFamily,
    SimSpec,
    SoftThreshFamily,
    SubsetCollection,
    chi_sq_max_bound,
    cli,
    edf_implicit_diff,
    edf_two_model_exact,
    edf_unbiased_shrink,
    edf_upper_bound_simplified,
    exopt_hetero_shrink,
    gas_stations_rotation,
    gaussian_surface_area_ball,
    general_theta_bound,
    james_stein_positive,
    make_all_subsets,
    make_nested,
    mc_df,
    mc_edf,
    mc_prediction_error,
    nested_bound_tail_split,
    nested_null_edf_bound,
    parse_config,
    scan_jumps,
    simulate,
    soft_threshold,
    soft_threshold_risk,
    theta0_for,
)

LIBRARY_MODULES = (
    "acceptance",
    "bootstrap",
    "bounds",
    "core",
    "shrinkage",
    "simulate",
    "softthresh",
    "stein",
    "subsets",
)

# Forwarders to a family method and duplicate or unused paths, deleted in
# favour of the one path that remains: `family.oracle(model)` for
# `oracle_tuning`, `SubsetCollection(X, make_all_subsets(p), sigma)` for the
# exhaustive best-subset fit, `family.hooks` for the free hook builders.
# `ShrinkMeansFamily(n, sigma).tune` replaces the quadratic minimizer and the
# positive-part rule.  The paper's two properties are read off a family:
# `fit.sure_min + 2 sigma^2 family.edf_unbiased(fit)` replaces the shrink-only
# unbiased risk estimate, and `family.oracle(model).err` the risk-bound class.
# Acceptance c04 checks property (ii) on every family through the one Monte
# Carlo pass, in place of the test-only oracle gap check, and
# `HeteroShrinkFamily(sigmas).tune` replaces its one-vector forwarder.
# `mc_edf(SoftThreshFamily(n, sigma), model)` compared with -4 SE replaces
# the soft-threshold df lower-bound check.
DELETED = {
    "bootstrap": ("bootstrap_df",),
    "core": ("sure", "tune_by_sure", "vectorize_rows", "oracle_tuning", "oracle_gap_check",
             "OracleGapReport", "TuningDomain"),
    "shrinkage": ("tune_shrink_means", "tune_shrink_regression", "minimize_quadratic_sure",
                  "shrink_means_positive_part", "james_stein_positive_regression",
                  "unbiased_risk_sure_tuned_shrink", "ShrinkRiskBounds", "risk_bounds_shrink"),
    "softthresh": ("tune_soft_threshold", "df_lower_bound_check", "JumpScan"),
    "stein": ("numeric_divergence", "shrink_means_hooks", "hetero_shrink_hooks",
              "tune_hetero_shrink"),
    "subsets": ("tune_cp", "cp_criterion", "best_subset_lagrangian", "BestSubsetFit"),
}


def _module(name):
    return importlib.import_module(f"suretune.{name}")


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_every_name_in_all_exists(name):
    module = _module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_every_package_export_is_in_its_module_all():
    modules = [_module(name) for name in LIBRARY_MODULES]
    orphans = []
    for name, obj in vars(suretune).items():
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        if not any(name in m.__all__ and getattr(m, name) is obj for m in modules):
            orphans.append(name)
    assert orphans == []


@pytest.mark.parametrize("module_name, name", [
    (module_name, name) for module_name, names in DELETED.items() for name in names
])
def test_deleted_forwarders_are_unreachable(module_name, name):
    assert not hasattr(suretune, name)
    module = _module(module_name)
    assert not hasattr(module, name)
    assert name not in module.__all__


REPO = Path(__file__).resolve().parents[1]


def _suretune_names(path):
    """Names a script imports from suretune or reads off a suretune module."""
    tree = ast.parse(path.read_text())
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names
                           if a.name.split(".")[0] == "suretune")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("suretune"):
            names.update(a.name for a in node.names)
            modules.update(a.asname or a.name for a in node.names)
    names.update(node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and ast.unparse(node.value) in modules)
    return names


def test_deleted_names_are_gone_from_readme_and_demos():
    deleted = {name for names in DELETED.values() for name in names}
    found = [f"{path.name}: {name}" for path in sorted((REPO / "demos").glob("*.py"))
             for name in sorted(deleted & _suretune_names(path))]
    # A deleted function that lives on as a family method of the same name
    # (`sure`) is still documented as that method.
    readme = (REPO / "README.md").read_text()
    found += [f"README.md: {name}" for name in sorted(deleted)
              if not hasattr(EstimatorFamily, name) and re.search(rf"\b{name}\b", readme)]
    assert found == []


def _bench_reads():
    """Dotted names that `bench/workloads.py` reads off the package, which it
    holds as `st` or `self.st`: ("cli", "main") for `st.cli.main`."""
    reads = set()
    for node in ast.walk(ast.parse((REPO / "bench" / "workloads.py").read_text())):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.insert(0, node.id)
            if parts[:2] == ["self", "st"]:
                parts = parts[1:]
            if parts[0] == "st" and len(parts) > 1:
                reads.add(tuple(parts[1:]))
    return reads


def _unresolved(reads):
    missing = []
    for path in sorted(reads):
        obj = suretune
        for name in path:
            if not hasattr(obj, name):
                missing.append(".".join(path))
                break
            obj = getattr(obj, name)
    return missing


def test_every_name_the_benchmark_reads_resolves():
    # A deletion that a workload still calls would fail the benchmark, not
    # tier 1; this guard fails first.
    reads = _bench_reads()
    assert {("ridge_as_hetero",), ("bootstrap_edf",), ("cli", "main")} <= reads
    assert _unresolved(reads) == []


@pytest.mark.parametrize("path", [("ridge_as_hetero",), ("bootstrap_edf",), ("cli", "main")],
                         ids=".".join)
def test_the_benchmark_guard_sees_a_deleted_name(monkeypatch, path):
    owner = suretune
    for name in path[:-1]:
        owner = getattr(owner, name)
    monkeypatch.delattr(owner, path[-1])
    assert _unresolved(_bench_reads()) == [".".join(path)]


def test_no_tuned_rule_or_centering_option():
    assert not hasattr(EstimatorFamily, "tuned_rule")
    assert "center" not in inspect.signature(mc_df).parameters


def _strings(node):
    """String constants of an expression, inside a tuple, list or set too."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [value for elt in node.elts for value in _strings(elt)]
    return []


def _name_compares(source, names):
    """(line, string) of each comparison in `source` with a string in `names`."""
    tree = ast.parse(textwrap.dedent(source))
    return [
        (node.lineno, value)
        for node in ast.walk(tree) if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators)
        for value in _strings(operand) if value in names
    ]


# Every family under both spellings, and every `suretune bounds` subcommand.
_FAMILY_AND_BOUND_NAMES = set(simulate.FAMILY_REGISTRY) | set(cli.CLI_FAMILIES) | set(cli.BOUNDS)


@pytest.mark.parametrize("func", [simulate.run_simulation] + [
    func for _, func in inspect.getmembers(cli, inspect.isfunction)
    if func.__module__ == cli.__name__
], ids=lambda f: f.__name__)
def test_no_branch_on_the_family_name(func):
    # A family answers for its own excess-df statistics (`edf_unbiased`,
    # `hooks`), so the code that reports them never asks which family it has;
    # the command line builds families and bounds from their registries.
    assert _name_compares(inspect.getsource(func), _FAMILY_AND_BOUND_NAMES) == []


def test_a_branch_on_a_family_or_bound_name_is_seen():
    source = """
def build(args):
    if args.bound == "chi-sq-max":
        return 1
    return args.family in ("shrink-regression", "hetero_shrink")
"""
    assert _name_compares(source, _FAMILY_AND_BOUND_NAMES) == [
        (3, "chi-sq-max"), (5, "shrink-regression"), (5, "hetero_shrink")]


def _calls(path, name):
    """The enclosing function (None at module level) of each call to `name`,
    as a function or a method, in a source file."""
    return _calls_in(ast.parse(path.read_text()), name)


def _calls_in(tree, name):
    """`_calls` in a parsed tree."""
    found = []

    def visit(node, func):
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)):
            found.append(func)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_one_pass_over_a_models_draws():
    # `core._tuned_stats` is the one loop that draws a model's Monte Carlo
    # reps and tunes them: it alone pairs draws with their test copies, and
    # the simulation grid draws and blocks nothing of its own.
    package = Path(suretune.__file__).resolve().parent
    callers = [(path.name, func) for path in sorted(package.glob("*.py"))
               for func in _calls(path, "_paired_draws")]
    assert callers == [("core.py", "_tuned_stats")]
    for name in ("_paired_draws", "draw", "_row_blocks"):
        assert _calls(package / "simulate.py", name) == []


def test_one_step_checks_a_familys_data_and_scales_its_noise():
    # `EstimatorFamily._at_unit_noise` alone checks a family's batch or model
    # and runs the family's core at unit noise; no family calls the checks.
    # Its two callers are the base class's tuner and oracle, through which
    # every family reaches it.
    package = Path(suretune.__file__).resolve().parent
    callers = {(path.name, func) for path in sorted(package.glob("*.py"))
               for func in _calls(path, "_at_unit_noise")}
    assert callers == {("core.py", "tune_batch"), ("core.py", "oracle")}
    found = []
    for info in pkgutil.iter_modules(suretune.__path__):
        module = importlib.import_module(f"suretune.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, EstimatorFamily) and cls.__module__ == module.__name__:
                tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
                found += [(name, cls.__name__, func)
                          for name in ("_check_batch", "_check_model")
                          for func in _calls_in(tree, name)]
    assert set(found) == {(name, "EstimatorFamily", "_at_unit_noise")
                          for name in ("_check_batch", "_check_model")}


# numpy is the only runtime dependency.  The script below runs once with
# scipy blocked (`sys.modules["scipy"] = None` makes every scipy import
# raise) and once with scipy importable; both runs must succeed and print
# the same bytes.  It loads the package and the CLI without the battery,
# runs the smoke preset and the battery, and calls every public bound and
# every family's oracle.
_NUMPY_ONLY_SCRIPT = """
import inspect, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
import numpy as np
import suretune, suretune.cli
from suretune import bounds
from suretune.core import EstimatorFamily
from suretune.shrinkage import SingletonShrinkFamily
assert "suretune.acceptance" not in sys.modules
assert suretune.cli.main(["--out", "-", "simulate", "--preset", "smoke"]) == 0
assert suretune.cli.main(["selfcheck"]) == 1  # c03 is red by design
calls = [
    ("chi_sq_max_bound", ([1, 2, 4], 0.5)),
    ("edf_upper_bound_simplified", ([1, 2, 4], 0.5)),
    ("gaussian_surface_area_ball", ([1.0, 2.0], 1.5)),
    ("gaussian_surface_area_ball", ([0.0, 0.0, 0.0], 1.5)),
    ("gaussian_surface_area_ball", ([0.7], 1.3)),
    ("gas_stations_rotation", ([1.0, 3.0],)),
    ("nested_null_edf_bound", (50,)),
    ("nested_bound_tail_split", (100,)),
    ("general_theta_bound", ([0.5, 1.0, 0.0, -2.0],)),
    ("best_subset_penalty_curve", (0.5,)),
    ("best_subset_constant", ()),
]
public = {n for n in bounds.__all__ if inspect.isfunction(getattr(bounds, n))}
assert {n for n, _ in calls} == public, public
for name, args in calls:
    print(name, repr(getattr(bounds, name)(*args)))
theta0, sigmas = np.array([3.0, 0.0, -1.5, 0.25]), np.array([0.5, 1.0, 2.0, 1.5])
X = np.random.default_rng(3).standard_normal((4, 3))
homo = suretune.GaussianModel(theta0, sigma=1.0)
oracles = {
    "HeteroShrinkFamily": (suretune.HeteroShrinkFamily(sigmas),
                           suretune.GaussianModel(theta0, sigmas=sigmas)),
    "ShrinkMeansFamily": (suretune.ShrinkMeansFamily(4, 1.0), homo),
    "ShrinkRegressionFamily": (suretune.ShrinkRegressionFamily(X, 1.0), homo),
    "SingletonShrinkFamily": (SingletonShrinkFamily(4, 1.0), homo),
    "SubsetCollection": (suretune.make_nested(X, 1.0), homo),
    "SoftThreshFamily": (suretune.SoftThreshFamily(4, 1.0), homo),
}
families, todo = set(), [EstimatorFamily]
while todo:
    cls = todo.pop()
    todo += cls.__subclasses__()
    if cls._oracle_at is not None:
        families.add(cls.__name__)
assert set(oracles) == families, families
for name, (family, model) in oracles.items():
    print(name, repr(family.oracle(model)))
assert suretune.cli.main(["bounds", "best-subset-constant"]) == 0
"""


def test_numpy_is_the_only_runtime_dependency():
    src = str(Path(suretune.__file__).resolve().parents[1])
    runs = {mode: subprocess.Popen([sys.executable, "-c", _NUMPY_ONLY_SCRIPT, mode],
                                   env={**os.environ, "PYTHONPATH": src}, text=True,
                                   stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for mode in ("blocked", "importable")}
    out = {mode: run.communicate(timeout=300) for mode, run in runs.items()}
    for mode, run in runs.items():
        assert run.returncode == 0, (mode, out[mode][1][-2000:])
    blocked = out["blocked"][0]
    assert blocked == out["importable"][0]
    lines = blocked.splitlines()
    assert sum(line.startswith("[PASS] c") for line in lines) == 14
    assert "[FAIL] c03" in blocked
    assert lines[-4:] == [
        "SoftThreshFamily OracleTuning(s0=0.5577239930523884, err=7.046402841124483)",
        "value=2.28914865057",
        "delta=0.206751747217",
        "half_value=1.14457432529",
    ]


# One input boundary.  `core` alone decides what a valid input is: every row
# is (public entry, bad value, exception type, message), and the message is
# the one core's helper writes for that kind of value.  A check copied into
# another module, with its own message, fails its rows.
_X = np.eye(3)[:, :2]
_Y = np.array([1.0, 2.0, 3.0])
_MODEL = GaussianModel(np.zeros(3), sigma=1.0)


def _sigma_message(name):
    return (rf"{name} must be positive and finite, with a normal square "
            rf"\(2\^-511 <= {name} < 2\^512\)")


SIGMA_ENTRIES = {
    "ShrinkMeansFamily": lambda v: ShrinkMeansFamily(3, v),
    "ShrinkRegressionFamily": lambda v: ShrinkRegressionFamily(_X, v),
    "SoftThreshFamily": lambda v: SoftThreshFamily(3, v),
    "SubsetCollection": lambda v: SubsetCollection(_X, [(0,), (0, 1)], v),
    "SingletonShrinkFamily": lambda v: simulate.SingletonShrinkFamily(3, v),
    "GaussianModel": lambda v: GaussianModel(np.zeros(3), sigma=v),
    "RidgeRotation": lambda v: RidgeRotation(_X, _Y, v),
    "james_stein_positive": lambda v: james_stein_positive(_Y, v),
    "soft_threshold_risk": lambda v: soft_threshold_risk([0.5], v, 1.0),
}
SIGMAS_ENTRIES = {
    "HeteroShrinkFamily": lambda v: HeteroShrinkFamily([1.0, v]),
    "GaussianModel-sigmas": lambda v: GaussianModel(np.zeros(2), sigmas=[1.0, v]),
    "exopt_hetero_shrink": lambda v: exopt_hetero_shrink([1.0, 2.0], [1.0, v], 1.0),
}
BAD_SIGMAS = (0.0, -1.0, math.nan, math.inf, 1e-200, 1e200)

# name -> (argument name in the message, call with the vector)
VECTOR_ENTRIES = {
    "GaussianModel": ("theta0", lambda x: GaussianModel(x, sigma=1.0)),
    "GaussianModel-sigmas": ("sigmas", lambda x: GaussianModel(np.zeros(3), sigmas=x)),
    "HeteroShrinkFamily": ("sigmas", HeteroShrinkFamily),
    "soft_threshold_risk": ("theta0", lambda x: soft_threshold_risk(x, 1.0, 1.0)),
    "edf_two_model_exact": ("theta0", lambda x: edf_two_model_exact(_X, x, 1.0)),
    "exopt_hetero_shrink-y": ("y", lambda x: exopt_hetero_shrink(x, np.ones(3), 1.0)),
    "exopt_hetero_shrink-sigmas": ("sigmas", lambda x: exopt_hetero_shrink(_Y, x, 1.0)),
    "gaussian_surface_area_ball": ("center", lambda x: gaussian_surface_area_ball(x, 1.0)),
    "general_theta_bound": ("mu", general_theta_bound),
    "gas_stations_rotation": ("w", gas_stations_rotation),
    "chi_sq_max_bound": ("sizes", lambda x: chi_sq_max_bound(x, 0.5)),
    "edf_upper_bound_simplified": ("sizes", lambda x: edf_upper_bound_simplified(x, 0.5)),
    "SimSpec": ("theta0", lambda x: SimSpec(setting="custom", sizes=(3,), theta0=x)),
    "theta0_for": ("custom theta0", lambda x: theta0_for("custom", 3, custom=x)),
    "scan_jumps-y_base": ("y_base", lambda x: scan_jumps(SoftThreshFamily(3, 1.0), x, 0, [0.0])),
    "scan_jumps-t_grid": ("t_grid", lambda x: scan_jumps(SoftThreshFamily(3, 1.0), _Y, 0, x)),
}
# Data vectors are checked as one-row batches by `core._check_batch`.
DATA_ENTRIES = {
    "EstimatorFamily.tune": (lambda x: ShrinkMeansFamily(3, 1.0).tune(x),
                             r"expected a length-3 vector"),
    "HeteroShrinkFamily.tune": (lambda x: HeteroShrinkFamily(np.ones(3)).tune(x),
                                r"expected a length-3 vector"),
    "RidgeRotation-y": (lambda x: RidgeRotation(_X, x), r"X must be 2-d with rows matching y"),
    "james_stein_positive": (lambda x: james_stein_positive(x, 1.0), None),
}

# name -> (count name in the message, least value, call with the count)
COUNT_ENTRIES = {
    "ShrinkMeansFamily": ("n", 1, lambda v: ShrinkMeansFamily(v, 1.0)),
    "SoftThreshFamily": ("n", 1, lambda v: SoftThreshFamily(v, 1.0)),
    "SingletonShrinkFamily": ("n", 1, lambda v: simulate.SingletonShrinkFamily(v, 1.0)),
    "make_all_subsets": ("p", 0, make_all_subsets),
    "make_nested": ("every prefix size", 0, lambda v: make_nested(_X, 1.0, sizes=(v,))),
    "make_nested-order": ("every column index", 0, lambda v: make_nested(_X, 1.0, order=(v, 0))),
    "SubsetCollection": ("every column index", 0, lambda v: SubsetCollection(_X, [(v,)], 1.0)),
    "nested_null_edf_bound": ("p", 1, nested_null_edf_bound),
    "nested_bound_tail_split": ("n_terms", 1, nested_bound_tail_split),
    "chi_sq_max_bound": ("every size", 0, lambda v: chi_sq_max_bound([1, v], 0.5)),
    "edf_upper_bound_simplified": ("every size", 0,
                                   lambda v: edf_upper_bound_simplified([1, v], 0.5)),
    "mc_df": ("reps", 2, lambda v: mc_df(lambda Y: Y, _MODEL, reps=v)),
    "mc_prediction_error": ("reps", 2, lambda v: mc_prediction_error(lambda Y: Y, _MODEL, reps=v)),
    "mc_edf": ("reps", 2, lambda v: mc_edf(ShrinkMeansFamily(3, 1.0), _MODEL, reps=v)),
    "EdfReport": ("reps", 1, lambda v: EdfReport("monte_carlo", 0.0, 0.0, v)),
    "BootstrapConfig": ("bootstrap B", 2, lambda v: BootstrapConfig(B=v)),
    "BootstrapConfig-seed": ("seed", 0, lambda v: BootstrapConfig(seed=v)),
    "SimSpec-sizes": ("every size", 1, lambda v: SimSpec(sizes=(v,))),
    "SimSpec-outer_reps": ("outer_reps", 2, lambda v: SimSpec(outer_reps=v)),
    "SimSpec-bootstrap_B": ("bootstrap_B other than 0", 2, lambda v: SimSpec(bootstrap_B=v)),
    "SimSpec-seed": ("seed", 0, lambda v: SimSpec(seed=v)),
    "scan_jumps": ("coord", 0, lambda v: scan_jumps(SoftThreshFamily(3, 1.0), _Y, v, [0.0])),
}

# A rule's output is checked as data are, naming the (row, column) of the
# bad estimate: without the check these calls return a silent NaN or inf.
RULE_ENTRIES = {
    "mc_df": lambda rule: mc_df(rule, _MODEL, reps=6),
    "mc_prediction_error": lambda rule: mc_prediction_error(rule, _MODEL, reps=6),
}


def _rule_with(bad):
    """A rule returning its data with the estimate at (row 4, column 1) set to bad."""
    def rule(Y):
        theta = Y.copy()
        theta[4, 1] = bad
        return theta
    return rule


_FAMILIES = {
    "ShrinkMeansFamily": lambda: ShrinkMeansFamily(3, 1.0),
    "ShrinkRegressionFamily": lambda: ShrinkRegressionFamily(np.eye(3), 1.0),
    "SoftThreshFamily": lambda: SoftThreshFamily(3, 1.0),
    "HeteroShrinkFamily": lambda: HeteroShrinkFamily(np.ones(3)),
    "SingletonShrinkFamily": lambda: simulate.SingletonShrinkFamily(3, 1.0),
    "SubsetCollection": lambda: SubsetCollection(np.eye(3), [(0,), (0, 1)], 1.0),
}
# name -> (argument name in the message, call with the tuning value)
TUNING_ENTRIES = {
    "soft_threshold": ("threshold", lambda s: soft_threshold(_Y, s)),
    "soft_threshold_risk": ("threshold", lambda s: soft_threshold_risk(_Y, 1.0, s)),
    "edf_unbiased_shrink": ("s_hat", edf_unbiased_shrink),
    "SingletonShrinkFamily": ("tuning value",
                              lambda s: simulate.SingletonShrinkFamily(3, 1.0, s=s)),
    "edf_implicit_diff": ("s_hat",
                          lambda s: edf_implicit_diff(ShrinkMeansFamily(3, 1.0).hooks, _Y, s)),
    "exopt_hetero_shrink": ("s_hat", lambda s: exopt_hetero_shrink(_Y, np.ones(3), s)),
    "RidgeRotation.penalty_of": ("tuning value", lambda s: RidgeRotation(_X, _Y).penalty_of(s)),
    "RidgeRotation.s_of_penalty": ("penalty", lambda s: RidgeRotation(_X, _Y).s_of_penalty(s)),
}


# Every entry but `edf_unbiased_shrink` takes one value.
ONE_VALUE_TUNING = set(TUNING_ENTRIES) - {"edf_unbiased_shrink"}
# NaN and -1 are out of range; a bool or a string is not a number, though a
# float conversion reads True and "1" as 1.0; a one-value call refuses [1.0].
BAD_TUNING = (math.nan, -1.0, True, "1", [1.0])


def _tuning_message(arg, s):
    """`core._check_tuning`'s message for the bad tuning value s (for [1.0],
    `core._check_tuning_value`'s)."""
    if isinstance(s, list):
        return re.escape(f"{arg} must be one value, got shape (1,)")
    if isinstance(s, (bool, str)):
        return re.escape(f"{arg} must be a real number, got {s!r}")
    return re.escape(f"{arg} must be nonnegative (+inf allowed), not NaN")


def _family_call(family, method):
    return lambda s: getattr(_FAMILIES[family](), method)(s, _Y)


def _boundary_rows():
    for name, call in SIGMA_ENTRIES.items():
        for v in BAD_SIGMAS:
            yield f"sigma {name}", call, v, DomainError, _sigma_message("sigma")
    for v in BAD_SIGMAS:
        yield ("sigma parse_config", lambda v: parse_config(f"sigma = {v!r}\n"), v, ConfigError,
               "line 0: " + _sigma_message("sigma"))
    for name, call in SIGMAS_ENTRIES.items():
        for v in BAD_SIGMAS:
            message = _sigma_message("sigmas")
            if not math.isfinite(v):
                message = "sigmas is not finite at index 1"
            yield f"sigma {name}", call, v, DomainError, message
    for name, (arg, call) in VECTOR_ENTRIES.items():
        for bad in (math.nan, math.inf):
            yield (f"vector {name}", call, [1.0, bad, 2.0], DomainError,
                   f"{arg} is not finite at index 1")
        yield (f"vector {name}", call, np.ones((1, 3)), ShapeError,
               re.escape(f"{arg} must be one-dimensional, got shape (1, 3)"))
    for name, (call, shape_message) in DATA_ENTRIES.items():
        for bad in (math.nan, math.inf):
            yield (f"data {name}", call, [1.0, bad, 2.0], DomainError,
                   r"data is not finite at \(row 0, column 1\)")
        if shape_message is not None:
            yield f"data {name}", call, np.ones((1, 3)), ShapeError, shape_message
    for name, call in RULE_ENTRIES.items():
        for bad in (math.nan, math.inf):
            yield (f"rule {name}", lambda v, call=call: call(_rule_with(v)), bad, DomainError,
                   r"rule output is not finite at \(row 4, column 1\)")
        yield (f"rule {name}", lambda v, call=call: call(_rule_with(v)), 1e200, DomainError,
               r"squared norm of rule output row 4 overflows \(largest at column 1\)")
    for name, (arg, least, call) in COUNT_ENTRIES.items():
        for v in (2.5, -1):
            yield (f"count {name}", call, v, DomainError,
                   rf"{arg} must be an integer at least {least}, got {v}(\.0)?")
    # A coordinate past the data is refused, as is a y_base of another length.
    yield ("count scan_jumps", lambda v: scan_jumps(SoftThreshFamily(3, 1.0), _Y, v, [0.0]), 3,
           DomainError, "coord 3 outside data of length 3")
    yield ("vector scan_jumps-y_base", lambda x: scan_jumps(SoftThreshFamily(3, 1.0), x, 0, [0.0]),
           [1.0, 2.0], ShapeError, "y_base must have length 3, got 2")
    # A fractional column index is refused, not truncated to a column.
    for name, call, v in (
            ("SubsetCollection", lambda v: SubsetCollection(np.eye(3), [(v,)], 1.0), 0.7),
            ("make_nested-order", lambda v: make_nested(np.eye(3), 1.0, order=(v, 0, 2)), 1.5)):
        yield (f"count {name}", call, v, DomainError,
               rf"every column index must be an integer at least 0, got {v}")
    for name, (arg, call) in TUNING_ENTRIES.items():
        for s in BAD_TUNING if name in ONE_VALUE_TUNING else BAD_TUNING[:-1]:
            yield f"tuning {name}", call, s, DomainError, _tuning_message(arg, s)
    for family in _FAMILIES:
        for method in ("estimate", "naive_df", "sure"):
            for s in BAD_TUNING:
                message = _tuning_message("tuning value", s)
                if family == "SubsetCollection":
                    message = re.escape(f"subset {s!r} is not in the collection")
                call = _family_call(family, method)
                yield f"tuning {family}.{method}", call, s, DomainError, message
    # A family narrower than [0, +inf] refuses what lies outside its `_s_range`.
    for method in ("estimate", "naive_df", "sure"):
        yield (f"tuning SingletonShrinkFamily.{method}", _family_call("SingletonShrinkFamily",
               method), 2.0, DomainError, r"tuning value 2\.0 is outside the family domain")
    for s in BAD_TUNING:
        yield ("tuning RidgeRotation.coef", lambda s: RidgeRotation(_X, _Y).coef(s), s,
               DomainError, _tuning_message("tuning value", s))


BOUNDARY = list(_boundary_rows())


@pytest.mark.parametrize(
    "entry, call, value, error, message", BOUNDARY,
    ids=[f"{row[0]}-{np.asarray(row[2]).tolist()!r}" for row in BOUNDARY])
def test_one_input_boundary(entry, call, value, error, message):
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert re.fullmatch(message, str(info.value)), str(info.value)
