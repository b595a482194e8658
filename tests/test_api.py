"""The public surface: each concept is reached one way.

A family is used through its methods (`tune`, `tune_batch`, `sure`,
`estimate`, `oracle`, and `criterion_matrix` for subsets); the package
exports no module-level wrapper that only forwards to one of them.
"""

import ast
import importlib
import inspect
import re
import textwrap
import types
from pathlib import Path

import pytest

import suretune
from suretune import EstimatorFamily, cli, mc_df, simulate

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
DELETED = {
    "core": ("sure", "tune_by_sure", "vectorize_rows", "oracle_tuning"),
    "shrinkage": ("tune_shrink_means", "tune_shrink_regression", "minimize_quadratic_sure",
                  "shrink_means_positive_part", "james_stein_positive_regression",
                  "unbiased_risk_sure_tuned_shrink", "ShrinkRiskBounds", "risk_bounds_shrink"),
    "softthresh": ("tune_soft_threshold",),
    "stein": ("numeric_divergence", "shrink_means_hooks", "hetero_shrink_hooks"),
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


@pytest.mark.parametrize("func", [simulate.run_simulation, cli._cmd_edf],
                         ids=lambda f: f.__name__)
def test_no_branch_on_the_family_name(func):
    # A family answers for its own excess-df statistics (`edf_unbiased`,
    # `hooks`), so the code that reports them never asks which family it has.
    names = set(simulate.FAMILIES) | set(cli.CLI_FAMILIES)
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    found = [
        (node.lineno, value)
        for node in ast.walk(tree) if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators)
        for value in _strings(operand) if value in names
    ]
    assert found == []


def _load_time_imports(tree):
    """Modules imported by statements that run when the module loads."""
    nodes, names = list(tree.body), []
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # a function body runs only when it is called
        if isinstance(node, ast.Import):
            names += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append((node.lineno, node.module))
        nodes.extend(ast.iter_child_nodes(node))
    return names


def test_no_module_imports_scipy_at_load_time():
    # A numpy-only workload must not pay for scipy's import; the functions
    # that need scipy import it where they call it.
    package = Path(suretune.__file__).resolve().parent
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(package.glob("*.py"))
        for line, name in _load_time_imports(ast.parse(path.read_text()))
        if name == "scipy" or name.startswith("scipy.")
    ]
    assert not found
