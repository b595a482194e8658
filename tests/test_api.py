"""The public surface: each concept is reached one way.

A family is used through its methods (`tune`, `tune_batch`, `sure`,
`estimate`, `oracle`, and `criterion_matrix` for subsets); the package
exports no module-level wrapper that only forwards to one of them.
"""

import importlib
import inspect
import types

import pytest

import suretune
from suretune import EstimatorFamily, mc_df

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

# Forwarders to a family method, deleted in favour of the method itself.
DELETED = {
    "core": ("sure", "tune_by_sure", "vectorize_rows"),
    "shrinkage": ("tune_shrink_means", "tune_shrink_regression"),
    "softthresh": ("tune_soft_threshold",),
    "subsets": ("tune_cp", "cp_criterion"),
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


def test_no_tuned_rule_or_centering_option():
    assert not hasattr(EstimatorFamily, "tuned_rule")
    assert "center" not in inspect.signature(mc_df).parameters
