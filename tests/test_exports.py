import importlib

import pytest

import packbounds

MODULES = ["cli", "euclid_bounds", "hyperbolic", "orthopoly", "specfun", "spherical_lp"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"packbounds.{name}")
    missing = [x for x in mod.__all__ if not hasattr(mod, x)]
    assert missing == []
    exec(f"from packbounds.{name} import *", {})


def test_package_exports_only_declared_names():
    # the package has no __all__ of its own: its public names are the
    # submodules and what it re-exports, each from some module's __all__
    declared = set()
    for name in MODULES:
        declared.update(importlib.import_module(f"packbounds.{name}").__all__)
    names = [x for x in vars(packbounds) if not x.startswith("_") and x not in MODULES]
    stale = [x for x in names if x not in declared]
    assert stale == []
    exec("from packbounds import *", {})
