import ast
import importlib
from pathlib import Path

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


PACKAGE = Path(packbounds.__file__).parent
# the package modules each module may import; cli may import any of them
LAYERS = {
    "specfun": set(),
    "orthopoly": {"specfun"},
    "euclid_bounds": {"orthopoly", "specfun"},
    "spherical_lp": {"orthopoly", "specfun"},
    "hyperbolic": {"euclid_bounds", "orthopoly", "specfun"},
}


def _package_imports(name):
    """The module's syntax tree, its (module, name) pairs of relative
    imports (name None for ``from . import module``), and the local names
    bound to package modules."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    edges, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    edges.append((alias.name, None))
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    edges.append((node.module, alias.name))
    return tree, edges, aliases


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_module_imports_follow_the_layers(name):
    _, edges, _ = _package_imports(name)
    assert {module for module, _ in edges} == LAYERS[name]


def test_cli_uses_only_public_names():
    tree, edges, aliases = _package_imports("cli")
    private = [f"{module}.{name}" for module, name in edges if name and name.startswith("_")]
    private += [
        f"{aliases[node.value.id]}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in aliases and node.attr.startswith("_")
    ]
    assert private == []


def test_package_has_no_assert_statement():
    # python -O strips assert statements, so no check of the package may be one
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_helpers(tree):
    # (name, node) of each module-level function and class method whose
    # name starts with a single underscore
    for node in tree.body:
        bodies = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in bodies:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_private(fn.name):
                yield fn.name, fn


def _private_constants(tree):
    # (name, target) of each module-level name with a single leading
    # underscore bound by assignment, each name of a tuple target included
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and _is_private(name.id):
                        yield name.id, name


def _unused(definitions):
    # a private name that only tests read, or that nothing reads, is dead
    # code: each needs a reference in the package outside its own definition
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for name, defn in definitions(tree):
            own = {id(node) for node in ast.walk(defn)}
            used = any(
                id(node) not in own
                and (isinstance(node, ast.Name) and node.id == name
                     or isinstance(node, ast.Attribute) and node.attr == name)
                for other in trees.values() for node in ast.walk(other)
            )
            if not used:
                unused.append(f"{module}:{name}")
    return unused


def test_every_private_helper_is_used_in_the_package():
    assert _unused(_private_helpers) == []


def test_every_private_constant_is_used_in_the_package():
    assert _unused(_private_constants) == []
