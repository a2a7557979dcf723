"""The package's declared public surface matches what its modules define."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import toda_atlas


def package_modules():
    """Every module of the package, by its name within it."""
    return {
        info.name: importlib.import_module(f"toda_atlas.{info.name}")
        for info in pkgutil.iter_modules(toda_atlas.__path__)
    }


def test_all_lists_exactly_the_public_definitions():
    modules = package_modules()
    undeclared = [name for name, module in modules.items() if not hasattr(module, "__all__")]
    assert not undeclared, f"modules without __all__: {undeclared}"

    missing = [
        f"{name}.{attr}"
        for name, module in modules.items()
        for attr in module.__all__
        if not hasattr(module, attr)
    ]
    assert not missing, f"listed in __all__ but not defined: {missing}"

    unlisted = [
        f"{name}.{attr}"
        for name, module in modules.items()
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
        and attr not in module.__all__
    ]
    assert not unlisted, f"public but missing from __all__: {unlisted}"


def relative_imports(name):
    """Package modules the module ``toda_atlas.<name>`` imports."""
    tree = ast.parse(inspect.getsource(importlib.import_module(f"toda_atlas.{name}")))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # "from .x import y" names x; "from . import x" names x itself
            modules |= {node.module} if node.module else {alias.name for alias in node.names}
    return modules


def test_module_layering():
    assert relative_imports("flows") == {"errors", "linalg_core"}
    above_the_charts = {"flows", "analysis", "sampling", "serialization", "cli"}
    assert not relative_imports("atlas") & above_the_charts
    assert [name for name in package_modules() if "analysis" in relative_imports(name)] == ["cli"]


# the package modules that importing each module loads in a fresh
# interpreter besides the package and the module itself: the package file
# imports nothing, so a module loads only what it imports
LOADS = {
    "flows": ("errors", "linalg_core"),
    "atlas": ("errors", "factorizations", "linalg_core", "weyl_profiles"),
    "serialization": ("linalg_core",),
}
PROBE = (
    "import importlib, sys; importlib.import_module(sys.argv[1]); "
    "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'toda_atlas')); "
    "print('numpy.random' in sys.modules)"
)


def test_importing_a_module_loads_only_the_modules_it_uses():
    env = dict(os.environ, PYTHONPATH=str(Path(toda_atlas.__file__).parents[1]))
    for name, uses in LOADS.items():
        run = subprocess.run(
            [sys.executable, "-c", PROBE, f"toda_atlas.{name}"],
            env=env, capture_output=True, text=True, check=True,
        )
        loaded, random_loaded = run.stdout.splitlines()
        expected = ["toda_atlas", *(f"toda_atlas.{module}" for module in (name, *uses))]
        assert loaded.split() == sorted(expected), name
        if name == "flows":
            assert random_loaded == "False"


def test_every_private_definition_is_loaded_in_the_package():
    # a module-level "_" function or class that no code of the package
    # loads is dead, or a twin of a kernel kept only for the tests
    sources = [toda_atlas] + [
        importlib.import_module(f"toda_atlas.{info.name}")
        for info in pkgutil.iter_modules(toda_atlas.__path__)
    ]
    trees = {module.__name__: ast.parse(inspect.getsource(module)) for module in sources}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unloaded = [
        f"{name}.{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in loaded
    ]
    assert not unloaded, f"private definitions nothing in the package loads: {unloaded}"
