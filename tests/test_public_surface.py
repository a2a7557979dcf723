"""The package's declared public surface matches what its modules define."""

import ast
import importlib
import inspect
import pkgutil

import toda_atlas


def test_all_lists_exactly_the_public_definitions():
    modules = {
        info.name: importlib.import_module(f"toda_atlas.{info.name}")
        for info in pkgutil.iter_modules(toda_atlas.__path__)
    }
    declaring = {name: module for name, module in modules.items() if hasattr(module, "__all__")}
    assert {"atlas", "factorizations", "flows", "linalg_core"} <= set(declaring)

    missing = [
        f"{name}.{attr}"
        for name, module in declaring.items()
        for attr in module.__all__
        if not hasattr(module, attr)
    ]
    assert not missing, f"listed in __all__ but not defined: {missing}"

    unlisted = [
        f"{name}.{attr}"
        for name, module in declaring.items()
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
        and attr not in module.__all__
    ]
    assert not unlisted, f"public but missing from __all__: {unlisted}"

    tree = ast.parse(inspect.getsource(toda_atlas))
    reexports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert reexports
    hidden = [
        f"{module}.{attr}"
        for module, attr in reexports
        if module in declaring and attr not in declaring[module].__all__
    ]
    assert not hidden, f"re-exported by the package but missing from __all__: {hidden}"


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
