from __future__ import annotations

import ast
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import tverberg

# The package __init__ is replaced by a bare package object, so each
# module loads only what it imports itself: an import cycle fails here
# even when __init__'s own import order happens to hide it.
_IMPORT_ALONE = """
import importlib, sys, types
package = types.ModuleType("tverberg")
package.__path__ = {path!r}
sys.modules["tverberg"] = package
importlib.import_module("tverberg.{name}")
"""

MODULES = sorted(info.name for info in pkgutil.iter_modules(tverberg.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone(name):
    code = _IMPORT_ALONE.format(path=list(tverberg.__path__), name=name)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


# The one import left inside a function: planar's He <= 3 route needs
# the real partition of product, which imports oracle, which imports
# planar.
ALLOWED_LAZY_IMPORTS = {("planar", "from .product import real_partition")}


@pytest.mark.parametrize("name", MODULES)
def test_imports_sit_at_module_level(name):
    source = pathlib.Path(tverberg.__path__[0], f"{name}.py").read_text()
    lazy = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    lazy.add((name, ast.unparse(inner)))
    assert lazy <= ALLOWED_LAZY_IMPORTS


def test_every_export_has_a_reader():
    """Every name the package exports is read by a library module other
    than ``__init__`` (loaded as a name or an attribute) or named by the
    benchmark under ``perfbench/``: no export exists for tests alone."""
    loaded = set()
    for name in MODULES:
        tree = ast.parse(pathlib.Path(tverberg.__path__[0], f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    perfbench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    named = set()
    for path in perfbench.rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            named.update(re.findall(r"\w+", path.read_text(errors="ignore")))
    assert named, "perfbench/ not found"
    assert [name for name in tverberg.__all__ if name not in loaded | named] == []


def test_only_selection_lists_instances():
    """Every driver and oracle of the library works on counts over a
    multiset's entries; ``PointMultiset.instances()``, which lists one
    item per instance, is called only by the selection searches, which
    refuse a multiset above their instance cap."""
    callers = set()
    for name in MODULES:
        tree = ast.parse(pathlib.Path(tverberg.__path__[0], f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "instances":
                callers.add(name)
    assert callers == {"selection"}
