from __future__ import annotations

import ast
import pathlib
import pkgutil
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
