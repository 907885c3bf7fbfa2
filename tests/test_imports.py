from __future__ import annotations

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
