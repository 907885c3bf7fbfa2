"""No floats in any decision path, and no hand-written orderings: a
syntax check of every library module.

Each module of the package is parsed and searched for the ways a float
gets in: a float literal, the name ``float``, a float-valued ``math``
function or constant, or a float-valued ``random`` draw.  No module
has an exception.  No library class defines an ordering method
(``__lt__``, ``__le__``, ``__gt__``, ``__ge__``), so every sort key is a
plain tuple of ints that ``sorted`` compares in C, not an object whose
comparisons run in Python.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import tverberg

PACKAGE = pathlib.Path(tverberg.__file__).parent

FLOAT_MATH = {
    "acos", "asin", "atan", "atan2", "cos", "degrees", "dist", "e", "exp",
    "fabs", "fmod", "fsum", "hypot", "inf", "isclose", "log", "log10",
    "log1p", "log2", "nan", "pi", "pow", "radians", "sin", "sqrt", "tan",
    "tau",
}
FLOAT_DRAWS = {"random", "uniform", "gauss", "normalvariate", "expovariate", "triangular"}

# (module, source) of each allowed float expression: none
ALLOWED: set[tuple[str, str]] = set()


def float_uses(source: str, module: str) -> list[str]:
    """One line per float use in the source, as 'line: what'."""
    tree = ast.parse(source)
    allowed: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and (module, ast.unparse(node)) in ALLOWED:
            allowed.update(id(sub) for sub in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        what = None
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            what = f"float literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            what = "the name float"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in FLOAT_MATH
        ):
            what = f"math.{node.attr}"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in FLOAT_DRAWS
        ):
            what = f"a float draw {ast.unparse(node)}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = {alias.name for alias in node.names}
            if "*" in names or names & FLOAT_MATH:
                what = f"from math import {', '.join(sorted(names))}"
        if what is not None:
            found.append((node.lineno, what))
    return [f"{line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_has_no_float_in_a_decision_path(path):
    assert float_uses(path.read_text(), path.stem) == []


def test_check_finds_each_kind_of_float_use():
    source = "\n".join(
        [
            "import math",
            "from math import isclose",
            "x = 0.5",
            "y = float(x)",
            "z = math.sqrt(2)",
            "w = math.fsum([x])",
            "a = math.atan2(1, 2)",
            "b = math.log(3)",
            "c = rng.random() < 0.5",
            "d = rng.random()",
        ]
    )
    # no module has an allowed float, so every module reports every use
    assert ALLOWED == set()
    for module in ("planar", "space3"):
        found = float_uses(source, module)
        assert [line.split(":")[0] for line in found] == [
            "2", "3", "4", "5", "6", "7", "8", "9", "9", "10",
        ]
    assert float_uses("from math import gcd, lcm\nn = math.floor(7 // 2)\n", "points") == []


ORDERINGS = {"__lt__", "__le__", "__gt__", "__ge__"}


def ordering_methods(source: str) -> list[str]:
    """One line per ordering method a class of the source defines, as
    'line: Class.method', and per class a decorator asks to order
    (``dataclass(order=True)``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for deco in node.decorator_list:
                if isinstance(deco, ast.Call) and any(
                    kw.arg == "order" and isinstance(kw.value, ast.Constant) and kw.value.value is True
                    for kw in deco.keywords
                ):
                    found.append(f"{deco.lineno}: {node.name} order=True")
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name in ORDERINGS:
                    found.append(f"{item.lineno}: {node.name}.{item.name}")
                elif isinstance(item, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id in ORDERINGS for t in item.targets
                ):
                    found.append(f"{item.lineno}: {node.name}.{item.targets[0].id}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_defines_no_ordering_method(path):
    assert ordering_methods(path.read_text()) == []


def test_check_finds_each_ordering_method():
    source = "\n".join(
        [
            "class Key:",
            "    def __lt__(self, other): return True",
            "    def __le__(self, other): return True",
            "    __gt__ = __lt__",
            "    def __ge__(self, other): return True",
            "    def __eq__(self, other): return True",
            "def __lt__(a, b): return a",
            "@dataclass(frozen=True, order=True)",
            "class Row:",
            "    x: int",
            "@dataclass(order=False)",
            "class Plain:",
            "    x: int",
        ]
    )
    assert ordering_methods(source) == [
        "2: Key.__lt__", "3: Key.__le__", "4: Key.__gt__", "5: Key.__ge__", "8: Row order=True",
    ]
