"""Locate the checkout the benchmark lives in and import the library from
its own ``src/``, never from an installed copy."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"


def use_checkout_sources() -> None:
    """Put the checkout's library and test oracles first on the path;
    exit nonzero when either is missing."""
    needed = (SRC / "tverberg" / "__init__.py", TESTS / "depth_oracles.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise SystemExit(f"perfbench: {', '.join(missing)} not found under {ROOT}")
    sys.path[:0] = [str(SRC), str(TESTS)]
    import tverberg

    if not Path(tverberg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: tverberg imported from {tverberg.__file__}, not {SRC}")
