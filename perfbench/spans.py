"""Span tracing for the benchmark's traced run.

The library has no tracing of its own, so the traced run wraps each
layer's public functions from outside.  A wrapper is installed on the
defining module and on every ``tverberg`` module that bound the same
function object, so direct calls, ``from .x import f`` bindings and lazy
imports inside functions (which read the defining module at call time)
all pass through it.  Functions that return an iterator are timed across
their iteration: each ``next`` is one more interval of the same span.

Spans are aggregated as they close, so memory stays flat however many
tiny LP systems a run solves.  Self time is a span's duration minus the
part of it covered by child spans; total time counts only the outermost
active span of a function, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

# Layer -> public functions that get a span, in report order.
LAYERS = {
    "linprog": ("solve_phase1", "solve_linear", "nullspace", "rref"),
    "geometry": (
        "hull_membership",
        "membership_gap",
        "caratheodory_reduce",
        "polytope_intersection_point",
        "iter_common_ambient_points",
    ),
    "depth": ("integer_centerpoint", "finite_set_centerpoint", "halfspace_depth", "depth_value"),
    "planar": ("plane_tverberg", "radial_order", "helly_number", "helly3_tverberg"),
    "space3": ("z3_tverberg", "peel_caratheodory_sets", "bipartition_search"),
    "product": ("product_tverberg", "fiber_lift", "real_tverberg_bruteforce"),
    "oracle": ("iter_multiset_partitions", "search_partition", "exact_tverberg_number"),
    "selection": ("fraction_selection", "transversal_property_verify"),
    "certificates": ("verify_certificate", "assemble_certificate"),
    "documents": ("certificate_to_doc", "certificate_from_doc"),
}

# Functions whose result is consumed lazily by the caller.
ITERATORS = {"geometry.iter_common_ambient_points", "oracle.iter_multiset_partitions"}

# Functions whose None result means "no": their hit ratio is reported.
HIT_TRACKED = {"geometry.hull_membership", "geometry.polytope_intersection_point"}

# Child spans that each examine one partition, per enumerating parent.
PARTITION_CHILDREN = {
    "oracle.search_partition": ("geometry.iter_common_ambient_points", "geometry.polytope_intersection_point"),
    "product.real_tverberg_bruteforce": ("geometry.polytope_intersection_point",),
}
_PARTITION_PARENTS = {
    child: {parent for parent, children in PARTITION_CHILDREN.items() if child in children}
    for children in PARTITION_CHILDREN.values()
    for child in children
}


def span_keys() -> list[str]:
    return [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]


class Tracer:
    """Aggregating span recorder; one per traced pass, single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self._stack: list[list] = []  # [key, start, covered_by_children]
        self._active: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.partitions: Counter = Counter()  # enumerating parent -> partitions examined
        self.hits: Counter = Counter()
        self.cells = 0
        self.top_level_s = 0.0
        self.centerpoint_args: list[tuple] = []

    def call(self, key: str) -> None:
        self.calls[key] += 1
        if key in _PARTITION_PARENTS and self._stack and self._stack[-1][0] in _PARTITION_PARENTS[key]:
            self.partitions[self._stack[-1][0]] += 1

    def enter(self, key: str) -> None:
        self._active[key] += 1
        self._stack.append([key, self.clock(), 0.0])

    def leave(self) -> None:
        key, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.self_s[key] += duration - covered
        self._active[key] -= 1
        if not self._active[key]:
            self.total_s[key] += duration
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_level_s += duration


class _TimedIterator:
    """Times each step of an iterator as an interval of the owner's span."""

    def __init__(self, tracer: Tracer, key: str, inner):
        self._tracer = tracer
        self._key = key
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        self._tracer.enter(self._key)
        try:
            return next(self._inner)
        finally:
            self._tracer.leave()


def _wrap(tracer: Tracer, key: str, fn):
    iterates = key in ITERATORS
    tracks_hits = key in HIT_TRACKED
    counts_cells = key == "linprog.solve_phase1"
    keeps_args = key == "depth.integer_centerpoint"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.call(key)
        if counts_cells:
            a = args[0] if args else kwargs["a"]
            tracer.cells += len(a) * (len(a[0]) if a else 0)
        if keeps_args:
            tracer.centerpoint_args.append((args, kwargs))
        tracer.enter(key)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave()
        if tracks_hits and result is not None:
            tracer.hits[key] += 1
        if iterates:
            return _TimedIterator(tracer, key, iter(result))
        return result

    wrapper.perfbench_span = key
    return wrapper


def _package_modules(package: str):
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


@contextmanager
def installed(tracer: Tracer, package: str = "tverberg", layers=None):
    """Wrap every listed function wherever the package bound it; restore
    every original on exit, even when the body raises."""
    layers = LAYERS if layers is None else layers
    importlib.import_module(package)
    for layer in layers:
        importlib.import_module(f"{package}.{layer}")
    modules = _package_modules(package)
    replaced: list[tuple[object, str, object]] = []
    try:
        for layer, names in layers.items():
            home = sys.modules[f"{package}.{layer}"]
            for name in names:
                original = getattr(home, name)
                if hasattr(original, "perfbench_span"):
                    raise RuntimeError(f"{layer}.{name} is already wrapped")
                wrapper = _wrap(tracer, f"{layer}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            replaced.append((mod, attr, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(replaced):
            setattr(mod, attr, original)


def assert_unwrapped(package: str = "tverberg") -> None:
    """Raise if any binding in the package is still a span wrapper."""
    for mod in _package_modules(package):
        for attr, value in vars(mod).items():
            if hasattr(value, "perfbench_span"):
                raise RuntimeError(f"{mod.__name__}.{attr} is still wrapped")
