"""Brute-force ground truth: partition enumeration and exact numbers.

Everything here is slow and certain.  Partitions of a multiset are
enumerated without duplicates by writing each part as a count vector
over the support and listing parts in non-increasing lexicographic
order; a partition admits a witness point when some ambient-set point
lies in every part hull.

The enumeration visits only branches that can finish.  The last part
is the remainder itself, kept when it is lex <= the part before it.
Every other part leaves at least one point for each part still to
come, and, with i the first index the remainder still holds, takes at
least ceil(remaining[i] / parts_left) copies of point i: no later part
may be lex-larger, so none holds more of them.  Only dead branches are
cut, so the partitions and their order are those of the plain
enumeration.

``iter_partition_hulls`` keeps one part table per enumeration, for
``search_partition`` and ``product.real_partition`` (the real brute
force, the fiber step of ``product_tverberg`` and planar's He <= 3
route): each distinct part's hull is built once, straight from the
multiset's canonical entries (``PointMultiset.sub_multiset``), and
lives until the enumeration ends.  A search over Z^d or Z^j x R^k,
whose scans read integer boxes, rounds the entries once, up and down
per coordinate, and gives each new part its integer ranges
(``PointMultiset.integer_ranges``) as the least ceiling and greatest
floor over the entries it holds, so a part builds no integer grid for
its box and each partition's box is a few int comparisons; the R^d
enumerations round nothing.  Over Z^d and finite sets a point common
to m disjoint parts has depth >= m in the multiset
(``depth.deep_filter``): a Z^d candidate gets one depth verdict per
call, and a finite set is asked once per point up front and scanned
over its deep points only, the stored objects themselves.  Each (deep
candidate, part) membership is then decided once per call, however many
partitions share the part, by ``in_hull``: an entry of the part is in
at once, any other candidate is one system that builds no weights, read
off the part's integer grid when its entries are affinely independent
and otherwise one integer LP.  Every partition is still scanned.  Z^d
candidates are int tuples, and only a witness becomes a Fraction point.

``exact_tverberg_number`` grows n until every n-point multiset over the
set admits an m-partition.  Over a planar set the first n instances of
its lower-bound witness, cut from its entries by count, are tried
first, and cheap positive routes (multiplicity, the planar constructive
driver from its gate on) run before the full enumeration, so the budget
is spent almost entirely on genuine refutations.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import ceil, floor
from operator import is_
from typing import Iterator, Sequence

from .ambient import AmbientSet, FiniteSet, Lattice, MixedLattice, RealSpace
from .depth import deep_filter
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InputError,
    NotFound,
)
from .geometry import in_hull, iter_common_ambient_points, polytope_intersection_point
from .planar import finite_gate, helly_number, plane_tverberg
from .points import Point, PointMultiset
from .witnesses import convex_lowerbound_witness

CountVector = tuple[int, ...]


def _candidate_parts(
    remaining: CountVector, bound: CountVector | None, parts_left: int, total: int
) -> Iterator[CountVector]:
    """Part vectors that can open a partition of remaining into parts_left
    parts, lex-decreasing: nonzero, <= remaining, lex <= bound, leaving at
    least parts_left - 1 points, and at the first index i of remaining's
    support at least ceil(remaining[i] / parts_left) copies."""
    k = len(remaining)
    first = next(i for i, r in enumerate(remaining) if r)
    least = -(-remaining[first] // parts_left)
    cand = [0] * k

    def digits(i: int, tight: bool, room: int) -> Iterator[CountVector]:
        if i == k or room == 0:
            yield tuple(cand)
            return
        hi = remaining[i] if remaining[i] < room else room
        if tight and bound[i] < hi:
            hi = bound[i]
        for d in range(hi, least - 1 if i == first else -1, -1):
            cand[i] = d
            yield from digits(i + 1, tight and d == bound[i], room - d)
        cand[i] = 0

    tight = bound is not None and not any(bound[:first])
    return digits(first, tight, total - parts_left + 1)


def iter_multiset_partitions(
    counts: Sequence[int], m: int
) -> Iterator[tuple[CountVector, ...]]:
    """All partitions of a count vector into exactly m nonempty parts.

    Parts are count vectors over the same support, listed in
    non-increasing lexicographic order, so each multiset partition
    appears exactly once.
    """
    counts = tuple(counts)
    if any(c < 0 for c in counts):
        raise InputError("negative multiplicity")
    if m < 1:
        raise InputError("need at least one part")

    def rec(
        remaining: CountVector, parts_left: int, bound: CountVector | None
    ) -> Iterator[tuple[CountVector, ...]]:
        total = sum(remaining)
        if total < parts_left:
            return
        if parts_left == 1:
            if bound is None or remaining <= bound:
                yield (remaining,)
            return
        for cand in _candidate_parts(remaining, bound, parts_left, total):
            rest = tuple(r - c for r, c in zip(remaining, cand))
            for tail in rec(rest, parts_left - 1, cand):
                yield (cand,) + tail

    return rec(counts, m, None)


def iter_partition_hulls(
    points: PointMultiset, m: int
) -> Iterator[tuple[PointMultiset, ...]]:
    """The part hulls of every m-partition, in the order of
    ``iter_multiset_partitions``, from one part table that builds each
    distinct part's hull once and keeps it until the iteration ends."""
    return _partition_hulls(points, m, False)


def _rounded_entries(points: PointMultiset) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each entry's coordinates rounded up and rounded down, in ints."""
    return [(tuple(map(ceil, p)), tuple(map(floor, p))) for p, _ in points.entries]


def _partition_hulls(
    points: PointMultiset, m: int, rounded: bool
) -> Iterator[tuple[PointMultiset, ...]]:
    """``iter_partition_hulls``; when rounded, the entries are rounded
    once and each new part is given its integer ranges, the least
    ceiling and the greatest floor over the entries it holds."""
    rounding = _rounded_entries(points) if rounded else None
    table: dict[CountVector, PointMultiset] = {}
    for parts in iter_multiset_partitions(tuple([mult for _, mult in points.entries]), m):
        for vec in parts:
            if vec not in table:
                part = table[vec] = points.sub_multiset(vec)
                if rounding is not None:
                    ceilings, floors = zip(*[rounding[i] for i, c in enumerate(vec) if c])
                    part._keep_ranges((tuple(map(min, zip(*ceilings))), tuple(map(max, zip(*floors)))))
        yield tuple([table[vec] for vec in parts])


def search_partition(
    points: PointMultiset, m: int, ambient: AmbientSet, budget: int | None = None
) -> tuple[tuple[PointMultiset, ...], Point] | None:
    """First admitting partition in canonical order, with a witness point.

    The budget counts partition checks; a partition beyond it raises
    BudgetExceeded at once, without enumerating the rest, so its
    ``remaining`` is the lower bound 1 on the partitions never examined.
    """
    if ambient.dim != points.dim:
        raise DimensionMismatch(
            f"points of dimension {points.dim} in an ambient set of dimension {ambient.dim}"
        )
    # One membership verdict per (hull id, candidate); the part table
    # keeps every hull alive while the search runs, so no id is reused
    # while the verdicts are keyed by it.  Over Z^d the candidates are
    # int tuples, which hash and compare without Fraction arithmetic; a
    # finite set's candidates are its own stored points, keyed by identity
    # so that no verdict hashes a Fraction.
    verdicts: dict[tuple[int, tuple | int], bool] = {}

    def member(p: tuple, hull: PointMultiset, at: tuple | int) -> bool:
        key = (id(hull), at)
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = in_hull(p, hull)
        return verdict

    # Every closed half-space through a point common to m disjoint parts
    # holds an instance of each, so a candidate of depth < m is out.
    if isinstance(ambient, FiniteSet):
        # the deep points are the set's own objects, so the identity keys
        # and the witness stay the set's
        deep = deep_filter(points, m, ambient)
        ambient = FiniteSet([s for s in ambient.points if deep(s)], ambient.dim)

        def contains(p: tuple, hull: PointMultiset) -> bool:
            return member(p, hull, id(p))

    elif isinstance(ambient, Lattice):
        deep = cache(deep_filter(points, m, ambient))  # one verdict per candidate

        def contains(p: tuple, hull: PointMultiset) -> bool:
            return deep(p) and member(p, hull, p)

    else:
        contains = in_hull  # never called: Z^j x R^k solves per prefix, R^d per partition

    real = isinstance(ambient, RealSpace)
    checked = 0
    for hulls in _partition_hulls(points, m, isinstance(ambient, (Lattice, MixedLattice))):
        if budget is not None and checked >= budget:
            raise BudgetExceeded(f"partition budget {budget} exhausted", remaining=1)
        checked += 1
        if real:
            found = polytope_intersection_point(hulls)
            witness = None if found is None else found[0]
        else:
            witness = next(iter_common_ambient_points(hulls, ambient, contains), None)
        if witness is not None:
            return hulls, witness
    return None


def verify_no_partition(
    points: PointMultiset, m: int, ambient: AmbientSet, budget: int | None = None
) -> bool:
    """True iff no m-partition of the multiset admits an ambient point."""
    return search_partition(points, m, ambient, budget) is None


def _admits(
    points: PointMultiset,
    m: int,
    ambient: FiniteSet,
    budget: int | None,
    gate: int | None,
) -> bool:
    if any(mult >= m for _, mult in points.entries):
        return True
    if gate is not None and points.size >= gate:  # the theorem promises a partition
        plane_tverberg(points, m, ambient)
        return True
    return search_partition(points, m, ambient, budget) is not None


def exact_tverberg_number(
    ambient: FiniteSet,
    m: int,
    n_max: int,
    budget: int | None = None,
) -> int:
    """Least n so that every n-point multiset over the set admits an
    m-partition with a common ambient point.

    Over a planar set, the first n instances of the hull-independent
    witness with every point m-1 times (``convex_lowerbound_witness``)
    are tested first at each size n, cut from its entries by count: when
    they refute, the remaining multisets of that size are skipped.  A
    combination holding m copies of one point admits at once, so it
    builds no multiset.  Raises NotFound if no n up to n_max works.
    """
    if m < 2:
        raise InputError("need m >= 2")
    if n_max < 1:
        raise InputError("need n_max >= 1")
    hard = convex_lowerbound_witness(ambient, m) if ambient.dim == 2 else None
    gate = finite_gate(helly_number(ambient).number, m) if ambient.dim == 2 else None
    for n in range(1, n_max + 1):
        if n < m:
            continue  # fewer points than parts never admits
        if hard is not None and hard.size >= n:
            starts = itertools.accumulate([mult for _, mult in hard.entries], initial=0)
            probe = hard.sub_multiset([max(0, min(mult, n - s)) for s, (_, mult) in zip(starts, hard.entries)])
            if not _admits(probe, m, ambient, budget, gate):
                continue
        # copies of a set point sit side by side: m in a row admit
        if all(
            any(map(is_, combo, combo[m - 1 :]))
            or _admits(PointMultiset.from_points(combo, dim=ambient.dim), m, ambient, budget, gate)
            for combo in itertools.combinations_with_replacement(ambient.points, n)
        ):
            return n
    raise NotFound(f"every n up to {n_max} admits a refuting multiset")
