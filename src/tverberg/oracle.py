"""Brute-force ground truth: partition enumeration and exact numbers.

Everything here is slow and certain.  Partitions of a multiset are
enumerated without duplicates by writing each part as a count vector
over the support and listing parts in non-increasing lexicographic
order; a partition admits a witness point when some ambient-set point
lies in every part hull.

``exact_tverberg_number`` grows n until every n-point multiset over the
set admits an m-partition.  Candidate multisets that are sub-multisets
of a known hard example are tried first, and cheap positive routes
(multiplicity, the planar constructive driver) run before the full
enumeration, so the budget is spent almost entirely on genuine
refutations.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .ambient import AmbientSet, FiniteSet, RealSpace
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InputError,
    NotFound,
    PreconditionViolated,
    UnsupportedAmbient,
)
from .geometry import iter_common_ambient_points, polytope_intersection_point
from .planar import plane_tverberg
from .points import Point, PointMultiset
from .witnesses import convex_lowerbound_witness

CountVector = tuple[int, ...]


def _candidate_parts(
    remaining: CountVector, bound: CountVector | None
) -> Iterator[CountVector]:
    """Nonzero part vectors <= remaining, lex-decreasing, capped by bound."""
    k = len(remaining)

    def digits(i: int, tight: bool) -> Iterator[tuple[int, ...]]:
        if i == k:
            yield ()
            return
        hi = remaining[i]
        if tight and bound[i] < hi:
            hi = bound[i]
        for d in range(hi, -1, -1):
            for rest in digits(i + 1, tight and d == bound[i]):
                yield (d,) + rest

    for cand in digits(0, bound is not None):
        if any(cand):
            yield cand


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
        if parts_left == 0:
            if total == 0:
                yield ()
            return
        if total < parts_left:
            return
        for cand in _candidate_parts(remaining, bound):
            rest = tuple(r - c for r, c in zip(remaining, cand))
            for tail in rec(rest, parts_left - 1, cand):
                yield (cand,) + tail

    return rec(counts, m, None)


def count_multiset_partitions(counts: Sequence[int], m: int) -> int:
    return sum(1 for _ in iter_multiset_partitions(counts, m))


def _parts_to_multisets(
    support: Sequence[Point], parts: Sequence[CountVector], dim: int
) -> list[PointMultiset]:
    out = []
    for vec in parts:
        out.append(
            PointMultiset(
                ((support[i], c) for i, c in enumerate(vec) if c), dim=dim
            )
        )
    return out


def _partition_admits(
    hulls: Sequence[PointMultiset], ambient: AmbientSet
) -> Point | None:
    """Some ambient point common to all hulls, or None."""
    if isinstance(ambient, RealSpace):
        found = polytope_intersection_point(hulls)
        return None if found is None else found[0]
    for p in iter_common_ambient_points(hulls, ambient):
        return p
    return None


def search_partition(
    points: PointMultiset, m: int, ambient: AmbientSet, budget: int | None = None
) -> tuple[tuple[PointMultiset, ...], Point] | None:
    """First admitting partition in canonical order, with a witness point.

    The budget counts partition checks; a partition beyond it raises
    BudgetExceeded at once, without enumerating the rest, so its
    ``remaining`` is the lower bound 1 on the partitions never examined.
    """
    support = points.support()
    counts = tuple(mult for _, mult in points.entries)
    checked = 0
    for parts in iter_multiset_partitions(counts, m):
        if budget is not None and checked >= budget:
            raise BudgetExceeded(f"partition budget {budget} exhausted", remaining=1)
        checked += 1
        hulls = _parts_to_multisets(support, parts, points.dim)
        witness = _partition_admits(hulls, ambient)
        if witness is not None:
            return tuple(hulls), witness
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
) -> bool:
    if any(mult >= m for _, mult in points.entries):
        return True
    if ambient.dim == 2 and points.size >= 2:
        try:
            plane_tverberg(points, m, ambient)
            return True
        except (PreconditionViolated, NotFound, UnsupportedAmbient, DimensionMismatch):
            pass
    return search_partition(points, m, ambient, budget) is not None


def exact_tverberg_number(
    ambient: FiniteSet,
    m: int,
    n_max: int,
    budget: int | None = None,
    hard_example: PointMultiset | None = None,
) -> int:
    """Least n so that every n-point multiset over the set admits an
    m-partition with a common ambient point.

    Sub-multisets of ``hard_example`` are tested first at each size:
    when one of them refutes, the remaining multisets of that size are
    skipped.  The default hard example is the hull-independent witness
    with every point m-1 times.  Raises NotFound if no n up to n_max
    works.
    """
    if m < 2:
        raise InputError("need m >= 2")
    if n_max < 1:
        raise InputError("need n_max >= 1")
    if hard_example is None and ambient.dim == 2:
        hard_example = convex_lowerbound_witness(ambient, m)
    for n in range(1, n_max + 1):
        if n < m:
            continue  # fewer points than parts never admits
        if hard_example is not None and hard_example.size >= n:
            probe = PointMultiset.from_points(
                hard_example.instances()[:n], dim=ambient.dim
            )
            if not _admits(probe, m, ambient, budget):
                continue
        all_admit = True
        for combo in itertools.combinations_with_replacement(ambient.points, n):
            probe = PointMultiset.from_points(combo, dim=ambient.dim)
            if not _admits(probe, m, ambient, budget):
                all_admit = False
                break
        if all_admit:
            return n
    raise NotFound(f"every n up to {n_max} admits a refuting multiset")
