"""Reference partition enumeration and partition search, unpruned.

The textbook forms of ``tverberg.oracle.iter_multiset_partitions`` and
``tverberg.oracle.search_partition``: every nonzero part vector below
the remainder is tried at every level, and every partition builds its
own hulls and asks ``iter_common_ambient_points`` afresh, which decides
each membership with its own LP.  The library prunes dead branches and
shares one part table per search instead; the tests check that both
yield the same partitions in the same order and return the same
``(hulls, witness)``, so this copy shares no enumeration code with the
library.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from tverberg.ambient import AmbientSet, RealSpace
from tverberg.errors import BudgetExceeded, InputError
from tverberg.geometry import iter_common_ambient_points, polytope_intersection_point
from tverberg.points import Point, PointMultiset

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
