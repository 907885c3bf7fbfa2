"""Reference partition enumeration and partition search, unpruned.

The textbook forms of ``tverberg.oracle.iter_multiset_partitions`` and
``tverberg.oracle.search_partition``: every nonzero part vector below
the remainder is tried at every level, and every partition builds its
own hulls and scans afresh.  The scan is this module's own: Z^d
candidates come from a Fraction bounding box rounded once, and every
membership, every Z^j x R^k prefix and every R^d intersection is one
Fraction system in the geometry layer's row order, solved by
``lp_oracle.solve_phase1``; no candidate is settled by being an entry.
The library prunes dead branches, shares one part table per search,
rounds integer boxes and decides in integers instead; the tests check
that both yield the same partitions in the same order and return the
same ``(hulls, witness)``, so this copy shares no enumeration, box or
membership code with the library.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, Sequence

import lp_oracle
from tverberg.ambient import AmbientSet, FiniteSet, Lattice, MixedLattice, RealSpace
from tverberg.errors import BudgetExceeded, InputError
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


def fraction_box(hulls: Sequence[PointMultiset], k: int) -> list[range] | None:
    """Integer ranges of the intersection of the hulls' bounding boxes
    over the first k coordinates, from Fraction extremes rounded once, or
    None when the box holds no integer point."""
    ranges = []
    for c in range(k):
        lo = max(min(p[c] for p, _ in h.entries) for h in hulls)
        hi = min(max(p[c] for p, _ in h.entries) for h in hulls)
        lo_i, hi_i = math.ceil(lo), math.floor(hi)
        if lo_i > hi_i:
            return None
        ranges.append(range(lo_i, hi_i + 1))
    return ranges


def member(q: Sequence[Fraction], hull: PointMultiset) -> bool:
    """Whether q is in hull, by the Fraction simplex alone."""
    gap, _ = lp_oracle.convex_solution((hull,), q)
    return gap == 0


def _common_point(hulls: Sequence[PointMultiset], pin: Sequence[Fraction] = ()) -> Point | None:
    _, weights = lp_oracle.convex_solution(hulls, pin)
    return None if weights is None else lp_oracle.combination(weights[0], hulls[0])


def _partition_admits(
    hulls: Sequence[PointMultiset], ambient: AmbientSet
) -> Point | None:
    """The first ambient point common to all hulls in canonical order,
    or None."""
    if isinstance(ambient, RealSpace):
        return _common_point(hulls)
    if isinstance(ambient, FiniteSet):
        candidates = iter(ambient.points)
    elif isinstance(ambient, Lattice):
        box = fraction_box(hulls, ambient.dim)
        if box is None:
            return None
        candidates = (tuple(map(Fraction, c)) for c in itertools.product(*box))
    elif isinstance(ambient, MixedLattice):
        box = fraction_box(hulls, ambient.j)
        if box is None:
            return None
        for prefix in itertools.product(*box):
            found = _common_point(hulls, tuple(map(Fraction, prefix)))
            if found is not None:
                return found
        return None
    else:
        raise TypeError(f"no reference scan for {ambient!r}")
    for q in candidates:
        if all(member(q, h) for h in hulls):
            return q
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
