"""Partitions in Z^3 by peeling and bipartition.

The driver rests on three facts.  A multiset of 24m-31 integer points
has an integer point p of depth 3m-3 (the d = 3 centerpoint bound with
target 3m-3).  Around such a point one can repeatedly split off a
minimal subset whose hull holds p; minimality forces the subset to have
at most 4 points, at most 3 of which lie in any closed half-space whose
boundary passes through p, so each peel lowers the depth of p by at
most 3.  After m - mu - 2 peels (mu copies of p go out as singletons) the
remainder keeps at least 17 instances and depth at least 3, which is
enough for a final two-part split around p.

Minimal subsets are found by direct predicates in increasing size:
p itself, then segments, then triangles, each by exact arithmetic; only
when all of those fail does a general membership certificate get
reduced, which then necessarily lands on an affinely independent
4-point support.

The final bipartition has no one-line construction.  Seeds with a
guaranteed or likely complement (a segment through p leaves complement
depth >= 1; a minimal subset usually does too) are tried first, then a
first-improvement local search over single-instance moves scored by the
exact infeasibility gaps of the two membership systems, then, for small
remainders, full enumeration.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .ambient import Lattice
from .certificates import TverbergCertificate, certify, peel_by_multiplicity, singleton_part
from .depth import depth_value, first_deep_point
from .errors import (
    AssertionFailed,
    DimensionMismatch,
    ExtractionFailed,
    PreconditionViolated,
    SearchExhausted,
)
from .geometry import caratheodory_reduce, hull_membership, in_hull, membership_gap
from .points import Point, PointMultiset, dot, is_integral, sub

IntPoint = tuple[int, ...]

# Local-search evaluations before a bipartition falls back to enumeration.
_MAX_EVALS = 4000


@dataclass(frozen=True)
class PeelRecord:
    """Minimal subsets peeled around a point, plus what is left over."""

    center: Point
    subsets: tuple[PointMultiset, ...]
    remainder: PointMultiset


def _cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _on_grid(support: tuple[Point, ...], p: Point) -> tuple[list[IntPoint], IntPoint]:
    """The support and p as int tuples, all scaled by one positive integer.

    Segment and triangle containment are invariant under the scaling.
    """
    scale = lcm(*{c.denominator for q in support for c in q}, *(c.denominator for c in p))

    def snap(q: Point) -> IntPoint:
        return tuple(c.numerator * (scale // c.denominator) for c in q)

    return [snap(q) for q in support], snap(p)


def _on_segment(p: IntPoint, a: IntPoint, b: IntPoint) -> bool:
    """p on the closed segment ab, exactly."""
    u = sub(p, a)
    v = sub(b, a)
    if _cross3(u, v) != (0, 0, 0):
        return False
    num = dot(u, v)
    den = dot(v, v)
    if den == 0:
        return all(x == 0 for x in u)
    return 0 <= num <= den


def _in_triangle(p: IntPoint, a: IntPoint, b: IntPoint, c: IntPoint) -> bool:
    """p in the closed triangle abc, abc affinely independent.

    With normal n = (b-a) x (c-a), p must lie in the plane (n.(p-a) = 0)
    and on the inner side of every edge: each n.(edge x (p - edge start))
    is a nonnegative multiple of one barycentric coordinate of p.
    """
    n = _cross3(sub(b, a), sub(c, a))
    if n == (0, 0, 0) or dot(n, sub(p, a)) != 0:
        return False
    return all(
        dot(n, _cross3(sub(y, x), sub(p, x))) >= 0 for x, y in ((a, b), (b, c), (c, a))
    )


def _minimal_subset(points: PointMultiset, p: Point) -> PointMultiset:
    """First minimal subset (canonical order) whose hull holds p."""
    support = points.support()
    if p in points:
        return singleton_part(p)
    grid, q = _on_grid(support, p)
    for i, j in itertools.combinations(range(len(support)), 2):
        if _on_segment(q, grid[i], grid[j]):
            return PointMultiset.from_points([support[i], support[j]], dim=3)
    for i, j, k in itertools.combinations(range(len(support)), 3):
        if _in_triangle(q, grid[i], grid[j], grid[k]):
            return PointMultiset.from_points(
                [support[i], support[j], support[k]], dim=3
            )
    coeffs = hull_membership(p, points)
    if coeffs is None:
        raise ExtractionFailed("the point left the hull during peeling")
    reduced = caratheodory_reduce(p, points, coeffs)
    chosen = [points.entries[i][0] for i, _ in reduced.weights]
    if len(chosen) != 4:
        raise AssertionFailed(
            "with no minimal segment or triangle the reduced support must have 4 points"
        )
    return PointMultiset.from_points(chosen, dim=3)


def peel_caratheodory_sets(
    points: PointMultiset, p: Point, count: int
) -> PeelRecord:
    """Peel ``count`` minimal subsets around p, each hull holding p.

    Requires depth(p) >= 3*count + 3, which keeps p inside the hull of
    every intermediate remainder: a peel removes at most 4 points, at
    most 3 of them from any closed half-space anchored at p.
    """
    if points.dim != 3:
        raise DimensionMismatch("peeling is the d = 3 routine")
    if count < 0:
        raise PreconditionViolated("cannot peel a negative number of subsets")
    if depth_value(p, points) < 3 * count + 3:
        raise PreconditionViolated(
            f"peeling {count} subsets needs depth at least {3 * count + 3}"
        )
    return _peel(points, p, count)


def _peel(points: PointMultiset, p: Point, count: int) -> PeelRecord:
    """``peel_caratheodory_sets`` after its checks."""
    current = points
    subsets: list[PointMultiset] = []
    for _ in range(count):
        x = _minimal_subset(current, p)
        for q, mult in x.entries:
            current = current.remove(q, mult)
        subsets.append(x)
    return PeelRecord(p, tuple(subsets), current)


def _split_by_entries(
    points: PointMultiset, first: PointMultiset
) -> PointMultiset:
    rest = points
    for q, mult in first.entries:
        rest = rest.remove(q, mult)
    return rest


def bipartition_search(
    points: PointMultiset,
    p: Point,
    seed: int = 0,
    max_evals: int = _MAX_EVALS,
) -> tuple[PointMultiset, PointMultiset]:
    """Two nonempty parts of the multiset, both hulls holding p.

    Deterministic seeds first: a copy of p splits off alone; a segment
    through p leaves a complement of depth >= 1 by counting; a minimal
    subset usually does as well.  Failing those, local search over
    single moves scored by exact infeasibility gaps, and below 23
    instances full enumeration as a last resort.
    """
    if points.dim != 3:
        raise DimensionMismatch("bipartition is the d = 3 routine")
    if points.size < 17:
        raise PreconditionViolated(f"need at least 17 instances, got {points.size}")
    if depth_value(p, points) < 3:
        raise PreconditionViolated("bipartition needs a point of depth at least 3")
    return _bipartition(points, p, seed, max_evals)


def _bipartition(
    points: PointMultiset, p: Point, seed: int, max_evals: int
) -> tuple[PointMultiset, PointMultiset]:
    """``bipartition_search`` after its checks."""

    def settled(a: PointMultiset, b: PointMultiset) -> bool:
        return a.size > 0 and b.size > 0 and in_hull(p, a) and in_hull(p, b)

    if p in points:
        first = singleton_part(p)
        rest = points.remove(p)
        if not in_hull(p, rest):
            raise AssertionFailed("depth 3 leaves the complement of one copy nonempty in every half-space")
        return first, rest

    support = points.support()
    grid, q = _on_grid(support, p)
    for i, j in itertools.combinations(range(len(support)), 2):
        if _on_segment(q, grid[i], grid[j]):
            first = PointMultiset.from_points([support[i], support[j]], dim=3)
            rest = _split_by_entries(points, first)
            if not in_hull(p, rest):
                raise AssertionFailed("segment through p must leave depth >= 1 behind")
            return first, rest

    x = _minimal_subset(points, p)
    rest = _split_by_entries(points, x)
    if rest.size and in_hull(p, rest):
        return x, rest

    instances = points.instances()
    n = len(instances)
    rng = random.Random(seed)

    def gap_of(side: list[int], flag: bool) -> Fraction:
        chosen = [instances[i] for i in range(n) if side[i] == flag]
        if not chosen:
            return Fraction(10 ** 9)
        return membership_gap(p, PointMultiset.from_points(chosen, dim=3))

    def score(side: list[int]) -> Fraction:
        return gap_of(side, False) + gap_of(side, True)

    start = [False] * n
    marked = dict(x.entries)
    left = dict(marked)
    for i, q in enumerate(instances):
        if left.get(q, 0) > 0:
            start[i] = True
            left[q] -= 1

    evals = 0
    best_score = None
    side = start
    current = score(side)
    evals += 2
    while evals < max_evals:
        if current == 0:
            a = PointMultiset.from_points(
                [instances[i] for i in range(n) if side[i]], dim=3
            )
            b = PointMultiset.from_points(
                [instances[i] for i in range(n) if not side[i]], dim=3
            )
            if settled(a, b):
                return a, b
            raise AssertionFailed("zero gap must mean both memberships hold")
        improved = False
        order = list(range(n))
        rng.shuffle(order)
        for i in order:
            side[i] = not side[i]
            trial = score(side)
            evals += 2
            if trial < current:
                current = trial
                improved = True
                break
            side[i] = not side[i]
            if evals >= max_evals:
                break
        if not improved:
            if best_score is None or current < best_score:
                best_score = current
            side = [rng.random() < 0.5 for _ in range(n)]
            if not any(side):
                side[0] = True
            if all(side):
                side[0] = False
            current = score(side)
            evals += 2

    if best_score is None or current < best_score:
        best_score = current

    if n <= 22:
        for mask in range(1, 1 << (n - 1)):
            chosen = [bool(mask >> i & 1) for i in range(n - 1)] + [False]
            a = PointMultiset.from_points(
                [instances[i] for i in range(n) if chosen[i]], dim=3
            )
            if not in_hull(p, a):
                continue
            b = PointMultiset.from_points(
                [instances[i] for i in range(n) if not chosen[i]], dim=3
            )
            if in_hull(p, b):
                return a, b
    raise SearchExhausted(
        "no bipartition found",
        diagnostics={"instances": n, "evaluations": evals, "best_gap": str(best_score)},
    )


def z3_gate(m: int) -> int:
    """Instances the Z^3 driver needs for m parts: 24m-31."""
    return 24 * m - 31


def z3_tverberg(
    points: PointMultiset, m: int, seed: int = 0
) -> TverbergCertificate:
    """A verified m-part partition of at least 24m-31 points of Z^3."""
    if m < 2:
        raise PreconditionViolated("partitions need m >= 2")
    if points.dim != 3:
        raise DimensionMismatch("this driver works in Z^3")
    for q, _ in points.entries:
        if not is_integral(q):
            raise PreconditionViolated(f"instance {q} is not an integer point")
    n = points.size
    needed = z3_gate(m)
    if n < needed:
        raise PreconditionViolated(f"need at least {needed} instances for m={m}, got {n}")
    center = first_deep_point(points, Lattice(3), 3 * m - 3)
    direct = peel_by_multiplicity(points, center, m)
    if direct is not None:
        return certify(m, center, direct, Lattice(3), points)
    mu = points.multiplicity(center)
    body = points.remove(center, mu) if mu else points
    target = m - mu
    # The scan proved depth(center, points) >= 3m-3, so the body has depth
    # >= 3m-3-mu >= 3(target-2)+3: peeling's precondition holds already.
    record = _peel(body, center, target - 2)
    remainder = record.remainder
    if remainder.size < 17:
        raise AssertionFailed("size bookkeeping guarantees at least 17 remaining")
    if depth_value(center, remainder) < 3:
        raise AssertionFailed("peeling cannot push the center below depth 3")
    b1, b2 = _bipartition(remainder, center, seed, _MAX_EVALS)
    parts = [singleton_part(center) for _ in range(mu)] + list(record.subsets) + [b1, b2]
    return certify(m, center, parts, Lattice(3), points)
