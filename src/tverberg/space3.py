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

The final bipartition is a scan that cannot miss.  Seeds come first: a
copy of p, then a segment through p (its complement keeps depth >= 1
by counting), then the minimal subset above with its complement.  After
them every triangle, then every tetrahedron, of support points whose
closed hull holds p is tried with its complement, each in
lexicographic order of support indices.  The scan is exhaustive by
Caratheodory: if parts A and B both hold p and p is no instance,
shrinking A to a minimal subset X that holds p leaves X with at most 4
affinely independent support points, and the complement of X contains
B, so it holds p too.  A segment X is settled by the seed; a triangle
or tetrahedron X is one the scan visits.  So a scan that finds nothing
means the theorem failed, an internal fault.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .ambient import Lattice
from .certificates import (
    TverbergCertificate,
    certify,
    check_partition_input,
    peel_by_multiplicity,
    singleton_part,
)
from .depth import depth_value, first_deep_scan
from .errors import AssertionFailed, DimensionMismatch, ExtractionFailed, PreconditionViolated
from .geometry import caratheodory_reduce, hull_membership, in_hull
from .points import Point, PointMultiset, integer_points

IntPoint = tuple[int, ...]


@dataclass(frozen=True)
class PeelRecord:
    """Minimal subsets peeled around a point, plus what is left over."""

    center: Point
    subsets: tuple[PointMultiset, ...]
    remainder: PointMultiset


def _sub3(u: IntPoint, v: IntPoint) -> IntPoint:
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def _dot3(u: IntPoint, v: IntPoint) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross3(u: IntPoint, v: IntPoint) -> IntPoint:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _on_grid(support: tuple[Point, ...], p: Point) -> tuple[tuple[IntPoint, ...], IntPoint]:
    """The support and p as int tuples on one grid (``integer_points``).

    Containment in a segment, triangle or tetrahedron is invariant under
    the scaling, and the predicates below decide it in ints.
    """
    _, grid = integer_points(support + (p,))
    return grid[:-1], grid[-1]


def _on_segment(p: IntPoint, a: IntPoint, b: IntPoint) -> bool:
    """p on the closed segment ab, exactly."""
    u = _sub3(p, a)
    v = _sub3(b, a)
    if _cross3(u, v) != (0, 0, 0):
        return False
    num = _dot3(u, v)
    den = _dot3(v, v)
    if den == 0:
        return u == (0, 0, 0)
    return 0 <= num <= den


def _in_triangle(p: IntPoint, a: IntPoint, b: IntPoint, c: IntPoint) -> bool:
    """p in the closed triangle abc, abc affinely independent.

    With normal n = (b-a) x (c-a), p must lie in the plane (n.(p-a) = 0)
    and on the inner side of every edge: each n.(edge x (p - edge start))
    is a nonnegative multiple of one barycentric coordinate of p.
    """
    n = _cross3(_sub3(b, a), _sub3(c, a))
    if n == (0, 0, 0) or _dot3(n, _sub3(p, a)) != 0:
        return False
    return all(
        _dot3(n, _cross3(_sub3(y, x), _sub3(p, x))) >= 0 for x, y in ((a, b), (b, c), (c, a))
    )


def _in_tetrahedron(p: IntPoint, a: IntPoint, b: IntPoint, c: IntPoint, d: IntPoint) -> bool:
    """p in the closed tetrahedron abcd, abcd affinely independent.

    Replacing one corner by p scales the orientation det(b-a, c-a, d-a)
    by p's barycentric coordinate at that corner, so p is inside exactly
    when no replacement flips the orientation's sign.
    """

    def orient(w: IntPoint, x: IntPoint, y: IntPoint, z: IntPoint) -> int:
        return _dot3(_sub3(x, w), _cross3(_sub3(y, w), _sub3(z, w)))

    whole = orient(a, b, c, d)
    if whole == 0:
        return False
    return all(
        whole * orient(*corners) >= 0
        for corners in ((p, b, c, d), (a, p, c, d), (a, b, p, d), (a, b, c, p))
    )


_HOLDS = {2: _on_segment, 3: _in_triangle, 4: _in_tetrahedron}


def _capturing_subsets(
    support: tuple[Point, ...], p: Point, sizes: tuple[int, ...]
) -> Iterator[PointMultiset]:
    """Support subsets of the given sizes whose closed hull holds p, by
    size and then in lexicographic order of support indices; p must not
    be a support point."""
    grid, q = _on_grid(support, p)
    for k in sizes:
        holds = _HOLDS[k]
        for idx, corners in zip(
            itertools.combinations(range(len(grid)), k), itertools.combinations(grid, k)
        ):
            if holds(q, *corners):
                yield PointMultiset.from_points([support[i] for i in idx], dim=3)


def _minimal_subset(points: PointMultiset, p: Point) -> PointMultiset:
    """First minimal subset (canonical order) whose hull holds p."""
    if p in points:
        return singleton_part(p)
    found = next(_capturing_subsets(points.support(), p, (2, 3)), None)
    if found is not None:
        return found
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
        current = _split_by_entries(current, x)
        subsets.append(x)
    return PeelRecord(p, tuple(subsets), current)


def _split_by_entries(points: PointMultiset, first: PointMultiset) -> PointMultiset:
    return points.sub_multiset([mult - first.multiplicity(q) for q, mult in points.entries])


def bipartition_search(points: PointMultiset, p: Point) -> tuple[PointMultiset, PointMultiset]:
    """Two nonempty parts of the multiset, both hulls holding p: the seeds,
    then the minimal-subset scan (see the module docstring)."""
    if points.dim != 3:
        raise DimensionMismatch("bipartition is the d = 3 routine")
    if points.size < 17:
        raise PreconditionViolated(f"need at least 17 instances, got {points.size}")
    if depth_value(p, points) < 3:
        raise PreconditionViolated("bipartition needs a point of depth at least 3")
    return _bipartition(points, p)


def _bipartition(points: PointMultiset, p: Point) -> tuple[PointMultiset, PointMultiset]:
    """``bipartition_search`` after its checks."""
    if p in points:
        first = singleton_part(p)
        rest = points.remove(p)
        if not in_hull(p, rest):
            raise AssertionFailed("depth 3 leaves the complement of one copy nonempty in every half-space")
        return first, rest

    support = points.support()
    first = next(_capturing_subsets(support, p, (2,)), None)
    if first is not None:
        rest = _split_by_entries(points, first)
        if not in_hull(p, rest):
            raise AssertionFailed("segment through p must leave depth >= 1 behind")
        return first, rest

    x = _minimal_subset(points, p)
    rest = _split_by_entries(points, x)
    if rest.size and in_hull(p, rest):
        return x, rest

    found = _split_scan(points, p, (3, 4))
    if found is None:
        raise AssertionFailed(
            "no triangle or tetrahedron around p leaves a complement holding p; "
            "by Caratheodory no bipartition exists, which depth 3 forbids"
        )
    return found


def _split_scan(
    points: PointMultiset, p: Point, sizes: tuple[int, ...]
) -> tuple[PointMultiset, PointMultiset] | None:
    """The first support subset of the given sizes whose closed hull holds
    p (``_capturing_subsets`` order) with a complement holding p too, as
    (subset, complement); None when there is none.  p must not be an
    instance."""
    for first in _capturing_subsets(points.support(), p, sizes):
        rest = _split_by_entries(points, first)
        if in_hull(p, rest):
            return first, rest
    return None


def z3_gate(m: int) -> int:
    """Instances the Z^3 driver needs for m parts: 24m-31."""
    return 24 * m - 31


def z3_tverberg(points: PointMultiset, m: int) -> TverbergCertificate:
    """A verified m-part partition of at least 24m-31 points of Z^3."""
    check_partition_input(points, m, Lattice(3), z3_gate(m))
    center, parts = _z3_parts(points, m)
    return certify(m, center, parts, Lattice(3), points)


def _z3_parts(points: PointMultiset, m: int) -> tuple[Point, list[PointMultiset]]:
    """The body of ``z3_tverberg`` for checked inputs: m >= 2 and at least
    the gate of integer points of Z^3.  Returns the centre and the parts,
    building no certificate."""
    center, depth, _ = first_deep_scan(points, Lattice(3), 3 * m - 3)
    direct = peel_by_multiplicity(points, center, m)
    if direct is not None:
        return center, direct
    mu = points.multiplicity(center)
    body = points.remove(center, mu) if mu else points
    target = m - mu
    # The scan's depth is exact and >= 3m-3; the mu copies of the center
    # count in every half-space, so the body has depth depth - mu >=
    # 3(target-2)+3: peeling's precondition holds already.
    record = _peel(body, center, target - 2)
    remainder = record.remainder
    if remainder.size < 17:
        raise AssertionFailed("size bookkeeping guarantees at least 17 remaining")
    if (depth_value(center, remainder) if record.subsets else depth - mu) < 3:
        raise AssertionFailed("peeling cannot push the center below depth 3")
    b1, b2 = _bipartition(remainder, center)
    return center, [singleton_part(center) for _ in range(mu)] + list(record.subsets) + [b1, b2]
