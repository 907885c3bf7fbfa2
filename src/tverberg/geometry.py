"""Exact convex-hull primitives.

Every geometric question the library asks ends in one exact system.
The membership system of one hull whose entries are affinely
independent (at most d+1 of them) has at most one solution, and
``_forced_solution`` reads it off the hull's integer grid: Cramer's rule
for a planar triangle, one ``linprog.rref`` of the augmented system for
any other such hull; q is in when that solution exists and has no
negative weight.  Every other system is built by
``convex_system(hulls, pin)``: one nonnegative weight per
support entry of each hull, with rows in this fixed order

  1. pins: the first len(pin) coordinates of hull 0's combination
     equal pin (a full query point, or the integer prefix of a fiber);
  2. one sum-to-one row per hull;
  3. hull 0's combination minus hull i's, one row per coordinate, for
     every i >= 1.

The rows are ints.  Each hull keeps its entries' coordinates scaled
to integers by its own scale (``PointMultiset.integer_coordinates``),
and the system takes one positive scale for all of its rows, the lcm
of the hulls' scales and the pin's denominators, never one per row: a
row scale would change the reduced costs and so the pivots.  The
phase-1 simplex decides the integer system once, as it is, and answers
in ints over one denominator; each nonzero weight becomes one Fraction,
and a common point is evaluated on the hull's integer coordinates
(``ConvexCoefficients.combination``).  Bland's
rule breaks ties by row order, so the order is part of the answer;
with one scale the pivots, the weights and the gaps (divided back by
the scale) are those of the rational system.  Pins come first because
one pinned hull is then exactly the classical membership system
(coordinates, then the sum), so membership weights and fiber lifts are
the canonical basic solutions of that system.

* ``hull_membership``: is q a convex combination of a multiset's points?
  q pins all coordinates of one hull; returns the weights or None,
  forced for independent entries, else from the simplex.  The simplex
  can only return the one feasible point of a forced system, so the
  weights are the same either way.  ``membership_gap`` returns the
  simplex's infeasibility mass of the same system.

* ``in_hull``: the same verdict as a bool, for callers that throw the
  weights away: a q equal to an entry is in at once, any other q is
  one forced elimination or one simplex solve that builds no weights.

* ``caratheodory_reduce``: shrink membership weights to an affinely
  independent support of at most d+1 points with strictly positive
  weights, by repeatedly cancelling exact affine dependences.  Such a
  support is minimal: no proper subset's hull contains the point.

* ``polytope_intersection_point``: one exact common point of several
  hulls, the system without pins.

* ``iter_common_ambient_points``: the points of a discrete ambient set
  inside an intersection of hulls, lazily and in canonical order
  (bounding-box scan for Z^d, filter for finite sets, integer-prefix
  enumeration plus the system with the prefix pinned for Z^j x R^k).

Degenerate hulls (segments, repeated points, lower-dimensional inputs)
need no special casing anywhere: independent entries of any number up
to d+1 are forced, and the feasibility formulation covers the rest
uniformly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Callable, Iterator, Sequence

from .ambient import AmbientSet, FiniteSet, Lattice, MixedLattice, RealSpace
from .errors import DimensionMismatch, InputError, UnsupportedAmbient
from .linprog import nullspace, rref, solve_phase1
from .points import ConvexCoefficients, Point, PointMultiset


def _integer_system(
    hulls: Sequence[PointMultiset], pin: Sequence[Fraction | int]
) -> tuple[list[list[int]], list[int], int]:
    """(rows, rhs, scale): ``convex_system``'s system in ints, all of it
    multiplied by one positive scale, the lcm of the hulls' scales and
    the pin's denominators.  Each hull's integer coordinates are read
    as the hull keeps them, times scale over the hull's own scale."""
    coords = [h.integer_coordinates() for h in hulls]
    scale = lcm(*[s for s, _, _ in coords], *[v.denominator for v in pin])
    columns = [
        cols if s == scale else [[x * (scale // s) for x in col] for col in cols]
        for s, cols, _ in coords
    ]
    offsets = list(itertools.accumulate([len(h.entries) for h in hulls], initial=0))
    width = offsets[-1]

    def row(idx: int, entries: list[int]) -> list[int]:
        return [0] * offsets[idx] + entries + [0] * (width - offsets[idx + 1])

    first = columns[0]
    rows = [row(0, list(first[c])) for c in range(len(pin))]
    rhs = [v.numerator * (scale // v.denominator) for v in pin]
    for idx, h in enumerate(hulls):
        rows.append(row(idx, [scale] * len(h.entries)))
        rhs.append(scale)
    for idx in range(1, len(hulls)):
        for c in range(hulls[0].dim):
            diff = row(idx, [-x for x in columns[idx][c]])
            diff[: offsets[1]] = first[c]
            rows.append(diff)
            rhs.append(0)
    return rows, rhs, scale


def convex_system(
    hulls: Sequence[PointMultiset], pin: Sequence[Fraction | int] = ()
) -> tuple[Fraction, tuple[ConvexCoefficients, ...] | None]:
    """Solve the joint convex-combination system of nonempty hulls.

    Rows are the pins over hull 0, one sum-to-one row per hull, then
    hull 0 minus hull i per coordinate (see the module docstring).
    Returns (gap, weights): gap is the exact phase-1 infeasibility mass,
    and weights holds one set per hull when gap is zero, else None,
    each weight read off the simplex's integer solution as one
    Fraction(num, det).  The common point is
    ``weights[0].combination(hulls[0])``.
    """
    gap, x = solve_phase1(*_integer_system(hulls, pin))
    if gap != 0:
        return gap, None
    nums, det = x
    offsets = itertools.accumulate([len(h.entries) for h in hulls], initial=0)
    return gap, tuple(_coefficients(nums[lo:hi], det) for lo, hi in itertools.pairwise(offsets))


def _coefficients(nums: Sequence[int], det: int) -> ConvexCoefficients:
    """The weights nums[j] / det of an integer solution, zeros dropped."""
    return ConvexCoefficients([(j, Fraction(v, det)) for j, v in enumerate(nums) if v])


def _forced_solution(
    q: Sequence[Fraction | int], hull: PointMultiset
) -> tuple[bool, tuple[list[int], int] | None]:
    """(forced, x) for the membership system of a hull of s <= d+1
    affinely independent entries, where it has at most one solution.

    The system is read on the hull's integer grid, with q on the same
    scale (the grid is refined by the lcm of q's remaining denominators
    when q is not on it).  A planar triangle takes Cramer's rule: its
    barycentric coordinates are three int cross products over their
    sum, twice the signed area, which is zero exactly when the entries
    are collinear.  Any other hull takes one ``rref`` of the augmented
    system, the coordinate rows and then the sum row; the entries are
    independent when its first s columns are pivots, and q is off their
    affine hull when the right-hand side is one too.

    forced is False when there are more than d+1 entries or they are
    affinely dependent: the simplex decides, and x is None.  Otherwise
    x is the one solution (nums, den), weight j being nums[j] / den
    with den > 0 and every nums[j] >= 0, or None when there is none or
    it has a negative weight.  The simplex can only return that one
    solution, so both routes give the same weights.
    """
    s = len(hull.entries)
    if s > hull.dim + 1:
        return False, None
    scale, columns, _ = hull.integer_coordinates()
    scaled = [v * scale for v in q]
    grow = lcm(*[v.denominator for v in scaled])
    target = [v.numerator * (grow // v.denominator) for v in scaled]
    if grow != 1:
        columns = [[x * grow for x in column] for column in columns]
    if s == 3 and hull.dim == 2:
        (x0, x1, x2), (y0, y1, y2) = columns
        qx, qy = target
        ax, ay, bx, by, cx, cy = x0 - qx, y0 - qy, x1 - qx, y1 - qy, x2 - qx, y2 - qy
        nums = [bx * cy - by * cx, cx * ay - cy * ax, ax * by - ay * bx]
        den = sum(nums)
        if den == 0:
            return False, None
    else:
        rows = [[*column, v] for column, v in zip(columns, target)]
        rows.append([1] * (s + 1))
        reduced, pivots, den = rref(rows, s + 1)
        if len(pivots) < s or pivots[s - 1] != s - 1:
            return False, None
        if len(pivots) > s:
            return True, None
        nums = [r[s] for r in reduced]
    if den < 0:
        nums, den = [-v for v in nums], -den
    if any(v < 0 for v in nums):
        return True, None
    return True, (nums, den)


def in_hull(q: Sequence[Fraction | int], hull: PointMultiset) -> bool:
    """Whether q is a convex combination of hull's entries: the verdict
    of ``hull_membership(q, hull) is not None`` without the weights.

    A q equal to an entry is in at once.  Otherwise the membership
    system is solved as ``hull_membership`` solves it, and only its
    feasibility is read.  q may hold ints.
    """
    if len(q) != hull.dim:
        raise DimensionMismatch(f"point of dimension {len(q)} against hull of dimension {hull.dim}")
    if not hull.entries:
        return False
    # q is an entry iff q times the hull's scale is an entry's scaled
    # point: a product that is not integral matches none, and ints
    # compare equal to integral Fractions
    scale, _, points = hull.integer_coordinates()
    if tuple([v * scale for v in q]) in points:
        return True
    forced, x = _forced_solution(q, hull)
    if forced:
        return x is not None
    gap, _ = solve_phase1(*_integer_system((hull,), q), solution=False)
    return gap == 0


def hull_membership(
    q: Sequence[Fraction | int], hull: PointMultiset
) -> ConvexCoefficients | None:
    """Exact convex weights expressing q over hull's entries, or None.
    q may hold ints, as the integer candidates of a lattice scan do.

    Affinely independent entries give the one solution of
    ``_forced_solution``; any other hull goes to the simplex.  Identical
    inputs give identical outputs: the multiset is canonically ordered
    and the simplex pivots by Bland's rule.
    """
    if len(q) != hull.dim:
        raise DimensionMismatch(f"point of dimension {len(q)} against hull of dimension {hull.dim}")
    if not hull.entries:
        return None
    forced, x = _forced_solution(q, hull)
    if not forced:
        _, coeffs = convex_system((hull,), q)
        return None if coeffs is None else coeffs[0]
    return None if x is None else _coefficients(*x)


def membership_gap(q: Point, hull: PointMultiset) -> Fraction:
    """Exact phase-1 infeasibility mass of the membership system.

    Zero iff q is in the hull: a rational distance to membership.  No
    library path scores by it; membership is decided by ``in_hull``.
    """
    if len(q) != hull.dim:
        raise DimensionMismatch("dimension mismatch in membership gap")
    if not hull.entries:
        return Fraction(1)
    gap, _ = convex_system((hull,), q)
    return gap


def caratheodory_reduce(
    q: Point, hull: PointMultiset, coeffs: ConvexCoefficients
) -> ConvexCoefficients:
    """Reduce membership weights to a minimal affinely independent support.

    The result has at most dim+1 strictly positive weights; because the
    support is affinely independent and all weights positive, no proper
    subset of it contains q in its hull.
    """
    if coeffs.combination(hull) != q:
        raise InputError("coefficients do not combine to the claimed point")
    d = hull.dim
    _, columns, _ = hull.integer_coordinates()
    active: list[tuple[int, Fraction]] = list(coeffs.weights)
    while True:
        s = len(active)
        if s <= 1:
            break
        # Affine dependence: mu with sum(mu)=0 and sum(mu_i x_i)=0, on
        # the hull's integer grid, which scales every coordinate row alike.
        rows = [[column[i] for i, _ in active] for column in columns]
        rows.append([1] * s)
        deps = nullspace(rows, s)
        if not deps:
            break  # affinely independent
        mu = deps[0]
        if all(v <= 0 for v in mu):
            mu = [-v for v in mu]
        t: Fraction | None = None
        pivot = -1
        for i in range(s):
            if mu[i] > 0:
                ratio = active[i][1] / mu[i]
                if t is None or ratio < t:
                    t = ratio
                    pivot = i
        new_active = []
        for i in range(s):
            w = active[i][1] - t * mu[i]
            if w < 0:
                raise ArithmeticError("negative weight during Caratheodory reduction")
            if w > 0 and i != pivot:
                new_active.append((active[i][0], w))
        active = new_active
    result = ConvexCoefficients(active)
    if len(result.weights) > d + 1:
        raise ArithmeticError("Caratheodory reduction exceeded dim+1 support")
    if result.combination(hull) != q:
        raise ArithmeticError("Caratheodory reduction broke the combination")
    return result


def polytope_intersection_point(
    hulls: Sequence[PointMultiset],
) -> tuple[Point, tuple[ConvexCoefficients, ...]] | None:
    """One exact point common to all hulls, with per-hull weights, or None.

    Solves the joint system: per-hull convex weights, all combining to
    the same point.  The returned point is the canonical basic solution
    of the feasibility system (Bland pivoting), so it is deterministic.
    """
    if not hulls:
        raise InputError("need at least one hull")
    d = hulls[0].dim
    for h in hulls:
        if h.dim != d:
            raise DimensionMismatch("hulls of mixed dimension")
        if not h.entries:
            return None
    _, coeffs = convex_system(hulls)
    return None if coeffs is None else (coeffs[0].combination(hulls[0]), coeffs)


def _integer_box(hulls: Sequence[PointMultiset], k: int) -> list[range] | None:
    """Integer ranges of the intersection of the hulls' bounding boxes
    over the first k coordinates, or None when one of them is empty.

    Per coordinate the box is [max_h min_p x, min_h max_p x] and its
    integer range runs from the ceiling of the low end to the floor of
    the high end.  Ceiling and floor are monotone, so they commute with
    min and max: ceil(max_h min_p x) = max_h min_p ceil(x), and likewise
    for floor.  So each hull's rounded ranges (``integer_ranges``, kept
    by the hull) meet by int comparisons alone.
    """
    lows, highs = zip(*[h.integer_ranges() for h in hulls])
    ranges: list[range] = []
    # zip transposes the per-hull tuples to per-coordinate ones, and
    # range(k) stops the walk after the first k coordinates
    for _, lo, hi in zip(range(k), map(max, zip(*lows)), map(min, zip(*highs))):
        if lo > hi:
            return None
        ranges.append(range(lo, hi + 1))
    return ranges


def iter_common_ambient_points(
    hulls: Sequence[PointMultiset],
    ambient: AmbientSet,
    contains: Callable[[Sequence[Fraction | int], PointMultiset], bool] = in_hull,
) -> Iterator[Point]:
    """Lazily yield ambient-set points lying in every hull, in canonical order.

    Over Z^d and finite sets each candidate point is tested against each
    hull by ``contains(point, hull)``, by default ``in_hull``: an entry
    of the hull is in at once, any other candidate is one membership
    system, and no weights are built.  A caller that meets the same
    hulls again can pass a test that remembers its verdicts, and a
    refutation's test first rejects candidates of depth < len(hulls) in
    the whole multiset (``depth.deep_filter``).  Over Z^d
    the candidates are the int tuples of the integer box and
    ``contains`` gets them as they are; only a point that lies in every
    hull becomes a Fraction tuple.
    Z^j x R^k solves the joint system per integer prefix and does not
    use it.
    """
    if not hulls:
        raise InputError("need at least one hull")
    d = hulls[0].dim
    if ambient.dim != d:
        raise DimensionMismatch("ambient dimension differs from hull dimension")
    if any(h.dim != d for h in hulls):
        raise DimensionMismatch("hulls of mixed dimension")
    for h in hulls:
        if not h.entries:
            return
    if isinstance(ambient, FiniteSet):
        for s in ambient.points:
            if all(contains(s, h) for h in hulls):
                yield s
        return
    if isinstance(ambient, Lattice):
        box = _integer_box(hulls, d)
        if box is None:
            return
        for cand in itertools.product(*box):
            if all(contains(cand, h) for h in hulls):
                yield tuple(map(Fraction, cand))
        return
    if isinstance(ambient, MixedLattice):
        box = _integer_box(hulls, ambient.j)
        if box is None:
            return
        for prefix in itertools.product(*box):
            _, coeffs = convex_system(hulls, prefix)
            if coeffs is not None:
                yield coeffs[0].combination(hulls[0])
        return
    if isinstance(ambient, RealSpace):
        raise UnsupportedAmbient("R^d has no lattice to enumerate; use polytope_intersection_point")
    raise UnsupportedAmbient(f"unsupported ambient descriptor {ambient!r}")
