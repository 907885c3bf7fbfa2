from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from tverberg.ambient import FiniteSet, Lattice, MixedLattice
from tverberg.errors import DimensionMismatch, Infeasible, UnsupportedAmbient
from tverberg.geometry import (
    _forced_solution,
    _integer_box,
    caratheodory_reduce,
    convex_system,
    hull_membership,
    in_hull,
    iter_common_ambient_points,
    membership_gap,
    polytope_intersection_point,
)
from tverberg.points import PointMultiset, point
from tverberg.product import fiber_lift

import lp_oracle
from conftest import random_lattice_multiset, random_rational
from partition_oracle import fraction_box


def test_hull_membership_triangle():
    tri = PointMultiset.from_points([point(0, 0), point(4, 0), point(0, 4)])
    inside = hull_membership(point(1, 1), tri)
    assert inside is not None
    assert inside.combination(tri) == point(1, 1)
    assert hull_membership(point(3, 3), tri) is None
    on_edge = hull_membership(point(2, 2), tri)
    assert on_edge is not None


def test_hull_membership_single_point_and_segment():
    single = PointMultiset.from_points([point(5, -1)])
    assert hull_membership(point(5, -1), single) is not None
    assert hull_membership(point(5, 0), single) is None
    seg = PointMultiset.from_points([point(0, 0), point(6, 3)])
    mid = hull_membership(point(2, 1), seg)
    assert mid is not None and mid.combination(seg) == point(2, 1)
    assert hull_membership(point(2, 2), seg) is None


def test_membership_gap_signs():
    tri = PointMultiset.from_points([point(0, 0), point(4, 0), point(0, 4)])
    assert membership_gap(point(1, 1), tri) == 0
    assert membership_gap(point(9, 9), tri) > 0


def test_caratheodory_reduce_support_bound(rng):
    for _ in range(120):
        d = rng.choice([2, 3])
        n = rng.randint(d + 2, 9)
        hull = random_lattice_multiset(rng, n, d, 5)
        # aim at a convex combination so membership is guaranteed
        weights = [rng.randint(0, 3) for _ in range(hull.size)]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        inst = hull.instances()
        q = tuple(
            sum(Fraction(w) * p[c] for w, p in zip(weights, inst)) / total
            for c in range(d)
        )
        coeffs = hull_membership(q, hull)
        assert coeffs is not None
        small = caratheodory_reduce(q, hull, coeffs)
        assert len(small.weights) <= d + 1
        assert small.combination(hull) == q


def test_polytope_intersection_point_segments():
    a = PointMultiset.from_points([point(0, 0), point(2, 2)])
    b = PointMultiset.from_points([point(0, 2), point(2, 0)])
    found = polytope_intersection_point((a, b))
    assert found is not None
    pt, proofs = found
    assert pt == point(1, 1)
    assert proofs[0].combination(a) == pt and proofs[1].combination(b) == pt
    c = PointMultiset.from_points([point(5, 5), point(6, 6)])
    assert polytope_intersection_point((a, c)) is None


def test_lattice_points_in_intersection_box():
    sq = PointMultiset.from_points(
        [point(0, 0), point(3, 0), point(0, 3), point(3, 3)]
    )
    tri = PointMultiset.from_points([point(1, 1), point(7, 1), point(1, 7)])
    pts = list(iter_common_ambient_points((sq, tri), Lattice(2)))
    assert point(1, 1) in pts and point(2, 1) in pts
    assert all(0 <= p[0] <= 3 and 0 <= p[1] <= 3 for p in pts)
    assert sorted(pts) == pts  # deterministic scan order
    expected = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]
    assert [(int(p[0]), int(p[1])) for p in pts] == expected


def test_iter_common_points_finite_ambient():
    amb = FiniteSet((point(0, 0), point(1, 1), point(9, 9)), 2)
    a = PointMultiset.from_points([point(0, 0), point(2, 2)])
    b = PointMultiset.from_points([point(1, 0), point(1, 3)])
    got = list(iter_common_ambient_points((a, b), amb))
    assert got == [point(1, 1)]


def test_iter_common_points_mixed_fibers(rng):
    # two triangles in Z x R overlapping over integer first coordinates 1..2
    a = PointMultiset.from_points(
        [point(0, 0), point(3, 0), point(1, 4)]
    )
    b = PointMultiset.from_points(
        [point(0, 1), point(3, 1), point(2, -3)]
    )
    amb = MixedLattice(1, 1)
    got = list(iter_common_ambient_points((a, b), amb))
    assert got, "overlap is plainly nonempty"
    for p in got:
        assert p[0].denominator == 1
        assert hull_membership(p, a) is not None
        assert hull_membership(p, b) is not None
    # one witness per integer fiber, no duplicates
    assert len({p[0] for p in got}) == len(got)

    # random hulls in [-3, 3]^3: a prefix is feasible iff the hulls meet
    # the slab {prefix} x [-3, 3]^k, a check with no pinned rows
    negative_prefixes = 0
    for amb in (MixedLattice(2, 1), MixedLattice(1, 2)):
        for _ in range(6):
            hulls = [random_lattice_multiset(rng, 5, 3, 3) for _ in range(2)]
            got = list(iter_common_ambient_points(hulls, amb))
            prefixes = [p[: amb.j] for p in got]
            assert len(set(prefixes)) == len(prefixes)
            for p in got:
                assert all(c.denominator == 1 for c in p[: amb.j])
                assert all(hull_membership(p, h) is not None for h in hulls)
            negative_prefixes += sum(1 for pre in prefixes if min(pre) < 0)
            box = (Fraction(-3), Fraction(3))
            for pre in itertools.product(map(Fraction, range(-3, 4)), repeat=amb.j):
                slab = PointMultiset.from_points(
                    [pre + corner for corner in itertools.product(box, repeat=amb.k)]
                )
                feasible = polytope_intersection_point(hulls + [slab]) is not None
                assert feasible == (pre in prefixes), (amb, pre)
    assert negative_prefixes > 0
    # a hull of another dimension is an error, not a silently cut system
    lifted = PointMultiset.from_points([point(0, 0, 5), point(3, 0, 5)])
    with pytest.raises(DimensionMismatch):
        list(iter_common_ambient_points((a, lifted), MixedLattice(1, 1)))


def test_iter_common_points_real_ambient_rejected():
    from tverberg.ambient import RealSpace

    a = PointMultiset.from_points([point(0, 0), point(1, 1)])
    with pytest.raises(UnsupportedAmbient):
        list(iter_common_ambient_points((a,), RealSpace(2)))


def test_random_agreement_between_scan_and_joint_lp(rng):
    # when the lattice scan finds nothing inside the bounding box, the
    # joint feasibility problem must still be allowed to disagree only
    # by producing a non-integer point
    for _ in range(60):
        a = random_lattice_multiset(rng, rng.randint(2, 5), 2, 4)
        b = random_lattice_multiset(rng, rng.randint(2, 5), 2, 4)
        scan = list(iter_common_ambient_points((a, b), Lattice(2)))
        joint = polytope_intersection_point((a, b))
        if scan:
            assert joint is not None
            for p in scan:
                assert hull_membership(p, a) is not None
                assert hull_membership(p, b) is not None
        if joint is None:
            assert not scan


def test_integer_box_matches_fraction_box(rng):
    # rational vertices of both signs, so rounding each vertex first must
    # agree with rounding the Fraction extremes
    empty = 0
    for _ in range(400):
        d = rng.randint(1, 3)
        hulls = [
            PointMultiset.from_points(
                [tuple(random_rational(rng, 3, 4) for _ in range(d)) for _ in range(rng.randint(1, 4))]
            )
            for _ in range(rng.randint(1, 3))
        ]
        want = fraction_box(hulls, d)
        assert _integer_box(hulls, d) == want
        # a second call reads the ranges each hull kept
        assert _integer_box(hulls, d) == want
        empty += want is None
    assert 0 < empty < 400


def test_integer_box_over_shared_hulls(rng):
    # one pool of hulls met again and again, in other company and over
    # fewer coordinates, as a partition search meets its parts
    for d in (1, 2, 3):
        pool = [
            PointMultiset.from_points(
                [tuple(random_rational(rng, 3, 4) for _ in range(d)) for _ in range(rng.randint(1, 4))]
            )
            for _ in range(6)
        ]
        for _ in range(150):
            hulls = rng.sample(pool, rng.randint(1, 3))
            k = rng.randint(1, d)
            assert _integer_box(hulls, k) == fraction_box(hulls, k)


def _mixed_rational(rng, box=3):
    return Fraction(rng.randint(-box * 6, box * 6), rng.choice([1, 2, 3, 4, 5, 6]))


def _property_hull(rng, d):
    """A small hull of one of the shapes the integer rows must get right."""
    kind = rng.choice(["integer", "rational", "repeated", "flat", "single"])
    if kind == "integer":
        pts = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(d)) for _ in range(rng.randint(1, 5))]
    elif kind == "rational":
        pts = [tuple(_mixed_rational(rng) for _ in range(d)) for _ in range(rng.randint(1, 5))]
    elif kind == "repeated":
        base = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(d)) for _ in range(rng.randint(1, 3))]
        pts = base + rng.choices(base, k=rng.randint(1, 3))
    elif kind == "flat":
        # collinear points, or coplanar ones in space
        origin = tuple(_mixed_rational(rng, 2) for _ in range(d))
        spans = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(d)) for _ in range(1 if d < 3 else rng.randint(1, 2))]
        pts = [
            tuple(o + sum(t * u[c] for t, u in zip(ts, spans)) for c, o in enumerate(origin))
            for ts in ([_mixed_rational(rng, 1) for _ in spans] for _ in range(rng.randint(2, 5)))
        ]
    else:
        pts = [tuple(_mixed_rational(rng) for _ in range(d))]
    return PointMultiset.from_points(pts, dim=d)


def _property_query(rng, hull, d):
    """An entry, a point on an edge, an inside point or a stray point."""
    support = hull.support()
    kind = rng.choice(["entry", "edge", "inside", "stray", "stray_int"])
    if kind == "entry":
        q = rng.choice(support)
    elif kind == "edge":
        a, b = rng.choice(support), rng.choice(support)
        t = Fraction(rng.randint(0, 4), 4)
        q = tuple(t * x + (1 - t) * y for x, y in zip(a, b))
    elif kind == "inside":
        weights = [rng.randint(0, 3) for _ in support]
        weights[0] += 1
        q = tuple(sum(w * p[c] for w, p in zip(weights, support)) / sum(weights) for c in range(d))
    elif kind == "stray":
        q = tuple(_mixed_rational(rng, 4) for _ in range(d))
    else:
        q = tuple(Fraction(rng.randint(-4, 4)) for _ in range(d))
    if all(c.denominator == 1 for c in q) and rng.random() < 0.5:
        q = tuple(int(c) for c in q)  # as a lattice scan hands it over
    return q


def _fraction_valued(values):
    return all(type(v) is Fraction for v in values)


def test_integer_systems_match_the_fraction_oracle():
    # in_hull, membership weights and gaps, fiber lifts, intersection
    # points and pinned joint systems, each against the Fraction simplex
    # on the Fraction system in the same row order
    rng = random.Random(0x1A7)
    verdicts = set()
    for _ in range(1200):
        d = rng.randint(1, 3)
        hull = _property_hull(rng, d)
        q = _property_query(rng, hull, d)
        gap, weights = lp_oracle.convex_solution((hull,), q)
        coeffs = hull_membership(q, hull)
        assert (None if coeffs is None else coeffs.weights) == (None if weights is None else weights[0])
        assert coeffs is None or _fraction_valued(w for _, w in coeffs.weights)
        assert in_hull(q, hull) == (coeffs is not None)
        got_gap = membership_gap(q, hull)
        assert got_gap == gap and type(got_gap) is Fraction
        verdicts.add((coeffs is not None, type(q[0])))

        if d > 1:
            prefix = q[: rng.randint(1, d - 1)]
            gap, weights = lp_oracle.convex_solution((hull,), prefix)
            if weights is None:
                with pytest.raises(Infeasible):
                    fiber_lift(hull, prefix)
            else:
                lifted, lift_coeffs = fiber_lift(hull, prefix)
                assert lift_coeffs.weights == weights[0]
                assert lifted == lp_oracle.combination(weights[0], hull)
                assert _fraction_valued(lifted) and _fraction_valued(w for _, w in lift_coeffs.weights)

        hulls = [hull] + [_property_hull(rng, d) for _ in range(rng.randint(1, 2))]
        gap, weights = lp_oracle.convex_solution(hulls)
        found = polytope_intersection_point(hulls)
        if weights is None:
            assert found is None
        else:
            common, proofs = found
            assert common == lp_oracle.combination(weights[0], hulls[0]) and _fraction_valued(common)
            assert tuple(c.weights for c in proofs) == weights
        pin = q[: rng.randint(0, d)]
        want = lp_oracle.convex_solution(hulls, pin)
        got_gap, got = convex_system(hulls, pin)
        assert type(got_gap) is Fraction
        assert (got_gap, None if got is None else tuple(c.weights for c in got)) == want
    assert verdicts == {(True, int), (False, int), (True, Fraction), (False, Fraction)}


def _simplex_case(rng):
    """(hull, q, kind, shape): a segment, triangle or tetrahedron (a point
    now and then) of int or rational entries in dimension 1 to 3, made
    affinely dependent in a fifth of the cases, and q inside it, on an
    edge, at a vertex or outside (an affine combination with a negative
    weight, or a stray point)."""
    s = rng.choice((1, 2, 2, 3, 3, 4, 4))
    d = rng.randint(max(1, s - 1), 3)
    coord = (lambda: Fraction(rng.randint(-5, 5))) if rng.random() < 0.5 else (lambda: random_rational(rng, 5, 4))
    pts = [tuple(coord() for _ in range(d)) for _ in range(s)]
    if s >= 3 and rng.random() < 0.2:
        # the last entry an affine combination of the others
        t = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(s - 2)]
        t.append(1 - sum(t))
        pts[-1] = tuple(sum(w * p[c] for w, p in zip(t, pts)) for c in range(d))
    hull = PointMultiset.from_points(pts, dim=d)
    support = hull.support()
    kind = rng.choice(("inside", "edge", "vertex", "outside", "stray"))
    if kind == "vertex":
        q = rng.choice(support)
    else:
        if kind == "edge":
            w = [Fraction(0)] * len(support)
            i, j = rng.randrange(len(support)), rng.randrange(len(support))
            w[i] += Fraction(rng.randint(0, 4), 4)
            w[j] += 1 - w[i]
        elif kind == "inside":
            w = [Fraction(rng.randint(1, 5)) for _ in support]
        else:
            w = [Fraction(rng.randint(-3, 3)) for _ in support]
            w[rng.randrange(len(w))] = Fraction(-rng.randint(1, 3))
        total = sum(w) or Fraction(1)
        q = tuple(sum(x * p[c] for x, p in zip(w, support)) / total for c in range(d))
        if kind == "stray":
            q = tuple(v + random_rational(rng, 2, 3) for v in q)
    if rng.random() < 0.5:
        # translate the case so q is an int tuple, as a lattice scan hands
        # it over; translation keeps every weight
        shift = [v.numerator // v.denominator - v for v in q]
        hull = PointMultiset.from_points([tuple(map(sum, zip(p, shift))) for p in support], dim=d)
        q = tuple(int(v + t) for v, t in zip(q, shift))
    shape = ("point", "segment", "triangle", "tetrahedron")[len(support) - 1]
    return hull, q, kind, shape


def test_forced_membership_matches_the_fraction_oracle():
    """Entries at most d+1 and affinely independent: the forced route
    decides, and its weights and verdict are the Fraction simplex's on
    the same system.  Dependent entries are not forced: the simplex
    decides them, with the same answer as the reference."""
    rng = random.Random(0x5EED19)
    seen = set()
    for _ in range(2400):
        hull, q, kind, shape = _simplex_case(rng)
        support = hull.support()
        rank = len(lp_oracle.pivot_columns([[*p, 1] for p in support], hull.dim + 1))
        independent = rank == len(support)
        _, weights = lp_oracle.convex_solution((hull,), q)
        want = None if weights is None else weights[0]
        forced, x = _forced_solution(q, hull)
        assert forced == independent, (support, q)
        if forced:
            got = None if x is None else tuple((j, Fraction(v, x[1])) for j, v in enumerate(x[0]) if v)
            assert got == want, (support, q)
        coeffs = hull_membership(q, hull)
        assert (None if coeffs is None else coeffs.weights) == want
        assert in_hull(q, hull) == (want is not None)
        seen.add((shape, independent, kind, want is not None, type(q[0])))
    for shape in ("segment", "triangle", "tetrahedron"):
        for kind in ("inside", "edge", "vertex", "outside"):
            for q_type in (int, Fraction):
                assert (shape, True, kind, kind != "outside", q_type) in seen, (shape, kind, q_type)
        if shape != "segment":
            assert {(shape, False, True), (shape, False, False)} <= {(a, b, d) for a, b, _, d, _ in seen}
