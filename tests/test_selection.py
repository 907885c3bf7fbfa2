from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from tverberg.depth import depth_value, integer_centerpoint
from tverberg.errors import (
    DimensionMismatch,
    InputError,
    NotFound,
    PreconditionViolated,
    SelectionNotFound,
)
from tverberg.geometry import hull_membership
from tverberg import selection
from tverberg.points import PointMultiset, point
from tverberg.selection import (
    depth_partition_search,
    fraction_selection,
    transversal_property_verify,
)

from conftest import clustered_multiset, random_lattice_multiset, random_rational


def _hexagon():
    return PointMultiset.from_points(
        [
            point(2, 0),
            point(1, 2),
            point(-1, 2),
            point(-2, 0),
            point(-1, -2),
            point(1, -2),
        ]
    )


def _exhaustive_transversals_ok(parts, q):
    for choice in itertools.product(*(p.support() for p in parts)):
        ms = PointMultiset.from_points(choice, dim=len(q))
        if hull_membership(q, ms) is None:
            return False
    return True


def test_verify_positive_hexagon_sector_pairs():
    # pairs of adjacent vertices: every transversal picks one point
    # from each of three sectors 120 degrees apart, so each triangle
    # surrounds the center (antipodal pairs would not work: a
    # transversal could take three points all with x > 0)
    parts = (
        PointMultiset.from_points([point(2, 0), point(1, 2)]),
        PointMultiset.from_points([point(-1, 2), point(-2, 0)]),
        PointMultiset.from_points([point(-1, -2), point(1, -2)]),
    )
    q = point(0, 0)
    assert transversal_property_verify(parts, q, method="dual")
    assert transversal_property_verify(parts, q, method="direct")
    assert transversal_property_verify(parts, q, method="both")


def test_verify_negative_one_sided_parts():
    parts = (
        PointMultiset.from_points([point(1, 0)]),
        PointMultiset.from_points([point(0, 1)]),
        PointMultiset.from_points([point(1, 1)]),
    )
    assert not transversal_property_verify(parts, point(0, 0), method="both")


def test_verify_routes_agree_on_random_parts(rng):
    for _ in range(60):
        parts = tuple(
            random_lattice_multiset(rng, rng.randint(2, 3), 2, 4)
            for _ in range(3)
        )
        q = point(rng.randint(-2, 2), rng.randint(-2, 2))
        got = transversal_property_verify(parts, q, method="both")
        assert got == _exhaustive_transversals_ok(parts, q)


def test_verify_direct_refuses_large_products(rng):
    parts = tuple(
        PointMultiset.from_points(
            [(Fraction(i), Fraction(g * 100 + i)) for i in range(50)]
        )
        for g in range(3)
    )
    with pytest.raises(PreconditionViolated):
        transversal_property_verify(parts, point(0, 0), method="direct")


def test_verify_input_guards():
    with pytest.raises(InputError):
        transversal_property_verify((), point(0, 0))
    part3 = PointMultiset.from_points([point(0, 0, 0)])
    with pytest.raises(DimensionMismatch):
        transversal_property_verify((part3,), point(0, 0))
    part = PointMultiset.from_points([point(0, 0)])
    with pytest.raises(InputError):
        transversal_property_verify((part,), point(0, 0), method="fast")


def test_fraction_selection_hexagon():
    res = fraction_selection(_hexagon(), point(0, 0), 2)
    assert res.sizes == (2, 2, 2)
    assert res.verified
    merged = sorted(
        p for part in res.parts for p in part.instances()
    )
    assert merged == sorted(_hexagon().instances())
    assert _exhaustive_transversals_ok(res.parts, res.point)


def test_fraction_selection_clustered(rng):
    for _ in range(8):
        centers = [(-8, -8), (8, -8), (0, 9)]
        pts = clustered_multiset(rng, [5, 5, 5], centers)
        n = pts.size
        q = integer_centerpoint(pts, (n - 1) // 4 + 1)
        res = fraction_selection(pts, q, n // 6)
        assert min(res.sizes) >= n // 6
        supports = [set(part.instances()) for part in res.parts]
        for a, b in itertools.combinations(range(3), 2):
            assert not (supports[a] & supports[b])
        assert _exhaustive_transversals_ok(res.parts, q)


def test_fraction_selection_pigeonhole():
    pts = _hexagon()
    with pytest.raises(SelectionNotFound) as exc:
        fraction_selection(pts, point(0, 0), 3)  # 3 groups of 3 need 9
    assert exc.value.best_sizes == ()


def test_fraction_selection_guards():
    with pytest.raises(DimensionMismatch):
        fraction_selection(_hexagon(), point(0, 0, 0), 1)
    with pytest.raises(PreconditionViolated):
        fraction_selection(_hexagon(), point(0, 0), 0)


def test_depth_partition_doubled_hexagon():
    pts = PointMultiset(((p, 2) for p in _hexagon().support()), dim=2)
    n = pts.size
    alpha = Fraction(5, 12)  # only the center reaches depth 5 of 12
    groups = depth_partition_search(pts, alpha, 3)
    sizes = [g.size for g in groups]
    assert sum(sizes) == n
    assert min(sizes) >= n // 6 and max(sizes) <= -(-2 * n) // 3
    # independent recheck: every deep integer point of the bounding
    # box keeps the transversal property under the direct route
    deep = []
    for x in range(-2, 3):
        for y in range(-2, 3):
            z = point(x, y)
            if Fraction(depth_value(z, pts)) >= alpha * n:
                deep.append(z)
    assert deep
    for z in deep:
        assert transversal_property_verify(groups, z, method="direct")


def _bounding_box_deep_points(points, alpha):
    """The previous candidate scan of ``depth_partition_search``, kept as
    the reference: every integer point of the bounding box and every
    instance, each of depth >= alpha*n with its depth."""
    lows, highs = points.integer_ranges()
    candidates = [
        tuple(Fraction(v) for v in x)
        for x in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs)))
    ]
    candidates += [p for p, _ in points.entries]
    depth_of = {z: depth_value(z, points) for z in candidates}
    return {z: depth for z, depth in depth_of.items() if depth >= alpha * points.size}


def test_deep_points_equal_the_bounding_box_scan():
    """Seeded lattice, rational and multiplied inputs in the plane and in
    Z^3, some with a far instance: the order-statistic box finds exactly
    the deep points the bounding-box scan finds."""
    rng = random.Random(2020)
    nonempty = 0
    for i in range(120):
        d = 3 if i % 6 == 5 else 2
        coords = []
        for _ in range(rng.randint(3, 9 if d == 2 else 6)):
            if i % 3 == 1:
                coords.append(tuple(random_rational(rng, 4, 3) for _ in range(d)))
            else:
                coords.append(tuple(Fraction(rng.randint(-4, 4)) for _ in range(d)))
        if i % 4 == 0:
            coords.append(tuple(Fraction(rng.choice([-1, 1]) * rng.randint(8, 14)) for _ in range(d)))
        pts = PointMultiset(((p, rng.choice([1, 1, 2, 3])) for p in coords), dim=d)
        alpha = Fraction(rng.randint(1, 12), 12)
        k = -(-alpha * pts.size // 1)
        want = _bounding_box_deep_points(pts, alpha)
        assert selection._deep_points(pts, k) == want, (pts, alpha)
        nonempty += bool(want)
    assert nonempty >= 40


def test_deep_points_ignore_a_far_instance(monkeypatch):
    """One instance far out on the axis does not grow the scan: on the
    doubled hexagon plus (far, 0) at alpha = 1/3 the calls of the shared
    depth step stay fixed as far grows (the bounding-box scan made 30,
    515 and 5,015 depth queries for far = 3, 100 and 1000), and so does
    the answer: no grouping within the budget keeps every deep point
    covered."""
    calls = []
    shared = selection._depth_step

    def counted(grid, points):
        step = shared(grid, points)

        def counted_step(origin, threshold, want_witness):
            calls.append(origin)
            return step(origin, threshold, want_witness)

        return counted_step

    monkeypatch.setattr(selection, "_depth_step", counted)
    counts = []
    for far in (3, 100, 1000, 10 ** 6):
        pts = PointMultiset(((p, 2) for p in _hexagon().support()), dim=2).add(point(far, 0))
        calls.clear()
        with pytest.raises(NotFound):
            depth_partition_search(pts, Fraction(1, 3), 3)
        counts.append(len(calls))
    assert counts == [counts[0]] * 4 and counts[0] <= 12


def test_depth_partition_no_deep_points_still_balances():
    pts = _hexagon()
    groups = depth_partition_search(pts, Fraction(1), 3)
    sizes = sorted(g.size for g in groups)
    assert sizes == [2, 2, 2]


def test_depth_partition_guards():
    pts = _hexagon()
    with pytest.raises(PreconditionViolated):
        depth_partition_search(pts, Fraction(1, 4), 2)
    with pytest.raises(PreconditionViolated):
        depth_partition_search(pts, Fraction(0), 3)
    with pytest.raises(PreconditionViolated):
        depth_partition_search(pts, Fraction(2), 3)


def test_selections_refuse_multisets_above_the_cap(monkeypatch):
    """Both searches list every instance, so a multiset of more than
    ``MAX_INSTANCES`` instances is refused before any list is built, and
    one at the cap is searched."""
    monkeypatch.setattr(selection, "MAX_INSTANCES", 12)
    doubled = PointMultiset(((p, 2) for p in _hexagon().support()), dim=2)
    assert fraction_selection(doubled, point(0, 0), 2).verified
    assert len(depth_partition_search(doubled, Fraction(5, 12), 3)) == 3
    monkeypatch.setattr(PointMultiset, "instances", None)
    above = doubled.add(point(2, 0))
    refusal = "selection takes at most 12 instances, got 13"
    with pytest.raises(PreconditionViolated, match=refusal):
        fraction_selection(above, point(0, 0), 2)
    with pytest.raises(PreconditionViolated, match=refusal):
        depth_partition_search(above, Fraction(5, 12), 3)
