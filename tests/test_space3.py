from __future__ import annotations

from fractions import Fraction

import pytest

from tverberg.ambient import Lattice
from tverberg.certificates import verify_certificate
from tverberg.depth import depth_value, first_deep_scan, integer_centerpoint
from tverberg.errors import AssertionFailed, ExtractionFailed, PreconditionViolated
from tverberg.geometry import hull_membership, in_hull
from tverberg.points import PointMultiset, point, sub
from tverberg.space3 import (
    _bipartition,
    _cross3,
    _in_tetrahedron,
    _in_triangle,
    _minimal_subset,
    _on_grid,
    _on_segment,
    _split_by_entries,
    _split_scan,
    bipartition_search,
    peel_caratheodory_sets,
    z3_tverberg,
)

from bipartition_oracle import enumerate_bipartition
from conftest import random_lattice_multiset
from lp_oracle import solve_linear


def test_z3_radon_random(rng):
    for _ in range(8):
        pts = random_lattice_multiset(rng, 17, 3, 10)
        cert = z3_tverberg(pts, 2)
        assert cert.m == 2
        assert verify_certificate(cert, pts).ok
        assert all(x.denominator == 1 for x in cert.point)


def test_z3_three_parts_random(rng):
    for _ in range(2):
        pts = random_lattice_multiset(rng, 41, 3, 10)
        cert = z3_tverberg(pts, 3)
        assert cert.m == 3
        assert verify_certificate(cert, pts).ok


def test_z3_gate():
    pts = random_lattice_multiset(__import__("random").Random(0), 16, 3, 5)
    with pytest.raises(PreconditionViolated):
        z3_tverberg(pts, 2)  # 16 < 17


def test_z3_rejects_fractional():
    pts = PointMultiset.from_points(
        [(Fraction(1, 2), Fraction(0), Fraction(0))]
        + [point(i, i, i % 5) for i in range(16)]
    )
    with pytest.raises(PreconditionViolated):
        z3_tverberg(pts, 2)


def test_z3_multiplicity_shortcut(rng):
    center = point(0, 0, 0)
    ring = [
        point(5, 0, 0), point(-5, 0, 0), point(0, 5, 0),
        point(0, -5, 0), point(0, 0, 5), point(0, 0, -5),
    ]
    pts = PointMultiset.from_points([center] * 2 + ring + ring + ring[:3])
    cert = z3_tverberg(pts, 2)
    assert verify_certificate(cert, pts).ok


def test_bipartition_search_soundness(rng):
    for _ in range(10):
        pts = random_lattice_multiset(rng, rng.randint(17, 20), 3, 8)
        p = integer_centerpoint(pts, 3)
        if depth_value(p, pts) < 3:
            continue
        side_a, side_b = bipartition_search(pts, p)
        assert side_a.size > 0 and side_b.size > 0
        assert side_a.size + side_b.size == pts.size
        assert hull_membership(p, side_a) is not None
        assert hull_membership(p, side_b) is not None


def test_bipartition_preconditions(rng):
    pts = random_lattice_multiset(rng, 10, 3, 4)
    with pytest.raises(PreconditionViolated):
        bipartition_search(pts, point(0, 0, 0))


def test_peel_caratheodory_sets(rng):
    hits = 0
    while hits < 6:
        pts = random_lattice_multiset(rng, 41, 3, 6)
        try:
            p = integer_centerpoint(pts, 7)
        except Exception:
            continue
        record = peel_caratheodory_sets(pts, p, 2)
        assert len(record.subsets) == 2
        total = record.remainder.size
        for sub in record.subsets:
            assert 1 <= sub.size <= 4
            assert hull_membership(p, sub) is not None
            total += sub.size
        assert total == pts.size
        # each peel costs at most two units of depth
        assert depth_value(p, record.remainder) >= 7 - 2 * 2
        hits += 1


def _fraction_in_triangle(p, a, b, c):
    """p in the closed triangle abc by solving p - a = s(b - a) + t(c - a)."""
    u = sub(b, a)
    v = sub(c, a)
    if _cross3(u, v) == (0, 0, 0):
        return False
    rows = [[Fraction(u[i]), Fraction(v[i])] for i in range(3)]
    sol = solve_linear(rows, [Fraction(x) for x in sub(p, a)])
    if sol is None:
        return False
    s, t = sol
    return s >= 0 and t >= 0 and s + t <= 1


def test_in_triangle_matches_fraction_solve():
    rng = __import__("random").Random(31)

    def rand_point(box):
        return tuple(rng.randint(-box, box) for _ in range(3))

    cases = []
    for _ in range(3000):
        # small boxes make collinear and repeated corners common
        cases.append(tuple(rand_point(2) for _ in range(4)))
    for _ in range(1500):
        # weights i, j, k >= 0 put p on a vertex, an edge or inside;
        # a negative weight puts it outside in the plane
        a, b, c = (rand_point(4) for _ in range(3))
        i, j, k = (rng.randint(-1, 2) for _ in range(3))
        if i + j + k <= 0:
            continue
        total = i + j + k
        p = tuple(i * x + j * y + k * z for x, y, z in zip(a, b, c))
        scaled = [tuple(total * v for v in q) for q in (a, b, c)]
        cases.append((p, *scaled))
    b = (0, 0, 0)
    cases.append(((1, 1, 1), b, (2, 2, 2), (4, 4, 4)))  # collinear corners
    cases.append(((0, 0, 0), b, b, (1, 0, 0)))  # repeated corner
    inside = sum(_fraction_in_triangle(*case) for case in cases)
    assert inside > 300
    for p, a, b, c in cases:
        assert _in_triangle(p, a, b, c) == _fraction_in_triangle(p, a, b, c), (p, a, b, c)
    # rational corners and query points go through one common scaling
    hits = 0
    for _ in range(500):
        corners = [
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3))
            for _ in range(3)
        ]
        weights = [rng.randint(-1, 3) for _ in range(3)]
        if sum(weights) <= 0:
            continue
        p = tuple(
            sum(w * q[i] for w, q in zip(weights, corners)) / sum(weights) for i in range(3)
        )
        grid, q = _on_grid(tuple(corners), p)
        assert all(type(v) is int for v in q)
        inside = _fraction_in_triangle(p, *corners)
        assert _in_triangle(q, *grid) == inside
        hits += inside
    assert hits > 100


def _assert_splits(points, p, parts):
    first, rest = parts
    assert first.size > 0 and rest.size > 0
    assert PointMultiset(first.entries + rest.entries, dim=3) == points
    assert hull_membership(p, first) is not None
    assert hull_membership(p, rest) is not None


def test_bipartition_found_exactly_when_the_enumeration_finds_one():
    """The seeds and the scan against the 2^(n-1) enumeration on small
    sets, p an instance, a box point of depth >= 1 or a deepest point.
    Where no bipartition exists the library raises: a seed's complement
    that misses p, or p outside the hull."""
    rng = __import__("random").Random(12)
    found = absent = 0
    while found + absent < 300:
        pts = random_lattice_multiset(rng, rng.randint(6, 12), 3, rng.choice([1, 2, 3]))
        kind = (found + absent) % 3
        if kind == 0:
            p = rng.choice(pts.support())
        elif kind == 1:
            p = point(*(rng.randint(-1, 1) for _ in range(3)))
            if depth_value(p, pts) == 0:
                continue
        else:
            p = integer_centerpoint(pts, 1)
        expected = enumerate_bipartition(pts, p)
        try:
            parts = _bipartition(pts, p)
        except (AssertionFailed, ExtractionFailed):
            parts = None
        assert (parts is None) == (expected is None), (pts, p)
        if parts is None:
            absent += 1
        else:
            _assert_splits(pts, p, parts)
            found += 1
    assert found >= 100 and absent >= 100


def _deep_remainder(rng):
    """17-30 instances of Z^3 and an integer point p of depth >= 3 that is
    no instance: three segments, triangles or tetrahedra whose hulls hold
    p each put an instance in every closed half-space through p, and
    random instances fill the rest."""
    p = point(*(rng.randint(-3, 3) for _ in range(3)))

    def offset(box):
        while True:
            v = tuple(rng.randint(-box, box) for _ in range(3))
            if any(v):
                return v

    offsets = []
    for _ in range(3):
        while True:
            corners = [offset(4) for _ in range(rng.randint(1, 3))]
            weights = [rng.randint(1, 3) for _ in corners]
            last = tuple(-sum(w * v[i] for w, v in zip(weights, corners)) for i in range(3))
            if any(last):
                break
        offsets += corners + [last]
    while len(offsets) < rng.randint(17, 30):
        offsets.append(offset(rng.choice([2, 5])))
    pts = PointMultiset.from_points([tuple(a + b for a, b in zip(p, v)) for v in offsets])
    return pts, p


def test_scan_alone_splits_deep_remainders():
    """Without the seeds, the minimal-subset scan over segments, triangles
    and tetrahedra splits every depth >= 3 remainder."""
    rng = __import__("random").Random(2000)
    for _ in range(2000):
        pts, p = _deep_remainder(rng)
        parts = _split_scan(pts, p, (2, 3, 4))
        assert parts is not None, (pts, p)
        _assert_splits(pts, p, parts)


def test_scan_answers_where_the_minimal_subset_seed_misses(seed_miss_set):
    pts = seed_miss_set
    p = first_deep_scan(pts, Lattice(3), 3)[0]
    assert depth_value(p, pts) >= 3 and p not in pts
    assert _split_scan(pts, p, (2,)) is None
    seed = _minimal_subset(pts, p)
    assert not in_hull(p, _split_by_entries(pts, seed))
    parts = bipartition_search(pts, p)
    assert parts == _split_scan(pts, p, (3, 4))
    assert parts[0] != seed
    _assert_splits(pts, p, parts)
    assert verify_certificate(z3_tverberg(pts, 2), pts).ok


def test_a_scan_that_finds_nothing_is_an_internal_fault(monkeypatch, seed_miss_set):
    pts = seed_miss_set
    p = first_deep_scan(pts, Lattice(3), 3)[0]
    monkeypatch.setattr("tverberg.space3._split_scan", lambda points, p, sizes: None)
    with pytest.raises(AssertionFailed, match="Caratheodory"):
        bipartition_search(pts, p)
    with pytest.raises(AssertionFailed, match="Caratheodory"):
        z3_tverberg(pts, 2)


def _fraction_in_tetrahedron(p, a, b, c, d):
    """p in the closed tetrahedron abcd by solving p - a = s(b-a) + t(c-a) + u(d-a)."""
    cols = [sub(x, a) for x in (b, c, d)]
    if sum(x * y for x, y in zip(_cross3(cols[0], cols[1]), cols[2])) == 0:
        return False
    rows = [[Fraction(col[i]) for col in cols] for i in range(3)]
    sol = solve_linear(rows, [Fraction(x) for x in sub(p, a)])
    return all(w >= 0 for w in sol) and sum(sol) <= 1


def test_in_tetrahedron_matches_fraction_solve():
    rng = __import__("random").Random(41)

    def rand_point(box):
        return tuple(rng.randint(-box, box) for _ in range(3))

    cases = [tuple(rand_point(2) for _ in range(5)) for _ in range(3000)]
    for _ in range(1500):
        # weights >= 0 put p on a corner, an edge, a face or inside; a
        # negative weight puts it outside
        corners = [rand_point(3) for _ in range(4)]
        weights = [rng.randint(-1, 2) for _ in range(4)]
        total = sum(weights)
        if total <= 0:
            continue
        p = tuple(sum(w * q[i] for w, q in zip(weights, corners)) for i in range(3))
        cases.append((p, *(tuple(total * v for v in q) for q in corners)))
    o = (0, 0, 0)
    cases.append((o, o, (1, 0, 0), (0, 1, 0), (1, 1, 0)))  # flat corners
    cases.append((o, o, o, (1, 0, 0), (0, 1, 0)))  # repeated corner
    inside = sum(_fraction_in_tetrahedron(*case) for case in cases)
    assert inside > 300
    for case in cases:
        assert _in_tetrahedron(*case) == _fraction_in_tetrahedron(*case), case


def _fraction_on_segment(p, a, b):
    """p on the closed segment ab by solving p - a = t(b - a) in Fractions."""
    v = [Fraction(x) for x in sub(b, a)]
    u = [Fraction(x) for x in sub(p, a)]
    if not any(v):
        return not any(u)
    k = next(i for i, x in enumerate(v) if x)
    t = u[k] / v[k]
    return all(x == t * y for x, y in zip(u, v)) and 0 <= t <= 1


def test_segment_and_triangle_predicates_match_a_fraction_solve_at_large_coordinates():
    """The int predicates agree with Fraction solves on corners of 40-bit
    coordinates, with the query on a corner, an edge, a face or just off
    it by one grid step."""
    rng = __import__("random").Random(43)
    big = 2**40

    def rand_point():
        return tuple(rng.randint(-big, big) for _ in range(3))

    def nudge(p):
        i = rng.randrange(3)
        return p[:i] + (p[i] + rng.choice((-1, 1)),) + p[i + 1 :]

    on_segment = in_triangle = 0
    for _ in range(1500):
        a, b = rand_point(), rand_point()
        i, j = rng.randint(-2, 6), rng.randint(0, 6)
        if i + j <= 0:
            continue
        # p = (i a + j b) / (i + j), on the line through a and b
        p = tuple(i * x + j * y for x, y in zip(a, b))
        a, b = (tuple((i + j) * v for v in q) for q in (a, b))
        for query in (p, nudge(p)):
            expected = _fraction_on_segment(query, a, b)
            assert _on_segment(query, a, b) == expected, (query, a, b)
            on_segment += expected
    for _ in range(1500):
        a, b, c = rand_point(), rand_point(), rand_point()
        w = [rng.randint(-1, 4) for _ in range(3)]
        total = sum(w)
        if total <= 0:
            continue
        p = tuple(sum(k * q[i] for k, q in zip(w, (a, b, c))) for i in range(3))
        corners = [tuple(total * v for v in q) for q in (a, b, c)]
        for query in (p, nudge(p)):
            expected = _fraction_in_triangle(query, *corners)
            assert _in_triangle(query, *corners) == expected, (query, corners)
            in_triangle += expected
    assert on_segment > 500 and in_triangle > 500
