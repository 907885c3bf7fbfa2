from __future__ import annotations

from fractions import Fraction

import pytest

from tverberg.certificates import verify_certificate
from tverberg.depth import depth_value, integer_centerpoint
from tverberg.errors import PreconditionViolated
from tverberg.geometry import hull_membership
from tverberg.linprog import solve_linear
from tverberg.points import PointMultiset, point, sub
from tverberg.space3 import (
    _cross3,
    _in_triangle,
    _on_grid,
    bipartition_search,
    peel_caratheodory_sets,
    z3_tverberg,
)

from conftest import random_lattice_multiset


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
        side_a, side_b = bipartition_search(pts, p, seed=1)
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
