from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction

import pytest

from tverberg.ambient import FiniteSet, Lattice
from tverberg.certificates import verify_certificate
from tverberg import depth as depth_module
from tverberg.depth import (
    _centre_out_order,
    _difference_profile,
    _min_halfspace_count,
    _order_statistic_box,
    deep_filter,
    depth_value,
    finite_set_centerpoint,
    first_deep_scan,
    halfspace_depth,
    integer_centerpoint,
    recounted_witness,
)
from tverberg.errors import AssertionFailed, CenterpointNotFound, PreconditionViolated
from tverberg.linprog import pivot_columns
from tverberg.planar import finite_gate, helly_number, plane_tverberg, z2_gate
from tverberg.points import PointMultiset, integer_points, point
from tverberg.space3 import z3_tverberg

from conftest import random_lattice_multiset
from depth_oracles import _min_halfspace_count as reference_min_count
from depth_oracles import coordinate_order_statistics, oracle_depth


def test_depth_known_line():
    pts = PointMultiset.from_points([point(i) for i in range(5)])
    assert [depth_value(point(i), pts) for i in range(5)] == [1, 2, 3, 2, 1]
    assert depth_value(point(-1), pts) == 0
    assert depth_value((Fraction(1, 2),), pts) == 1


def test_depth_known_plane():
    # square with its center: the center sees at least one point in
    # every closed half-plane through it, plus itself
    pts = PointMultiset.from_points(
        [point(0, 0), point(2, 0), point(0, 2), point(2, 2), point(1, 1)]
    )
    # any closed half-plane through the center keeps two corners plus
    # the center itself
    assert depth_value(point(1, 1), pts) == 3
    assert depth_value(point(0, 0), pts) == 1
    assert depth_value(point(3, 3), pts) == 0


def test_depth_counts_multiplicity():
    pts = PointMultiset.from_points([point(0, 0)] * 4 + [point(1, 0)])
    assert depth_value(point(0, 0), pts) == 4


def test_witness_halfspace_recounts(rng):
    for _ in range(150):
        d = rng.choice([2, 3])
        pts = random_lattice_multiset(rng, rng.randint(1, 8), d, 6)
        q = tuple(Fraction(rng.randint(-6, 6)) for _ in range(d))
        wit = halfspace_depth(q, pts)
        assert wit.point == q
        # the returned half-space must pass through q and attain the count
        assert wit.halfspace.boundary_contains(q)
        count = sum(
            mult for p, mult in pts.entries if wit.halfspace.contains(p)
        )
        assert count == wit.depth


def test_depth_matches_direction_enumeration_oracle(rng):
    for _ in range(200):
        d = rng.choice([1, 2, 3])
        pts = random_lattice_multiset(rng, rng.randint(1, 8), d, 6)
        if rng.random() < 0.25:
            q = tuple(Fraction(rng.randint(-12, 12), 2) for _ in range(d))
        else:
            q = tuple(Fraction(rng.randint(-6, 6)) for _ in range(d))
        assert halfspace_depth(q, pts).depth == oracle_depth(q, pts)


def _random_profile_instance(rng, d):
    """A multiset and query mixing the degenerate shapes the minimiser
    must handle: repeated points, points at q, rational q, opposite
    directions, and collinear or coplanar supports."""
    n = rng.randint(1, (14, 14, 10, 7)[d - 1])
    shape = rng.randrange(5)
    q = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d))
    if shape == 1:
        q = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d))
    raw = []
    for _ in range(n):
        if shape == 2:  # collinear through q, both senses
            t = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
            raw.append(tuple(c + t * v for c, v in zip(q, (1, -2, 1, 3)[:d])))
        elif shape == 3 and d >= 2:  # coplanar through q
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            raw.append(
                tuple(c + s * a + t * b for c, a, b in zip(q, (1, 0, 2, -1), (0, 1, -1, 2)))
            )
        elif shape == 4:  # point reflections: opposite directions around q
            v = tuple(rng.randint(-3, 3) for _ in range(d))
            raw.append(tuple(c + a for c, a in zip(q, v)))
            raw.append(tuple(c - rng.randint(1, 2) * a for c, a in zip(q, v)))
        else:
            raw.append(tuple(Fraction(rng.randint(-4, 4)) for _ in range(d)))
    raw += [rng.choice(raw) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.3:
        raw += [q] * rng.randint(1, 2)
    return PointMultiset.from_points(raw, dim=d), q


def test_min_halfspace_count_matches_the_enumeration(rng):
    """The sweep at l = 2 and the one-pass normals at l >= 3 return the
    enumeration's count and functional at every level, and keep the
    abort contract; the last profiles are 4-D, so l = 4 runs too."""
    profiles = spanning_4d = 0
    while profiles < 2448:
        d = (1, 2, 2, 3)[profiles % 4] if profiles < 2400 else 4
        pts, q = _random_profile_instance(rng, d)
        _, grid = integer_points(pts.support() + (q,))
        vecs, ws, _ = _difference_profile(grid, pts, grid[-1])
        if not vecs:
            continue
        profiles += 1
        spanning_4d += len(pivot_columns(vecs, d)) == 4
        for want in (False, True):
            expected = reference_min_count(vecs, ws, None, want)
            assert _min_halfspace_count(vecs, ws, None, want) == expected
        exact = expected[0]
        abort_at = rng.randint(-1, exact + 1)
        for want in (False, True):
            count, _ = _min_halfspace_count(vecs, ws, abort_at, want)
            ref_count, _ = reference_min_count(vecs, ws, abort_at, want)
            assert (count <= abort_at) == (ref_count <= abort_at) == (exact <= abort_at)
            assert count >= exact
            if exact > abort_at:
                assert count == ref_count == exact
    assert spanning_4d >= 10


def _select_shaped_query(rng):
    """A planar multiset of 5-30 points in [-6, 6]^2 and a query, as the
    depth queries of the benchmark draw them, mixed with repeats, points
    at q, rational queries and collinear supports."""
    n = rng.randint(5, 30)
    if rng.random() < 0.2:
        q = tuple(Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3])) for _ in range(2))
    else:
        q = tuple(Fraction(rng.randint(-6, 6)) for _ in range(2))
    if rng.random() < 0.2:  # collinear, through q or beside it
        base = q if rng.random() < 0.5 else tuple(Fraction(rng.randint(-6, 6)) for _ in range(2))
        v = rng.choice([(1, 0), (0, 1), (1, 2), (2, -1), (1, -1)])
        raw = [tuple(b + t * c for b, c in zip(base, v)) for t in (rng.randint(-3, 3) for _ in range(n))]
    else:
        raw = [tuple(Fraction(rng.randint(-6, 6)) for _ in range(2)) for _ in range(n)]
    raw += [rng.choice(raw) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.3:
        raw += [q] * rng.randint(1, 3)
    return PointMultiset.from_points(raw, dim=2), q


def test_planar_queries_match_the_enumeration():
    """On select-shaped planar queries the sweep, fed the profile's
    primitive directions as they are, returns the enumeration's count
    and functional, and keeps the abort contract."""
    rng = random.Random(0x5E1EC7)
    collinear = 0
    for _ in range(2000):
        pts, q = _select_shaped_query(rng)
        _, grid = integer_points(pts.support() + (q,))
        vecs, ws, _ = _difference_profile(grid, pts, grid[-1])
        if not vecs:
            continue
        collinear += len(pivot_columns(vecs, 2)) == 1
        for want in (False, True):
            expected = reference_min_count(vecs, ws, None, want)
            assert _min_halfspace_count(vecs, ws, None, want) == expected
        exact = expected[0]
        abort_at = rng.randint(-1, exact + 1)
        ref_count, _ = reference_min_count(vecs, ws, abort_at, False)
        for want in (False, True):
            count, _ = _min_halfspace_count(vecs, ws, abort_at, want)
            assert (count <= abort_at) == (ref_count <= abort_at) == (exact <= abort_at)
            assert count >= exact
            if exact > abort_at:
                assert count == ref_count == exact
    assert collinear >= 100


def test_witness_recount_guards_the_answer(monkeypatch):
    pts = PointMultiset.from_points(
        [point(0, 0), point(2, 0), point(0, 2), point(2, 2), point(1, 1)]
    )
    assert halfspace_depth(point(1, 1), pts).depth == 3
    # the true count with a wrong functional: x + y >= 2 keeps 4 instances
    monkeypatch.setattr(depth_module, "_min_halfspace_count", lambda *a: (2, (1, 1)))
    with pytest.raises(AssertionFailed):
        halfspace_depth(point(1, 1), pts)


def test_depth_translation_equivariance(rng):
    for _ in range(60):
        d = rng.choice([2, 3])
        pts = random_lattice_multiset(rng, rng.randint(2, 7), d, 5)
        q = tuple(Fraction(rng.randint(-5, 5)) for _ in range(d))
        shift = tuple(Fraction(rng.randint(-9, 9)) for _ in range(d))
        moved = PointMultiset.from_points(
            [tuple(a + s for a, s in zip(p, shift)) for p in pts.instances()]
        )
        q2 = tuple(a + s for a, s in zip(q, shift))
        assert depth_value(q, pts) == depth_value(q2, moved)


def test_integer_centerpoint_existence_guarantee(rng):
    # 2^d (m-1) + 1 points always leave an integer point of depth m
    for _ in range(150):
        d = rng.choice([1, 2, 3])
        m = rng.choice([2, 3, 4])
        n = 2**d * (m - 1) + 1 + rng.randint(0, 3)
        pts = random_lattice_multiset(rng, n, d, 7)
        c = integer_centerpoint(pts, m)
        assert all(x.denominator == 1 for x in c)
        assert depth_value(c, pts) >= m


def test_integer_centerpoint_is_deepest_then_lex_first(rng):
    for _ in range(40):
        pts = random_lattice_multiset(rng, 9, 2, 3)
        c = integer_centerpoint(pts, 2)
        got = depth_value(c, pts)
        assert got >= 2
        # brute scan of every integer point that could reach depth 2
        brute = max(
            ((point(x, y), depth_value(point(x, y), pts))
             for x in range(-3, 4) for y in range(-3, 4)),
            key=lambda t: (t[1], tuple(-v for v in t[0])),
        )
        assert brute[1] == got
        assert brute[0] == c  # earliest among the deepest


def test_integer_centerpoint_failure():
    pts = PointMultiset.from_points([point(0, 0), point(10, 0)])
    with pytest.raises(CenterpointNotFound):
        integer_centerpoint(pts, 2)


def test_integer_centerpoint_rejects_fractional_input():
    pts = PointMultiset.from_points([(Fraction(1, 2), Fraction(0)), point(1, 1)])
    with pytest.raises(PreconditionViolated):
        integer_centerpoint(pts, 1)


def test_finite_set_centerpoint_picks_member():
    amb = FiniteSet((point(0, 0), point(1, 0), point(2, 0), point(1, 1)), 2)
    pts = PointMultiset.from_points(
        [point(0, 0), point(2, 0), point(1, 1), point(1, 0), point(1, 0)]
    )
    c = finite_set_centerpoint(pts, amb, 2)
    assert amb.contains(c)
    assert depth_value(c, pts) >= 2


def _sorted_centre_out(box):
    """The centre-out order by definition: sort the whole box by the L1
    distance to its midpoint, ties lexicographically."""
    full = itertools.product(*(range(lo, hi + 1) for lo, hi in box))
    return sorted(
        full,
        key=lambda x: (sum(abs(Fraction(2 * v - lo - hi, 2)) for v, (lo, hi) in zip(x, box)), x),
    )


def test_order_statistic_box_matches_the_expanding_reference():
    """The box read off sorted (value, multiplicity) pairs is the box of
    the expanded, sorted instance lists, on multisets with repeated
    points and multiplicities, for every target up to past the size."""
    rng = random.Random(0xB0C5)
    empty = 0
    for _ in range(400):
        dim = rng.randint(1, 3)
        entries = [
            (tuple(Fraction(rng.randint(-4, 4)) for _ in range(dim)), rng.randint(1, 4))
            for _ in range(rng.randint(1, 7))
        ]
        points = PointMultiset(entries, dim=dim)
        _, grid = integer_points(points.support())
        for m in range(1, points.size + 2):
            want = coordinate_order_statistics(points, m)
            assert _order_statistic_box(grid, points, m) == want, (points, m)
            empty += want is None
    assert empty >= 400


def test_centre_out_order_is_the_sorted_box():
    rng = random.Random(31)
    for _ in range(400):
        d = rng.randint(1, 3)
        box = []
        for _ in range(d):
            lo = rng.randint(-5, 5)
            box.append((lo, lo + rng.randint(0, 5)))
        assert list(_centre_out_order(box)) == _sorted_centre_out(box), box


def test_first_deep_point_is_the_first_deep_candidate_centre_out():
    rng = random.Random(32)
    for trial in range(60):
        d = 2 if trial % 3 else 3
        m = rng.choice([2, 3])
        n = 2**d * (m - 1) + 1 + rng.randint(0, 3)
        pts = random_lattice_multiset(rng, n, d, 4 if d == 2 else 3)
        c = first_deep_scan(pts, Lattice(d), m)[0]
        assert all(x.denominator == 1 for x in c)
        assert oracle_depth(c, pts) >= m
        order = _sorted_centre_out(coordinate_order_statistics(pts, m))
        earlier = order[: order.index(c)]
        assert all(oracle_depth(tuple(map(Fraction, x)), pts) < m for x in earlier)


def test_first_deep_point_fails_exactly_when_the_deepest_scan_fails():
    rng = random.Random(33)
    outcomes = set()
    for _ in range(150):
        d = rng.choice([2, 3])
        pts = random_lattice_multiset(rng, rng.randint(2, 9), d, 4)
        m = rng.randint(1, 5)
        try:
            deepest = integer_centerpoint(pts, m)
        except CenterpointNotFound:
            deepest = None
        try:
            first = first_deep_scan(pts, Lattice(d), m)[0]
        except CenterpointNotFound:
            first = None
        assert (deepest is None) == (first is None)
        if first is not None:
            assert depth_value(deepest, pts) >= depth_value(first, pts) >= m
        outcomes.add(first is None)
    assert outcomes == {True, False}


def test_first_deep_point_rejects_fractional_input():
    pts = PointMultiset.from_points([(Fraction(1, 2), Fraction(0)), point(1, 1)])
    with pytest.raises(PreconditionViolated):
        first_deep_scan(pts, Lattice(2), 1)


def test_first_deep_point_over_a_finite_set_keeps_stored_order():
    rng = random.Random(34)
    for _ in range(60):
        amb = FiniteSet(
            tuple({point(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(8)}), 2
        )
        pts = PointMultiset.from_points(
            [rng.choice(amb.points) for _ in range(rng.randint(3, 9))]
        )
        m = rng.randint(1, 3)
        deep = [p for p in amb.points if oracle_depth(p, pts) >= m]
        if not deep:
            with pytest.raises(CenterpointNotFound):
                first_deep_scan(pts, amb, m)
            continue
        assert first_deep_scan(pts, amb, m)[0] == deep[0]


def test_driver_centres_are_deep_enough_and_certificates_verify():
    rng = random.Random(35)
    for m in (2, 3, 4, 5):
        for _ in range(6):
            n = (6 if m == 2 else 4 * m - 3) + rng.randint(0, 3)
            pts = random_lattice_multiset(rng, n, 2, 6)
            cert = plane_tverberg(pts, m, Lattice(2))
            assert oracle_depth(cert.point, pts) >= m
            assert verify_certificate(cert, pts).ok
    for _ in range(4):
        pts = random_lattice_multiset(rng, 17 + rng.randint(0, 3), 3, 6)
        cert = z3_tverberg(pts, 2)
        assert oracle_depth(cert.point, pts) >= 3
        assert verify_certificate(cert, pts).ok


def _affine_grid(k, shift, shear, scale):
    """The k x k grid under a rational shear, scaling and shift: a planar
    finite set of Helly number 4 with rational coordinates."""
    return FiniteSet(
        tuple(
            (scale[0] * (x + shear * y) + shift[0], scale[1] * y + shift[1])
            for x in range(k)
            for y in range(k)
        ),
        2,
    )


def _deep_scan_cases(rng):
    """(points, ambient, m) of the drivers' centre scans: Z^2 at the
    planar gates, rational finite sets of Helly number >= 4 at theirs,
    and Z^3 at the Z^3 target 3m-3; small boxes and drawn set points put
    copies at the centre."""
    sets = [
        _affine_grid(3, (Fraction(1, 2), Fraction(-1, 3)), Fraction(1, 2), (Fraction(2, 3), Fraction(5, 4))),
        _affine_grid(4, (Fraction(-3, 7), Fraction(0)), Fraction(0), (Fraction(1, 5), Fraction(3, 2))),
        _affine_grid(3, (Fraction(0), Fraction(2)), Fraction(-1, 3), (Fraction(7, 2), Fraction(1, 6))),
    ]
    for amb in sets:
        assert helly_number(amb).number >= 4
    cases = []
    for _ in range(560):
        m = rng.randint(2, 5)
        pts = random_lattice_multiset(rng, z2_gate(m) + rng.randint(0, 3), 2, rng.choice([1, 2, 6, 20]))
        cases.append((pts, Lattice(2), m))
    for _ in range(300):
        amb = rng.choice(sets)
        m = rng.randint(2, 4)
        n = finite_gate(4, m) + rng.randint(0, 3)
        cases.append((PointMultiset.from_points([rng.choice(amb.points) for _ in range(n)]), amb, m))
    for _ in range(160):
        m = 2 if rng.random() < 0.8 else 3
        pts = random_lattice_multiset(rng, 24 * m - 31 + rng.randint(0, 2), 3, rng.choice([1, 2, 5]))
        cases.append((pts, Lattice(3), 3 * m - 3))
    return cases


def _assert_scan_equals_a_fresh_query(pts, amb, m):
    """The centre scan's depth is depth_value at its point, and its
    functional, less the point's copies, makes the witness that
    halfspace_depth returns for the other instances.  Returns the
    point's multiplicity."""
    p, depth, phi = first_deep_scan(pts, amb, m, want_witness=True)
    assert (p, depth, None) == first_deep_scan(pts, amb, m)
    assert depth == depth_value(p, pts) >= m
    mu = pts.multiplicity(p)
    if mu < pts.size:
        rest = pts.remove(p, mu) if mu else pts
        on_grid = integer_points(rest.support() + (p,))
        assert recounted_witness(p, rest, depth - mu, phi, on_grid) == halfspace_depth(p, rest)
    return mu


def test_scan_depth_and_witness_equal_a_fresh_depth_query():
    rng = random.Random(36)
    with_copies = 0
    cases = _deep_scan_cases(rng)
    assert len(cases) >= 1000
    for pts, amb, m in cases:
        with_copies += _assert_scan_equals_a_fresh_query(pts, amb, m) > 0
    assert with_copies >= 100


def _flat_lattice_multiset(rng, d):
    """A multiset on a line of Z^2 or a plane of Z^3, with repeats, whose
    scans find their pivots per candidate."""
    base = [rng.randint(-3, 3) for _ in range(d)]
    spans = [rng.choice([(1, 0), (0, 1), (1, 2), (2, -1), (1, -1)])] if d == 2 else [
        rng.choice([(1, 0, 1), (0, 1, -1), (1, 1, 0), (2, -1, 1)]),
        rng.choice([(0, 0, 1), (1, -1, 2), (0, 2, 1), (1, 0, -1)]),
    ]
    raw = []
    for _ in range(rng.randint(4, 12)):
        ts = [rng.randint(-2, 2) for _ in spans]
        raw.append(tuple(Fraction(b + sum(t * v[c] for t, v in zip(ts, spans))) for c, b in enumerate(base)))
    raw += [rng.choice(raw) for _ in range(rng.randint(0, 3))]
    return PointMultiset.from_points(raw, dim=d)


def test_flat_scans_equal_a_fresh_depth_query():
    """On collinear Z^2 and coplanar Z^3 multisets, which restrict the
    profile to fewer pivots than coordinates, the centre scan matches a
    fresh depth query, and the deepest scan gives the deepest point of
    its box, lexicographically first."""
    rng = random.Random(0xF1A7)
    scanned = {2: 0, 3: 0}
    for _ in range(120):
        d = rng.choice([2, 3])
        pts = _flat_lattice_multiset(rng, d)
        assert len(pivot_columns([[a - b for a, b in zip(p, pts.entries[0][0])] for p, _ in pts.entries], d)) < d
        m = rng.randint(2, 3)
        try:
            c = integer_centerpoint(pts, m)
        except CenterpointNotFound:
            with pytest.raises(CenterpointNotFound):
                first_deep_scan(pts, Lattice(d), m)
            continue
        scanned[d] += 1
        _assert_scan_equals_a_fresh_query(pts, Lattice(d), m)
        box = coordinate_order_statistics(pts, m)
        deepest = max(
            (depth_value(x, pts), tuple(-v for v in x))
            for x in itertools.product(*(map(Fraction, range(lo, hi + 1)) for lo, hi in box))
        )
        assert (depth_value(c, pts), tuple(-v for v in c)) == deepest
    assert min(scanned.values()) >= 30


def _count_calls(monkeypatch, name):
    """Count calls of a depth function through every library binding of it."""
    original = getattr(depth_module, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("tverberg") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_drivers_compute_the_centre_depth_once(monkeypatch):
    """A planar driver call reads its witness off the centre scan, and a
    Z^3 call that peels nothing its depth; only after a peel does the Z^3
    driver query the depth again."""
    witnessed = _count_calls(monkeypatch, "halfspace_depth")
    queried = _count_calls(monkeypatch, "depth_value")
    rng = random.Random(37)
    for m in (2, 3, 5):
        pts = random_lattice_multiset(rng, z2_gate(m) + 2, 2, 20)
        assert verify_certificate(plane_tverberg(pts, m, Lattice(2)), pts).ok
    grid = _affine_grid(3, (Fraction(1, 2), Fraction(0)), Fraction(0), (Fraction(1, 3), Fraction(1)))
    pts = PointMultiset.from_points([grid.points[i % 9] for i in range(finite_gate(4, 3))])
    assert verify_certificate(plane_tverberg(pts, 3, grid), pts).ok
    pts = random_lattice_multiset(rng, 17, 3, 10)
    assert verify_certificate(z3_tverberg(pts, 2), pts).ok
    assert witnessed == [] and queried == []
    pts = random_lattice_multiset(rng, 41, 3, 10)
    cert = z3_tverberg(pts, 3)
    assert verify_certificate(cert, pts).ok
    assert witnessed == [] and len(queried) == 1


def _deep_filter_cases(rng):
    """Seeded (points, candidate, m, labels) for the deep filter: d = 1,
    2, 3 on Z, 1/2 Z and 1/3 Z grids; general, collinear and coplanar
    supports with repeated entries; candidates on an entry with fewer
    than, exactly or more than m copies, on the grid and on Z^d."""
    while True:
        d, den, m = rng.choice([1, 2, 3]), rng.choice([1, 2, 3]), rng.randint(1, 4)
        shapes = ["general", "collinear", "coplanar"][:d]
        shape = rng.choice(shapes)
        n = rng.randint(1, 6)

        def value():
            return Fraction(rng.randint(-2 * den, 2 * den), den)

        # a collinear or coplanar support is a base point plus grid
        # multiples of one or two small integer vectors
        base = [rng.randint(-1, 1) for _ in range(d)]
        spans = [[rng.randint(-1, 1) for _ in range(d)] for _ in range(shapes.index(shape))]
        pts = []
        for _ in range(n):
            if shape == "general":
                pts.append(tuple(value() for _ in range(d)))
            else:
                ts = [value() for _ in spans]
                pts.append(tuple(b + sum(t * u[c] for t, u in zip(ts, spans)) for c, b in enumerate(base)))
        pts += rng.choices(pts, k=rng.randint(0, 3))
        kind = rng.choice(["entry", "grid", "lattice"])
        labels = {f"d={d}", f"den={den}", shape}
        if kind == "entry":
            cand = rng.choice(pts)
            copies = max(1, m + rng.choice([-1, 0, 1]))
            pts = [p for p in pts if p != cand] + [cand] * copies
            labels.add("copies < m" if copies < m else "copies = m" if copies == m else "copies > m")
        elif kind == "grid":
            cand = tuple(value() for _ in range(d))
        else:
            cand = tuple(Fraction(rng.randint(-2, 2)) for _ in range(d))
        yield PointMultiset.from_points(pts), cand, m, labels


def test_deep_filter_agrees_with_the_oracle_depth():
    """The refutation filter says deep exactly when the candidate's depth
    is >= m, over Z^d for integral candidates and over a finite set for
    any; the shared step under it gives the exact depth above the
    threshold m - 1 and a count <= m - 1 below it."""
    rng = random.Random(0xDEE9)
    seen = set()
    outcomes = set()
    cases = itertools.islice(_deep_filter_cases(rng), 2400)
    for points, cand, m, labels in cases:
        want = oracle_depth(cand, points)
        others = [tuple(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in cand) for _ in range(2)]
        ambient = FiniteSet([cand] + others, len(cand))
        stored = next(s for s in ambient.points if s == cand)
        assert deep_filter(points, m, ambient)(stored) == (want >= m), (points.entries, cand, m)
        if all(x.denominator == 1 for x in cand):
            as_ints = tuple(int(x) for x in cand)
            assert deep_filter(points, m, Lattice(len(cand)))(as_ints) == (want >= m), (points.entries, cand, m)
        grid, pairs = depth_module._finite_candidates(points, ambient)
        origin = next(g for s, g in pairs if s is stored)
        copies, depth, _ = depth_module._depth_step(grid, points)(origin, m - 1, False)
        assert copies == sum(mult for p, mult in points.entries if p == cand)
        assert depth == want if want >= m else depth <= m - 1
        seen |= labels
        outcomes.add(want >= m)
    assert outcomes == {True, False}
    assert seen >= {"d=1", "d=2", "d=3", "den=1", "den=2", "den=3", "general", "collinear", "coplanar",
                    "copies < m", "copies = m", "copies > m"}
