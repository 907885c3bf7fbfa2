from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from tverberg.ambient import FiniteSet, Lattice
from tverberg.certificates import peel_by_multiplicity, singleton_part, verify_certificate
from tverberg.depth import (
    DepthWitness,
    first_deep_scan,
    halfspace_depth,
    integer_centerpoint,
    recounted_witness,
)
from tverberg.errors import AssertionFailed, DimensionMismatch, PreconditionViolated
from tverberg.geometry import hull_membership
from tverberg import depth, documents, planar
from tverberg.planar import (
    finite_gate,
    helly3_tverberg,
    helly_number,
    plane_tverberg,
    radial_order,
    radon_labeling,
    tverberg_labeling,
)
from tverberg.points import HalfSpace, PointMultiset, integer_points, point

import radial_oracle
from conftest import random_lattice_multiset, random_rational


def test_radial_order_shape(rng):
    for _ in range(50):
        pts = random_lattice_multiset(rng, rng.randint(4, 10), 2, 6)
        center = point(20, 20)  # outside, so no instance coincides
        order = radial_order(pts, center)
        assert order.center == center
        assert sum(order.counts) == pts.size
        runs = [(pts.entries[i][0], c) for i, c in zip(order.entry_indices, order.counts)]
        assert PointMultiset(runs, dim=2) == pts
        # one run per entry, holding every copy of it
        assert sorted(order.entry_indices) == list(range(len(pts.entries)))
        assert [pts.entries[i][1] for i in order.entry_indices] == list(order.counts)
        assert len(order.directions) == len(order.counts)


def test_radial_order_rejects_center_instance():
    pts = PointMultiset.from_points([point(0, 0), point(1, 1)])
    with pytest.raises(PreconditionViolated):
        radial_order(pts, point(0, 0))


def _check_center_in_every_class(points, order, tallies, m):
    assert [sum(t) for t in tallies] == list(order.counts)
    for k in range(m):
        counts = [0] * len(points.entries)
        for i, tally in zip(order.entry_indices, tallies):
            counts[i] = tally[k]
        cls = points.sub_multiset(counts)
        assert cls.size, f"label {k + 1} never used"
        assert hull_membership(order.center, cls) is not None, f"label {k + 1}"


def test_tverberg_labeling_covers_center(rng):
    hits = 0
    while hits < 60:
        m = rng.choice([3, 4])
        n = 4 * m - 3 + rng.randint(0, 4)
        pts = random_lattice_multiset(rng, n, 2, rng.choice([2, 3, 6]))
        try:
            center = integer_centerpoint(pts, m)
        except Exception:
            continue
        if pts.multiplicity(center) > 0:
            continue
        order = radial_order(pts, center)
        witness = halfspace_depth(center, pts)
        tallies = tverberg_labeling(order, m, witness)
        _check_center_in_every_class(pts, order, tallies, m)
        hits += 1


def test_radon_labeling_covers_center(rng):
    hits = 0
    while hits < 60:
        pts = random_lattice_multiset(rng, rng.randint(6, 9), 2, rng.choice([2, 4]))
        try:
            center = integer_centerpoint(pts, 2)
        except Exception:
            continue
        if pts.multiplicity(center) > 0:
            continue
        order = radial_order(pts, center)
        witness = halfspace_depth(center, pts)
        tallies = radon_labeling(order, witness)
        _check_center_in_every_class(pts, order, tallies, 2)
        hits += 1


def test_plane_tverberg_lattice_random(rng):
    for _ in range(150):
        m = rng.choice([2, 3, 4])
        n = (6 if m == 2 else 4 * m - 3) + rng.randint(0, 3)
        box = rng.choice([1, 2, 3, 8, 20])
        pts = random_lattice_multiset(rng, n, 2, box)
        cert = plane_tverberg(pts, m, Lattice(2))
        assert cert.m == m
        assert verify_certificate(cert, pts).ok
        assert all(x.denominator == 1 for x in cert.point)


def test_plane_tverberg_collinear(rng):
    for _ in range(40):
        n = rng.randint(6, 10)
        m = rng.choice([2, 3])
        if n < (6 if m == 2 else 4 * m - 3):
            continue
        xs = [rng.randint(-9, 9) for _ in range(n)]
        pts = PointMultiset.from_points(
            [(Fraction(x), Fraction(2 * x + 1)) for x in xs]
        )
        cert = plane_tverberg(pts, m, Lattice(2))
        assert verify_certificate(cert, pts).ok


def test_plane_tverberg_gates():
    pts = random_lattice_multiset(random.Random(1), 5, 2, 9)
    with pytest.raises(PreconditionViolated):
        plane_tverberg(pts, 2, Lattice(2))  # 5 < 6
    pts = random_lattice_multiset(random.Random(2), 8, 2, 9)
    with pytest.raises(PreconditionViolated):
        plane_tverberg(pts, 3, Lattice(2))  # 8 < 9
    with pytest.raises(PreconditionViolated):
        plane_tverberg(pts, 1, Lattice(2))
    three_d = random_lattice_multiset(random.Random(3), 9, 3, 5)
    with pytest.raises(DimensionMismatch):
        plane_tverberg(three_d, 3, Lattice(2))


def test_plane_tverberg_rejects_fractional():
    pts = PointMultiset.from_points(
        [(Fraction(1, 2), Fraction(0))] + [point(i, i % 3) for i in range(8)]
    )
    with pytest.raises(PreconditionViolated):
        plane_tverberg(pts, 3, Lattice(2))


def test_helly_number_frozen_values(triangle_fan_set):
    square = FiniteSet((point(0, 0), point(0, 1), point(1, 0), point(1, 1)), 2)
    assert helly_number(square).number == 4
    grid = FiniteSet(
        tuple(point(x, y) for x in range(3) for y in range(3)), 2
    )
    assert helly_number(grid).number == 4
    line = FiniteSet((point(0, 0), point(1, 2), point(2, 4), point(3, 6)), 2)
    assert helly_number(line).number == 2
    single = FiniteSet((point(5, 5),), 2)
    assert helly_number(single).number == 1
    assert helly_number(triangle_fan_set).number == 3


def test_helly_witness_is_free_convex_subset(triangle_fan_set):
    for amb in (
        triangle_fan_set,
        FiniteSet(tuple(point(x, y) for x in range(3) for y in range(3)), 2),
    ):
        wit = helly_number(amb)
        hull = PointMultiset.from_points(list(wit.points))
        for s in amb.points:
            inside = hull_membership(s, hull) is not None
            assert inside == (s in wit.points) or not inside


def test_helly3_routes(rng, triangle_fan_set):
    # single point: everything piles onto it
    solo = FiniteSet((point(2, 3),), 2)
    pts = PointMultiset.from_points([point(2, 3)] * 4)
    cert = helly3_tverberg(pts, 3, solo)
    assert verify_certificate(cert, pts).ok

    # collinear: pairs nest around the median
    line = FiniteSet(tuple(point(i, i) for i in range(7)), 2)
    for _ in range(25):
        m = rng.choice([2, 3])
        n = 2 * m - 1 + rng.randint(0, 3)
        pts = PointMultiset.from_points(
            [point(k, k) for k in (rng.randint(0, 6) for _ in range(n))]
        )
        cert = helly3_tverberg(pts, m, line)
        assert verify_certificate(cert, pts).ok

    # true triangle-fan route
    support = list(triangle_fan_set.points)
    for _ in range(25):
        m = rng.choice([2, 3])
        n = 3 * (m - 1) + 1
        pts = PointMultiset.from_points(
            [support[rng.randrange(len(support))] for _ in range(n)]
        )
        cert = helly3_tverberg(pts, m, triangle_fan_set)
        assert verify_certificate(cert, pts).ok
        assert triangle_fan_set.contains(cert.point)


def test_plane_tverberg_finite_ambient_gate(triangle_fan_set):
    # He = 3, m = 3 needs 3*2+1 = 7 instances
    pts = PointMultiset.from_points(list(triangle_fan_set.points)[:6])
    with pytest.raises(PreconditionViolated):
        plane_tverberg(pts, 3, triangle_fan_set)


def test_plane_tverberg_finite_ambient_random(rng, triangle_fan_set):
    support = list(triangle_fan_set.points)
    for _ in range(30):
        pts = PointMultiset.from_points(
            [support[rng.randrange(len(support))] for _ in range(7)]
        )
        cert = plane_tverberg(pts, 3, triangle_fan_set)
        assert verify_certificate(cert, pts).ok


def test_finite_gate():
    # He(m-1)+1, and one more for m = 2 once He >= 4
    assert [finite_gate(he, 2) for he in (1, 2, 3, 4, 5)] == [2, 3, 4, 6, 7]
    assert [finite_gate(he, 3) for he in (1, 2, 3, 4, 5)] == [3, 5, 7, 9, 11]


def test_plane_tverberg_checks_a_finite_set_once(monkeypatch, triangle_fan_set):
    """Each instance is looked up in the set once, and the Helly number
    asked for once, on every Helly number route."""
    lookups = []
    helly_calls = 0
    helly = planar.helly_number

    class Counted(FiniteSet):
        __slots__ = ()

        def contains(self, p):
            lookups.append(p)
            return super().contains(p)

    def counted_helly(ambient):
        nonlocal helly_calls
        helly_calls += 1
        return helly(ambient)

    monkeypatch.setattr(planar, "helly_number", counted_helly)
    line = [point(i, i) for i in range(4)]
    cases = [
        ([point(1, 1)] * 5, [point(1, 1)], 3),
        ([line[0], line[3], line[1], line[1], line[2], line[0], line[3]], line, 3),
        ([point(0, 0), point(8, 0), point(0, 8), point(1, 1), point(2, 2), point(3, 3), point(0, 0)],
         list(triangle_fan_set.points), 3),
        ([point(x, y) for x, y in [(0, 0), (2, 2), (1, 0), (0, 2), (2, 0), (1, 1), (2, 1)]],
         [point(x, y) for x in range(3) for y in range(3)], 2),
    ]
    for instances, support, m in cases:
        pts = PointMultiset.from_points(instances)
        ambient = Counted(support, 2)
        lookups.clear()
        helly_calls = 0
        cert = plane_tverberg(pts, m, ambient)
        assert verify_certificate(cert, pts).ok
        assert helly_calls == 1
        checked = [p for p in lookups if p != cert.point]
        assert sorted(checked) == sorted(p for p in pts.support() if p != cert.point)


def test_deep_center_multiplicity_path(rng):
    # center occurring many times forces the peel-by-multiplicity route
    for m in (2, 3):
        center = point(0, 0)
        n = max(6, 4 * m - 3)
        ring = [point(3, 0), point(0, 3), point(-3, 0), point(0, -3)]
        pts = PointMultiset.from_points([center] * (m - 1) + ring + ring[: n - 4 - (m - 1)])
        if pts.size < n:
            pts = pts.add(point(1, 2), n - pts.size)
        cert = plane_tverberg(pts, m, Lattice(2))
        assert verify_certificate(cert, pts).ok


def _radial_case(rng, i):
    """A seeded (multiset, centre): lattice points around an integer
    centre, rational points around a rational centre, and both with
    repeated points, several instances on one ray and opposite rays."""
    rational = i % 2 == 1

    def coord(box):
        return random_rational(rng, box, 6) if rational else Fraction(rng.randint(-box, box))

    center = (coord(4), coord(4))
    pts = [(coord(6), coord(6)) for _ in range(rng.randint(1, 12))]
    for _ in range(rng.randint(0, 3)):
        dx, dy = rng.choice([(1, 0), (0, 1), (1, 1), (2, -1), (-1, 3)])
        for _ in range(rng.randint(1, 3)):
            t = rng.choice([-3, -2, -1, 1, 2, 3]) * (Fraction(1, rng.randint(1, 3)) if rational else 1)
            pts.append((center[0] + t * dx, center[1] + t * dy))
    pts += [rng.choice(pts) for _ in range(rng.randint(0, 3))]
    pts = [p for p in pts if p != center]
    return PointMultiset.from_points(pts or [(center[0] + 1, center[1])], dim=2), center


def test_radial_order_matches_the_fraction_reference():
    """The integer grid gives the reference's instance order merged into
    runs, and the same arc permutations merged into runs, for the depth
    witness and for half-planes through the centre in many directions;
    the centre as an instance is refused."""
    rng = random.Random(2718)
    for i in range(2000):
        pts, center = _radial_case(rng, i)
        order = radial_order(pts, center)
        reference = radial_oracle.radial_order(pts, center)
        positions = zip(reference.entry_indices, reference.directions)
        runs = [(e, d, len(list(group))) for (e, d), group in itertools.groupby(positions)]
        assert order.center == reference.center
        assert list(zip(order.entry_indices, order.directions, order.counts)) == runs
        witnesses = [halfspace_depth(center, pts)]
        for _ in range(3):
            normal = (rng.randint(-3, 3), rng.randint(-3, 3))
            if normal != (0, 0):
                offset = normal[0] * center[0] + normal[1] * center[1]
                witnesses.append(DepthWitness(center, 0, HalfSpace(normal, offset)))
        for witness in witnesses:
            try:
                perm, arc_len = radial_oracle._arc_positions(reference, witness)
            except AssertionFailed:
                with pytest.raises(AssertionFailed):
                    planar._arc_positions(order, witness)
                continue
            start, length = planar._arc_positions(order, witness)
            swept = [reference.entry_indices[k] for k in perm]
            rotated = order.entry_indices[start:] + order.entry_indices[:start]
            assert list(rotated) == [e for e, _ in itertools.groupby(swept)]
            assert length == arc_len
        with pytest.raises(PreconditionViolated):
            radial_order(pts.add(center), center)


def _reference_parts(pts, m):
    """``_radial_parts`` with the reference's instance order and labels,
    and the labeling's case: its shape of segments."""
    p, depth, phi = first_deep_scan(pts, Lattice(2), m, want_witness=True)
    direct = peel_by_multiplicity(pts, p, m)
    if direct is not None:
        return p, direct, None
    mu = pts.multiplicity(p)
    rest = pts.remove(p, mu) if mu else pts
    target, n = m - mu, rest.size
    witness = recounted_witness(p, rest, depth - mu, phi, integer_points(rest.support() + (p,)))
    order = radial_oracle.radial_order(rest, p)
    if target == 2:
        labels = radial_oracle.radon_labeling(order, witness)
        shape = "radon even" if n % 2 == 0 else "radon odd, deep" if witness.depth >= 3 else "radon odd, arc"
    else:
        labels = radial_oracle.tverberg_labeling(order, target, witness)
        quot, rem = divmod(n, target)
        e = -(-rem // quot)
        if witness.depth < target + e:
            shape = "shallow"
        else:
            shape = "deep, no gap" if rem == 0 else "deep, gaps of e" if rem % e == 0 else "deep, a short gap"
    classes = [
        PointMultiset.from_points([q for q, label in zip(order.sequence, labels) if label == k], dim=2)
        for k in range(1, target + 1)
    ]
    return p, [singleton_part(p) for _ in range(mu)] + classes, shape


def test_radial_parts_count_the_reference_labels(monkeypatch):
    """The segments' counts per run give the parts that the reference's
    per-instance labels give, on small boxes with multiplicities 1-4, in
    every labeling case; some run spans more than one period."""
    walk = planar._count_labels
    long_runs = []

    def spied(order, start, segments, m):
        long_runs.append(max(order.counts) >= max(len(pattern) for _, pattern in segments))
        return walk(order, start, segments, m)

    monkeypatch.setattr(planar, "_count_labels", spied)
    rng = random.Random(2424)
    shapes = set()
    for _ in range(400):
        m = rng.choice([2, 2, 3, 4, 5, 7])
        box = rng.choice([1, 2, 3])
        wanted = planar.z2_gate(m) + rng.randint(0, 3)
        counts = {}
        while sum(counts.values()) < wanted:
            counts[point(rng.randint(-box, box), rng.randint(-box, box))] = rng.randint(1, 4)
        pts = PointMultiset([(q, c) for q, c in counts.items()], dim=2)
        p, parts = planar._radial_parts(pts, m, Lattice(2))
        q, expected, shape = _reference_parts(pts, m)
        assert (p, parts) == (q, expected)
        shapes.add(shape)
    assert shapes >= {
        "deep, no gap",
        "deep, gaps of e",
        "deep, a short gap",
        "shallow",
        "radon even",
        "radon odd, deep",
        "radon odd, arc",
    }
    assert any(long_runs)


def test_shallow_arc_start_and_length_equal_the_reference():
    """On shallow labelings with multiplicities 1-4, the run the sweep
    starts at is the run of the reference's first swept instance, and the
    arc lengths agree."""
    rng = random.Random(2525)
    shallow = 0
    for _ in range(600):
        m = rng.choice([3, 4, 5, 7])
        box = rng.choice([1, 2, 3])
        counts = {}
        while sum(counts.values()) < planar.z2_gate(m) + rng.randint(0, 3):
            counts[point(rng.randint(-box, box), rng.randint(-box, box))] = rng.randint(1, 4)
        pts = PointMultiset([(q, c) for q, c in counts.items()], dim=2)
        p, depth_p, phi = first_deep_scan(pts, Lattice(2), m, want_witness=True)
        if peel_by_multiplicity(pts, p, m) is not None:
            continue
        mu = pts.multiplicity(p)
        rest = pts.remove(p, mu) if mu else pts
        target, n = m - mu, rest.size
        quot, rem = divmod(n, target)
        witness = recounted_witness(p, rest, depth_p - mu, phi)
        if target < 3 or rem == 0 or witness.depth >= target + -(-rem // quot):
            continue
        shallow += 1
        reference = radial_oracle.radial_order(rest, p)
        positions = zip(reference.entry_indices, reference.directions)
        run_of = [k for k, (_, group) in enumerate(itertools.groupby(positions)) for _ in group]
        perm, arc_len = radial_oracle._arc_positions(reference, witness)
        assert planar._arc_positions(radial_order(rest, p), witness) == (run_of[perm[0]], arc_len)
    assert shallow >= 50


def test_radial_parts_put_rest_and_centre_on_one_grid_once(monkeypatch):
    """The radial order and the witness recount of ``_radial_parts`` read
    one integer grid of the remainder and the centre, computed once."""
    seen = []

    def counted(points):
        seen.append(tuple(points))
        return integer_points(points)

    monkeypatch.setattr(planar, "integer_points", counted)
    monkeypatch.setattr(depth, "integer_points", counted)
    rng = random.Random(1551)
    routes = set()
    for m in (3, 5):
        for _ in range(20):
            pts = random_lattice_multiset(rng, 4 * m - 1, 2, 4)
            seen.clear()
            center, parts = planar._radial_parts(pts, m, Lattice(2))
            mu = pts.multiplicity(center)
            if mu >= m - 1:
                continue  # the multiplicity peel orders nothing
            rest = pts.remove(center, mu) if mu else pts
            assert seen.count(rest.support() + (center,)) == 1
            routes.add(mu > 0)
    assert routes == {False, True}


def test_helly3_certificates_are_pinned():
    """One sha256 over the certificate documents of 150 seeded partitions
    over twelve finite planar sets of Helly number 3 (m = 2 to 4, at the
    gate and up to two more instances): the parts of the real partition
    and the least set point in all their hulls, byte for byte."""
    rng = random.Random(1803)
    grid = [(Fraction(x), Fraction(y)) for x in range(5) for y in range(5)]
    sets = []
    while len(sets) < 12:
        ambient = FiniteSet(rng.sample(grid, rng.randint(4, 7)), 2)
        if helly_number(ambient).number == 3:
            sets.append(ambient)
    digest = hashlib.sha256()
    for _ in range(150):
        ambient = rng.choice(sets)
        m = rng.randint(2, 4)
        pts = PointMultiset.from_points(rng.choices(ambient.points, k=finite_gate(3, m) + rng.randint(0, 2)))
        digest.update(documents.dumps(documents.certificate_to_doc(plane_tverberg(pts, m, ambient))).encode())
    assert digest.hexdigest() == "276181ad39d3fc7551697ca838fbb4901364334b7c89e9ce2abd3fe3628d1976"
