from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from tverberg.ambient import FiniteSet, Lattice, MixedLattice, RealSpace
from tverberg import certificates, documents
from tverberg.certificates import verify_certificate
from tverberg.errors import Infeasible, PreconditionViolated, UnsupportedAmbient
from tverberg import product
from tverberg.geometry import convex_system, hull_membership, polytope_intersection_point
from tverberg.oracle import iter_partition_hulls, verify_no_partition
from tverberg.points import PointMultiset, point
from tverberg.product import (
    DRIVERS,
    double_witness,
    fiber_lift,
    product_tverberg,
    real_partition,
    real_tverberg_bruteforce,
    tverberg_partition,
)

from conftest import random_rational


def _mixed_multiset(rng, n, j, k, box=6):
    pts = []
    for _ in range(n):
        coords = [Fraction(rng.randint(-box, box)) for _ in range(j)]
        coords += [random_rational(rng, box) for _ in range(k)]
        pts.append(tuple(coords))
    return PointMultiset.from_points(pts)


def test_real_bruteforce_radon():
    pts = PointMultiset.from_points(
        [point(0, 0), point(4, 0), point(0, 4), point(1, 1)]
    )
    cert = real_tverberg_bruteforce(pts, 2)
    assert verify_certificate(cert, pts).ok


def test_real_bruteforce_gate():
    pts = PointMultiset.from_points([point(0, 0), point(1, 0), point(0, 1)])
    with pytest.raises(PreconditionViolated):
        real_tverberg_bruteforce(pts, 2)  # 3 < (2-1)(2+1)+1


def test_real_bruteforce_three_parts(rng):
    for _ in range(10):
        pts = PointMultiset.from_points(
            [(random_rational(rng, 5), random_rational(rng, 5)) for _ in range(7)]
        )
        cert = real_tverberg_bruteforce(pts, 3)
        assert verify_certificate(cert, pts).ok


def test_fiber_lift_matches_prefix(rng):
    for _ in range(40):
        part = _mixed_multiset(rng, rng.randint(2, 5), 1, 2)
        # an instance's own first coordinate is always liftable
        anchor = part.instances()[rng.randrange(part.size)]
        lifted, coeffs = fiber_lift(part, (anchor[0],))
        assert lifted[0] == anchor[0]
        assert coeffs.combination(part) == lifted
        # far outside the projected hull it must refuse
        with pytest.raises(Infeasible):
            fiber_lift(part, (Fraction(99),))


def _pinned_lift(part, prefix):
    """``fiber_lift`` as the pinned convex system alone answers it."""
    _, coeffs = convex_system((part,), prefix)
    if coeffs is None:
        return None
    return coeffs[0].combination(part), coeffs[0]


def test_closed_form_lifts_match_the_pinned_system(monkeypatch):
    """Parts of one entry and of two entries with distinct prefixes lift
    in closed form to the pinned system's point and weights, endpoints
    with the zero weight dropped; two entries with one prefix take the
    system; a prefix outside raises the system path's Infeasible."""
    solved = []

    def counted(*args):
        solved.append(args)
        return convex_system(*args)

    monkeypatch.setattr(product, "convex_system", counted)
    rng = random.Random(1662)
    seen = set()
    for _ in range(600):
        j, k = rng.randint(1, 2), rng.randint(1, 2)
        box = rng.choice((1, 3))
        size = rng.randint(1, 2)
        rows = [
            tuple(Fraction(rng.randint(-box, box)) for _ in range(j))
            + tuple(random_rational(rng, 4) for _ in range(k))
            for _ in range(size)
        ]
        part = PointMultiset.from_points(rows)
        prefixes = [rows[0][:j], tuple(Fraction(rng.randint(-box - 1, box + 1)) for _ in range(j))]
        if size == 2:
            prefixes.append(tuple((x + y) / 2 for x, y in zip(rows[0][:j], rows[1][:j])))
        for prefix in prefixes:
            before = len(solved)
            expected = _pinned_lift(part, prefix)
            if expected is None:
                with pytest.raises(Infeasible, match="^prefix lies outside the projected hull$"):
                    fiber_lift(part, prefix)
                outcome = "outside"
            else:
                assert fiber_lift(part, prefix) == expected, (part, prefix)
                outcome = len(expected[1].weights)
            distinct = len({p[:j] for p, _ in part.entries})
            shape = (j, len(part.entries), distinct, outcome)
            seen.add(shape)
            # the system runs for one shape only: two entries, one prefix
            assert (len(solved) > before) == (len(part.entries) == 2 and distinct == 1), shape
    for j in (1, 2):
        assert {(j, 1, 1, 1), (j, 1, 1, "outside")} <= seen
        assert {(j, 2, 2, 1), (j, 2, 2, 2), (j, 2, 2, "outside")} <= seen
        assert {(j, 2, 1, 1), (j, 2, 1, "outside")} <= seen


def test_product_tverberg_line_base(rng):
    amb = MixedLattice(1, 1)
    for m in (2, 3):
        t = (m - 1) * 2 + 1
        n = 2 * t - 1
        for _ in range(20):
            pts = _mixed_multiset(rng, n, 1, 1)
            cert, record = product_tverberg(pts, m, amb)
            assert verify_certificate(cert, pts).ok
            assert cert.point[0].denominator == 1
            assert len(record.groups) == m


def test_product_tverberg_plane_base(rng):
    amb = MixedLattice(2, 1)
    m = 2
    t = (m - 1) * 2 + 1
    n = 4 * t - 3
    for _ in range(15):
        pts = _mixed_multiset(rng, n, 2, 1)
        cert, _ = product_tverberg(pts, m, amb)
        assert verify_certificate(cert, pts).ok
        assert cert.point[0].denominator == 1
        assert cert.point[1].denominator == 1


def test_product_tverberg_two_real_coordinates(rng):
    amb = MixedLattice(1, 2)
    m = 2
    t = (m - 1) * 3 + 1
    n = 2 * t - 1
    for _ in range(15):
        pts = _mixed_multiset(rng, n, 1, 2)
        cert, _ = product_tverberg(pts, m, amb)
        assert verify_certificate(cert, pts).ok


def test_product_gates_and_ambient_checks(rng):
    amb = MixedLattice(1, 1)
    pts = _mixed_multiset(rng, 4, 1, 1)
    with pytest.raises(PreconditionViolated):
        product_tverberg(pts, 2, amb)  # 4 < 2t-1 = 5
    deep = MixedLattice(4, 1)
    pts5 = _mixed_multiset(rng, 40, 4, 1)
    with pytest.raises(UnsupportedAmbient):
        product_tverberg(pts5, 2, deep)
    frac = PointMultiset.from_points(
        [(Fraction(1, 2), Fraction(0))] + [point(i, 0) for i in range(6)]
    )
    with pytest.raises(PreconditionViolated):
        product_tverberg(frac, 2, amb)  # non-integer first coordinate


def test_double_witness_lattice():
    base = PointMultiset.from_points([point(1, 2), point(3, 4)])
    doubled, amb = double_witness(base, Lattice(2))
    assert amb == Lattice(3)
    assert doubled.size == 4
    assert doubled.multiplicity(point(1, 2, 0)) == 1
    assert doubled.multiplicity(point(1, 2, 1)) == 1
    assert doubled.multiplicity(point(3, 4, 1)) == 1


def test_double_witness_real_goes_mixed():
    base = PointMultiset.from_points([(Fraction(0),), (Fraction(1),)])
    doubled, amb = double_witness(base, RealSpace(1))
    assert amb == MixedLattice(1, 1)
    # level coordinate sits in front, original value behind
    assert doubled.multiplicity(point(0, 0)) == 1
    assert doubled.multiplicity(point(1, 0)) == 1
    assert doubled.multiplicity(point(0, 1)) == 1
    assert doubled.multiplicity(point(1, 1)) == 1


def test_double_witness_preserves_multiplicity():
    base = PointMultiset.from_points([point(5, 5)] * 3)
    doubled, _ = double_witness(base, Lattice(2))
    assert doubled.multiplicity(point(5, 5, 0)) == 3
    assert doubled.multiplicity(point(5, 5, 1)) == 3


def test_doubled_pair_refutes_in_mixed_ambient():
    base = PointMultiset.from_points([(Fraction(0),), (Fraction(1),)])
    doubled, amb = double_witness(base, RealSpace(1))
    assert verify_no_partition(doubled, 2, amb)


def test_lift_record_partitions_base_parts(rng):
    amb = MixedLattice(1, 1)
    pts = _mixed_multiset(rng, 5, 1, 1)
    cert, record = product_tverberg(pts, 2, amb)
    # groups index the base parts and every base part lands somewhere
    seen = sorted(i for grp in record.groups for i in grp)
    assert seen == list(range(len(record.lifted)))
    assert len(record.groups) == len(cert.parts)
    for grp in record.groups:
        assert grp
    # each lifted point shares the base point's leading coordinate
    for lifted in record.lifted:
        assert lifted[: len(record.base_point)] == record.base_point
    assert cert.point[: len(record.base_point)] == record.base_point
    assert hull_membership(cert.point, cert.parts[0]) is not None


@pytest.mark.parametrize("j, n", [(2, 9), (3, 41)])
def test_product_certifies_only_the_final_partition(monkeypatch, rng, j, n):
    """Over Z^2 x R^1 and Z^3 x R^1 the base step takes the driver's parts
    and centre, so one call assembles one certificate, the final one."""
    calls = []
    assemble = certificates.assemble_certificate

    def counted(*args):
        calls.append(args)
        return assemble(*args)

    monkeypatch.setattr("tverberg.certificates.assemble_certificate", counted)
    pts = _mixed_multiset(rng, n, j, 1)
    cert, record = product_tverberg(pts, 2, MixedLattice(j, 1))
    assert len(calls) == 1 and tuple(calls[0][2]) == cert.parts
    assert verify_certificate(cert, pts).ok
    assert cert.point[:j] == record.base_point


def _enumerated_partition(points, m):
    """``real_partition`` as the enumeration alone answers it: the first
    partition whose joint system is feasible."""
    for hulls in iter_partition_hulls(points, m):
        found = polytope_intersection_point(hulls)
        if found is not None:
            return hulls, found[0], found[1]
    raise AssertionError("no partition admitted a common point")


def _radon_inputs():
    """(points, m, shape): d+2 random points for d = 1..3, with integer
    coordinates from small boxes or rational ones, then shapes the Radon
    route must leave to the enumeration: a zero affine-dependence
    coefficient (three collinear of four planar points, four coplanar of
    five), every point on one line or plane (dependences of dimension
    >= 2), a repeated point among d+2 instances or among d+2 distinct
    points, one point more than d+2, and m = 3."""
    rng = random.Random(1661)

    def rational(count, d, box=4):
        return [tuple(random_rational(rng, box) for _ in range(d)) for _ in range(count)]

    def integral(count, d, box):
        return [tuple(Fraction(rng.randint(-box, box)) for _ in range(d)) for _ in range(count)]

    def on_line(a, b, t):
        return tuple(x + t * (y - x) for x, y in zip(a, b))

    def case(rows, m, shape):
        return PointMultiset.from_points(rows), m, shape

    cases = []
    for _ in range(2000):
        d = rng.randint(1, 3)
        if rng.random() < 0.5:
            cases.append(case(integral(d + 2, d, rng.choice((1, 2, 5))), 2, "random"))
        else:
            cases.append(case(rational(d + 2, d), 2, "random"))
    for _ in range(40):
        a, b, c = rational(3, 2)
        cases.append(case([a, b, c, on_line(a, b, random_rational(rng, 2))], 2, "zero"))
        cases.append(case([on_line(a, b, Fraction(t, 3)) for t in range(-1, 3)], 2, "flat"))
        a, b, c, e = rational(4, 3)
        s, u = random_rational(rng, 2), random_rational(rng, 2)
        plane = [a, b, c, tuple(x + s * (y - x) + u * (z - x) for x, y, z in zip(a, b, c))]
        cases.append(case(plane + [e], 2, "zero"))
        cases.append(case(plane + [on_line(a, b, Fraction(1, 2))], 2, "flat"))
        d = rng.randint(1, 3)
        rows = rational(d + 1, d)
        cases.append(case(rows + [rows[0]], 2, "repeated"))
        rows = rational(d + 2, d)
        cases.append(case(rows + [rows[rng.randrange(d + 2)]], 2, "repeated"))
        cases.append(case(rational(d + 3, d), 2, "more"))
        d = 1 if len(cases) % 5 else 2
        cases.append(case(rational(2 * d + 3, d), 3, "m3"))
    return cases


def test_radon_route_matches_the_enumeration(monkeypatch):
    """Over 2,000 seeded d+2 point sets and the shapes that must fall back,
    ``real_partition`` returns the enumeration's parts, point and joint
    weights; the Radon route answers the general-position sets without
    enumerating, and every fallback shape enumerates."""
    enumerated = []

    def counted(points, m):
        enumerated.append(points)
        return iter_partition_hulls(points, m)

    monkeypatch.setattr(product, "iter_partition_hulls", counted)
    routed = fallen = 0
    for points, m, shape in _radon_inputs():
        before = len(enumerated)
        assert real_partition(points, m) == _enumerated_partition(points, m), (shape, points)
        if len(enumerated) == before:
            assert shape == "random", (shape, points)
            routed += 1
        else:
            fallen += 1
    # 320 constructed fallbacks, and random sets from small integer boxes
    # that repeat a point or leave a dependence coefficient zero
    assert routed >= 1500 and fallen >= 320 + 300, (routed, fallen)


def _seeded_driver_inputs():
    """(points, m, ambient) for every row of ``DRIVERS``, drawn from one
    seed: lattice points at or just above each gate, multisets over
    finite lines and planar grid subsets, and rational fibers and real
    points at the tight sizes."""
    rng = random.Random(1550)

    def ints(n, d, box):
        return PointMultiset.from_points(
            [tuple(Fraction(rng.randint(-box, box)) for _ in range(d)) for _ in range(n)]
        )

    def mixed(n, j, k):
        return PointMultiset.from_points(
            [
                tuple(Fraction(rng.randint(-6, 6)) for _ in range(j))
                + tuple(Fraction(rng.randint(-24, 24), rng.randint(1, 6)) for _ in range(k))
                for _ in range(n)
            ]
        )

    cases = []
    for d, count, box in ((1, 30, 9), (2, 60, 12), (3, 10, 8)):
        gate = DRIVERS[(Lattice, d)][0]
        for _ in range(count):
            m = rng.randint(2, 4) if d < 3 else 2
            cases.append((ints(gate(m) + rng.randint(0, 2 if d < 3 else 0), d, box), m, Lattice(d)))
    grid = [(Fraction(x), Fraction(y)) for x in range(3) for y in range(3)]
    for _ in range(20):
        line = FiniteSet(tuple((Fraction(x),) for x in sorted(rng.sample(range(-9, 9), 4))), 1)
        m = rng.randint(2, 3)
        cases.append((PointMultiset.from_points(rng.choices(line.points, k=2 * m - 1)), m, line))
        plane = FiniteSet(tuple(rng.sample(grid, rng.randint(5, 9))), 2)
        cases.append((PointMultiset.from_points(rng.choices(plane.points, k=9)), 2, plane))
    for j, k, m in ((1, 1, 2), (1, 1, 3), (1, 2, 2), (2, 1, 2)):
        t = (m - 1) * (k + 1) + 1
        for _ in range(8):
            cases.append((mixed(DRIVERS[(Lattice, j)][0](t), j, k), m, MixedLattice(j, k)))
    for d, m in ((1, 3), (2, 2), (2, 3), (3, 2)):
        for _ in range(5):
            cases.append((mixed((m - 1) * (d + 1) + 1, 0, d), m, RealSpace(d)))
    return cases


def test_certificate_documents_of_every_driver_row_are_pinned():
    """One sha256 over the documents of 192 seeded partitions, drawn for
    every row of ``DRIVERS``: a change anywhere between a driver and the
    document writer that moves a byte of a certificate fails here."""
    digest = hashlib.sha256()
    rows = set()
    count = 0
    for pts, m, ambient in _seeded_driver_inputs():
        key = (type(ambient), ambient.dim)
        rows.add(key if key in DRIVERS else (type(ambient), None))
        cert = tverberg_partition(pts, m, ambient)
        digest.update(documents.dumps(documents.certificate_to_doc(cert)).encode())
        count += 1
    assert rows == set(DRIVERS) and count == 192
    assert digest.hexdigest() == "9815400a17ccd8735532cc7f6b77cdd01bbf666cbd183f13a765982da7ad1667"


def _seeded_fiber_inputs():
    """(points, m, ambient) shaped like the fiber step: Z^1 x R^1 at m = 2
    and 3 and Z^1 x R^2 at m = 2, each at the size 2t-1, then R^3 at
    m = 2 on 5 points, R^2 at m = 2 on 4 and R^2 at m = 3 on 7.  Half the
    calls draw integer coordinates from small boxes, so repeated fiber
    points and degenerate Radon configurations come up too."""
    rng = random.Random(1660)

    def coords(count, box, integral):
        return tuple(
            Fraction(rng.randint(-box, box))
            if integral
            else Fraction(rng.randint(-24, 24), rng.randint(1, 6))
            for _ in range(count)
        )

    cases = []
    for k, m, count in ((1, 2, 40), (1, 3, 12), (2, 2, 30)):
        t = (m - 1) * (k + 1) + 1
        for _ in range(count):
            box, integral = rng.choice((1, 2, 6)), rng.random() < 0.5
            rows = [coords(1, box, True) + coords(k, box, integral) for _ in range(2 * t - 1)]
            cases.append((PointMultiset.from_points(rows), m, MixedLattice(1, k)))
    for d, m, n, count in ((3, 2, 5, 30), (2, 2, 4, 30), (2, 3, 7, 4)):
        for _ in range(count):
            box, integral = rng.choice((1, 2, 6)), rng.random() < 0.5
            rows = [coords(d, box, integral) for _ in range(n)]
            cases.append((PointMultiset.from_points(rows), m, RealSpace(d)))
    return cases


def test_fiber_shaped_outputs_are_pinned():
    """One sha256 over the certificate documents of 146 seeded fiber-shaped
    calls and the ``LiftRecord`` of each product call: the fiber step's
    parts, point and joint weights, and every lift, byte for byte."""
    digest = hashlib.sha256()
    for pts, m, ambient in _seeded_fiber_inputs():
        if isinstance(ambient, MixedLattice):
            cert, record = product_tverberg(pts, m, ambient)
            digest.update(
                documents.dumps(
                    {
                        "base_point": documents.point_to_doc(record.base_point),
                        "lifted": [documents.point_to_doc(p) for p in record.lifted],
                        "groups": [list(g) for g in record.groups],
                    }
                ).encode()
            )
        else:
            cert = real_tverberg_bruteforce(pts, m)
        digest.update(documents.dumps(documents.certificate_to_doc(cert)).encode())
    assert digest.hexdigest() == "94e601fb69186cc5b359c5da0f38eb7ad121eda09b323fad52e8d155a43780b1"
