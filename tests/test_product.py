from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from tverberg.ambient import FiniteSet, Lattice, MixedLattice, RealSpace
from tverberg import certificates, documents
from tverberg.certificates import verify_certificate
from tverberg.errors import Infeasible, PreconditionViolated, UnsupportedAmbient
from tverberg.geometry import hull_membership
from tverberg.oracle import verify_no_partition
from tverberg.points import PointMultiset, point
from tverberg.product import (
    DRIVERS,
    double_witness,
    fiber_lift,
    product_tverberg,
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
