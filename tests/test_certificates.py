from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from tverberg.ambient import FiniteSet, Lattice, MixedLattice, RealSpace
from tverberg.certificates import (
    TverbergCertificate,
    assemble_certificate,
    certify,
    line_tverberg,
    peel_by_multiplicity,
    singleton_part,
    verify_certificate,
)
from tverberg.errors import AssertionFailed, DimensionMismatch, PreconditionViolated
from tverberg.geometry import hull_membership
from tverberg.planar import plane_tverberg
from tverberg.points import PointMultiset, point
from tverberg.product import product_tverberg, tverberg_partition
from tverberg.space3 import z3_tverberg

from certificate_oracle import verify_certificate as reference_verify
from conftest import driver_corpus, random_lattice_multiset, random_rational


def _radon_square():
    """A hand-built valid certificate: both diagonals of a square meet
    at the center."""
    source = PointMultiset.from_points(
        [point(0, 0), point(2, 2), point(0, 2), point(2, 0)]
    )
    parts = (
        PointMultiset.from_points([point(0, 0), point(2, 2)]),
        PointMultiset.from_points([point(0, 2), point(2, 0)]),
    )
    half = Fraction(1, 2)
    proofs = (((0, half), (1, half)), ((0, half), (1, half)))
    cert = TverbergCertificate(2, point(1, 1), parts, proofs, Lattice(2))
    return cert, source


def test_valid_certificate_passes():
    cert, source = _radon_square()
    report = verify_certificate(cert, source)
    assert report.ok and bool(report)
    assert report.failures == ()


def test_point_perturbation_is_membership_mismatch():
    cert, source = _radon_square()
    bad = dataclasses.replace(cert, point=point(1, 2))
    report = verify_certificate(bad, source)
    assert not report.ok
    assert "membership_mismatch" in report.failures


def test_dropped_part_is_partition_mismatch():
    cert, source = _radon_square()
    bad = dataclasses.replace(cert, parts=cert.parts[:1], proofs=cert.proofs[:1])
    report = verify_certificate(bad, source)
    assert "partition_mismatch" in report.failures


def test_foreign_points_are_partition_mismatch():
    cert, source = _radon_square()
    swapped = (
        cert.parts[0],
        PointMultiset.from_points([point(0, 2), point(9, 0)]),
    )
    report = verify_certificate(dataclasses.replace(cert, parts=swapped), source)
    assert "partition_mismatch" in report.failures


def test_part_of_another_dimension_is_partition_mismatch():
    cert, source = _radon_square()
    parts = (cert.parts[0], PointMultiset.from_points([point(0, 2, 0), point(2, 0, 0)]))
    report = verify_certificate(dataclasses.replace(cert, parts=parts), source)
    assert not report.ok
    assert "partition_mismatch" in report.failures


def test_corrupted_weight_is_bad_coefficients():
    cert, source = _radon_square()
    half = Fraction(1, 2)
    for proof0 in (
        ((0, Fraction(2, 3)), (1, half)),       # sum off
        ((0, -half), (1, half), (1, Fraction(1))),  # negative entry
        ((0, half), (7, half)),                 # index out of range
    ):
        bad = dataclasses.replace(cert, proofs=(proof0, cert.proofs[1]))
        report = verify_certificate(bad, source)
        assert "bad_coefficients" in report.failures, proof0


def test_missing_proof_is_bad_coefficients():
    cert, source = _radon_square()
    bad = dataclasses.replace(cert, proofs=cert.proofs[:1])
    report = verify_certificate(bad, source)
    assert "bad_coefficients" in report.failures


def test_empty_part_clause():
    cert, source = _radon_square()
    parts = (cert.parts[0], PointMultiset.from_points([], dim=2))
    bad = dataclasses.replace(cert, parts=parts)
    report = verify_certificate(bad, source)
    assert "empty_part" in report.failures


def test_non_ambient_point_clause():
    source = PointMultiset.from_points([point(0, 0), point(1, 1), point(1, 0), point(0, 1)])
    parts = (
        PointMultiset.from_points([point(0, 0), point(1, 1)]),
        PointMultiset.from_points([point(1, 0), point(0, 1)]),
    )
    half = Fraction(1, 2)
    proofs = (((0, half), (1, half)), ((0, half), (1, half)))
    cert = TverbergCertificate(
        2, (half, half), parts, proofs, Lattice(2)
    )
    report = verify_certificate(cert, source)
    assert "point_not_in_ambient" in report.failures
    # same certificate over an ambient that does contain the point is fine
    amb = FiniteSet((point(0, 0), (half, half)), 2)
    ok = TverbergCertificate(2, (half, half), parts, proofs, amb)
    assert verify_certificate(ok, source).ok


def test_assemble_rejects_broken_input():
    cert, source = _radon_square()
    with pytest.raises(AssertionFailed):
        assemble_certificate(
            2, point(5, 5), cert.parts, cert.proofs, Lattice(2), source
        )
    rebuilt = assemble_certificate(
        2, cert.point, cert.parts, cert.proofs, Lattice(2), source
    )
    assert rebuilt == cert


def test_peel_by_multiplicity_routes():
    p = point(1, 1)
    pts = PointMultiset.from_points(
        [p, p, p, point(0, 0), point(2, 0), point(1, 3)]
    )
    parts = peel_by_multiplicity(pts, p, 3)
    assert parts == [singleton_part(p), singleton_part(p), pts.remove(p, 2)]
    # the rest still holds one copy of p
    assert parts[2].multiplicity(p) == 1
    # multiplicity m-1: the rest holds p in its hull only
    hull_route = PointMultiset.from_points(
        [p, p, point(0, 0), point(2, 0), point(1, 3)]
    )
    parts = peel_by_multiplicity(hull_route, p, 3)
    assert parts == [singleton_part(p), singleton_part(p), hull_route.remove(p, 2)]
    assert parts[2].multiplicity(p) == 0
    # too few copies: not this route's job
    assert peel_by_multiplicity(hull_route, p, 4) is None


def test_certify_proves_peeled_parts_by_entry_and_by_hull():
    p = point(1, 1)
    pts = PointMultiset.from_points(
        [p, p, p, point(0, 0), point(2, 0), point(1, 3)]
    )
    cert = certify(3, p, peel_by_multiplicity(pts, p, 3), Lattice(2), pts)
    # the rest still holds one copy of p, so its proof is an entry proof
    rest_index = cert.parts[2].support().index(p)
    assert cert.proofs == (((0, 1),), ((0, 1),), ((rest_index, 1),))
    hull_route = PointMultiset.from_points(
        [p, p, point(0, 0), point(2, 0), point(1, 3)]
    )
    cert = certify(3, p, peel_by_multiplicity(hull_route, p, 3), Lattice(2), hull_route)
    assert len(cert.proofs[2]) > 1
    assert cert.proofs[2] == hull_membership(p, cert.parts[2]).weights


def test_entry_proof_is_the_hull_membership_proof():
    """Weight 1 on the entry is what the membership LP returns for an
    entry: rational hulls in d = 1..4 with repeated points, and half the
    time the point is an interior entry (a positive combination of the
    others)."""
    rng = random.Random(1009)
    for i in range(2000):
        d = 1 + i % 4
        corners = [
            tuple(random_rational(rng, 4, 6) for _ in range(d))
            for _ in range(rng.randint(1, d + 3))
        ]
        entries = list(corners)
        if len(corners) > 1 and rng.random() < 0.5:
            ws = [rng.randint(1, 5) for _ in corners]
            entries.append(
                tuple(
                    sum(w * c[a] for w, c in zip(ws, corners)) / sum(ws) for a in range(d)
                )
            )
        hull = PointMultiset([(q, rng.randint(1, 3)) for q in entries], dim=d)
        q = entries[-1] if rng.random() < 0.5 else rng.choice(entries)
        cert = certify(1, q, [hull], RealSpace(d), hull)
        assert cert.proofs[0] == hull_membership(q, hull).weights, (hull, q)


def test_certify_names_a_part_that_misses_the_point():
    cert, source = _radon_square()
    # part 0 holds (0, 0) as an entry; part 1, the other diagonal, misses it
    with pytest.raises(AssertionFailed, match="part 1 .* does not hold"):
        certify(2, point(0, 0), cert.parts, Lattice(2), source)
    empty = PointMultiset((), dim=2)
    with pytest.raises(AssertionFailed, match="part 1 .* does not hold"):
        certify(2, point(1, 1), (source, empty), Lattice(2), source)


def test_an_empty_label_class_is_an_internal_fault(monkeypatch):
    """A labeling that leaves a class empty reaches certify, which names
    the empty part, instead of passing for a precondition failure."""
    hexagon = PointMultiset.from_points(
        [point(2, 0), point(1, 2), point(-1, 2), point(-2, 0), point(-1, -2), point(1, -2)]
    )
    monkeypatch.setattr(
        "tverberg.planar.radon_labeling",
        lambda order, witness: tuple((c, 0) for c in order.counts),
    )
    with pytest.raises(AssertionFailed, match=r"part 1 PointMultiset\[\] does not hold"):
        plane_tverberg(hexagon, 2, Lattice(2))


def _assert_hull_membership_proofs(cert):
    for part, proof in zip(cert.parts, cert.proofs, strict=True):
        assert proof == hull_membership(cert.point, part).weights


def test_driver_proofs_are_hull_membership_proofs(triangle_fan_set):
    """Every proof certify writes for the drivers, planar (radial and
    Helly number 3), Z^3, median and Z^j x R^k, is the membership LP's
    weights at the certified point."""
    rng = random.Random(4242)
    for _ in range(40):
        m = rng.choice([2, 3, 4])
        n = (6 if m == 2 else 4 * m - 3) + rng.randint(0, 3)
        pts = random_lattice_multiset(rng, n, 2, rng.choice([1, 3, 8]))
        _assert_hull_membership_proofs(plane_tverberg(pts, m, Lattice(2)))
    for _ in range(20):
        m = rng.choice([2, 3])
        pts = PointMultiset.from_points(
            [rng.choice(triangle_fan_set.points) for _ in range(3 * m - 2 + rng.randint(0, 2))]
        )
        _assert_hull_membership_proofs(plane_tverberg(pts, m, triangle_fan_set))
    for _ in range(4):
        pts = random_lattice_multiset(rng, 17 + rng.randint(0, 3), 3, rng.choice([2, 3]))
        _assert_hull_membership_proofs(z3_tverberg(pts, 2))
    for _ in range(20):
        m = rng.randint(2, 5)
        pts = PointMultiset.from_points(
            [point(rng.randint(-4, 4)) for _ in range(2 * m - 1 + rng.randint(0, 3))]
        )
        _assert_hull_membership_proofs(line_tverberg(pts, m, Lattice(1)))
    for j, k, size in ((1, 1, 5), (1, 2, 7), (2, 1, 9)):
        for _ in range(10):
            pts = PointMultiset.from_points(
                [
                    tuple(point(*(rng.randint(-3, 3) for _ in range(j))))
                    + tuple(random_rational(rng, 3, 4) for _ in range(k))
                    for _ in range(size)
                ]
            )
            cert, _ = product_tverberg(pts, 2, MixedLattice(j, k))
            _assert_hull_membership_proofs(cert)


def test_multiplicity_mutations_are_partition_mismatch():
    # criterion-11 style: driver certificates over Z^2, one entry of one
    # part gains or loses copies; the verifier names the clause, never raises
    rng = random.Random(12)
    for i in range(300):
        m = 2 + i % 3
        n = 6 if m == 2 else 4 * m - 3 + rng.randint(0, 2)
        source = PointMultiset.from_points(
            [point(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(n)]
        )
        cert = plane_tverberg(source, m, Lattice(2))
        k = rng.randrange(m)
        entries = list(cert.parts[k].entries)
        e = rng.randrange(len(entries))
        p, mult = entries[e]
        delta = rng.choice([d for d in (-mult, -1, 1, 2) if d != 0])
        entries[e] = (p, mult + delta)
        part = PointMultiset(entries, dim=2)
        mutated = dataclasses.replace(cert, parts=cert.parts[:k] + (part,) + cert.parts[k + 1 :])
        report = verify_certificate(mutated, source)
        assert not report.ok
        assert "partition_mismatch" in report.failures, (delta, report.failures)


def test_line_tverberg_on_z1_and_finite_lines():
    """The median construction over Z^1, 1-D finite sets and collinear
    planar finite sets, with repeated points: every certificate verifies
    at an input instance, and one instance short of 2m-1 is refused."""
    rng = random.Random(71)
    for m in range(2, 7):
        for n in range(2 * m - 2, 2 * m + 4):
            for _ in range(4):
                xs = [rng.randint(-4, 4) for _ in range(n)]
                line = PointMultiset.from_points([point(x) for x in xs])
                plane = PointMultiset.from_points([point(x, 3 - 2 * x) for x in xs])
                cases = [
                    (line, Lattice(1)),
                    (line, FiniteSet(line.support() + (point(9),), 1)),
                    (plane, FiniteSet(plane.support(), 2)),
                ]
                for pts, ambient in cases:
                    if n < 2 * m - 1:
                        with pytest.raises(PreconditionViolated):
                            line_tverberg(pts, m, ambient)
                        continue
                    cert = line_tverberg(pts, m, ambient)
                    assert verify_certificate(cert, pts).ok
                    assert cert.m == m and cert.point in pts


def test_line_tverberg_refuses_points_off_a_line():
    pts = PointMultiset.from_points([point(0, 0), point(1, 0), point(0, 1), point(2, 2), point(3, 1)])
    for ambient in (Lattice(2), FiniteSet(pts.support(), 2)):
        with pytest.raises(PreconditionViolated):
            line_tverberg(pts, 2, ambient)
    with pytest.raises(PreconditionViolated):
        line_tverberg(PointMultiset.from_points([point(Fraction(1, 2))] * 3), 2, Lattice(1))


def _row_instance(ambient, i):
    """The i-th of a fixed run of points of the ambient set."""
    if isinstance(ambient, FiniteSet):
        return ambient.points[i % len(ambient.points)]
    if isinstance(ambient, Lattice):
        return point(*((i * (3 + 2 * a)) % 7 - 3 for a in range(ambient.d)))
    j = ambient.j if isinstance(ambient, MixedLattice) else 0
    return point(*((i * (3 + 2 * a)) % 7 - 3 for a in range(j))) + tuple(
        Fraction((i * (5 + a)) % 9 - 4, 1 + a) for a in range(ambient.dim - j)
    )


# One case per DRIVERS row: (ambient, gate at m = 2, a point outside
# the set as --point writes it, or None when there is none)
_CHECK_ROWS = [
    (Lattice(1), 3, "1/2"),
    (Lattice(2), 6, "1/2,4"),
    (Lattice(3), 17, "0,-1/3,2"),
    (FiniteSet(tuple(point(Fraction(x, 2)) for x in range(-5, 6)), 1), 3, "7"),
    (FiniteSet(tuple(point(x, y) for x in range(3) for y in range(3)), 2), 6, "5,5"),
    (FiniteSet(tuple(point(*p) for p in [(0, 0), (8, 0), (0, 8), (1, 1), (2, 2), (3, 3), (4, 4)]), 2),
     4, "1,2"),
    (MixedLattice(1, 1), 5, "1/2,4"),
    (MixedLattice(2, 1), 9, "1,3/2,0"),
    (MixedLattice(3, 1), 41, "-5/3,0,0,1"),
    (RealSpace(2), 4, None),
]


@pytest.mark.parametrize(
    "ambient, gate, outside", _CHECK_ROWS, ids=[row[0].describe() for row in _CHECK_ROWS]
)
def test_every_driver_states_its_hypotheses_once(monkeypatch, ambient, gate, outside):
    """Each DRIVERS row refuses m = 1, points of another dimension, an
    instance outside the set and one instance short of its gate with
    the words of ``check_partition_input``, before any centre scan or
    partition enumeration runs."""

    def scan(*args, **kwargs):
        raise AssertionError("a scan ran before the preconditions were checked")

    for module in ("planar", "space3"):
        monkeypatch.setattr(f"tverberg.{module}.first_deep_scan", scan)
    monkeypatch.setattr("tverberg.product.iter_partition_hulls", scan)
    d = ambient.dim
    good = [_row_instance(ambient, i) for i in range(gate)]
    wide = [p + (Fraction(0),) for p in good]
    cases = [
        (good, 1, PreconditionViolated, "partitions need m >= 2"),
        (wide, 2, DimensionMismatch, f"points of dimension {d + 1} in an ambient set of dimension {d}"),
        (good[:-1], 2, PreconditionViolated, f"need at least {gate} instances for m=2, got {gate - 1}"),
    ]
    if outside is not None:
        cases.append(
            (good[:-1] + [point(*outside.split(","))], 2, PreconditionViolated,
             f"instance {outside} lies outside {ambient.describe()}")
        )
    for instances, m, error, message in cases:
        pts = PointMultiset.from_points(instances, dim=len(instances[0]))
        with pytest.raises(error) as caught:
            tverberg_partition(pts, m, ambient)
        assert type(caught.value) is error and str(caught.value) == message


def _with_part(cert, k, part, proof=None):
    proofs = cert.proofs if proof is None else cert.proofs[:k] + (proof,) + cert.proofs[k + 1 :]
    return dataclasses.replace(cert, parts=cert.parts[:k] + (part,) + cert.parts[k + 1 :], proofs=proofs)


def _mutant(rng, cert):
    """The certificate with one seeded fault of the kinds the verifier
    must name."""
    k = rng.randrange(len(cert.parts))
    part, proof = cert.parts[k], list(cert.proofs[k]) if k < len(cert.proofs) else []
    dim = len(cert.point)
    kind = rng.randrange(11)
    if kind <= 2 and proof:
        i = rng.randrange(len(proof))
        idx, w = proof[i]
        if kind == 0:  # a weight +1
            proof[i] = (idx, w + 1)
        elif kind == 1:  # a negated weight
            proof[i] = (idx, -w)
        else:  # an index out of range
            proof[i] = (rng.choice([-1, len(part.entries), len(part.entries) + 2]), w)
        return _with_part(cert, k, part, tuple(proof))
    if kind == 3 and part.entries:  # int weights
        if rng.random() < 0.5:
            proof = [(rng.randrange(len(part.entries)), 1)]
        else:
            proof = [(idx, int(w)) if w.denominator == 1 else (idx, w) for idx, w in proof]
        return _with_part(cert, k, part, tuple(proof))
    if kind == 4:  # a moved point
        a = rng.randrange(dim)
        moved = cert.point[:a] + (cert.point[a] + rng.choice([-1, 1]),) + cert.point[a + 1 :]
        return dataclasses.replace(cert, point=moved)
    if kind == 5:  # a point of another dimension
        other = cert.point + (Fraction(rng.randint(-2, 2)),) if dim == 1 or rng.random() < 0.5 else cert.point[:-1]
        return dataclasses.replace(cert, point=other)
    if kind == 6:  # a dropped part, with or without its proof
        proofs = cert.proofs[:k] + cert.proofs[k + 1 :] if rng.random() < 0.5 else cert.proofs
        return dataclasses.replace(cert, parts=cert.parts[:k] + cert.parts[k + 1 :], proofs=proofs)
    if kind == 7:  # a part of another dimension
        d = dim + 1 if dim == 1 or rng.random() < 0.5 else dim - 1
        other = PointMultiset.from_points(
            [point(*(rng.randint(-2, 2) for _ in range(d))) for _ in range(rng.randint(1, 3))]
        )
        return _with_part(cert, k, other)
    others = [j for j, q in enumerate(cert.parts) if j != k and q.dim == part.dim]
    if kind == 8 and others and part.entries:  # an entry moved between parts
        j = rng.choice(others)
        p = rng.choice(part.support())
        moved = _with_part(cert, k, part.remove(p))
        return _with_part(moved, j, cert.parts[j].add(p))
    if kind == 9:  # a duplicated part, with or without its proof
        proofs = cert.proofs + cert.proofs[k : k + 1] if rng.random() < 0.5 else cert.proofs
        return dataclasses.replace(cert, parts=cert.parts + (part,), proofs=proofs)
    # rational points: the point, or one entry of a part, off the lattice
    shift = Fraction(rng.choice([-1, 1]), rng.randint(2, 5))
    if rng.random() < 0.5 or not part.entries:
        a = rng.randrange(dim)
        return dataclasses.replace(cert, point=cert.point[:a] + (cert.point[a] + shift,) + cert.point[a + 1 :])
    p = rng.choice(part.support())
    a = rng.randrange(len(p))
    q = p[:a] + (p[a] + shift,) + p[a + 1 :]
    entries = [(q if r == p else r, mult) for r, mult in part.entries]
    return _with_part(cert, k, PointMultiset(entries, dim=part.dim))


def test_reports_match_the_reference_verifier(triangle_fan_set):
    """The integer verifier gives the Fraction reference's report, clause
    names, details and their order, on driver certificates from every
    DRIVERS row and on 5,500 seeded faults of eleven kinds, one or two
    at a time."""
    rng = random.Random(20261)
    certificates = list(driver_corpus(rng, triangle_fan_set))
    mutants = 0
    for cert, source in certificates:
        assert verify_certificate(cert, source) == reference_verify(cert, source)
        assert verify_certificate(cert, source).ok
        for _ in range(-(-5500 // len(certificates))):
            bad = _mutant(rng, cert)
            if rng.random() < 0.3:
                bad = _mutant(rng, bad)
            expected = reference_verify(bad, source)
            assert verify_certificate(bad, source) == expected, (bad, expected)
            mutants += 1
    assert mutants >= 5500


def test_verifier_names_what_has_no_integer_grid():
    """A weight, a point or an entry coordinate that is not a rational
    gets a named clause, never an exception."""
    cert, source = _radon_square()
    proofs = (((0, 0.5), (1, Fraction(1, 2))), cert.proofs[1])
    report = verify_certificate(dataclasses.replace(cert, proofs=proofs), source)
    assert report.failures == ("bad_coefficients",)
    assert report.details[0] == "part 0: weight 0.5 is not a rational"
    report = verify_certificate(dataclasses.replace(cert, point=(Fraction(1), 1.0)), source)
    assert report.failures == ("membership_mismatch",)
    assert report.details[-1] == "certified point has a coordinate that is not a rational"
    floats = PointMultiset.from_points([(0.0, 0.0), (2.0, 2.0)])
    report = verify_certificate(_with_part(cert, 0, floats), source)
    assert report.failures == ("partition_mismatch",)
    report = verify_certificate(cert, PointMultiset.from_points([(0.0, 0.0), (2.0, 2.0)]))
    assert report.failures == ("partition_mismatch",)


def test_verifier_refuses_booleans_the_document_grammar_refuses():
    """True and False are ints to Python but no document states them as
    numbers: as a proof index or a weight they are bad_coefficients, as a
    point coordinate a membership_mismatch, where the verifier once
    passed them and the written certificate then failed to read."""
    source = PointMultiset.from_points([point(0), point(1), point(2)])
    half = Fraction(1, 2)
    parts = (PointMultiset.from_points([point(1)]), PointMultiset.from_points([point(0), point(2)]))
    good = TverbergCertificate(2, point(1), parts, (((0, Fraction(1)),), ((0, half), (1, half))), Lattice(1))
    assert verify_certificate(good, source).ok
    by_index = dataclasses.replace(good, proofs=(good.proofs[0], ((True, half), (False, half))))
    report = verify_certificate(by_index, source)
    assert report.failures == ("bad_coefficients",)
    assert report.details[:2] == ("part 1: weight index True out of range", "part 1: weight index False out of range")
    by_weight = dataclasses.replace(good, proofs=(((0, True),), good.proofs[1]))
    report = verify_certificate(by_weight, source)
    assert report.failures == ("bad_coefficients",)
    assert report.details[0] == "part 0: weight True is not a rational"
    by_point = dataclasses.replace(good, point=(True,))
    report = verify_certificate(by_point, source)
    assert report.failures == ("membership_mismatch",)
    assert report.details[-1] == "certified point has a coordinate that is not a rational"


def test_verifier_refuses_boolean_entries_in_a_part():
    """A part entry whose coordinate is a bool stands on the integer grid
    as the int it equals, so it once reassembled a source holding that
    int and verified, and the written certificate then failed to read.
    Each part entry's coordinates are tested by exact type and such a
    part is a partition_mismatch that names it."""
    source = PointMultiset.from_points([point(0), point(1), point(2)])
    half = Fraction(1, 2)
    proofs = (((0, Fraction(1)),), ((0, half), (1, half)))

    def certificate(first):
        parts = (PointMultiset.from_points([first]), PointMultiset.from_points([point(0), point(2)]))
        return TverbergCertificate(2, point(1), parts, proofs, Lattice(1))

    assert verify_certificate(certificate((1,)), source).ok
    report = verify_certificate(certificate((True,)), source)
    assert report.failures == ("partition_mismatch",)
    assert report.details == ("part 0 has a coordinate that is not a rational",)


def test_verifier_refuses_boolean_entries_in_the_source():
    """A source entry whose coordinate is a bool stands on the integer
    grid as the int it equals, so parts holding that int reassembled it.
    The source's coordinates are tested by exact type too, and such a
    source is a partition_mismatch that names the source."""
    half = Fraction(1, 2)
    parts = (PointMultiset.from_points([point(1)]), PointMultiset.from_points([point(0), point(2)]))
    cert = TverbergCertificate(2, point(1), parts, (((0, Fraction(1)),), ((0, half), (1, half))), Lattice(1))
    assert verify_certificate(cert, PointMultiset.from_points([point(0), point(1), point(2)])).ok
    report = verify_certificate(cert, PointMultiset.from_points([(0,), (True,), (2,)]))
    assert report.failures == ("partition_mismatch",)
    assert report.details == ("the source has a coordinate that is not a rational",)
