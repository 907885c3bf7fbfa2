from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from tverberg.ambient import FiniteSet, Lattice
from tverberg.certificates import (
    TverbergCertificate,
    assemble_certificate,
    line_tverberg,
    peel_by_multiplicity,
    singleton_part,
    verify_certificate,
)
from tverberg.errors import AssertionFailed, PreconditionViolated
from tverberg.planar import plane_tverberg
from tverberg.points import PointMultiset, point


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
    peeled = peel_by_multiplicity(pts, p, 3)
    assert peeled is not None
    parts, proofs = peeled
    assert len(parts) == 3 and len(proofs) == 3
    assert parts[0] == singleton_part(p) and parts[1] == singleton_part(p)
    # rest still holds one copy of p, so its proof is a vertex proof
    assert parts[2].multiplicity(p) == 1
    # multiplicity m-1 with p inside the rest's hull takes the hull route
    hull_route = PointMultiset.from_points(
        [p, p, point(0, 0), point(2, 0), point(1, 3)]
    )
    peeled = peel_by_multiplicity(hull_route, p, 3)
    assert peeled is not None
    parts, proofs = peeled
    assert parts[2].multiplicity(p) == 0
    assert len(proofs[2]) > 1
    # too few copies: not this route's job
    assert peel_by_multiplicity(hull_route, p, 4) is None


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
