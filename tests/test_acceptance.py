"""End-to-end checks of the package contract.

Each test prints one [PASS]/[FAIL] line with its wall time, visible
even under captured output.  Budgets guard the stated time limits;
tests with no stated limit only report their timing.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from tverberg.ambient import FiniteSet, Lattice, MixedLattice, RealSpace
from tverberg.certificates import verify_certificate
from tverberg.depth import halfspace_depth, integer_centerpoint
from tverberg.documents import certificate_from_doc, certificate_to_doc, dumps, loads
from tverberg.errors import BudgetExceeded
from tverberg.geometry import hull_membership
from tverberg.oracle import (
    exact_tverberg_number,
    iter_multiset_partitions,
    verify_no_partition,
)
from tverberg.planar import helly_number, plane_tverberg
from tverberg.points import PointMultiset, integer_points, point
from tverberg.product import double_witness, product_tverberg
from tverberg.selection import fraction_selection, transversal_property_verify
from tverberg.space3 import z3_tverberg
from tverberg.witnesses import doignon_witness, onn_witness

from depth_oracles import oracle_depth


@contextmanager
def criterion(capsys, num, label, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        with capsys.disabled():
            print(f"[FAIL] {num:2d}. {label} ({elapsed:.1f}s)")
        raise
    elapsed = time.monotonic() - start
    ok = budget is None or elapsed <= budget
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {num:2d}. {label} ({elapsed:.1f}s)")
    if budget is not None:
        assert elapsed <= budget, f"{elapsed:.1f}s over the {budget}s budget"


def _random_lattice(rng, n, d, box):
    return PointMultiset.from_points(
        [
            tuple(Fraction(rng.randint(-box, box)) for _ in range(d))
            for _ in range(n)
        ]
    )


def test_criterion_01_small_planar_refutation(capsys):
    with criterion(capsys, 1, "five-point planar refutation", budget=1.0):
        assert verify_no_partition(onn_witness(), 2, Lattice(2))


def test_criterion_02_three_part_refutation(capsys):
    with criterion(capsys, 2, "eight-point three-part refutation", budget=30.0):
        wit = doignon_witness(3)
        assert wit.size == 8
        assert sum(1 for _ in iter_multiset_partitions((1,) * 8, 3)) == 966
        assert verify_no_partition(wit, 3, Lattice(2))


def test_criterion_03_planar_three_part_partitions(capsys):
    with criterion(capsys, 3, "1000 planar m=3 partitions", budget=120.0):
        rng = random.Random(3)
        for _ in range(1000):
            pts = _random_lattice(rng, 9, 2, 20)
            cert = plane_tverberg(pts, 3, Lattice(2))
            assert verify_certificate(cert, pts).ok


def test_criterion_04_planar_radon_partitions(capsys):
    with criterion(capsys, 4, "1000 planar m=2 partitions", budget=120.0):
        rng = random.Random(4)
        for _ in range(1000):
            pts = _random_lattice(rng, 6, 2, 20)
            cert = plane_tverberg(pts, 2, Lattice(2))
            assert verify_certificate(cert, pts).ok
        # the matching lower side is the five-point refutation
        assert verify_no_partition(onn_witness(), 2, Lattice(2))


def test_criterion_05_square_numbers(capsys):
    with criterion(capsys, 5, "unit square Helly and exact numbers", budget=10.0):
        square = FiniteSet(
            (point(0, 0), point(0, 1), point(1, 0), point(1, 1))
        )
        assert helly_number(square).number == 4
        assert exact_tverberg_number(square, 2, 8) == 5


def test_criterion_06_finite_set_formula(capsys):
    with criterion(capsys, 6, "finite-set number formula, 20 sets"):
        rng = random.Random(6)
        compared = 0
        discrepancies = 0
        for _ in range(20):
            size = rng.randint(3, 6)
            pts = set()
            while len(pts) < size:
                pts.add(
                    (
                        Fraction(rng.randint(-4, 4)),
                        Fraction(rng.randint(-4, 4)),
                    )
                )
            amb = FiniteSet(tuple(sorted(pts)))
            expected = 2 * helly_number(amb).number + 1
            try:
                got = exact_tverberg_number(amb, 3, expected + 1, budget=200000)
            except BudgetExceeded:
                continue
            compared += 1
            if got != expected:
                discrepancies += 1
        assert compared >= 1
        assert discrepancies == 0


def test_criterion_07_space_partitions(capsys):
    with criterion(capsys, 7, "Z^3 partitions, 100 + 50 instances", budget=600.0):
        rng = random.Random(7)
        for _ in range(100):
            pts = _random_lattice(rng, 17, 3, 10)
            cert = z3_tverberg(pts, 2)
            assert verify_certificate(cert, pts).ok
        for _ in range(50):
            pts = _random_lattice(rng, 41, 3, 10)
            cert = z3_tverberg(pts, 3)
            assert verify_certificate(cert, pts).ok


def test_criterion_08_mixed_product_partitions(capsys):
    with criterion(capsys, 8, "mixed-lattice partitions at tight sizes"):
        rng = random.Random(8)
        for j in (1, 2):
            for m, k in ((2, 1), (3, 1), (2, 2)):
                t = (m - 1) * (k + 1) + 1
                size = (2 * t - 1) if j == 1 else (4 * t - 3)
                amb = MixedLattice(j, k)
                for _ in range(200):
                    rows = []
                    for _ in range(size):
                        coords = [
                            Fraction(rng.randint(-8, 8)) for _ in range(j)
                        ]
                        coords += [
                            Fraction(rng.randint(-24, 24), rng.randint(1, 6))
                            for _ in range(k)
                        ]
                        rows.append(tuple(coords))
                    pts = PointMultiset.from_points(rows)
                    cert, _ = product_tverberg(pts, m, amb)
                    assert verify_certificate(cert, pts).ok
                    assert all(c.denominator == 1 for c in cert.point[:j])
        doubled, damb = double_witness(
            PointMultiset.from_points([(Fraction(0),), (Fraction(1),)]),
            RealSpace(1),
        )
        assert damb == MixedLattice(1, 1)
        assert doubled.size == 4
        assert verify_no_partition(doubled, 2, damb)


def test_criterion_09_depth_against_oracle(capsys):
    with criterion(capsys, 9, "1000 depth queries against the oracle"):
        rng = random.Random(9)
        mismatches = 0
        for trial in range(1000):
            d = 2 if trial % 2 == 0 else 3
            pts = _random_lattice(rng, rng.randint(1, 8), d, 6)
            if trial % 3 == 0:
                q = tuple(
                    Fraction(rng.randint(-12, 12), rng.randint(1, 3))
                    for _ in range(d)
                )
            else:
                q = tuple(Fraction(rng.randint(-6, 6)) for _ in range(d))
            if halfspace_depth(q, pts).depth != oracle_depth(q, pts):
                mismatches += 1
        assert mismatches == 0


def test_criterion_10_fraction_selection(capsys):
    with criterion(capsys, 10, "clustered selection and dual agreement"):
        rng = random.Random(10)
        for _ in range(50):
            centers = [(-8, -8), (8, -8), (0, 9)]
            rows = []
            for cx, cy in centers:
                for _ in range(rng.randint(4, 10)):
                    rows.append(
                        (
                            Fraction(cx + rng.randint(-1, 1)),
                            Fraction(cy + rng.randint(-1, 1)),
                        )
                    )
            pts = PointMultiset.from_points(rows)
            n = pts.size
            q = integer_centerpoint(pts, (n - 1) // 4 + 1)
            res = fraction_selection(pts, q, n // 6)
            assert len(res.parts) == 3
            assert min(res.sizes) >= n // 6
            # the groups must be disjoint sub-multisets of the input
            merged = Counter(p for part in res.parts for p in part.instances())
            avail = Counter(pts.instances())
            assert all(merged[p] <= avail[p] for p in merged)
            for choice in itertools.product(
                *(part.support() for part in res.parts)
            ):
                ms = PointMultiset.from_points(choice, dim=2)
                assert hull_membership(q, ms) is not None
        for _ in range(50):
            pts = _random_lattice(rng, 20, 2, 9)
            inst = pts.instances()
            labels = [rng.randrange(3) for _ in inst]
            while len(set(labels)) < 3:
                labels = [rng.randrange(3) for _ in inst]
            parts = tuple(
                PointMultiset.from_points(
                    [p for p, g in zip(inst, labels) if g == grp]
                )
                for grp in range(3)
            )
            q = (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
            # "both" raises if the two routes ever disagree
            transversal_property_verify(parts, q, method="both")


def test_criterion_11_mutation_rejection(capsys):
    with criterion(capsys, 11, "10000 corrupted certificates rejected"):
        rng = random.Random(11)
        base = []
        for _ in range(60):
            m = 2 if rng.random() < 0.5 else 3
            n = 6 if m == 2 else 9
            pts = _random_lattice(rng, n, 2, 12)
            base.append((plane_tverberg(pts, m, Lattice(2)), pts))
        for i in range(10000):
            cert, source = base[i % len(base)]
            kind = i % 3
            if kind == 0:
                dx = rng.randint(-3, 3)
                dy = rng.randint(-3, 3)
                if dx == 0 and dy == 0:
                    dx = 1
                mutated = dataclasses.replace(
                    cert, point=(cert.point[0] + dx, cert.point[1] + dy)
                )
                expected = "membership_mismatch"
            elif kind == 1:
                k = rng.randrange(len(cert.parts))
                mutated = dataclasses.replace(
                    cert,
                    parts=cert.parts[:k] + cert.parts[k + 1 :],
                    proofs=cert.proofs[:k] + cert.proofs[k + 1 :],
                )
                expected = "partition_mismatch"
            else:
                k = rng.randrange(len(cert.proofs))
                proof = cert.proofs[k]
                e = rng.randrange(len(proof))
                idx, w = proof[e]
                style = i % 9 // 3
                if style == 0:
                    bad_entry = (idx, w + 1)
                elif style == 1:
                    bad_entry = (idx, -w)
                else:
                    bad_entry = (len(cert.parts[k].entries), w)
                new_proof = proof[:e] + (bad_entry,) + proof[e + 1 :]
                mutated = dataclasses.replace(
                    cert,
                    proofs=cert.proofs[:k] + (new_proof,) + cert.proofs[k + 1 :],
                )
                expected = "bad_coefficients"
            report = verify_certificate(mutated, source)
            assert not report.ok
            assert expected in report.failures
            # the written and read copy, with its parts' integer grids
            # filled by the reader, gets the same report, and each grid
            # is the one its part's points give
            copy = certificate_from_doc(loads(dumps(certificate_to_doc(mutated))))
            assert verify_certificate(copy, source) == report
            for part in copy.parts:
                scale, points = integer_points(part.support())
                assert part.integer_coordinates() == (scale, tuple(zip(*points)), points)
