"""Partition certificates and their independent verifier.

A certificate asserts that a multiset splits into m nonempty parts whose
convex hulls share a stated point of the ambient set, and carries one
set of convex weights per part as proof.  The verifier re-derives every
claim from scratch; in particular the proof weights are revalidated
here, so corrupted certificates read back from disk are still caught.

The checks run in ints.  The parts reassemble the source when their
entries, counted in one dict keyed by their points on the source's
integer grid (``points.integer_points``), give the source's
multiplicities.  A proof combines to the point when, with L the lcm of
its weights' denominators and s the part's scale, the sum of (w*L)
times the part's integer points (``PointMultiset.integer_coordinates``)
equals point*s*L in every coordinate, compared by cross-multiplying
with the point's denominators.  A part that ``certify`` proved by
``hull_membership``, or that ``documents`` read, already holds its
integer points; the source's are computed and not kept.  An input with
no place on an integer grid (a weight, a point or an entry coordinate
that is not an int or a Fraction) gets a named clause like any other
fault.  Indices, weights, point coordinates and the coordinates of
every part entry are tested by exact type, so a bool, which no
document can state as a number, is refused.

``check_partition_input`` states once the hypotheses of every driver:
m >= 2, the ambient's dimension, every instance in the set, and the
driver's gate.  ``certify`` is the one proof writer.  Every driver hands
it the parts it built and their common point; it writes each part's
proof and calls ``assemble_certificate`` once, so each answer is built
and verified once, whatever inner partitions the driver went through.
Only the real brute force in ``product`` hands its joint LP weights to
``assemble_certificate`` itself.  ``median_cut`` is the median
construction on a line by count, shared by ``median_certificate`` (the
driver of Z^1 and of 1-D finite sets) and the Z^1 base of
``product.product_tverberg``.

Failures are reported as clause names so callers can tell what broke:

  partition_mismatch   parts do not reassemble the source multiset,
                       or their number differs from m
  empty_part           a part carries no instances
  bad_coefficients     weights negative, not summing to one, or indexing
                       outside the part
  membership_mismatch  weights do not combine to the certified point
  point_not_in_ambient the certified point is outside the ambient set
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterable, Sequence

from .ambient import AmbientSet
from .errors import AssertionFailed, DimensionMismatch, PreconditionViolated
from .geometry import hull_membership
from .points import Point, PointMultiset, format_rational, integer_points, integer_weights, sub

RawWeights = tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class TverbergCertificate:
    """An m-part partition of a multiset with a common hull point.

    ``proofs[i]`` lists (entry index into parts[i].entries, weight)
    pairs; weights are stored raw and only judged by the verifier.
    """

    m: int
    point: Point
    parts: tuple[PointMultiset, ...]
    proofs: tuple[RawWeights, ...]
    ambient: AmbientSet


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    failures: tuple[str, ...]
    details: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


# what reading a coordinate that is not an int or a Fraction raises
_NO_GRID = (AttributeError, TypeError)


def _reassembles(parts: Sequence[PointMultiset], source: PointMultiset) -> bool:
    """Whether the parts' instances are the source's, counted in one dict
    keyed by their points on the source's integer grid.  A part whose
    scale does not divide the source's holds a point the source lacks.
    The source's grid is not kept on it: its owner may keep the source
    long after the check."""
    try:
        scale, points = integer_points(source.support())
        counts: dict[tuple[int, ...], int] = {}
        for part in parts:
            own, _, keys = part.integer_coordinates()
            if scale % own:
                return False
            grow = scale // own
            for key, (_, mult) in zip(keys, part.entries):
                if grow != 1:
                    key = tuple([x * grow for x in key])
                counts[key] = counts.get(key, 0) + mult
    except _NO_GRID:
        return False
    return counts == dict(zip(points, [mult for _, mult in source.entries]))


# The exact types of a rational value: a bool, which documents cannot
# state as a number, is not one.
_RATIONAL_TYPES = frozenset({Fraction, int})


def verify_certificate(
    cert: TverbergCertificate, source: PointMultiset
) -> VerificationReport:
    """Judge a certificate against the multiset it claims to partition."""
    failures: list[str] = []
    details: list[str] = []

    def fail(clause: str, detail: str) -> None:
        if clause not in failures:
            failures.append(clause)
        details.append(detail)

    if len(cert.parts) != cert.m:
        fail("partition_mismatch", f"{len(cert.parts)} parts against m={cert.m}")
    if len(cert.proofs) != len(cert.parts):
        fail("bad_coefficients", f"{len(cert.proofs)} proofs for {len(cert.parts)} parts")
    misfits = [k for k, part in enumerate(cert.parts) if part.dim != source.dim]
    for k in misfits:
        fail("partition_mismatch", f"part {k} has dimension {cert.parts[k].dim}, source {source.dim}")
    for k, part in enumerate(cert.parts):
        if not {type(x) for p, _ in part.entries for x in p} <= _RATIONAL_TYPES:
            fail("partition_mismatch", f"part {k} has a coordinate that is not a rational")
    if not {type(x) for p, _ in source.entries for x in p} <= _RATIONAL_TYPES:
        fail("partition_mismatch", "the source has a coordinate that is not a rational")
    if not misfits and not _reassembles(cert.parts, source):
        fail("partition_mismatch", "parts do not reassemble the source multiset")
    for k, part in enumerate(cert.parts):
        if not part.entries:
            fail("empty_part", f"part {k} is empty")
    rational_point = {type(x) for x in cert.point} <= _RATIONAL_TYPES
    # the point's (numerator, denominator) per coordinate, when a proof can combine to it
    target = (
        [(x.numerator, x.denominator) for x in cert.point]
        if rational_point and len(cert.point) == source.dim
        else None
    )
    for k in range(min(len(cert.parts), len(cert.proofs))):
        part, proof = cert.parts[k], cert.proofs[k]
        size = len(part.entries)
        bad = False
        terms = []
        for idx, w in proof:
            if type(idx) is not int or not 0 <= idx < size:
                fail("bad_coefficients", f"part {k}: weight index {idx} out of range")
                bad = True
                continue
            if type(w) not in _RATIONAL_TYPES:
                fail("bad_coefficients", f"part {k}: weight {w!r} is not a rational")
                bad = True
                continue
            if w.numerator < 0:
                fail("bad_coefficients", f"part {k}: negative weight {w}")
                bad = True
            terms.append((idx, w))
        common, scaled = integer_weights(terms)
        total = sum([c for _, c in scaled])
        if total != common:
            fail("bad_coefficients", f"part {k}: weights sum to {Fraction(total, common)}")
            bad = True
        if bad or not size or part.dim != source.dim:
            continue
        try:
            scale, columns, _ = part.integer_coordinates()
        except _NO_GRID:
            continue
        # sum (w*common) P_j = point * scale * common, cross-multiplied
        # by the point's denominators
        whole = scale * common
        if target is None or any(
            sum([c * column[idx] for idx, c in scaled]) * den != num * whole
            for column, (num, den) in zip(columns, target)
        ):
            fail("membership_mismatch", f"part {k}: weights combine to a different point")
    if len(cert.point) != source.dim:
        fail("membership_mismatch", "certified point has the wrong dimension")
    elif not rational_point:
        fail("membership_mismatch", "certified point has a coordinate that is not a rational")
    elif not cert.ambient.contains(cert.point):
        fail("point_not_in_ambient", f"certified point lies outside {cert.ambient.describe()}")
    return VerificationReport(not failures, tuple(failures), tuple(details))


def assemble_certificate(
    m: int,
    point: Point,
    parts: Sequence[PointMultiset],
    proofs: Iterable[RawWeights],
    ambient: AmbientSet,
    source: PointMultiset,
) -> TverbergCertificate:
    """Build a certificate and insist it verifies against its source."""
    cert = TverbergCertificate(m, point, tuple(parts), tuple(proofs), ambient)
    report = verify_certificate(cert, source)
    if not report.ok:
        raise AssertionFailed(
            "constructed certificate failed verification: "
            + "; ".join(report.details)
        )
    return cert


def certify(
    m: int,
    point: Point,
    parts: Sequence[PointMultiset],
    ambient: AmbientSet,
    source: PointMultiset,
) -> TverbergCertificate:
    """The verified certificate that the parts all hold the point: the
    one proof writer of the drivers.

    A part with the point as an entry is proved by weight 1 on that
    entry; any other part by its ``hull_membership`` weights.  A part
    with no weights (it misses the point, or is empty) is an internal
    fault and raises AssertionFailed naming it.
    """
    proofs: list[RawWeights] = []
    for k, part in enumerate(parts):
        index = next((i for i, (p, _) in enumerate(part.entries) if p == point), None)
        if index is not None:
            proofs.append(((index, Fraction(1)),))
            continue
        coeffs = hull_membership(point, part)
        if coeffs is None:
            raise AssertionFailed(f"part {k} {part!r} does not hold {point}")
        proofs.append(coeffs.weights)
    return assemble_certificate(m, point, parts, proofs, ambient, source)


def check_partition_input(
    points: PointMultiset, m: int, ambient: AmbientSet, needed: int
) -> None:
    """The hypotheses every partition driver shares, in this order: m >= 2
    parts, points of the ambient set's dimension, every instance in the
    set (``ambient.contains``), and at least ``needed`` instances, the
    driver's gate at m.  Each driver picks its gate, calls this, and runs
    its body."""
    if m < 2:
        raise PreconditionViolated("partitions need m >= 2")
    if points.dim != ambient.dim:
        raise DimensionMismatch(
            f"points of dimension {points.dim} in an ambient set of dimension {ambient.dim}"
        )
    for p, _ in points.entries:
        if not ambient.contains(p):
            raise PreconditionViolated(
                f"instance {','.join(map(format_rational, p))} lies outside {ambient.describe()}"
            )
    if points.size < needed:
        raise PreconditionViolated(f"need at least {needed} instances for m={m}, got {points.size}")


def singleton_part(p: Point) -> PointMultiset:
    return PointMultiset(((p, 1),), dim=len(p))


def peel_by_multiplicity(
    points: PointMultiset, p: Point, m: int
) -> list[PointMultiset] | None:
    """m-1 singleton copies of p plus the rest, when p occurs >= m-1 times.

    The rest holds p in its hull whenever p has depth >= m, which any
    caller guarantees.  Returns None when the multiplicity is too low
    for this route.
    """
    if points.multiplicity(p) < m - 1:
        return None
    return [singleton_part(p) for _ in range(m - 1)] + [points.remove(p, m - 1)]


def line_gate(m: int) -> int:
    """Instances the median construction needs for m parts."""
    return 2 * m - 1


def median_cut(points: PointMultiset, t: int) -> tuple[Point, list[tuple[int, int]], list[int]]:
    """The median construction on n >= 2t-1 instances in lexicographic
    order along a line, by count: instance t-1, the entries (a, b)
    holding instances i and n-1-i for each i < t-1, and the count vector
    (a count per entry) of the middle run t-1 .. n-t.  Each pair and the
    run hold instance t-1 in their hulls.  Instance i is found by
    bisecting the cumulative multiplicities, and the run is cut per
    entry, so no instance is listed."""
    ends = list(itertools.accumulate(mult for _, mult in points.entries))
    n, at = ends[-1], partial(bisect_right, ends)
    middle = [
        max(0, min(end, n - t + 1) - max(end - mult, t - 1))
        for end, (_, mult) in zip(ends, points.entries)
    ]
    return points.entries[at(t - 1)][0], [(at(i), at(n - 1 - i)) for i in range(t - 1)], middle


def line_tverberg(
    points: PointMultiset, m: int, ambient: AmbientSet
) -> TverbergCertificate:
    """A verified m-part partition of at least 2m-1 collinear instances by
    the median groups: lexicographic order runs along the line, and the
    median instance is their common point in the ambient set.  The driver
    of Z^1, of 1-D finite sets and of planar ones of Helly number 2.
    """
    check_partition_input(points, m, ambient, line_gate(m))
    first = points.entries[0][0]
    u = sub(points.entries[-1][0], first)
    for p, _ in points.entries:
        w = sub(p, first)
        if any(u[a] * w[b] != u[b] * w[a] for a in range(points.dim) for b in range(a)):
            raise PreconditionViolated("the median construction needs collinear instances")
    return median_certificate(points, m, ambient)


def median_certificate(
    points: PointMultiset, m: int, ambient: AmbientSet
) -> TverbergCertificate:
    """The median groups of ``line_tverberg`` (``median_cut``) with their
    certificate, for a caller that has already checked what it checks:
    m >= 2, at least 2m-1 collinear instances, every one of them in the
    ambient set."""
    centre, pairs, middle = median_cut(points, m)
    support = points.support()
    parts = [PointMultiset([(support[a], 1), (support[b], 1)], dim=points.dim) for a, b in pairs]
    return certify(m, centre, [*parts, points.sub_multiset(middle)], ambient, points)
