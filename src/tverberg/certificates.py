"""Partition certificates and their independent verifier.

A certificate asserts that a multiset splits into m nonempty parts whose
convex hulls share a stated point of the ambient set, and carries one
set of convex weights per part as proof.  The verifier re-derives every
claim from scratch; in particular the proof weights are revalidated
here, so corrupted certificates read back from disk are still caught.

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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .ambient import AmbientSet
from .errors import AssertionFailed
from .geometry import hull_membership
from .points import Point, PointMultiset, add, scale

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

    def part_sizes(self) -> tuple[int, ...]:
        return tuple(part.size for part in self.parts)


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    failures: tuple[str, ...]
    details: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _multiset_union(parts: Sequence[PointMultiset], dim: int) -> PointMultiset:
    acc: dict[Point, int] = {}
    for part in parts:
        for p, mult in part.entries:
            acc[p] = acc.get(p, 0) + mult
    return PointMultiset(acc.items(), dim=dim)


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
    if not misfits and _multiset_union(cert.parts, source.dim) != source:
        fail("partition_mismatch", "parts do not reassemble the source multiset")
    for k, part in enumerate(cert.parts):
        if part.size == 0:
            fail("empty_part", f"part {k} is empty")
    for k in range(min(len(cert.parts), len(cert.proofs))):
        part, proof = cert.parts[k], cert.proofs[k]
        bad = False
        total = Fraction(0)
        for idx, w in proof:
            if not (0 <= idx < len(part.entries)):
                fail("bad_coefficients", f"part {k}: weight index {idx} out of range")
                bad = True
                continue
            if w < 0:
                fail("bad_coefficients", f"part {k}: negative weight {w}")
                bad = True
            total += w
        if total != 1:
            fail("bad_coefficients", f"part {k}: weights sum to {total}")
            bad = True
        if bad or part.size == 0 or part.dim != source.dim:
            continue
        combo = tuple(Fraction(0) for _ in range(source.dim))
        for idx, w in proof:
            combo = add(combo, scale(w, part.entries[idx][0]))
        if combo != cert.point:
            fail("membership_mismatch", f"part {k}: weights combine to a different point")
    if len(cert.point) != source.dim:
        fail("membership_mismatch", "certified point has the wrong dimension")
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


def weights_of(coeffs) -> RawWeights:
    """Raw (index, weight) pairs of validated convex coefficients."""
    return tuple(coeffs.weights)


def singleton_part(p: Point) -> PointMultiset:
    return PointMultiset(((p, 1),), dim=len(p))


def entry_index(part: PointMultiset, p: Point) -> int:
    for i, (q, _) in enumerate(part.entries):
        if q == p:
            return i
    raise AssertionFailed("expected point missing from part")


def peel_by_multiplicity(
    points: PointMultiset, p: Point, m: int
) -> tuple[list[PointMultiset], list[RawWeights]] | None:
    """m-1 singleton copies of p plus the rest, when p occurs >= m-1 times.

    The rest must still capture p in its hull; any caller relies on p
    having depth >= m, which guarantees exactly that.  Returns None when
    the multiplicity is too low for this route.
    """
    mu = points.multiplicity(p)
    if mu < m - 1:
        return None
    parts = [singleton_part(p) for _ in range(m - 1)]
    rest = points.remove(p, m - 1)
    proofs: list[RawWeights] = [((0, Fraction(1)),) for _ in range(m - 1)]
    if mu >= m:
        proofs.append(((entry_index(rest, p), Fraction(1)),))
    else:
        coeffs = hull_membership(p, rest)
        if coeffs is None:
            raise AssertionFailed(
                "depth at least m guarantees the last part captures the point"
            )
        proofs.append(weights_of(coeffs))
    parts.append(rest)
    return parts, proofs
