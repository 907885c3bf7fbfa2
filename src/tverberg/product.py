"""Partitions over product spaces Z^j x R^k by lifting a base partition.

The reduction: to split a multiset in Z^j x R^k into m parts with a
common product point, first split the projections to Z^j into
t = (m-1)(k+1)+1 parts sharing an integer point q (the planar or
spatial driver, or the median construction on a line).  Each base part
lifts to a point of its hull with exact prefix q; the t lifted points
live in the fiber {q} x R^k, a copy of R^k, where the classical
Tverberg theorem applies: they split into m groups with a common real
point.  Merging the base parts along those groups gives the final
partition, and the common point is q extended by the fiber point.

``real_tverberg_bruteforce`` here is the certified form of the real
theorem: partition enumeration plus an exact joint feasibility system
per candidate.  It is exponential and meant for the small fiber counts
this reduction produces, and doubles as the reference oracle elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ambient import Lattice, MixedLattice, RealSpace
from .certificates import (
    RawWeights,
    TverbergCertificate,
    assemble_certificate,
    weights_of,
)
from .errors import (
    AssertionFailed,
    DimensionMismatch,
    Infeasible,
    InternalError,
    PreconditionViolated,
    UnsupportedAmbient,
)
from .geometry import convex_system, hull_membership, polytope_intersection_point
from .oracle import iter_multiset_partitions
from .planar import plane_tverberg
from .points import ConvexCoefficients, Point, PointMultiset
from .space3 import z3_tverberg


def real_tverberg_bruteforce(points: PointMultiset, m: int) -> TverbergCertificate:
    """First partition of (m-1)(d+1)+1 or more real points into m parts
    with intersecting hulls, fully certified.

    Existence is the classical theorem; enumeration order is canonical,
    so the result is deterministic.
    """
    if m < 1:
        raise PreconditionViolated("need at least one part")
    d = points.dim
    n = points.size
    needed = (m - 1) * (d + 1) + 1
    if n < needed:
        raise PreconditionViolated(f"need at least {needed} points for m={m} in R^{d}, got {n}")
    support = points.support()
    counts = tuple(mult for _, mult in points.entries)
    for parts in iter_multiset_partitions(counts, m):
        hulls = [
            PointMultiset(((support[i], c) for i, c in enumerate(vec) if c), dim=d)
            for vec in parts
        ]
        found = polytope_intersection_point(hulls)
        if found is None:
            continue
        point, coeffs = found
        proofs = [weights_of(c) for c in coeffs]
        return assemble_certificate(m, point, hulls, proofs, RealSpace(d), points)
    raise InternalError("no partition admitted a common point; the real theorem forbids this")


@dataclass(frozen=True)
class LiftRecord:
    """How a base partition climbed back to the product space.

    ``lifted[b]`` is the point of part b's hull with prefix equal to the
    base point; ``groups[g]`` lists the base part indices merged into
    final part g.
    """

    base_point: Point
    lifted: tuple[Point, ...]
    groups: tuple[tuple[int, ...], ...]


def fiber_lift(
    part: PointMultiset, prefix: Point
) -> tuple[Point, ConvexCoefficients]:
    """A hull point of the part whose leading coordinates equal prefix.

    Solves the convex-combination system with the prefix pinned; raises
    Infeasible when the prefix misses the projected hull.
    """
    if len(prefix) >= part.dim:
        raise DimensionMismatch("prefix must be shorter than the point dimension")
    if not part.entries:
        raise Infeasible("empty part cannot be lifted")
    _, coeffs = convex_system((part,), prefix)
    if coeffs is None:
        raise Infeasible("prefix lies outside the projected hull")
    return coeffs[0].combination(part), coeffs[0]


def _line_base(
    instances: list[Point], t: int
) -> tuple[tuple[int, ...], list[list[int]]]:
    """Median construction on the first coordinate: t nested parts."""
    n = len(instances)
    order = sorted(range(n), key=lambda i: (instances[i][0], instances[i]))
    q = instances[order[t - 1]][0]
    groups: list[list[int]] = []
    for i in range(t - 1):
        groups.append([order[i], order[n - 1 - i]])
    groups.append(order[t - 1 : n - t + 1])
    return (int(q),), groups


def _match_projected_parts(
    proj_instances: list[Point], base_parts: tuple[PointMultiset, ...]
) -> list[list[int]]:
    """Assign instance indices to base parts matching projected multiplicities."""
    pool: dict[Point, list[int]] = {}
    for i, pp in enumerate(proj_instances):
        pool.setdefault(pp, []).append(i)
    groups: list[list[int]] = []
    for part in base_parts:
        chosen: list[int] = []
        for pp, mult in part.entries:
            bucket = pool.get(pp)
            if bucket is None or len(bucket) < mult:
                raise AssertionFailed("projected parts do not match the projected multiset")
            chosen.extend(bucket[:mult])
            del bucket[:mult]
        chosen.sort()
        groups.append(chosen)
    return groups


def product_tverberg(
    points: PointMultiset, m: int, ambient: MixedLattice, seed: int = 0
) -> tuple[TverbergCertificate, LiftRecord]:
    """A verified m-part partition over Z^j x R^k, j <= 3, with the lift
    bookkeeping that produced it.

    Size gates come from the base drivers at the inflated count
    t = (m-1)(k+1)+1: 2t-1 on a line, 4t-3 in the plane, 24t-31 in space.
    """
    if m < 2:
        raise PreconditionViolated("partitions need m >= 2")
    if points.dim != ambient.dim:
        raise DimensionMismatch("multiset dimension differs from the ambient product")
    for p, _ in points.entries:
        if not ambient.contains(p):
            raise PreconditionViolated(f"instance {p} has a non-integer leading block")
    j, k = ambient.j, ambient.k
    if j > 3:
        raise UnsupportedAmbient("no base driver beyond Z^3")
    t = (m - 1) * (k + 1) + 1
    n = points.size
    gates = {1: 2 * t - 1, 2: 4 * t - 3, 3: 24 * t - 31}
    if n < gates[j]:
        raise PreconditionViolated(
            f"need at least {gates[j]} instances for m={m} over {ambient.describe()}, got {n}"
        )
    instances = points.instances()
    proj_instances = [p[:j] for p in instances]

    if j == 1:
        base_point, groups_idx = _line_base(instances, t)
        base_q: Point = (Fraction(base_point[0]),)
    else:
        proj_ms = PointMultiset.from_points(proj_instances, dim=j)
        if j == 2:
            base_cert = plane_tverberg(proj_ms, t, Lattice(2))
        else:
            base_cert = z3_tverberg(proj_ms, t, seed=seed)
        base_q = base_cert.point
        groups_idx = _match_projected_parts(proj_instances, base_cert.parts)

    lifted: list[Point] = []
    for group in groups_idx:
        part_ms = PointMultiset.from_points([instances[i] for i in group], dim=points.dim)
        pt, _ = fiber_lift(part_ms, base_q)
        lifted.append(pt)

    fibers = [pt[j:] for pt in lifted]
    fiber_ms = PointMultiset.from_points(fibers, dim=k)
    fiber_cert = real_tverberg_bruteforce(fiber_ms, m)
    fiber_point = fiber_cert.point

    pool: dict[Point, list[int]] = {}
    for b, f in enumerate(fibers):
        pool.setdefault(f, []).append(b)
    merged_groups: list[tuple[int, ...]] = []
    for part in fiber_cert.parts:
        chosen: list[int] = []
        for f, mult in part.entries:
            bucket = pool.get(f)
            if bucket is None or len(bucket) < mult:
                raise AssertionFailed("fiber parts do not match the lifted points")
            chosen.extend(bucket[:mult])
            del bucket[:mult]
        chosen.sort()
        merged_groups.append(tuple(chosen))

    final_point = tuple(base_q) + tuple(fiber_point)
    parts: list[PointMultiset] = []
    proofs: list[RawWeights] = []
    for group in merged_groups:
        members: list[Point] = []
        for b in group:
            members.extend(instances[i] for i in groups_idx[b])
        part_ms = PointMultiset.from_points(members, dim=points.dim)
        coeffs = hull_membership(final_point, part_ms)
        if coeffs is None:
            raise AssertionFailed("merged part lost the lifted common point")
        parts.append(part_ms)
        proofs.append(weights_of(coeffs))
    cert = assemble_certificate(m, final_point, parts, proofs, ambient, points)
    record = LiftRecord(base_q, tuple(lifted), tuple(merged_groups))
    return cert, record


def double_witness(
    points: PointMultiset, ambient
) -> tuple[PointMultiset, MixedLattice | Lattice]:
    """The doubled multiset A x {0,1} with its doubled ambient space.

    The new coordinate goes at the end of the integer block (for Z^d the
    end, for Z^j x R^k after position j, for R^d the front, making the
    result Z^1 x R^d).  Doubling preserves refutations: a partition of
    the double collapses to one of A, so Tverberg numbers only grow.
    """
    entries = []
    if isinstance(ambient, Lattice):
        pos = ambient.d
        doubled_ambient: MixedLattice | Lattice = Lattice(ambient.d + 1)
    elif isinstance(ambient, MixedLattice):
        pos = ambient.j
        doubled_ambient = MixedLattice(ambient.j + 1, ambient.k)
    elif isinstance(ambient, RealSpace):
        pos = 0
        doubled_ambient = MixedLattice(1, ambient.d)
    else:
        raise UnsupportedAmbient(f"cannot double {ambient.describe()}")
    if points.dim != ambient.dim:
        raise DimensionMismatch("multiset dimension differs from the ambient space")
    for p, mult in points.entries:
        for level in (Fraction(0), Fraction(1)):
            entries.append((p[:pos] + (level,) + p[pos:], mult))
    return PointMultiset(entries, dim=points.dim + 1), doubled_ambient
