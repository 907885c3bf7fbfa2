"""The ambient->driver table, and partitions over Z^j x R^k by lifting a
base partition.

``DRIVERS`` is the one place that says which driver serves which
ambient set and, for Z^1, Z^2 and Z^3, how many points it needs;
``tverberg_partition`` looks it up.

The reduction: to split a multiset in Z^j x R^k into m parts with a
common product point, first split the projections to Z^j into
t = (m-1)(k+1)+1 parts sharing an integer point q (the uncertified
parts of the planar or spatial driver, or the median groups on a
line).  Each base part lifts to a point of its hull with exact prefix
q; the t lifted points live in the fiber {q} x R^k, a copy of R^k,
where the classical Tverberg theorem applies: they split into m groups
with a common real point.  Merging the base parts along those groups
gives the final partition, and the common point is q extended by the
fiber point; only that final partition is certified
(``certificates.certify``).

``real_partition`` is the real theorem by brute force: partition
enumeration (``oracle.iter_partition_hulls``) plus an exact joint
feasibility system per candidate, returning the first partition's
parts, common point and joint weights and building no certificate.
The fiber step takes its parts and point, as does planar's He <= 3
route.  ``real_tverberg_bruteforce`` is its certified form over R^d:
``certificates.check_partition_input`` at the gate (m-1)(d+1)+1, then
``real_partition``, then a certificate that carries the joint weights
as proofs.  It is exponential and meant for the small fiber counts
this reduction produces, and doubles as the reference oracle elsewhere.
Every driver of the table is its gate, that check and its body.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .ambient import AmbientSet, FiniteSet, Lattice, MixedLattice, RealSpace
from .certificates import (
    TverbergCertificate,
    assemble_certificate,
    certify,
    check_partition_input,
    line_gate,
    line_tverberg,
    median_groups,
)
from .errors import (
    AssertionFailed,
    DimensionMismatch,
    Infeasible,
    InternalError,
    UnsupportedAmbient,
)
from .geometry import convex_system, polytope_intersection_point
from .oracle import iter_partition_hulls
from .planar import _radial_parts, plane_tverberg, z2_gate
from .points import ConvexCoefficients, Point, PointMultiset
from .space3 import _z3_parts, z3_gate, z3_tverberg


def real_tverberg_bruteforce(points: PointMultiset, m: int) -> TverbergCertificate:
    """First partition of (m-1)(d+1)+1 or more real points into m parts
    with intersecting hulls, fully certified.

    Existence is the classical theorem; enumeration order is canonical,
    so the result is deterministic.
    """
    return _real_certificate(points, m, RealSpace(points.dim))


def _real_certificate(points: PointMultiset, m: int, ambient: RealSpace) -> TverbergCertificate:
    """``real_tverberg_bruteforce`` over a given R^d, the R^d row: the
    check, then ``real_partition``, then a certificate carrying its
    joint weights."""
    check_partition_input(points, m, ambient, (m - 1) * (ambient.dim + 1) + 1)
    parts, point, coeffs = real_partition(points, m)
    proofs = [c.weights for c in coeffs]
    return assemble_certificate(m, point, parts, proofs, ambient, points)


def real_partition(
    points: PointMultiset, m: int
) -> tuple[tuple[PointMultiset, ...], Point, tuple[ConvexCoefficients, ...]]:
    """The first m-partition in canonical order whose part hulls meet:
    the parts, their common point and the joint weights of the system
    that found it.  The caller guarantees (m-1)(d+1)+1 or more points,
    where the real theorem says such a partition exists; no certificate
    is built."""
    for hulls in iter_partition_hulls(points, m):
        found = polytope_intersection_point(hulls)
        if found is not None:
            return hulls, found[0], found[1]
    raise InternalError("no partition admitted a common point; the real theorem forbids this")


# The one ambient->driver table, keyed by the ambient's type and
# dimension (None: every dimension without a row of its own).  A row is
# (size gate at m, where the driver has one; driver); the lambdas read
# the driver names when called, so a replaced binding is the one used.
DRIVERS = {
    (Lattice, 1): (line_gate, lambda pts, m, amb: line_tverberg(pts, m, amb)),
    (Lattice, 2): (z2_gate, lambda pts, m, amb: plane_tverberg(pts, m, amb)),
    (Lattice, 3): (z3_gate, lambda pts, m, amb: z3_tverberg(pts, m)),
    (FiniteSet, 1): (line_gate, lambda pts, m, amb: line_tverberg(pts, m, amb)),
    (FiniteSet, 2): (None, lambda pts, m, amb: plane_tverberg(pts, m, amb)),
    (MixedLattice, None): (None, lambda pts, m, amb: product_tverberg(pts, m, amb)[0]),
    (RealSpace, None): (None, lambda pts, m, amb: _real_certificate(pts, m, amb)),
}


def tverberg_partition(
    points: PointMultiset, m: int, ambient: AmbientSet
) -> TverbergCertificate:
    """A verified m-part partition by the table's driver for the ambient
    set.  Every driver is deterministic: the same input gives the same
    certificate."""
    row = DRIVERS.get((type(ambient), ambient.dim)) or DRIVERS.get((type(ambient), None))
    if row is None:
        raise UnsupportedAmbient(f"no driver for {ambient.describe()}")
    return row[1](points, m, ambient)


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


def _match_instances(
    values: list[Point], parts: Sequence[PointMultiset]
) -> list[tuple[int, ...]]:
    """Indices of values split into the parts: each part takes the lowest
    unused indices of its points."""
    pool: dict[Point, list[int]] = {}
    for i, v in enumerate(values):
        pool.setdefault(v, []).append(i)
    groups: list[tuple[int, ...]] = []
    for part in parts:
        chosen: list[int] = []
        for v, mult in part.entries:
            bucket = pool.get(v)
            if bucket is None or len(bucket) < mult:
                raise AssertionFailed("parts do not match the instances they split")
            chosen.extend(bucket[:mult])
            del bucket[:mult]
        groups.append(tuple(sorted(chosen)))
    return groups


def product_tverberg(
    points: PointMultiset, m: int, ambient: MixedLattice
) -> tuple[TverbergCertificate, LiftRecord]:
    """A verified m-part partition over Z^j x R^k, j <= 3, with the lift
    bookkeeping that produced it.

    The size gate is the Z^j row's gate at the inflated count
    t = (m-1)(k+1)+1.
    """
    j, k = ambient.j, ambient.k
    if (Lattice, j) not in DRIVERS:
        raise UnsupportedAmbient("no base driver beyond Z^3")
    t = (m - 1) * (k + 1) + 1
    check_partition_input(points, m, ambient, DRIVERS[(Lattice, j)][0](t))
    instances = points.instances()
    if j == 1:
        # Instances come in lexicographic order, so their first coordinates
        # are sorted and the median groups split the base without a search.
        groups_idx = median_groups(points.size, t)
        base_q: Point = instances[t - 1][:1]
    else:
        # The check above covers the base driver's: t >= 2, integer
        # projections, and the gate.  Only the final partition is certified.
        proj_instances = [p[:j] for p in instances]
        proj_ms = PointMultiset.from_points(proj_instances, dim=j)
        if j == 2:
            base_q, base_parts = _radial_parts(proj_ms, t, Lattice(2))
        else:
            base_q, base_parts = _z3_parts(proj_ms, t)
        groups_idx = _match_instances(proj_instances, base_parts)

    lifted: list[Point] = []
    for group in groups_idx:
        part_ms = PointMultiset.from_points([instances[i] for i in group], dim=points.dim)
        pt, _ = fiber_lift(part_ms, base_q)
        lifted.append(pt)

    fibers = [pt[j:] for pt in lifted]
    fiber_ms = PointMultiset.from_points(fibers, dim=k)
    fiber_parts, fiber_point, _ = real_partition(fiber_ms, m)
    merged_groups = _match_instances(fibers, fiber_parts)

    final_point = tuple(base_q) + tuple(fiber_point)
    parts = [
        PointMultiset.from_points(
            [instances[i] for b in group for i in groups_idx[b]], dim=points.dim
        )
        for group in merged_groups
    ]
    cert = certify(m, final_point, parts, ambient, points)
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
