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
route.  Where the answer is forced it is read off in closed form, in
ints, instead: m = 2 on d+2 distinct points whose affine dependence
mu (``linprog.generalised_cross`` of the coordinate rows and a row of
ones) has no zero entry is Radon's case (J. Radon, Math. Ann. 83,
1921), and the parts, the point and the weights all follow from the
signs and values of mu.  Likewise ``fiber_lift`` lifts a one-entry
part, and a two-entry part whose prefixes differ, without solving the
pinned system.  In each closed form that system's feasible set is a
single point, so the answer is the one the system gives; every other
input takes the enumeration and the systems.

``real_tverberg_bruteforce`` is the certified form of
``real_partition`` over R^d: ``certificates.check_partition_input`` at
the gate (m-1)(d+1)+1, then ``real_partition``, then a certificate
that carries the joint weights as proofs.  It is exponential and
meant for the small fiber counts this reduction produces, and doubles
as the reference oracle elsewhere.
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
from .linprog import generalised_cross
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
    is built.

    m = 2 on d+2 distinct points whose affine dependence has no zero
    entry is Radon's case, where the answer is forced and read off in
    closed form (``_radon_partition``); every other input is
    enumerated."""
    if m == 2 and len(points.entries) == points.dim + 2 == points.size:
        radon = _radon_partition(points)
        if radon is not None:
            return radon
    for hulls in iter_partition_hulls(points, m):
        found = polytope_intersection_point(hulls)
        if found is not None:
            return hulls, found[0], found[1]
    raise InternalError("no partition admitted a common point; the real theorem forbids this")


def _radon_partition(
    points: PointMultiset,
) -> tuple[tuple[PointMultiset, ...], Point, tuple[ConvexCoefficients, ...]] | None:
    """``real_partition``'s answer for m = 2 on d+2 distinct points p_i
    whose affine dependence mu has no zero entry, else None.

    mu is the generalised cross product of the coordinate rows and a row
    of ones (the signed maximal minors, on the multiset's integer grid,
    which scales every minor alike).  When every mu_i is nonzero the
    rows have rank d+1, so the dependences are the multiples of mu, and
    the weights (lambda, -nu) of any common point of two part hulls are
    one of them: {mu > 0} and {mu < 0} are the only parts whose hulls
    meet, and the point and the weights are forced.  The enumeration
    and the joint system would find exactly this answer, with the part
    that holds entry 0 first: with S the sum of mu over that part A,
    the point sum_A mu_i p_i / S and the weights mu_i / S on A and
    -mu_i / S on the other part."""
    scale, columns, scaled = points.integer_coordinates()
    n = len(scaled)
    mu = generalised_cross([*columns, (1,) * n], n)
    if mu is None or not all(mu):
        return None
    counts = [int((v > 0) == (mu[0] > 0)) for v in mu]
    side_a = [v for v, c in zip(mu, counts) if c]
    side_b = [-v for v, c in zip(mu, counts) if not c]
    total = sum(side_a)
    rows_a = [p for p, c in zip(scaled, counts) if c]
    point = tuple(
        [
            Fraction(sum([v * p[axis] for v, p in zip(side_a, rows_a)]), total * scale)
            for axis in range(points.dim)
        ]
    )
    parts = (points.sub_multiset(counts), points.sub_multiset([1 - c for c in counts]))
    weights = tuple(
        ConvexCoefficients([(i, Fraction(v, total)) for i, v in enumerate(side)])
        for side in (side_a, side_b)
    )
    return parts, point, weights


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
    Infeasible when the prefix misses the projected hull.  Where that
    system has one solution at most it is read off in closed form: a
    part of one entry lifts to the entry, and a part of two entries a, b
    whose prefixes differ to lam*a + (1-lam)*b, lam fixed by a prefix
    coordinate where they differ (a zero weight dropped, as the system's
    answer drops it).  Every other part is solved.
    """
    if len(prefix) >= part.dim:
        raise DimensionMismatch("prefix must be shorter than the point dimension")
    if not part.entries:
        raise Infeasible("empty part cannot be lifted")
    prefix = tuple(prefix)
    j = len(prefix)
    if len(part.entries) == 1:
        p = part.entries[0][0]
        if p[:j] != prefix:
            raise Infeasible("prefix lies outside the projected hull")
        return p, _WHOLE
    if len(part.entries) == 2:
        (a, _), (b, _) = part.entries
        axis = next((c for c in range(j) if a[c] != b[c]), None)
        if axis is not None:
            lam = Fraction(prefix[axis] - b[axis]) / (a[axis] - b[axis])
            lifted = tuple([lam * (x - y) + y for x, y in zip(a, b)])
            if not 0 <= lam <= 1 or lifted[:j] != prefix:
                raise Infeasible("prefix lies outside the projected hull")
            return lifted, ConvexCoefficients([(0, lam), (1, 1 - lam)])
    _, coeffs = convex_system((part,), prefix)
    if coeffs is None:
        raise Infeasible("prefix lies outside the projected hull")
    return coeffs[0].combination(part), coeffs[0]


# The weights of a one-entry part: all of it on entry 0.
_WHOLE = ConvexCoefficients([(0, Fraction(1))])


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
