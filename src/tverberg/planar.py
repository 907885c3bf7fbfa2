"""Planar discrete partitions around a deep point.

The Z^2 driver finds an integer point p of half-space depth >= m, peels
off copies of p sitting in the multiset, and labels the remaining
instances in radial order around p so that every label class captures p
in its hull.  The order holds one run per entry: copies tie in
direction and distance, so the instance order is the runs expanded.
Two labelings cover all remaining cases.  Each writes its labels as
segments (length, pattern), the pattern repeated over length sweep
positions, and one walk (``_count_labels``) gives each run its count of
every label, taking whole periods at once.  The driver cuts the label
classes by those counts and hands every part to
``certificates.certify``, which writes the proofs (a class that missed
p would be an internal fault, exit 4):

* ``tverberg_labeling`` (m >= 3): with n = qm + r, 0 <= r < q, and
  e = ceil(r/q), instances in clockwise order receive blocks 1..m
  separated by filler gaps 1..g (g <= e).  When p is deep (depth >=
  m + e) any placement of the r fillers works and the gaps are packed
  greedily from the front.  Otherwise p is shallow: a minimising open
  half-plane misses the long closed arc x_1..x_l (l >= 2m) and the
  labeling starts inside that arc with the shifted prefix r+1..m, 1..r,
  then continues 1..m cyclically.

* ``radon_labeling`` (m = 2): alternation for even n; for odd n either
  the doubled start 1,1,2,1,2,... (depth >= 3) or the arc-anchored
  2,1,1,2,1,2,... (depth exactly 2).

The radial order is decided in ints: every entry's difference from the
centre is taken on one integer grid for the entries and the centre
(``points.integer_points``), so directions are gcd-reduced int vectors
and squared distances are ints, and the clockwise sweep
(``points.clockwise_key``) compares them by integer signs alone.  A
shallow labeling's sweep from the witness boundary, which passes
through the centre, is a rotation of the runs (``_arc_positions``).

``plane_tverberg`` picks its gate, ``z2_gate`` or, over a finite set,
``finite_gate`` at the set's Helly number, and hands it to
``certificates.check_partition_input``.  Over a finite set, He = 2 is a
collinear set, split by the median groups of ``line_tverberg``; He <= 3
otherwise reduces to a real partition (``product.real_partition``, its
parts only) whose intersection polygon has its lexicographically least
vertex inside the set, and He >= 4 admits a set-valued centerpoint
deep enough for the radial machinery above.  ``helly3_tverberg`` is
the refusal of He > 3 followed by ``plane_tverberg``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .ambient import AmbientSet, FiniteSet, Lattice
from .certificates import (
    TverbergCertificate,
    certify,
    check_partition_input,
    median_certificate,
    peel_by_multiplicity,
    singleton_part,
)
from .depth import DepthWitness, first_deep_scan, recounted_witness
from .errors import (
    AssertionFailed,
    DimensionMismatch,
    InputError,
    PreconditionViolated,
    UnsupportedAmbient,
)
from .geometry import in_hull, iter_common_ambient_points
from .points import (
    Point,
    PointMultiset,
    clockwise_key,
    integer_points,
)


@dataclass(frozen=True)
class RadialOrder:
    """A planar multiset in clockwise order around a center, one run per
    entry: ``counts[k]`` copies of entry ``entry_indices[k]`` in primitive
    direction ``directions[k]``.

    The sweep starts at the lexicographically least direction present;
    runs on a common ray are ordered by distance.
    """

    center: Point
    directions: tuple[tuple[int, int], ...]
    entry_indices: tuple[int, ...]
    counts: tuple[int, ...]


def radial_order(
    points: PointMultiset, center: Point, grid: Sequence[tuple[int, ...]] | None = None
) -> RadialOrder:
    """Clockwise radial order of the entries around the center.  grid,
    the entries and then the center on one integer grid (the lcm of all
    their denominators, ``points.integer_points``), is computed when not
    given."""
    if points.dim != 2:
        raise DimensionMismatch("radial order is a planar notion")
    if len(center) != 2:
        raise DimensionMismatch("center must be planar")
    if points.size == 0:
        raise InputError("cannot order an empty multiset")
    if grid is None:
        _, grid = integer_points(points.support() + (center,))
    # A difference on the grid is a positive multiple of the rational one.
    cx, cy = grid[-1]
    runs = []
    for i, ((_, mult), (x, y)) in enumerate(zip(points.entries, grid)):
        vx, vy = x - cx, y - cy
        if vx == 0 and vy == 0:
            raise PreconditionViolated("radial order needs the center outside the multiset")
        g = gcd(vx, vy)
        runs.append(((vx // g, vy // g), vx * vx + vy * vy, i, mult))
    runs.sort(key=clockwise_key(min(r[0] for r in runs)))
    directions, _, entry_indices, counts = zip(*runs)
    return RadialOrder(center, directions, entry_indices, counts)


def _arc_positions(order: RadialOrder, witness: DepthWitness) -> tuple[int, int]:
    """The run a sweep from the witness boundary starts at, and the closed
    complement arc's length in instances.

    The boundary of the witness half-plane passes through the center;
    sweeping clockwise from the entry ray w0 = (n_y, -n_x) lists the
    closed complement arc first.  The order is already one clockwise
    turn, so the sweep from w0 is its rotation to the first run of least
    clockwise key from w0 (``clockwise_key``), found in one pass of
    integer cross and dot signs against w0.  A run is on the closed
    complement side exactly when n . direction <= 0, in ints.
    """
    nx, ny = witness.halfspace.normal
    directions = order.directions
    start, least = 0, None
    for k, (dx, dy) in enumerate(directions):
        # the half-turn bucket of clockwise_key((ny, -nx)), whose cross
        # product with d is n . d; inside a bucket d comes first when the
        # least so far is clockwise of it
        c = nx * dx + ny * dy
        bucket = (1 if c < 0 else 3) if c else (0 if ny * dx - nx * dy > 0 else 2)
        if least is None or bucket < least[0] or (
            bucket == least[0] and dx * least[2] - dy * least[1] < 0
        ):
            start, least = k, (bucket, dx, dy)
    on_arc = [nx * dx + ny * dy <= 0 for dx, dy in directions[start:] + directions[:start]]
    # The closed complement side occupies exactly the first runs swept.
    if on_arc != sorted(on_arc, reverse=True):
        raise AssertionFailed("arc extraction out of order")
    counts = order.counts[start:] + order.counts[:start]
    return start, sum(c for c, on in zip(counts, on_arc) if on)


def _count_labels(
    order: RadialOrder, start: int, segments: Sequence[tuple[int, tuple[int, ...]]], m: int
) -> tuple[tuple[int, ...], ...]:
    """Each run's count of labels 1..m when the sweep from run start is
    labeled by the segments (length, pattern) in turn.  A run takes whole
    periods of a segment at once and labels the rest one by one."""
    counts = order.counts
    if sum(length for length, _ in segments) != sum(counts):
        raise AssertionFailed("labeling did not exhaust the sequence")
    segments = iter(segments)
    left = 0
    # tallies[label][k], label 0 unused
    tallies = [[0] * len(counts) for _ in range(m + 1)]
    for k in [*range(start, len(counts)), *range(start)]:
        c = counts[k]
        while c:
            while not left:
                left, pattern = next(segments)
                cycle, phase = pattern * 2, 0
            take = c if c < left else left
            periods, extra = divmod(take, len(pattern))
            if periods:
                for label in pattern:
                    tallies[label][k] += periods
            for label in cycle[phase : phase + extra]:
                tallies[label][k] += 1
            phase = (phase + extra) % len(pattern)
            left -= take
            c -= take
    return tuple(zip(*tallies[1:]))


def tverberg_labeling(
    order: RadialOrder, m: int, witness: DepthWitness
) -> tuple[tuple[int, ...], ...]:
    """Each run's count of labels 1..m, so every class hull holds the
    center."""
    n = sum(order.counts)
    if m < 3:
        raise PreconditionViolated("circular labeling needs m >= 3")
    if n < 4 * m - 3:
        raise PreconditionViolated(f"need at least {4 * m - 3} instances, got {n}")
    if witness.point != order.center:
        raise PreconditionViolated("witness must be anchored at the ordering center")
    if witness.depth < m:
        raise PreconditionViolated(f"center depth {witness.depth} below target {m}")
    quot, rem = divmod(n, m)
    e = 0 if rem == 0 else -(-rem // quot)
    if quot < 3:
        raise AssertionFailed("n >= 4m-3 forces at least three full blocks")
    if e > -(-(m - 1) // 3):
        raise AssertionFailed("gap ceiling exceeded ceil((m-1)/3)")
    block = tuple(range(1, m + 1))
    if witness.depth >= m + e:
        # Deep: blocks 1..m with greedily front-packed gaps, any placement works.
        full, part = divmod(rem, e) if e else (0, 0)
        start = 0
        segments = [
            (full * (m + e), block + block[:e]),
            (m + part if part else 0, block + block[:part]),
            ((quot - full - (part > 0)) * m, block),
        ]
    else:
        if rem == 0:
            raise AssertionFailed("zero remainder makes every deep threshold m")
        start, arc_len = _arc_positions(order, witness)
        if arc_len < 2 * m:
            raise AssertionFailed(
                f"shallow arc has {arc_len} instances, expected at least {2 * m}"
            )
        segments = [(m, block[rem:] + block[:rem]), (n - m, block)]
    return _count_labels(order, start, segments, m)


def radon_labeling(
    order: RadialOrder, witness: DepthWitness
) -> tuple[tuple[int, ...], ...]:
    """Each run's count of labels 1 and 2, so both class hulls hold the
    center."""
    n = sum(order.counts)
    if n < 6:
        raise PreconditionViolated(f"two-part labeling needs at least 6 instances, got {n}")
    if witness.point != order.center:
        raise PreconditionViolated("witness must be anchored at the ordering center")
    if witness.depth < 2:
        raise PreconditionViolated(f"center depth {witness.depth} below 2")
    start = 0
    if n % 2 == 0:
        segments = [(n, (1, 2))]
    elif witness.depth >= 3:
        segments = [(2, (1,)), (n - 2, (2, 1))]
    else:
        start, arc_len = _arc_positions(order, witness)
        if arc_len < n - 2:
            raise AssertionFailed(
                "depth-2 witness must leave at most 2 instances strictly outside"
            )
        segments = [(4, (2, 1, 1, 2)), (n - 4, (1, 2))]
    return _count_labels(order, start, segments, 2)


def _radial_parts(
    points: PointMultiset, m: int, ambient: AmbientSet
) -> tuple[Point, list[PointMultiset]]:
    """The radial route of ``plane_tverberg`` for checked inputs (Z^2, or
    a finite set of Helly number >= 4, at least the gate), building no
    certificate: the first point p of depth >= m, and the parts around
    it.  Peel the p-copies and label the remainder radially; the parts
    are the singleton copies of p, then the label classes 1..m-mu, each
    cut from rest by its count of every entry (``sub_multiset``).  The
    scan's depth and functional at p, less the mu copies on its boundary,
    are those of ``halfspace_depth(p, rest)``, recounted against rest."""
    p, depth, phi = first_deep_scan(points, ambient, m, want_witness=True)
    direct = peel_by_multiplicity(points, p, m)
    if direct is not None:
        return p, direct
    mu = points.multiplicity(p)
    rest = points.remove(p, mu) if mu else points
    target = m - mu
    scale, grid = integer_points(rest.support() + (p,))
    order = radial_order(rest, p, grid)
    witness = recounted_witness(p, rest, depth - mu, phi, (scale, grid))
    if target == 2:
        tallies = radon_labeling(order, witness)
    else:
        tallies = tverberg_labeling(order, target, witness)
    by_entry = [tally for _, tally in sorted(zip(order.entry_indices, tallies))]
    return p, [singleton_part(p) for _ in range(mu)] + [rest.sub_multiset(c) for c in zip(*by_entry)]


def z2_gate(m: int) -> int:
    """Instances the Z^2 driver needs for m parts: 6 for m = 2, else 4m-3."""
    return 6 if m == 2 else 4 * m - 3


def finite_gate(he: int, m: int) -> int:
    """Instances the finite-set driver needs for m parts over a set of
    Helly number he: He(m-1)+1, one more for m = 2 when He >= 4."""
    return he * (m - 1) + 1 + (1 if m == 2 and he >= 4 else 0)


def plane_tverberg(
    points: PointMultiset, m: int, ambient: AmbientSet
) -> TverbergCertificate:
    """A verified m-part partition of a planar discrete multiset.

    Over Z^2 the size gate is ``z2_gate(m)``.  Over a finite ambient set
    it is ``finite_gate(He, m)``, and Helly numbers up to 3 take the
    routes of ``_small_helly_partition`` instead of the radial one.
    """
    he = None
    if isinstance(ambient, Lattice) and ambient.d == 2:
        needed = z2_gate(m)
    elif isinstance(ambient, FiniteSet) and ambient.dim == 2:
        he = helly_number(ambient).number
        needed = finite_gate(he, m)
    else:
        raise UnsupportedAmbient(f"planar driver does not handle {ambient.describe()}")
    check_partition_input(points, m, ambient, needed)
    if he is not None and he <= 3:
        return _small_helly_partition(points, m, ambient, he)
    center, parts = _radial_parts(points, m, ambient)
    return certify(m, center, parts, ambient, points)


@dataclass(frozen=True)
class HellyWitness:
    """The Helly number of a finite set with a maximum witness subset.

    The witness is in convex position and its hull meets the set in the
    witness alone; no larger subset has both properties.
    """

    number: int
    points: tuple[Point, ...]


def _qualifies(subset: tuple[Point, ...], ambient: FiniteSet) -> bool:
    ms = PointMultiset.from_points(subset, dim=ambient.dim)
    for p in subset:
        rest = ms.remove(p)
        if rest.size and in_hull(p, rest):
            return False
    # the subset's own points are set points in its hull (in_hull's
    # entry test), so the hull meets the set in the subset alone iff it
    # holds no more than len(subset) set points
    inside = (s for s in ambient.points if in_hull(s, ms))
    return sum(1 for _ in itertools.islice(inside, len(subset) + 1)) == len(subset)


@functools.lru_cache(maxsize=256)
def helly_number(ambient: FiniteSet) -> HellyWitness:
    """Largest hull-independent subset of a finite set, by level search.

    Hull-independence is hereditary, so each level only extends
    qualifying sets of the previous one; the search stops at the first
    empty level.
    """
    pts = ambient.points
    if not pts:
        raise InputError("the empty set has no Helly number")
    level: list[tuple[int, ...]] = [(i,) for i in range(len(pts))]
    best = level[0]
    while True:
        nxt: list[tuple[int, ...]] = []
        for idx in level:
            for j in range(idx[-1] + 1, len(pts)):
                cand = idx + (j,)
                if _qualifies(tuple(pts[i] for i in cand), ambient):
                    nxt.append(cand)
        if not nxt:
            break
        level = nxt
        best = level[0]
    return HellyWitness(len(best), tuple(pts[i] for i in best))


def helly3_tverberg(
    points: PointMultiset, m: int, ambient: FiniteSet
) -> TverbergCertificate:
    """Partition over a finite planar set of Helly number at most 3.

    A real partition always exists at the ``finite_gate`` He(m-1)+1; the
    lexicographically least vertex of the intersection of the part hulls
    is then a point of the ambient set and certifies the partition.
    """
    he = helly_number(ambient).number
    if he > 3:
        raise PreconditionViolated(f"ambient set has Helly number {he} > 3")
    return plane_tverberg(points, m, ambient)


def _small_helly_partition(
    points: PointMultiset, m: int, ambient: FiniteSet, he: int
) -> TverbergCertificate:
    """The He <= 3 routes of ``plane_tverberg`` for checked inputs: m >= 2,
    planar instances in the set, Helly number he <= 3, at least the gate."""
    if he == 1:
        q = ambient.points[0]
        return certify(m, q, peel_by_multiplicity(points, q, m), ambient, points)

    if he == 2:
        # Helly number 2 is a collinear set, so the instances lie on its line.
        return median_certificate(points, m, ambient)

    # Imported here: product imports oracle, which imports planar.
    from .product import real_partition

    parts, _, _ = real_partition(points, m)
    # The least vertex of the parts' common polygon is a set point, and
    # the set is stored sorted, so it is the first set point in them all.
    q = next(iter_common_ambient_points(parts, ambient), None)
    if q is None:
        raise AssertionFailed("real partition produced an empty intersection")
    return certify(m, q, parts, ambient, points)
