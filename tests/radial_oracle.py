"""Reference radial order and labelings, one record per instance.

``_instance_data`` and ``_arc_positions`` take each instance's
difference from the centre, its primitive direction and its squared
distance as ``fractions.Fraction``s; the library takes them on the
multiset's integer grid.  ``radial_order`` lists every instance of the
multiset in clockwise order (an ``InstanceOrder``, the library's
earlier ``RadialOrder``), with each position's entry index looked up by
its point.  ``tverberg_labeling`` and ``radon_labeling`` are the
library's earlier bodies, which give one label per instance; the
library gives each run of equal instances its count of every label,
from periodic segments.  The tests check that the library's runs are
this order merged, that its arc rotation is this arc permutation
merged, and that its label counts are these labels counted per run.
``primitive`` is the library's earlier Fraction scaling of a direction,
and ``clockwise_key`` the library's earlier sweep comparator, which
decides each comparison by a half-turn bucket and a cross-product sign;
both are kept here so the reference shares no scaling or ordering code
with the library, whose ``points.clockwise_key`` is a plain int tuple.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from dataclasses import dataclass

from tverberg.depth import DepthWitness
from tverberg.errors import AssertionFailed, DimensionMismatch, InputError, PreconditionViolated
from tverberg.points import Point, PointMultiset, sub


class _ClockwiseKey:
    """Sort key of one item: its half-turn bucket around the start, then
    cross-product order inside the bucket, then rank."""

    __slots__ = ("bucket", "direction", "rank")

    def __init__(self, bucket: int, direction: tuple[int, int], rank):
        self.bucket = bucket
        self.direction = direction
        self.rank = rank

    def __lt__(self, other: "_ClockwiseKey") -> bool:
        if self.bucket != other.bucket:
            return self.bucket < other.bucket
        if self.direction != other.direction:
            c = self.direction[0] * other.direction[1] - self.direction[1] * other.direction[0]
            if c != 0:
                return c < 0
        return self.rank < other.rank


def clockwise_key(start: tuple[int, int]):
    """Sort key factory for items (direction, rank, ...): the clockwise
    sweep position of the integer direction from ``start``, ties between
    equal or positively parallel directions broken by rank.

    Bucket 0 is the ray of ``start``, 1 the open half-plane clockwise of
    it, 2 the opposite ray and 3 the rest; inside the open half-planes
    the cross product orders directions exactly.
    """

    def key(item) -> _ClockwiseKey:
        direction = item[0]
        c = start[0] * direction[1] - start[1] * direction[0]
        if c == 0:
            s = start[0] * direction[0] + start[1] * direction[1]
            bucket = 0 if s > 0 else 2
        else:
            bucket = 1 if c < 0 else 3
        return _ClockwiseKey(bucket, direction, item[1])

    return key


@dataclass(frozen=True)
class InstanceOrder:
    """Instances of a planar multiset in clockwise order around a center.

    ``directions`` holds the primitive direction of each position, and
    ``entry_indices`` the index of each position's point among the
    multiset's entries.
    """

    center: Point
    sequence: tuple[Point, ...]
    directions: tuple[tuple[int, int], ...]
    entry_indices: tuple[int, ...]


def primitive(vector: Sequence[Fraction | int]) -> tuple[int, ...]:
    """Scale a nonzero rational vector by a positive rational into a
    coprime integer vector.  Direction and sense are preserved."""
    fracs = [Fraction(v) for v in vector]
    if all(f == 0 for f in fracs):
        raise ValueError("zero vector has no primitive form")
    denom_lcm = 1
    for f in fracs:
        denom_lcm = denom_lcm * f.denominator // gcd(denom_lcm, f.denominator)
    ints = [int(f * denom_lcm) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(v // g for v in ints)


def _instance_data(points: PointMultiset, center: Point):
    data = []
    for p in points.instances():
        v = sub(p, center)
        if all(x == 0 for x in v):
            raise PreconditionViolated("radial order needs the center outside the multiset")
        d = primitive(v)
        dist2 = v[0] * v[0] + v[1] * v[1]
        data.append((d, dist2, p))
    return data


def radial_order(points: PointMultiset, center: Point) -> InstanceOrder:
    """Clockwise radial order of all instances around the center."""
    if points.dim != 2:
        raise DimensionMismatch("radial order is a planar notion")
    if len(center) != 2:
        raise DimensionMismatch("center must be planar")
    if points.size == 0:
        raise InputError("cannot order an empty multiset")
    data = _instance_data(points, center)
    start = min(d for d, _, _ in data)
    data.sort(key=clockwise_key(start))
    sequence = tuple(p for _, _, p in data)
    directions = tuple(d for d, _, _ in data)
    index = {p: i for i, (p, _) in enumerate(points.entries)}
    return InstanceOrder(center, sequence, directions, tuple(index[p] for p in sequence))


def _arc_positions(order: InstanceOrder, witness: DepthWitness) -> tuple[list[int], int]:
    """Sequence positions re-swept clockwise from the witness boundary.

    The boundary of the witness half-plane passes through the center;
    sweeping clockwise from the entry ray w0 = (n_y, -n_x) lists the
    closed complement arc first.  Returns the permutation of sequence
    positions and the arc length l.
    """
    n_vec = witness.halfspace.normal
    w0 = (int(n_vec[1]), int(-n_vec[0]))
    enriched = []
    for i in range(len(order.sequence)):
        v = sub(order.sequence[i], order.center)
        enriched.append((order.directions[i], v[0] * v[0] + v[1] * v[1], i))
    enriched.sort(key=clockwise_key(w0))
    perm = [i for _, _, i in enriched]
    arc_len = 0
    c = witness.halfspace.offset
    for i in perm:
        val = n_vec[0] * order.sequence[i][0] + n_vec[1] * order.sequence[i][1]
        if val <= c:
            arc_len += 1
    # The closed complement side occupies exactly the first arc_len slots.
    for k, i in enumerate(perm):
        val = n_vec[0] * order.sequence[i][0] + n_vec[1] * order.sequence[i][1]
        if (val <= c) != (k < arc_len):
            raise AssertionFailed("arc extraction out of order")
    return perm, arc_len


def tverberg_labeling(
    order: InstanceOrder, m: int, witness: DepthWitness
) -> tuple[int, ...]:
    """Labels 1..m for the ordered instances so every class hull holds the
    center."""
    n = len(order.sequence)
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
    labels = [0] * n
    if witness.depth >= m + e:
        # Deep: blocks 1..m with greedily front-packed gaps, any placement works.
        gaps = []
        left = rem
        for _ in range(quot):
            g = min(e, left)
            gaps.append(g)
            left -= g
        pos = 0
        for g in gaps:
            for lab in range(1, m + 1):
                labels[pos] = lab
                pos += 1
            for lab in range(1, g + 1):
                labels[pos] = lab
                pos += 1
        if pos != n:
            raise AssertionFailed("labeling did not exhaust the sequence")
    else:
        if rem == 0:
            raise AssertionFailed("zero remainder makes every deep threshold m")
        perm, arc_len = _arc_positions(order, witness)
        if arc_len < 2 * m:
            raise AssertionFailed(
                f"shallow arc has {arc_len} instances, expected at least {2 * m}"
            )
        for k, i in enumerate(perm):
            pos = k + 1
            if pos <= m - rem:
                labels[i] = rem + pos
            elif pos <= m:
                labels[i] = pos - (m - rem)
            else:
                labels[i] = (pos - m - 1) % m + 1
    return tuple(labels)


def radon_labeling(order: InstanceOrder, witness: DepthWitness) -> tuple[int, ...]:
    """Two labels for the ordered instances so both class hulls hold the
    center."""
    n = len(order.sequence)
    if n < 6:
        raise PreconditionViolated(f"two-part labeling needs at least 6 instances, got {n}")
    if witness.point != order.center:
        raise PreconditionViolated("witness must be anchored at the ordering center")
    if witness.depth < 2:
        raise PreconditionViolated(f"center depth {witness.depth} below 2")
    labels = [0] * n
    if n % 2 == 0:
        for i in range(n):
            labels[i] = 1 if i % 2 == 0 else 2
    elif witness.depth >= 3:
        labels[0] = 1
        labels[1] = 1
        for i in range(2, n):
            labels[i] = 2 if i % 2 == 0 else 1
    else:
        perm, arc_len = _arc_positions(order, witness)
        if arc_len < n - 2:
            raise AssertionFailed(
                "depth-2 witness must leave at most 2 instances strictly outside"
            )
        head = (2, 1, 1, 2)
        for k, i in enumerate(perm):
            pos = k + 1
            if pos <= 4:
                labels[i] = head[pos - 1]
            else:
                labels[i] = 1 if pos % 2 == 1 else 2
    return tuple(labels)
