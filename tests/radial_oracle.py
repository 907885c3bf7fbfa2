"""Reference radial-order data in ``fractions.Fraction`` arithmetic.

``_instance_data`` and ``_arc_positions`` are the library's previous
bodies, kept verbatim as the reference for the ones that replaced
them: they take each instance's difference from the centre, its
primitive direction and its squared distance as Fractions.  The
library takes them on the multiset's integer grid; the tests check
that both give the same ``RadialOrder`` and the same arc permutations.
``radial_order`` is the library's order built on the reference data,
with each position's entry index looked up by its point.
``primitive`` is the library's previous Fraction scaling of a
direction, kept here so the reference shares no scaling code with the
library.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from tverberg.depth import DepthWitness
from tverberg.errors import AssertionFailed, DimensionMismatch, InputError, PreconditionViolated
from tverberg.planar import RadialOrder
from tverberg.points import Point, PointMultiset, clockwise_key, sub


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


def radial_order(points: PointMultiset, center: Point) -> RadialOrder:
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
    return RadialOrder(center, sequence, directions, tuple(index[p] for p in sequence))


def _arc_positions(order: RadialOrder, witness: DepthWitness) -> tuple[list[int], int]:
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
