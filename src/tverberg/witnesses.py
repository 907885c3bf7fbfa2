"""Hard multisets that pin partition numbers from below.

Each construction is a multiset with no m-part partition admitting a
common ambient point, one instance short of the matching upper bound.
They are inputs for the refutation oracle, not proofs by themselves:
tests re-check the non-existence claim by enumeration.
"""

from __future__ import annotations

from .ambient import FiniteSet
from .errors import PreconditionViolated
from .planar import helly_number
from .points import PointMultiset, point


def onn_witness() -> PointMultiset:
    """Five integer points in the plane with no two-part split around a
    lattice point; one short of the planar two-part bound of six."""
    return PointMultiset.from_points(
        [point(0, 0), point(0, 1), point(2, 0), point(1, 2), point(3, 2)]
    )


def doignon_witness(m: int) -> PointMultiset:
    """4m-4 planar integer points with no m-part split around a lattice
    point, one short of the 4m-3 bound; defined for m >= 3.

    The points pair the two diagonals y = x and y = 1-x: for each
    i in [-m+2, m-1] both (i, i) and (i, 1-i).
    """
    if m < 3:
        raise PreconditionViolated("the diagonal witness needs m >= 3")
    pts = []
    for i in range(-m + 2, m):
        pts.append(point(i, i))
        pts.append(point(i, 1 - i))
    return PointMultiset.from_points(pts)


def convex_lowerbound_witness(ambient: FiniteSet, m: int) -> PointMultiset:
    """He(S)(m-1) instances over a finite set with no m-part split inside
    the set: each point of a maximum hull-independent subset, m-1 times.

    Any m-part split leaves some part inside a single witness point's
    share, and hull-independence keeps every candidate common point out
    of reach.
    """
    if m < 2:
        raise PreconditionViolated("partitions need m >= 2")
    wit = helly_number(ambient)
    return PointMultiset(((p, m - 1) for p in wit.points), dim=ambient.dim)
