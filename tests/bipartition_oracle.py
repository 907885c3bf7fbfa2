"""Reference Z^3 bipartition by full enumeration.

The 2^(n-1) loop the library's bipartition search used to fall back
on: every split of the n instances into two nonempty sides (the last
instance always on the second side, so each split is met once), in
order of the first side's bit mask, keeping the first split whose two
hulls both hold p.  ``tverberg.space3`` now scans minimal subsets
instead; the tests check that the scan finds a bipartition exactly when
this loop does.
"""

from __future__ import annotations

from tverberg.geometry import in_hull
from tverberg.points import Point, PointMultiset


def enumerate_bipartition(
    points: PointMultiset, p: Point
) -> tuple[PointMultiset, PointMultiset] | None:
    """The first split by bit mask whose two hulls hold p, or None."""
    instances = points.instances()
    n = len(instances)
    for mask in range(1, 1 << (n - 1)):
        chosen = [bool(mask >> i & 1) for i in range(n - 1)] + [False]
        a = PointMultiset.from_points(
            [instances[i] for i in range(n) if chosen[i]], dim=points.dim
        )
        if not in_hull(p, a):
            continue
        b = PointMultiset.from_points(
            [instances[i] for i in range(n) if not chosen[i]], dim=points.dim
        )
        if in_hull(p, b):
            return a, b
    return None
