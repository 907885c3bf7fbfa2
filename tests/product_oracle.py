"""The instance-list construction of ``product.product_tverberg``.

``product_tverberg`` below is the library's previous driver body, kept
as the reference for the one that splits count vectors over the
source's entries: it lists every instance, takes the Z^1 base as the
median groups of instance indices (``median_groups``), matches the
base driver's parts and the fiber step's parts back to index lists
(``match_instances``), and builds each lifted part and each final part
from its instances.  The tests check that the count-based driver
writes the same certificate documents and the same ``LiftRecord`` on
the same inputs.
"""

from __future__ import annotations

from typing import Sequence

from tverberg.ambient import Lattice, MixedLattice
from tverberg.certificates import TverbergCertificate, certify, check_partition_input
from tverberg.errors import AssertionFailed, UnsupportedAmbient
from tverberg.planar import _radial_parts
from tverberg.points import Point, PointMultiset
from tverberg.product import DRIVERS, LiftRecord, fiber_lift, real_partition
from tverberg.space3 import _z3_parts


def median_groups(n: int, t: int) -> list[Sequence[int]]:
    """The median construction on n >= 2t-1 instances in order along a
    line: the pairs [i, n-1-i] for i < t-1 and the middle run t-1 .. n-t
    as a range, each holding instance t-1 in its hull."""
    return [[i, n - 1 - i] for i in range(t - 1)] + [range(t - 1, n - t + 1)]


def match_instances(values: list[Point], parts: Sequence[PointMultiset]) -> list[tuple[int, ...]]:
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
    j, k = ambient.j, ambient.k
    if (Lattice, j) not in DRIVERS:
        raise UnsupportedAmbient("no base driver beyond Z^3")
    t = (m - 1) * (k + 1) + 1
    check_partition_input(points, m, ambient, DRIVERS[(Lattice, j)][0](t))
    instances = points.instances()
    if j == 1:
        groups_idx = median_groups(points.size, t)
        base_q: Point = instances[t - 1][:1]
    else:
        proj_instances = [p[:j] for p in instances]
        proj_ms = PointMultiset.from_points(proj_instances, dim=j)
        if j == 2:
            base_q, base_parts = _radial_parts(proj_ms, t, Lattice(2))
        else:
            base_q, base_parts = _z3_parts(proj_ms, t)
        groups_idx = match_instances(proj_instances, base_parts)

    lifted: list[Point] = []
    for group in groups_idx:
        part_ms = PointMultiset.from_points([instances[i] for i in group], dim=points.dim)
        pt, _ = fiber_lift(part_ms, base_q)
        lifted.append(pt)

    fibers = [pt[j:] for pt in lifted]
    fiber_ms = PointMultiset.from_points(fibers, dim=k)
    fiber_parts, fiber_point, _ = real_partition(fiber_ms, m)
    merged_groups = match_instances(fibers, fiber_parts)

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
