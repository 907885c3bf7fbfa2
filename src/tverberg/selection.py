"""Positive-fraction selection: disjoint groups all of whose transversals
capture a common point.

``transversal_property_verify`` decides, for parts P_1..P_r and a point
q, whether every transversal (one point per part) holds q in its hull.
The working route is dual: q escapes some transversal iff for some
direction n every part has a point on the open far side n.x < n.q, and
by the nearest-face argument it suffices to try the directions
q - proj_aff(T)(q) over affinely independent subsets T of the combined
support with 1 <= |T| <= d.  The direct route multiplies out the
transversals and is kept as an independent cross-check for small
products.

``fraction_selection`` grows d+1 disjoint groups around q greedily:
seed with a minimal subset whose hull holds q, then offer each
remaining instance to the smallest group whose enlarged transversal
family still verifies.  ``depth_partition_search`` splits a multiset
into r groups of balanced sizes so that every ambient point of depth
at least alpha*n keeps the transversal property, seeding with
contiguous sectors around the deepest such point.  Both list every
instance, so both refuse a multiset of more than ``MAX_INSTANCES``
instances with ``PreconditionViolated`` before any list is built.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .depth import _order_statistic_box, depth_value
from .errors import (
    AssertionFailed,
    DimensionMismatch,
    InputError,
    NotFound,
    PreconditionViolated,
    SelectionNotFound,
)
from .geometry import in_hull
from .linprog import rref
from .planar import radial_order
from .points import Point, PointMultiset, dot, integer_points, sub


# The most instances a selection takes.  Both searches list every
# instance (greedy growth offers each one to a group; the sector seeds
# cut the list into chunks), and the greedy is already slow at a few
# hundred, so a larger multiset is refused by name before a list grows
# with its multiplicities, until selection works on runs of equal
# instances.
MAX_INSTANCES = 10**5


def _check_size(points: PointMultiset) -> None:
    if points.size > MAX_INSTANCES:
        raise PreconditionViolated(
            f"selection takes at most {MAX_INSTANCES} instances, got {points.size}"
        )


@dataclass(frozen=True)
class SelectionResult:
    """Disjoint groups around a point with the verified transversal property."""

    point: Point
    parts: tuple[PointMultiset, ...]
    sizes: tuple[int, ...]
    verified: bool


def _affine_projection(q: Point, anchor: Point, basis: list[Point]) -> Point | None:
    """Orthogonal projection of q onto anchor + span(basis); None if the
    basis is dependent.

    One elimination of the Gram system G x = B^T (q - anchor) on the
    integer grid of q - anchor and the basis, augmented by its right-hand
    side: the system is consistent, so the basis is dependent exactly
    when G is singular, which is when its k columns are not all pivots."""
    if not basis:
        return anchor
    k = len(basis)
    scale, (target, *vecs) = integer_points([sub(q, anchor), *basis])
    aug = [[sum(map(mul, u, v)) for v in (*vecs, target)] for u in vecs]
    reduced, pivots, den = rref(aug, k + 1)
    if len(pivots) < k:
        return None
    shift = [sum([r[k] * v[c] for r, v in zip(reduced, vecs)]) for c in range(len(q))]
    return tuple([a + Fraction(s, den * scale) for a, s in zip(anchor, shift)])


def _dual_violation(parts: Sequence[PointMultiset], q: Point) -> bool:
    """True iff some direction puts a point of every part strictly past q."""
    d = len(q)
    pts = sorted({p for part in parts for p in part.support()})
    supports = [part.support() for part in parts]
    for size in range(1, d + 1):
        for combo in itertools.combinations(pts, size):
            anchor = combo[0]
            basis = [sub(t, anchor) for t in combo[1:]]
            z = _affine_projection(q, anchor, basis)
            if z is None:
                continue
            n = sub(q, z)
            if all(v == 0 for v in n):
                continue
            level = dot(n, q)
            if all(any(dot(n, x) < level for x in sup) for sup in supports):
                return True
    return False


def _direct_violation(parts: Sequence[PointMultiset], q: Point) -> bool:
    supports = [part.support() for part in parts]
    for choice in itertools.product(*supports):
        ms = PointMultiset.from_points(choice, dim=len(q))
        if not in_hull(q, ms):
            return True
    return False


DIRECT_LIMIT = 10 ** 5


def transversal_property_verify(
    parts: Sequence[PointMultiset], q: Point, method: str = "dual"
) -> bool:
    """Whether every transversal of the parts holds q in its hull.

    ``method`` is "dual", "direct", or "both"; "both" insists the two
    routes agree.  The direct route refuses products of support sizes
    beyond 10^5.
    """
    if not parts:
        raise InputError("need at least one part")
    d = len(q)
    for part in parts:
        if part.dim != d:
            raise DimensionMismatch("part dimension differs from the point")
        if part.size == 0:
            raise InputError("parts must be nonempty")
    if method not in ("dual", "direct", "both"):
        raise InputError(f"unknown method {method!r}")
    dual = None
    direct = None
    if method in ("dual", "both"):
        dual = not _dual_violation(parts, q)
    if method in ("direct", "both"):
        prod = 1
        for part in parts:
            prod *= part.support_size
        if prod > DIRECT_LIMIT:
            raise PreconditionViolated(
                f"direct enumeration of {prod} transversals refused"
            )
        direct = not _direct_violation(parts, q)
    if method == "dual":
        return dual
    if method == "direct":
        return direct
    if dual != direct:
        raise AssertionFailed(
            f"dual ({dual}) and direct ({direct}) transversal checks disagree"
        )
    return dual


def _angular_stream(instances: list[Point], q: Point) -> list[Point]:
    """Instances ordered clockwise around q (d = 2); copies of q lead."""
    at_q = [p for p in instances if p == q]
    rest = [p for p in instances if p != q]
    if not rest:
        return at_q
    ms = PointMultiset.from_points(rest, dim=2)
    order = radial_order(ms, q)
    runs = zip(order.entry_indices, order.counts)
    return at_q + [ms.entries[i][0] for i, c in runs for _ in range(c)]


def _try_greedy(
    stream: list[Point], seed_idx: tuple[int, ...], q: Point, dim: int
) -> list[list[Point]]:
    groups: list[list[Point]] = [[stream[i]] for i in seed_idx]
    taken = set(seed_idx)
    for i, x in enumerate(stream):
        if i in taken:
            continue
        order = sorted(range(len(groups)), key=lambda g: (len(groups[g]), g))
        for g in order:
            ok = True
            others = [groups[h] for h in range(len(groups)) if h != g]
            for choice in itertools.product(*others):
                ms = PointMultiset.from_points((x,) + choice, dim=dim)
                if not in_hull(q, ms):
                    ok = False
                    break
            if ok:
                groups[g].append(x)
                break
    return groups


def _compositions(total: int, bounds: Sequence[int]):
    """Offset tuples summing to total with offsets[i] < bounds[i]."""
    if len(bounds) == 1:
        if total < bounds[0]:
            yield (total,)
        return
    for first in range(min(total, bounds[0] - 1) + 1):
        for rest in _compositions(total - first, bounds[1:]):
            yield (first,) + rest


def _seed_candidates(count: int, r: int):
    """Seed index r-tuples, sector-straddling ones first.

    The stream is angularly ordered, so tuples taking one index per
    contiguous sector surround the center and grow evenly; plain
    combinations follow as a completeness fallback (lexicographic
    combinations alone starve the sector the center sits in).
    """
    base, extra = divmod(count, r)
    starts, bounds = [], []
    pos = 0
    for i in range(r):
        size = base + (1 if i < extra else 0)
        starts.append(pos)
        bounds.append(size)
        pos += size
    if all(b > 0 for b in bounds):
        for total in range(sum(b - 1 for b in bounds) + 1):
            for offsets in _compositions(total, bounds):
                yield tuple(s + o for s, o in zip(starts, offsets))
    yield from itertools.combinations(range(count), r)


def fraction_selection(
    points: PointMultiset,
    q: Point,
    min_size: int,
    max_seeds: int = 150,
) -> SelectionResult:
    """d+1 disjoint groups of at least min_size instances each, every
    transversal of which holds q in its hull.

    Seeds are minimal subsets whose hull holds q, straddling tuples
    first; each is grown greedily, smallest group first.  Raises
    SelectionNotFound with the best sizes reached when no seed fills
    every group to min_size.
    """
    d = points.dim
    if len(q) != d:
        raise DimensionMismatch("point dimension differs from the multiset")
    if min_size < 1:
        raise PreconditionViolated("groups must be nonempty")
    _check_size(points)
    r = d + 1
    n = points.size
    if r * min_size > n:
        raise SelectionNotFound(
            f"{r} groups of {min_size} need {r * min_size} instances, got {n}",
            best_sizes=(),
        )
    instances = points.instances()
    stream = _angular_stream(instances, q) if d == 2 else instances
    best_sizes: tuple[int, ...] = ()
    seeds_tried = 0
    tried: set[tuple[int, ...]] = set()
    for combo in _seed_candidates(len(stream), r):
        if seeds_tried >= max_seeds:
            break
        if combo in tried:
            continue
        tried.add(combo)
        ms = PointMultiset.from_points([stream[i] for i in combo], dim=d)
        if not in_hull(q, ms):
            continue
        seeds_tried += 1
        groups = _try_greedy(stream, combo, q, d)
        sizes = tuple(len(g) for g in groups)
        if min(sizes) >= min_size:
            parts = tuple(PointMultiset.from_points(g, dim=d) for g in groups)
            verified = transversal_property_verify(parts, q, method="dual")
            if not verified:
                raise AssertionFailed("greedy growth kept an invalid transversal")
            return SelectionResult(q, parts, sizes, verified)
        if not best_sizes or sorted(sizes) > sorted(best_sizes):
            best_sizes = sizes
    raise SelectionNotFound(
        f"no selection with all groups of size {min_size}", best_sizes=best_sizes
    )


def _chunks(stream: list[Point], r: int, offset: int) -> list[list[Point]]:
    n = len(stream)
    rotated = stream[offset:] + stream[:offset]
    base, extra = divmod(n, r)
    out = []
    pos = 0
    for i in range(r):
        size = base + (1 if i < extra else 0)
        out.append(rotated[pos : pos + size])
        pos += size
    return out


def _deep_points(points: PointMultiset, k: int) -> dict[Point, int]:
    """Each instance and each integer point of depth >= k, with its depth.

    The integer candidates are the points of the order-statistic box at
    k (``depth._order_statistic_box`` on the entries' integer grid,
    rounded inward): outside it an axis half-space holds fewer than k
    instances, so the box does not grow with a far instance.
    """
    scale, grid = integer_points(points.support())
    box = _order_statistic_box(grid, points, k)
    candidates: list[Point] = []
    if box is not None:
        ranges = [range(-(-low // scale), high // scale + 1) for low, high in box]
        candidates = [tuple(map(Fraction, x)) for x in itertools.product(*ranges)]
    candidates.extend(p for p, _ in points.entries)
    depth_of: dict[Point, int] = {}
    for cand in candidates:
        if cand not in depth_of:
            depth_of[cand] = depth_value(cand, points)
    return {z: depth for z, depth in depth_of.items() if depth >= k}


def depth_partition_search(
    points: PointMultiset,
    alpha: Fraction,
    r: int,
    budget: int = 200,
) -> tuple[PointMultiset, ...]:
    """r groups of balanced sizes so that every ambient integer or input
    point of depth >= alpha*n keeps the transversal property.

    Sizes stay within [floor(n/2r), ceil(2n/r)].  The deep points are
    those of ``_deep_points`` at ceil(alpha*n), since depths are ints.
    Seeded with contiguous sectors around the deepest of them, then
    rotations, then random regroupings from the fixed seed 0 up to the
    budget.
    """
    d = points.dim
    if r < d + 1:
        raise PreconditionViolated(f"need at least {d + 1} groups, got {r}")
    n = points.size
    if n < r:
        raise PreconditionViolated(f"cannot form {r} nonempty groups from {n} instances")
    if not (0 < alpha <= 1):
        raise PreconditionViolated("the depth fraction must lie in (0, 1]")
    _check_size(points)
    lo, hi = n // (2 * r), -(-2 * n) // r
    deep = _deep_points(points, -(-alpha * n // 1))
    instances = points.instances()

    def groups_ok(groups: list[list[Point]]) -> bool:
        if any(not g for g in groups):
            return False
        sizes = [len(g) for g in groups]
        if min(sizes) < lo or max(sizes) > hi:
            return False
        parts = [PointMultiset.from_points(g, dim=d) for g in groups]
        return all(
            transversal_property_verify(parts, z, method="dual") for z in deep
        )

    if not deep:
        groups = _chunks(instances, r, 0)
        if any(not g for g in groups):
            raise PreconditionViolated("cannot form r nonempty groups")
        return tuple(PointMultiset.from_points(g, dim=d) for g in groups)

    anchor = max(deep, key=lambda z: (deep[z], tuple(-c for c in z)))
    stream = _angular_stream(instances, anchor) if d == 2 else instances
    attempts = 0
    for offset in range(n):
        if attempts >= budget:
            break
        attempts += 1
        groups = _chunks(stream, r, offset)
        if groups_ok(groups):
            return tuple(PointMultiset.from_points(g, dim=d) for g in groups)
    rng = random.Random(0)
    while attempts < budget:
        attempts += 1
        shuffled = instances[:]
        rng.shuffle(shuffled)
        groups = _chunks(shuffled, r, 0)
        if groups_ok(groups):
            return tuple(PointMultiset.from_points(g, dim=d) for g in groups)
    raise NotFound(f"no admissible grouping within {budget} attempts")
