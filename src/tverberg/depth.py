"""Half-space depth over multisets, exactly, with witnesses.

The depth of q in A is the smallest number of A-instances (multiplicity
counted) in a closed half-space containing q.  The minimum is attained
by a half-space whose boundary passes through q, so everything reduces
to counting instances a with u.(a - q) >= 0 over nonzero directions u.

The count is minimised recursively.  Directions that are generic for
the difference vectors give the strict count alone; the interesting
candidates are normals vanishing on a spanning subset of differences,
and for those the instances on the boundary hyperplane form a strictly
lower-dimensional subproblem.  Concretely, with V the nonzero
difference vectors and l = dim span(V):

  l = 1: the minimum of the two one-sided counts;
  l = 2: over the normals +-u0 of each line through a vector of V, the
         strict count of u0 plus the lighter of the two rays on the
         line, all read off one angular sweep (Rousseeuw & Ruts,
         "Bivariate location depth", 1996): the directions are sorted
         once clockwise by integer cross-product signs, and the weight
         strictly clockwise of each direction is a contiguous run found
         by two pointers over the doubled order and summed by prefix
         sums, so the level costs O(n log n).  The sweep takes primitive,
         distinct directions, each line's two rays told apart;
  l >= 3: over each (l-1)-subset of V with a one-dimensional orthogonal
          complement +-u0 in span(V), the strict count of u0 plus the
          recursive minimum over {v : u0.v = 0}.  u0 is the subset's
          integer generalised cross product, and one pass of dots u0.v
          gives the strict counts of u0 and -u0 and their shared zero
          set.

Working coordinates are the restriction to pivot columns of span(V), so
integer inputs stay integer all the way down.  ``_difference_profile``
reduces each difference to a primitive direction with one gcd and
merges equal ones, and when the pivots are every coordinate those
directions go to the sweep as they are.  Only a restriction to fewer
pivots, at the planar levels inside l >= 3 or on a flat support, can
scale or merge directions, so only there are they reduced again.  The
pivots are found once per query: in the plane by cross products with
the first direction, elsewhere by one elimination (``pivot_columns``).
A scan whose entries are affinely full-dimensional finds them once for
all its candidates: the differences around any point then span every
coordinate.  A witness functional is
reassembled on the way up as N*u0 + u_inner with N large enough that
u0's strict signs dominate.  Witnesses are stable because every level
visits its candidates in one fixed order, u0 (sign made canonical, first
nonzero coordinate positive) before -u0, lines and subsets in the order
of the difference profile, and keeps the first strictly smallest count;
the sweep scores the candidates the l >= 2 enumeration used to visit in
that same order, so it returns the same count and functional.

The centerpoint searches scan candidate points and reuse the recursion
with an abort threshold: a scan candidate is abandoned as soon as some
half-space already caps its depth below the threshold.  Over Z^d the
candidates are the integer points of the box between the m-th smallest
and m-th largest instance value per coordinate, outside of which an
axis half-space alone refutes depth m; over a finite ambient set they
are its points.  One scan yields each candidate deeper than all earlier
ones, starting from depth m, and serves two searches:

  deepest       ``integer_centerpoint`` and ``finite_set_centerpoint``
                take the last candidate yielded, so the threshold rises
                with the best depth found; the box is visited in
                lexicographic order and ties go to the earliest point.
  deep enough   ``first_deep_scan`` takes the first candidate of depth
                >= m, with the threshold fixed at m - 1.  Box points are
                visited centre-out, shell by shell in the L1 distance of
                2x to lo + hi per coordinate and lexicographically
                within a shell, because deep points sit near the middle.
                The constructive drivers use this search: they need
                depth m, not the maximum.

A yielded candidate never hit the abort, so its count is its exact
depth, and the functional of the search, when asked for, is the one an
unthresholded query finds.  ``first_deep_scan`` hands both back with
the point: the planar driver builds its labelling witness from them
(``recounted_witness``) and the Z^3 driver reads its depth, so neither
queries the depth of its centre again.  The same per-candidate step, at
the fixed threshold m - 1, tells a refutation which of its candidates
are deep (``deep_filter``).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul, sub
from typing import Callable, Iterable, Iterator, Sequence

from .ambient import AmbientSet, FiniteSet, Lattice
from .errors import (
    AssertionFailed,
    CenterpointNotFound,
    DimensionMismatch,
    InputError,
    PreconditionViolated,
    UnsupportedAmbient,
)
from .linprog import generalised_cross, pivot_columns
from .points import HalfSpace, Point, PointMultiset, clockwise_key, cross2, integer_points


def _planar_min(
    dirs: Sequence[tuple[int, ...]], weights: Sequence[int], abort_at: int | None
) -> tuple[int, tuple[int, tuple[int, ...], int, int]]:
    """The l = 2 level of ``_min_halfspace_count`` on primitive, distinct
    directions, by one angular sweep.

    For each line through some dirs[i], in order of first appearance,
    its canonical normal u0 and then -u0 are scored by the weight
    strictly on their side plus the lighter ray on the line; the first
    strictly smallest count wins, as in the enumeration.  The directions
    strictly clockwise of a direction form a contiguous run after it in
    the clockwise order; two pointers over the doubled order find each
    run and prefix sums weigh it.  Returns (count, (sign, u0, pivot,
    inner sign)), from which the caller builds the functional.
    """
    k = len(dirs)
    ring = sorted(zip(dirs, range(k)), key=clockwise_key(dirs[0]))
    ring_weights = [weights[i] for _, i in ring]
    prefix = list(itertools.accumulate(ring_weights * 2, initial=0))
    total = prefix[k]
    # per input index: the weight strictly clockwise, and the index of the
    # opposite direction (itself when absent)
    cw = [0] * k
    opposite = list(range(k))
    doubled = ring * 2
    j = 1
    for a, ((dx, dy), i) in enumerate(ring):
        j = max(j, a + 1)
        while j < a + k:
            (ex, ey), o = doubled[j]
            c = dx * ey - dy * ex  # cross2(d, e)
            if c >= 0:
                if c == 0:
                    opposite[i] = o
                break
            j += 1
        cw[i] = prefix[j] - prefix[a + 1]

    best, choice = total + 1, None
    for i, d in enumerate(dirs):
        o = opposite[i]
        if o < i:  # the line was scored at the opposite direction
            continue
        ray, opp = weights[i], weights[o] if o != i else 0
        ccw = total - ray - opp - cw[i]
        # u0 is the canonical sign of (-d1, d0), which is positive on
        # exactly the directions counter-clockwise of d
        if d[1] < 0 or (d[1] == 0 and d[0] > 0):
            u0, first, second = (-d[1], d[0]), ccw, cw[i]
        else:
            u0, first, second = (d[1], -d[0]), cw[i], ccw
        # the inner level counts the line along its pivot coordinate and
        # keeps the lighter side, the positive one on a tie
        pivot = 0 if d[0] != 0 else 1
        along, against = (ray, opp) if d[pivot] > 0 else (opp, ray)
        inner, inner_sign = (along, 1) if along <= against else (against, -1)
        for count, sign in ((first + inner, 1), (second + inner, -1)):
            if count < best:
                best, choice = count, (sign, u0, pivot, inner_sign)
                if abort_at is not None and best <= abort_at:
                    return best, choice
    return best, choice


def _min_halfspace_count(
    vecs: list[tuple[int, ...]],
    weights: list[int],
    abort_at: int | None,
    want_witness: bool,
    pivots: Sequence[int] | None = None,
) -> tuple[int, tuple[int, ...] | None]:
    """Minimum over nonzero u of the weighted count of v with u.v >= 0.

    vecs are primitive and distinct, as ``_difference_profile`` gives
    them.  Returns (count, functional); the functional is in the
    coordinates of the input vectors and attains the count, or None when
    not requested (or when vecs is empty).  With abort_at set, the search
    stops once the running minimum is <= abort_at; the returned count is
    then still an upper bound achieved by an actual direction.  pivots,
    the pivot columns of span(vecs), are found when not given.
    """
    if not vecs:
        return 0, None
    dim = len(vecs[0])
    if pivots is None:
        # in the plane the span shows in cross products with one vector
        first = vecs[0]
        if dim != 2:
            pivots = pivot_columns(vecs, dim)
        elif any(cross2(first, v) for v in vecs):
            pivots = range(2)
        else:
            pivots = [0] if first[0] else [1]
    ell = len(pivots)
    restricted = ell < dim
    coords = [tuple(v[p] for p in pivots) for v in vecs] if restricted else vecs

    best: int | None = None
    best_phi: tuple[int, ...] | None = None
    if ell == 1:
        pos = sum(w for c, w in zip(coords, weights) if c[0] > 0)
        neg = sum(w for c, w in zip(coords, weights) if c[0] < 0)
        best, best_phi = (pos, (1,)) if pos <= neg else (neg, (-1,))
    elif ell == 2:
        # a restriction can scale and merge directions: reduce them again
        dirs, ws, _ = _primitive_profile(coords, weights) if restricted else (coords, weights, 0)
        best, (sign, u0, pivot, inner_sign) = _planar_min(dirs, ws, abort_at)
        if want_witness:
            # bound * (+-u0) plus the inner functional, bound read off the
            # coordinates before any reduction
            bound = sign * (1 + max(abs(c[pivot]) for c in coords))
            phi = [bound * x for x in u0]
            phi[pivot] += inner_sign
            best_phi = tuple(phi)
    else:
        seen: set[tuple[int, ...]] = set()
        done = False
        for subset in itertools.combinations(range(len(coords)), ell - 1):
            u0 = generalised_cross([coords[i] for i in subset], ell)
            if u0 is None:
                continue
            # primitive, and canonical: first nonzero coordinate positive
            g = gcd(*u0) if next(x for x in u0 if x) > 0 else -gcd(*u0)
            u0 = tuple(x // g for x in u0)
            if u0 in seen:
                continue
            seen.add(u0)
            # one pass of dots serves both signs: u0 and -u0 share the
            # zero set and swap the strict sides
            pos = neg = 0
            inner_idx: list[int] = []
            for i, s in enumerate([sum(map(mul, u0, c)) for c in coords]):
                if s > 0:
                    pos += weights[i]
                elif s < 0:
                    neg += weights[i]
                else:
                    inner_idx.append(i)
            inner_vecs = [coords[i] for i in inner_idx]
            inner_w = [weights[i] for i in inner_idx]
            for u, strict in ((u0, pos), (tuple(-x for x in u0), neg)):
                if best is not None and strict >= best:
                    continue
                # the inner threshold is residual: strict instances are
                # already committed, so only abort_at - strict remains
                inner_abort = None if abort_at is None or want_witness else abort_at - strict
                inner_count, inner_phi = _min_halfspace_count(
                    inner_vecs, inner_w, inner_abort, want_witness
                )
                cand = strict + inner_count
                if best is None or cand < best:
                    best = cand
                    if want_witness:
                        if inner_phi is None:
                            best_phi = u
                        else:
                            bound = 1 + max(abs(sum(map(mul, inner_phi, c))) for c in coords)
                            best_phi = tuple(
                                bound * a + b for a, b in zip(u, inner_phi)
                            )
                    if abort_at is not None and best <= abort_at:
                        done = True
                        break
            if done:
                break
        if best is None:
            # Vectors span ell >= 2 but every subset was degenerate; cannot
            # happen, since some ell-1 of them are linearly independent.
            raise AssertionFailed("no admissible direction found")

    if best_phi is not None and restricted:
        lifted = [0] * dim
        for t, p in enumerate(pivots):
            lifted[p] = best_phi[t]
        best_phi = tuple(lifted)
    return best, best_phi


def _primitive_profile(
    vecs: Iterable[Sequence[int]], weights: Iterable[int]
) -> tuple[list[tuple[int, ...]], list[int], int]:
    """The primitive directions of the nonzero vectors, distinct in order of
    first appearance with merged weights, and the weight of the zero
    vectors; one gcd per vector."""
    zero = 0
    profile: dict[tuple[int, ...], int] = {}
    for v, w in zip(vecs, weights):
        g = gcd(*v)
        if g == 0:
            zero += w
            continue
        if g != 1:
            v = tuple([x // g for x in v])
        profile[v] = profile.get(v, 0) + w
    return list(profile), list(profile.values()), zero


def _difference_profile(
    grid: Sequence[tuple[int, ...]], points: PointMultiset, origin: tuple[int, ...]
) -> tuple[list[tuple[int, ...]], list[int], int]:
    """Primitive difference directions around the origin with merged
    weights, plus the multiplicity sitting exactly at the origin.

    grid[i] is entry i of the multiset and origin the query point, all
    on one integer grid (``points.integer_points``).  Differences are
    reduced to primitive vectors, so the grid never shows in the result.
    """
    differences = [tuple(map(sub, p, origin)) for p in grid]
    return _primitive_profile(differences, [mult for _, mult in points.entries])


@dataclass(frozen=True)
class DepthWitness:
    """A depth value together with a half-space attaining it.

    The half-space boundary passes through the queried point and the
    closed side contains exactly ``depth`` instances of the multiset.
    """

    point: Point
    depth: int
    halfspace: HalfSpace


def _query(
    q: Point, points: PointMultiset, want_witness: bool
) -> tuple[int, tuple[int, ...] | None, tuple[int, tuple[tuple[int, ...], ...]]]:
    """(depth, functional, (scale, grid)) of an unthresholded query, the
    grid holding the entries and then q at that scale
    (``integer_points``)."""
    if len(q) != points.dim:
        raise DimensionMismatch("query dimension differs from multiset dimension")
    scale, grid = integer_points(points.support() + (q,))
    vecs, ws, at_origin = _difference_profile(grid, points, grid[-1])
    count, phi = _min_halfspace_count(vecs, ws, None, want_witness)
    return at_origin + count, phi, (scale, grid)


def depth_value(q: Point, points: PointMultiset) -> int:
    """Exact half-space depth of q in the multiset, without a witness."""
    return _query(q, points, False)[0]


def halfspace_depth(q: Point, points: PointMultiset) -> DepthWitness:
    """Exact depth of q with a minimising closed half-space through q.

    The witness is recounted against every entry of the multiset, with
    its multiplicity, before returning.
    """
    return recounted_witness(q, points, *_query(q, points, True))


def recounted_witness(
    q: Point,
    points: PointMultiset,
    depth: int,
    phi: tuple[int, ...] | None,
    on_grid: tuple[int, Sequence[tuple[int, ...]]] | None = None,
) -> DepthWitness:
    """The witness of depth ``depth`` at q whose half-space has normal phi
    (e1 when None), after recounting it against every entry of the
    multiset; raises AssertionFailed when the count differs.  on_grid,
    (scale, grid) with grid the entries and then q at that scale
    (``integer_points``), is computed when not given.

    phi is a functional of the minimiser, read on any integer grid of the
    input: grids are positive multiples of it, and the boundary passes
    through q, so phi.(p - q) >= 0 has one answer on all of them.  The
    half-space is phi.x >= phi.q, which is scale * phi . x >= level with
    level = phi . (q * scale), all ints.
    """
    if phi is None:
        phi = tuple(1 if i == 0 else 0 for i in range(points.dim))
    scale, grid = on_grid if on_grid is not None else integer_points(points.support() + (q,))
    level = sum(map(mul, phi, grid[-1]))
    check = sum(mult for p, (_, mult) in zip(grid, points.entries) if sum(map(mul, phi, p)) >= level)
    if check != depth:
        raise AssertionFailed(
            f"witness half-space counts {check} instances, claimed depth {depth}"
        )
    return DepthWitness(q, depth, HalfSpace.from_integers([scale * v for v in phi], level))


# A scan's input: the entries on an integer grid, and each candidate with
# its point on that grid.
IntPoint = tuple[int, ...]
Candidates = tuple[Sequence[IntPoint], Iterable[tuple[Sequence[int | Fraction], IntPoint]]]


def _order_statistic_box(
    grid: Sequence[IntPoint], points: PointMultiset, m: int
) -> list[tuple[int, int]] | None:
    """Per coordinate the range [m-th smallest, m-th largest] of the
    instance values, or None when one is empty, for the entries of the
    multiset on an integer grid (grid[i] is entry i), in the grid's
    units.

    Any point of depth >= m must land in this box: the axis half-space
    beyond the m-th order statistic contains fewer than m instances.
    The values are read off the (value, multiplicity) pairs sorted once
    per coordinate, so no instance is expanded, whatever the
    multiplicities.
    """
    n = points.size
    if m > n:
        return None
    mults = [mult for _, mult in points.entries]
    box: list[tuple[int, int]] = []
    for column in zip(*grid):
        pairs = sorted(zip(column, mults))
        below = list(itertools.accumulate([mult for _, mult in pairs]))
        lo, hi = pairs[bisect_left(below, m)][0], pairs[bisect_left(below, n - m + 1)][0]
        if lo > hi:
            return None
        box.append((lo, hi))
    return box


def _integer_box(
    points: PointMultiset, m: int
) -> tuple[list[tuple[int, int]], tuple[IntPoint, ...]]:
    """(box, grid): the order-statistic box of an integral multiset for
    depth target m, and the entries on their integer grid, which the
    scan reads too."""
    if m < 1:
        raise PreconditionViolated("depth target must be at least 1")
    if not points.entries:
        raise InputError("cannot scan an empty multiset")
    scale, grid = integer_points(points.support())
    if scale != 1:
        raise PreconditionViolated("integer centerpoint scan over non-integral instances")
    box = _order_statistic_box(grid, points, m)
    if box is None:
        raise CenterpointNotFound(f"no integer point of depth {m}: order-statistic box is empty")
    return box, grid


def _centre_out_order(box: list[tuple[int, int]]) -> Iterator[tuple[int, ...]]:
    """Integer points of the box by the L1 distance of 2x to lo + hi, then
    lexicographically, generated shell by shell.

    Coordinate c reaches the distances near[c], near[c] + 2, ..., far[c]
    and no others, so a shell's distance splits into per-coordinate
    distances exactly when each prefix leaves a remainder between the
    suffix sums of near and far; the generator never hits a dead end.
    """
    dim = len(box)
    mids = [lo + hi for lo, hi in box]
    near = [s % 2 for s in mids]
    far = [hi - lo for lo, hi in box]
    near_rest = [sum(near[c:]) for c in range(dim + 1)]
    far_rest = [sum(far[c:]) for c in range(dim + 1)]

    def shell(c: int, left: int) -> Iterator[tuple[int, ...]]:
        if c == dim:
            yield ()
            return
        s = mids[c]
        k_lo = max(near[c], left - far_rest[c + 1])
        k_hi = min(far[c], left - near_rest[c + 1])
        # 2x in [s - k_hi, s - k_lo], then in [s + max(k_lo, 1), s + k_hi]
        below = range(-((k_hi - s) // 2), (s - k_lo) // 2 + 1)
        above = range(-((-s - max(k_lo, 1)) // 2), (s + k_hi) // 2 + 1)
        for x in itertools.chain(below, above):
            for rest in shell(c + 1, left - abs(2 * x - s)):
                yield (x,) + rest

    for radius in range(near_rest[0], far_rest[0] + 1, 2):
        yield from shell(0, radius)


def _lattice_candidates(grid: Sequence[IntPoint], order: Iterable[IntPoint]) -> Candidates:
    """The entries of an integral multiset on their integer grid (scale
    1, from ``_integer_box``), and each box point of the order with
    itself as its grid point."""
    return grid, ((x, x) for x in order)


def _finite_candidates(points: PointMultiset, ambient: FiniteSet) -> Candidates:
    """The entries and a finite set's points on one integer grid, and each
    set point with its grid point."""
    n = len(points.entries)
    _, grid = integer_points(points.support() + ambient.points)
    return grid[:n], zip(ambient.points, grid[n:])


def _depth_step(grid: Sequence[IntPoint], points: PointMultiset) -> Callable[..., tuple]:
    """The per-candidate step of the scans and of ``deep_filter``, over the
    entries on an integer grid (grid[i] is entry i): step(origin,
    threshold, want_witness) is (copies, depth, functional) at grid point
    origin, the depth exact above threshold and otherwise <= threshold."""
    dim = points.dim
    # entries spanning every direction span it around any candidate too
    spread = [[a - b for a, b in zip(p, grid[0])] for p in grid]
    pivots = range(dim) if len(pivot_columns(spread, dim)) == dim else None

    def step(origin: IntPoint, threshold: int, want_witness: bool):
        vecs, ws, at_origin = _difference_profile(grid, points, origin)
        count, phi = _min_halfspace_count(vecs, ws, threshold - at_origin, want_witness, pivots)
        return at_origin, at_origin + count, phi

    return step


def deep_filter(points: PointMultiset, m: int, ambient: Lattice | FiniteSet) -> Callable[[tuple], bool]:
    """deep(p): whether p, an int tuple over Z^d or a stored point of a
    finite set, has depth >= m in the multiset: deep without a query when
    it holds >= m copies, else by the scans' step at threshold m - 1, all
    on one integer grid of the entries and the set's points."""
    finite = isinstance(ambient, FiniteSet)
    if finite:
        grid, pairs = _finite_candidates(points, ambient)
        at = {id(s): g for s, g in pairs}
    else:
        scale, grid = integer_points(points.support())
    heavy = {g for g, (_, mult) in zip(grid, points.entries) if mult >= m}
    step = _depth_step(grid, points)

    def deep(p: tuple) -> bool:
        origin = at[id(p)] if finite else tuple([scale * x for x in p])
        return origin in heavy or step(origin, m - 1, False)[1] >= m

    return deep


def _deeper_candidates(
    points: PointMultiset, scan: Candidates, m: int, want_witness: bool = False
) -> Iterator[tuple[Point, int, tuple[int, ...] | None]]:
    """Each candidate deeper than every earlier one, from depth m upwards,
    with its depth and, when asked for, the minimiser's functional.

    ``scan`` is the entries' grid and the (candidate, grid point) pairs
    of ``_lattice_candidates`` or ``_finite_candidates``.  A candidate is
    abandoned as soon as some half-space caps its depth at the running
    threshold, so a yielded candidate never hit the abort: its depth and
    functional are those of an unthresholded search (``halfspace_depth``
    over the entries other than its own copies, plus those copies).
    """
    grid, candidates = scan
    mult_at: dict[Point, int] = {p: mult for p, mult in points.entries}
    step = _depth_step(grid, points)
    best_depth = m - 1
    for cand, origin in candidates:
        at_origin, depth, phi = step(origin, best_depth, want_witness)
        # an int candidate finds its Fraction twin: equal values hash alike
        if mult_at.get(cand, 0) != at_origin:
            raise AssertionFailed("multiplicity bookkeeping out of step")
        if depth > best_depth:
            best_depth = depth
            # the l = 1 level answers a functional even when not asked
            yield tuple(Fraction(v) for v in cand), depth, phi if want_witness else None


def _last(found: Iterator[tuple[Point, int, tuple[int, ...] | None]]) -> Point | None:
    last = None
    for last, _, _ in found:
        pass
    return last


def _finite_set_check(points: PointMultiset, ambient: FiniteSet, m: int) -> None:
    if m < 1:
        raise PreconditionViolated("depth target must be at least 1")
    if ambient.dim != points.dim:
        raise DimensionMismatch("ambient dimension differs from multiset dimension")


def integer_centerpoint(points: PointMultiset, m: int) -> Point:
    """Lexicographically first deepest integer point of depth >= m.

    Scans the integer box between the m-th order statistics of each
    coordinate; raises CenterpointNotFound when no integer point reaches
    depth m.  All instances must themselves be integral.
    """
    box, grid = _integer_box(points, m)
    lex_order = itertools.product(*(range(lo, hi + 1) for lo, hi in box))
    best_point = _last(_deeper_candidates(points, _lattice_candidates(grid, lex_order), m))
    if best_point is None:
        raise CenterpointNotFound(f"no integer point of depth {m} in the scan box")
    return best_point


def finite_set_centerpoint(points: PointMultiset, ambient: FiniteSet, m: int) -> Point:
    """Lexicographically first deepest ambient-set point of depth >= m."""
    _finite_set_check(points, ambient, m)
    best_point = _last(_deeper_candidates(points, _finite_candidates(points, ambient), m))
    if best_point is None:
        raise CenterpointNotFound(f"no ambient point of depth {m}")
    return best_point


def first_deep_scan(
    points: PointMultiset, ambient: AmbientSet, m: int, want_witness: bool = False
) -> tuple[Point, int, tuple[int, ...] | None]:
    """The first ambient point p of depth >= m in scan order, with its
    exact depth and, when asked for, a minimising functional (None
    otherwise).

    Over Z^d the order-statistic box is scanned centre-out (see the
    module docstring) under the same preconditions as
    ``integer_centerpoint``; over a finite set its points are scanned in
    stored order.  Raises CenterpointNotFound exactly when the deepest
    search would.  The depth counts the mu copies of p, which lie on the
    functional's boundary; over the multiset less those copies the depth
    is depth - mu and ``recounted_witness`` turns the functional into
    its witness."""
    if isinstance(ambient, Lattice):
        if ambient.d != points.dim:
            raise DimensionMismatch("ambient dimension differs from multiset dimension")
        box, grid = _integer_box(points, m)
        scan = _lattice_candidates(grid, _centre_out_order(box))
    elif isinstance(ambient, FiniteSet):
        _finite_set_check(points, ambient, m)
        scan = _finite_candidates(points, ambient)
    else:
        raise UnsupportedAmbient(f"no deep-point scan over {ambient.describe()}")
    found = next(_deeper_candidates(points, scan, m, want_witness), None)
    if found is None:
        raise CenterpointNotFound(f"no point of {ambient.describe()} has depth {m}")
    return found
