"""Brute-force depth oracle by closed-half-space direction enumeration.

Written against the definition only, sharing no code with the library:
the depth of q is the least number of instances (counted with
multiplicity) in a closed half-space whose boundary passes through q.
The minimum over all directions is attained on a finite candidate set:

  d = 2  counts are constant on open arcs between the directions
         orthogonal to some difference vector; perturbing off an arc
         endpoint never raises the count, so arc interiors suffice,
         and every interior is hit by a sum of two boundary directions
         (or by a difference vector itself when only one boundary
         pair exists).

  d = 3  every full-dimensional cone of the arrangement of planes
         {u : u.v = 0} is pointed once the differences span, and each
         of its extreme rays is parallel to a cross product of two
         differences; walking from such a ray into an adjacent cone
         means resolving the differences orthogonal to it, a planar
         problem handled by the d = 2 candidate set.

Lower-rank difference sets reduce to the spanned subspace first.

``coordinate_order_statistics`` is the library's previous scan box,
which expands every instance into a sorted list of Fractions per
coordinate, kept as the reference for the box read off sorted (value,
multiplicity) pairs.

``_min_halfspace_count`` below is the library's previous minimiser,
kept verbatim as the reference for the angular sweep that replaced its
two-dimensional level: it enumerates one candidate normal per
(l-1)-subset of the profile at every level.  Its small integer helpers
(forward-elimination pivot columns, gcd reduction, sign normalisation,
dot) are the library's previous ones, copied here, and its normals
beyond three dimensions come from the Fraction kernel of
``lp_oracle``, so none of its arithmetic is the library's.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from tverberg.errors import AssertionFailed


def _dot_int(u, v):
    return sum(a * b for a, b in zip(u, v))


def _reduce_int(vec):
    g = gcd(*vec)
    return tuple(v // g for v in vec)


def _canonical_sign(vec):
    for v in vec:
        if v != 0:
            return vec if v > 0 else tuple(-x for x in vec)
    return vec


def _int_pivot_columns(vecs, dim):
    """Pivot columns of the span of integer row vectors, fraction-free."""
    rows = [list(v) for v in vecs]
    pivots = []
    r = 0
    for col in range(dim):
        sel = -1
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                sel = i
                break
        if sel < 0:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        head = rows[r][col]
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            if f != 0:
                rows[i] = [a * head - b * f for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def _scaled_differences(q, points):
    """Integer difference vectors x - q, one per instance, zeros dropped.

    Returns (diffs, at_q) where at_q counts instances equal to q.
    """
    denom = 1
    for coord in q:
        denom = denom * coord.denominator // gcd(denom, coord.denominator)
    for p, _ in points.entries:
        for coord in p:
            denom = denom * coord.denominator // gcd(denom, coord.denominator)
    diffs = []
    at_q = 0
    for p, mult in points.entries:
        vec = tuple(int((a - b) * denom) for a, b in zip(p, q))
        if all(c == 0 for c in vec):
            at_q += mult
        else:
            diffs.extend([vec] * mult)
    return diffs, at_q


def _count(direction, diffs):
    return sum(1 for v in diffs if _dot(direction, v) >= 0)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _directions_2d(diffs):
    perps = [(-v[1], v[0]) for v in diffs]
    cands = []
    for p in perps:
        cands.append(p)
        cands.append((-p[0], -p[1]))
    for i in range(len(perps)):
        for j in range(i + 1, len(perps)):
            a, b = perps[i], perps[j]
            for s in (1, -1):
                c = (a[0] + s * b[0], a[1] + s * b[1])
                if c != (0, 0):
                    cands.append(c)
                    cands.append((-c[0], -c[1]))
    for v in diffs:
        cands.append(v)
        cands.append((-v[0], -v[1]))
    return cands


def _depth_2d(diffs):
    if not diffs:
        return 0
    return min(_count(u, diffs) for u in _directions_2d(diffs))


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _rank(diffs):
    rows = [[Fraction(c) for c in v] for v in diffs]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / lead
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _spanning_pair_coordinates(diffs):
    """Differences rewritten as integer pairs in a basis of their plane."""
    b1 = diffs[0]
    b2 = next(v for v in diffs if _rank([b1, v]) == 2)
    # Gram coordinates (b1.v, b2.v) realize exactly the functionals of
    # the plane, which is all a half-space count can ever see.
    return [(_dot(b1, v), _dot(b2, v)) for v in diffs]


def _depth_3d(diffs):
    if not diffs:
        return 0
    rank = _rank(diffs)
    if rank == 1:
        v = diffs[0]
        return min(_count(v, diffs), _count(tuple(-c for c in v), diffs))
    if rank == 2:
        return _depth_2d(_spanning_pair_coordinates(diffs))
    best = len(diffs)
    rays = set()
    for i in range(len(diffs)):
        for j in range(i + 1, len(diffs)):
            u0 = _cross(diffs[i], diffs[j])
            if u0 == (0, 0, 0):
                continue
            g = gcd(gcd(abs(u0[0]), abs(u0[1])), abs(u0[2]))
            u0 = tuple(c // g for c in u0)
            rays.add(u0)
            rays.add(tuple(-c for c in u0))
    for u0 in rays:
        strict = sum(1 for v in diffs if _dot(u0, v) > 0)
        zeros = [v for v in diffs if _dot(u0, v) == 0]
        best = min(best, strict + len(zeros))
        if not zeros:
            continue
        b1 = zeros[0]
        if _rank(zeros) == 1:
            plane_dirs = [b1, tuple(-c for c in b1)]
        else:
            b2 = next(v for v in zeros if _rank([b1, v]) == 2)
            pairs = [(_dot(b1, v), _dot(b2, v)) for v in zeros]
            plane_dirs = [
                tuple(ca * b1[i] + cb * b2[i] for i in range(3))
                for ca, cb in _directions_2d(pairs)
            ]
        for w in plane_dirs:
            bound = 1 + max(abs(_dot(w, v)) for v in diffs)
            u = tuple(bound * a + b for a, b in zip(u0, w))
            best = min(best, _count(u, diffs))
    return best


def oracle_depth(q, points):
    """Half-space depth of q in the multiset, any dimension up to 3."""
    diffs, at_q = _scaled_differences(q, points)
    if not diffs:
        return at_q
    dim = len(q)
    if dim == 1:
        pos = sum(1 for v in diffs if v[0] > 0)
        neg = sum(1 for v in diffs if v[0] < 0)
        return at_q + min(pos, neg)
    if dim == 2:
        return at_q + _depth_2d(diffs)
    if dim == 3:
        return at_q + _depth_3d(diffs)
    raise ValueError(f"oracle handles dimensions 1..3, got {dim}")


def coordinate_order_statistics(points, m):
    """Per-coordinate integer range [ceil(m-th smallest), floor(m-th
    largest)] of the instance values, or None when one is empty."""
    n = points.size
    if m > n:
        return None
    box = []
    for c in range(points.dim):
        vals = []
        for p, mult in points.entries:
            vals.extend([p[c]] * mult)
        vals.sort()
        lo, hi = vals[m - 1], vals[n - m]
        lo_i = -((-lo.numerator) // lo.denominator)
        hi_i = hi.numerator // hi.denominator
        if lo_i > hi_i:
            return None
        box.append((lo_i, hi_i))
    return box


# -- reference minimiser (the library's previous enumeration) ---------------


def _normal_direction(sub: list[tuple[int, ...]], dim: int) -> tuple[int, ...] | None:
    """A nonzero integer direction orthogonal to all of sub, unique up to
    sign when sub spans a hyperplane of the dim-space; None otherwise."""
    if dim == 1:
        return (1,) if not sub else None
    if dim == 2:
        (a, b) = sub[0]
        if a == 0 and b == 0:
            return None
        return (-b, a)
    if dim == 3:
        (a1, a2, a3), (b1, b2, b3) = sub[0], sub[1]
        c = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
        if c == (0, 0, 0):
            return None
        return c
    # imported here: oracle_depth, which the benchmark's select check
    # imports, never reaches this line, so the benchmark's set-up does
    # not compile the Fraction reference module
    from lp_oracle import nullspace

    rows = [[Fraction(v) for v in s] for s in sub]
    basis = nullspace(rows, dim)
    if len(basis) != 1:
        return None
    denom = lcm(*(v.denominator for v in basis[0]))
    return tuple(int(v * denom) for v in basis[0])


def _min_halfspace_count(
    vecs: list[tuple[int, ...]],
    weights: list[int],
    abort_at: int | None,
    want_witness: bool,
) -> tuple[int, tuple[int, ...] | None]:
    """Minimum over nonzero u of the weighted count of v with u.v >= 0.

    Returns (count, functional); the functional is in the coordinates of
    the input vectors and attains the count, or None when not requested
    (or when vecs is empty).  With abort_at set, the search stops once
    the running minimum is <= abort_at; the returned count is then still
    an upper bound achieved by an actual direction.
    """
    if not vecs:
        return 0, None
    dim = len(vecs[0])
    pivots = _int_pivot_columns(vecs, dim)
    ell = len(pivots)
    coords = [tuple(v[p] for p in pivots) for v in vecs]

    best: int | None = None
    best_phi: tuple[int, ...] | None = None
    if ell == 1:
        pos = sum(w for c, w in zip(coords, weights) if c[0] > 0)
        neg = sum(w for c, w in zip(coords, weights) if c[0] < 0)
        if pos <= neg:
            best, best_phi = pos, (1,)
        else:
            best, best_phi = neg, (-1,)
    else:
        seen: set[tuple[int, ...]] = set()
        done = False
        for subset in itertools.combinations(range(len(coords)), ell - 1):
            u0 = _normal_direction([coords[i] for i in subset], ell)
            if u0 is None:
                continue
            u0 = _canonical_sign(_reduce_int(u0))
            if u0 in seen:
                continue
            seen.add(u0)
            for sgn in (1, -1):
                u = u0 if sgn == 1 else tuple(-x for x in u0)
                strict = 0
                inner_idx: list[int] = []
                for i, c in enumerate(coords):
                    s = _dot_int(u, c)
                    if s > 0:
                        strict += weights[i]
                    elif s == 0:
                        inner_idx.append(i)
                if best is not None and strict >= best:
                    continue
                inner_vecs = [coords[i] for i in inner_idx]
                inner_w = [weights[i] for i in inner_idx]
                # the inner threshold is residual: strict instances are
                # already committed, so only abort_at - strict remains
                inner_abort = None
                if abort_at is not None and not want_witness:
                    inner_abort = abort_at - strict
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
                            bound = 1 + max(abs(_dot_int(inner_phi, c)) for c in coords)
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

    if best_phi is not None:
        lifted = [0] * dim
        for t, p in enumerate(pivots):
            lifted[p] = best_phi[t]
        best_phi = tuple(lifted)
    return best, best_phi
