"""Reference linear algebra in ``fractions.Fraction``: the phase-1
simplex over a Fraction tableau, the Fraction elimination and the
cofactor determinant.

``solve_phase1`` is the textbook form of
``tverberg.linprog.solve_phase1``: every entry is a Fraction and every
pivot divides.  The library pivots an integer tableau instead; the tests
check that both return the same (gap, x) on the same systems, so this
copy shares no code with the library.

``convex_rows`` builds the geometry layer's convex-combination system
in Fractions, row for row, so the tests can ask this simplex every
question the geometry layer answers with its own integer rows.

``rref``, ``pivot_columns``, ``nullspace`` and ``solve_linear`` are the
library's previous Fraction elimination, and ``integer_det`` and
``generalised_cross`` its previous cofactor expansion (here at every
width; the library kept a closed form at width 3), kept as the reference
for the one integer elimination, ``tverberg.linprog.rref``, that replaced
them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = list[list[Fraction]]


def rref(rows: Sequence[Sequence[Fraction]], width: int | None = None) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column list)."""
    mat: Matrix = [list(map(Fraction, r)) for r in rows]
    if width is None:
        width = len(mat[0]) if mat else 0
    pivots: list[int] = []
    row = 0
    for col in range(width):
        sel = None
        for r in range(row, len(mat)):
            if mat[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        mat[row], mat[sel] = mat[sel], mat[row]
        inv = Fraction(1) / mat[row][col]
        mat[row] = [v * inv for v in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return mat[:row], pivots


def pivot_columns(rows: Sequence[Sequence[Fraction]], width: int) -> list[int]:
    """Pivot columns of the row space; restriction to them is injective
    on the row space, so they serve as exact intrinsic coordinates."""
    _, pivots = rref(rows, width)
    return pivots


def nullspace(rows: Sequence[Sequence[Fraction]], width: int) -> Matrix:
    """Basis of {x : Rx = 0 for every row R}, free variables set to 1."""
    reduced, pivots = rref(rows, width)
    pivot_set = set(pivots)
    basis: Matrix = []
    for free in range(width):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for r, pcol in zip(reduced, pivots):
            vec[pcol] = -r[free]
        basis.append(vec)
    return basis


def solve_linear(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction] | None:
    """One exact solution of Rx = rhs (free variables zero), or None."""
    if not rows:
        return []
    width = len(rows[0])
    aug = [list(map(Fraction, r)) + [Fraction(v)] for r, v in zip(rows, rhs)]
    reduced, pivots = rref(aug, width + 1)
    for r, pcol in zip(reduced, pivots):
        if pcol == width:  # pivot in the rhs column: inconsistent
            return None
    x = [Fraction(0)] * width
    for r, pcol in zip(reduced, pivots):
        x[pcol] = r[width]
    return x


def integer_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, by expansion along row 0."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * integer_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, a in enumerate(rows[0])
    )


def generalised_cross(rows: Sequence[Sequence[int]], width: int) -> tuple[int, ...] | None:
    """The signed maximal minors of width - 1 integer rows, entry j being
    (-1)^j times the determinant of the rows without column j, or None
    when they all vanish."""
    c = tuple(
        (-1) ** j * integer_det([list(r[:j]) + list(r[j + 1 :]) for r in rows]) for j in range(width)
    )
    return c if any(c) else None


def solve_phase1(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> tuple[Fraction, list[Fraction] | None]:
    """Minimize the total artificial mass of Ax = b, x >= 0.

    Returns (gap, x): gap == 0 means the system is feasible and x is an
    exact basic feasible solution; gap > 0 is the exact l1 distance to
    feasibility of the right-hand side (and x is None).
    """
    m = len(a)
    n = len(a[0]) if m else 0
    rows: Matrix = []
    rhs: list[Fraction] = []
    for i in range(m):
        r = [Fraction(v) for v in a[i]]
        bv = Fraction(b[i])
        if bv < 0:
            r = [-v for v in r]
            bv = -bv
        rows.append(r)
        rhs.append(bv)
    if m == 0:
        return Fraction(0), [Fraction(0)] * n

    # Tableau columns: n original variables then m artificials.
    tableau = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    # Reduced costs for minimizing the artificial sum.
    cost = [Fraction(0)] * (n + m + 1)
    for j in range(n):
        cost[j] = -sum(tableau[i][j] for i in range(m))
    cost[n + m] = -sum(rhs)  # negative of current objective value

    total_cols = n + m
    while True:
        enter = -1
        for j in range(total_cols):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best_ratio: Fraction | None = None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > 0:
                ratio = tableau[i][total_cols] / coeff
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < basis[leave]
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            # Unbounded phase-1 cannot happen (objective bounded below by 0).
            raise ArithmeticError("phase-1 simplex detected unboundedness")
        piv = tableau[leave][enter]
        tableau[leave] = [v / piv for v in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [v - f * w for v, w in zip(tableau[i], tableau[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [v - f * w for v, w in zip(cost, tableau[leave])]
        basis[leave] = enter

    gap = -cost[n + m]
    if gap != 0:
        return gap, None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i][total_cols]
    return Fraction(0), x


def convex_rows(hulls, pin=()) -> tuple[Matrix, list[Fraction]]:
    """The system of ``tverberg.geometry.convex_system`` in Fractions and
    in its row order: the pins over hull 0's entries, one sum-to-one row
    per hull, then hull 0 minus hull i, one row per coordinate, for every
    i >= 1.  Columns are the hulls' entries, hull by hull."""
    supports = [[p for p, _ in h.entries] for h in hulls]
    width = sum(len(sup) for sup in supports)

    def row(idx, entries):
        before = sum(len(sup) for sup in supports[:idx])
        return [Fraction(0)] * before + entries + [Fraction(0)] * (width - before - len(entries))

    rows = [row(0, [Fraction(p[c]) for p in supports[0]]) for c in range(len(pin))]
    rhs = [Fraction(v) for v in pin]
    for idx, sup in enumerate(supports):
        rows.append(row(idx, [Fraction(1)] * len(sup)))
        rhs.append(Fraction(1))
    for idx in range(1, len(hulls)):
        for c in range(hulls[0].dim):
            first = row(0, [Fraction(p[c]) for p in supports[0]])
            other = row(idx, [Fraction(p[c]) for p in supports[idx]])
            rows.append([u - v for u, v in zip(first, other)])
            rhs.append(Fraction(0))
    return rows, rhs


def convex_solution(hulls, pin=()):
    """(gap, weights) of this module's simplex on ``convex_rows``: weights
    holds, per hull, the (entry index, weight) pairs of its nonzero
    weights, or is None when the gap is positive."""
    gap, x = solve_phase1(*convex_rows(hulls, pin))
    if gap != 0:
        return gap, None
    weights = []
    offset = 0
    for h in hulls:
        size = len(h.entries)
        weights.append(tuple((j, x[offset + j]) for j in range(size) if x[offset + j] != 0))
        offset += size
    return gap, tuple(weights)


def combination(weights, hull) -> tuple[Fraction, ...]:
    """The point the (entry index, weight) pairs combine over hull's entries."""
    return tuple(
        sum((w * hull.entries[j][0][c] for j, w in weights), Fraction(0)) for c in range(hull.dim)
    )
