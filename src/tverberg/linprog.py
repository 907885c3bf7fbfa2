"""Exact linear algebra and an exact-pivot phase-1 simplex.

Inputs and outputs are rational (ints and ``fractions.Fraction``).  The
linear algebra (``rref`` and what is built on it) runs over Fraction,
except the one integer maximal-minor routine: ``generalised_cross``,
the signed maximal minors of width - 1 integer rows (by
``integer_det``), which gives ``depth`` its hyperplane normals and
``product`` the affine dependence of a Radon configuration;
the simplex takes an integer system and answers in integers over one
positive denominator, which its caller turns into Fractions only where
it keeps a value.
The simplex solves only feasibility systems (find x >= 0 with Ax = b),
which is all the geometry layer ever needs: convex-hull membership,
joint intersection points, and fiber feasibility are all
convex-combination systems.  The phase-1 optimum doubles as an exact
infeasibility gap for search scoring.

Pivoting uses Bland's rule (lowest-index entering variable, lowest-index
leaving variable among minimum ratios), which guarantees termination and
makes every answer deterministic for a given system, independent of any
hashing or iteration-order accidents.

The simplex is integer throughout (integer-preserving pivoting:
Bareiss, Math. Comp. 1968, as in Avis's lrs).  Its caller hands it the
system in ints with one positive scale for the whole system (the
geometry layer builds its rows that way), and the tableau holds
integers over one common denominator ``det``, the previous pivot, so
the true entries are the stored ones divided by ``det``.  A pivot on
entry ``piv`` maps every other row v, with entering entry f, to
(v*piv - f*w) // det, where w is the pivot row; the division is exact
because ``det`` times the inverse basis is an integer matrix, and
``piv`` becomes the new ``det``.  Positive scalings of the whole system
change no ratio and no reduced-cost sign, so the pivots are exactly
Bland's pivots on the rational tableau, and the gap (divided back by
the scale) and the solution, the basic values over the final ``det``,
are the same.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = list[list[Fraction]]

_ZERO = Fraction(0)


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
    """The generalised cross product of width - 1 integer rows of length
    width (width >= 3): the signed maximal minors, entry j being (-1)^j
    times the determinant of the rows without column j, or None when
    they all vanish, which happens exactly when the rows are dependent.
    It is orthogonal to every row, so it spans the kernel of the rows
    whenever they are independent: the normal of a hyperplane spanned
    by difference vectors, or the affine dependence of width points
    (their coordinate rows plus a row of ones)."""
    if width == 3:
        (a1, a2, a3), (b1, b2, b3) = rows[0], rows[1]
        c = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
    else:
        c = tuple(
            (-1) ** j * integer_det([r[:j] + r[j + 1 :] for r in rows]) for j in range(width)
        )
    return c if any(c) else None


def solve_phase1(
    a: Sequence[Sequence[int]], b: Sequence[int], scale: int = 1, solution: bool = True
) -> tuple[Fraction, tuple[list[int], int] | None]:
    """Minimize the total artificial mass of (a/scale) x = b/scale, x >= 0.

    a and b hold ints and scale is a positive int: the system is given
    already in integers, scaled once as a whole (a scale per row would
    change the reduced costs and so the pivots), and it is pivoted as
    it is.  Returns (gap, x): gap == 0 means the system is feasible and
    x = (nums, det) is an exact basic feasible solution in integers,
    x_j = nums[j] / det with every nums[j] >= 0 and det > 0 (the last
    pivot), which a caller that reads only feasibility skips with
    ``solution=False`` (x is then None); gap > 0 is the exact l1
    distance to feasibility of the right-hand side b/scale (and x is
    None).  The scale changes neither the pivots nor the values
    nums[j] / det, though it may change nums and det themselves.
    """
    m = len(a)
    if m == 0:
        return _ZERO, ([], 1) if solution else None
    n = len(a[0])

    # Tableau columns: n original variables, m artificials, then the rhs;
    # each row is sign-normalised.
    total_cols = n + m
    tableau: list[list[int]] = []
    for i in range(m):
        r = list(a[i])
        bv = b[i]
        if bv < 0:
            r = [-v for v in r]
            bv = -bv
        r += [0] * m + [bv]
        r[n + i] = 1
        tableau.append(r)
    basis = [n + i for i in range(m)]
    # Reduced costs for minimizing the artificial sum; cost[total_cols] is
    # the negative of the current objective value.
    cost = [-sum(col) for col in zip(*tableau)]
    cost[n:total_cols] = [0] * m
    det = 1

    while True:
        enter = -1
        for j in range(total_cols):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                if leave < 0:
                    leave = i
                    continue
                # rhs_i / coef against rhs_leave / coef_leave, both coefs > 0
                cand = tableau[i][total_cols] * tableau[leave][enter]
                best = tableau[leave][total_cols] * coef
                if cand < best or (cand == best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # Unbounded phase-1 cannot happen (objective bounded below by 0).
            raise ArithmeticError("phase-1 simplex detected unboundedness")
        prow = tableau[leave]
        piv = prow[enter]
        for i in range(m):
            if i != leave:
                row = tableau[i]
                f = row[enter]
                if f:
                    tableau[i] = [(v * piv - f * w) // det for v, w in zip(row, prow)]
                else:
                    tableau[i] = [v * piv // det for v in row]
        f = cost[enter]
        cost = [(v * piv - f * w) // det for v, w in zip(cost, prow)]
        det = piv
        basis[leave] = enter

    if cost[total_cols] != 0:
        return Fraction(-cost[total_cols], det * scale), None
    if not solution:
        return _ZERO, None
    nums = [0] * n
    for i in range(m):
        if basis[i] < n:
            nums[basis[i]] = tableau[i][total_cols]
    return _ZERO, (nums, det)
