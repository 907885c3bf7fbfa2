"""Exact linear algebra and an exact-pivot phase-1 simplex, in integers.

One fraction-free elimination serves the library's linear algebra:
``rref`` is Gauss-Jordan on int rows with the integer-preserving row
update of Bareiss (Math. Comp. 1968), and ``pivot_columns`` (rank and
intrinsic coordinates), ``nullspace`` (an int kernel basis),
``solve_linear`` (ints over one positive denominator) and
``generalised_cross`` (the signed maximal minors, which give ``depth``
its hyperplane normals and ``product`` the affine dependence of a Radon
configuration) read their answers off its result, and so does the
geometry layer's membership system of affinely independent entries.  Only
width 3 of ``generalised_cross`` has its own closed form.

The elimination holds integers over one common denominator ``den``, the
previous pivot, so the true entries are the stored ones divided by
``den``.  A pivot on entry ``piv`` maps every other row v, with entry f
in the pivot column, to (v*piv - f*w) // den, where w is the pivot row;
the division is exact because ``den`` times the inverse of the current
basis is an integer matrix, and ``piv`` becomes the new ``den``.  So at
the end every pivot entry equals ``den``, the determinant of the pivot
columns of the pivot rows.  A row swap negates the row it moves down,
which keeps that determinant, so on a square matrix of full rank ``den``
is the matrix's determinant.

The simplex solves only feasibility systems (find x >= 0 with Ax = b),
which is all the geometry layer ever needs: convex-hull membership,
joint intersection points, and fiber feasibility are all
convex-combination systems.  The phase-1 optimum doubles as an exact
infeasibility gap for search scoring.  It pivots its tableau with the
same row update (integer-preserving pivoting, as in Avis's lrs).  Its
caller hands it the system in ints with one positive scale for the
whole system (the geometry layer builds its rows that way); positive
scalings of the whole system change no ratio and no reduced-cost sign,
so the pivots are exactly Bland's pivots on the rational tableau, and
the gap (divided back by the scale) and the solution, the basic values
over the final ``det``, are the same.

Pivoting uses Bland's rule (lowest-index entering variable, lowest-index
leaving variable among minimum ratios), which guarantees termination and
makes every answer deterministic for a given system, independent of any
hashing or iteration-order accidents.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

_ZERO = Fraction(0)


def rref(rows: Sequence[Sequence[int]], width: int) -> tuple[list[list[int]], list[int], int]:
    """(reduced, pivots, den): the nonzero rows of den times the reduced
    row echelon form of the int rows, pivoting in the first width
    columns, their pivot columns, and the common denominator den (1 when
    there is no pivot), which every pivot entry equals."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    den = 1
    for col in range(width):
        top = len(pivots)
        sel = next((i for i in range(top, len(mat)) if mat[i][col]), None)
        if sel is None:
            continue
        if sel != top:
            mat[top], mat[sel] = mat[sel], [-v for v in mat[top]]
        prow = mat[top]
        piv = prow[col]
        for i, row in enumerate(mat):
            if i != top:
                f = row[col]
                if f:
                    mat[i] = [(v * piv - f * w) // den for v, w in zip(row, prow)]
                elif piv != den:
                    mat[i] = [v * piv // den for v in row]
        den = piv
        pivots.append(col)
        if len(pivots) == len(mat):
            break
    return mat[: len(pivots)], pivots, den


def pivot_columns(rows: Sequence[Sequence[int]], width: int) -> list[int]:
    """Pivot columns of the row space; restriction to them is injective
    on the row space, so they serve as exact intrinsic coordinates.
    When the first width rows have full rank, so have all rows, and
    their elimination alone settles it."""
    head = rref(rows[:width], width)[1]
    return head if len(head) == width else rref(rows, width)[1]


def nullspace(rows: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """Basis of {x : Rx = 0 for every row R} in ints, one vector per free
    column in order: |den| times the vector with that free variable 1
    and the others 0."""
    reduced, pivots, den = rref(rows, width)
    sign = 1 if den > 0 else -1
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        vec = [0] * width
        vec[free] = sign * den
        for r, pcol in zip(reduced, pivots):
            vec[pcol] = -sign * r[free]
        basis.append(vec)
    return basis


def solve_linear(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[list[int], int] | None:
    """One exact solution of Rx = rhs (free variables zero) as (nums, den)
    with x_j = nums[j] / den and den > 0, or None when there is none."""
    if not rows:
        return [], 1
    width = len(rows[0])
    reduced, pivots, den = rref([[*r, v] for r, v in zip(rows, rhs)], width + 1)
    if pivots and pivots[-1] == width:  # pivot in the rhs column: inconsistent
        return None
    sign = 1 if den > 0 else -1
    nums = [0] * width
    for r, pcol in zip(reduced, pivots):
        nums[pcol] = sign * r[width]
    return nums, sign * den


def generalised_cross(rows: Sequence[Sequence[int]], width: int) -> tuple[int, ...] | None:
    """The generalised cross product of width - 1 integer rows of length
    width (width >= 3): the signed maximal minors, entry j being (-1)^j
    times the determinant of the rows without column j, or None when
    they all vanish, which happens exactly when the rows are dependent.
    It is orthogonal to every row, so it spans the kernel of the rows
    whenever they are independent: the normal of a hyperplane spanned
    by difference vectors, or the affine dependence of width points
    (their coordinate rows plus a row of ones).

    Beyond width 3 it is read off ``rref``: for independent rows one
    column f is free, the minor without it is den, and the kernel
    vector with entry den at f holds -r[f] at the pivot of each reduced
    row r, so the minors are that vector times (-1)^f."""
    if width == 3:
        (a1, a2, a3), (b1, b2, b3) = rows[0], rows[1]
        c = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
        return c if any(c) else None
    reduced, pivots, den = rref(rows, width)
    if len(pivots) < width - 1:
        return None
    free = next(j for j, p in enumerate([*pivots, width]) if j != p)
    sign = -1 if free % 2 else 1
    c = [0] * width
    c[free] = sign * den
    for r, pcol in zip(reduced, pivots):
        c[pcol] = -sign * r[free]
    return tuple(c)


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
