from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from tverberg import geometry
from tverberg.linprog import (
    generalised_cross,
    integer_det,
    nullspace,
    pivot_columns,
    rref,
    solve_linear,
    solve_phase1,
)
from tverberg.points import PointMultiset

from conftest import random_lattice_multiset, random_rational
from lp_oracle import solve_phase1 as oracle_phase1


def F(x):
    return Fraction(x)


def _integer_system(a, b):
    """(rows, rhs, scale): a and b times one common scale, the lcm of
    their denominators, as solve_phase1 takes them."""
    scale = lcm(*[Fraction(v).denominator for row in a for v in row], *[Fraction(v).denominator for v in b])
    return (
        [[int(Fraction(v) * scale) for v in row] for row in a],
        [int(Fraction(v) * scale) for v in b],
        scale,
    )


def _values(x):
    """The solution solve_phase1 gives in integers over one denominator,
    as Fractions; checks the form on the way."""
    nums, det = x
    assert type(det) is int and det > 0
    assert all(type(v) is int and v >= 0 for v in nums)
    return [Fraction(v, det) for v in nums]


def _answer(got):
    gap, x = got
    return gap, None if x is None else _values(x)


def test_generalised_cross_is_the_kernel_of_its_rows():
    """The signed maximal minors of width - 1 integer rows are orthogonal
    to every row, None exactly when the rows are dependent, and, put
    under the rows as a last row, give the determinant (-1)^(width-1)
    times their squared length (expansion along that row)."""
    rng = random.Random(77)
    dependent = 0
    for _ in range(400):
        width = rng.randint(3, 5)
        box = rng.choice((1, 4))
        rows = [tuple(rng.randint(-box, box) for _ in range(width)) for _ in range(width - 1)]
        cross = generalised_cross(rows, width)
        if len(pivot_columns(rows, width)) < width - 1:
            assert cross is None
            dependent += 1
            continue
        assert cross is not None and all(type(v) is int for v in cross)
        assert all(sum(a * b for a, b in zip(row, cross)) == 0 for row in rows)
        assert integer_det(rows + [cross]) == (-1) ** (width - 1) * sum(v * v for v in cross)
    assert 20 <= dependent <= 380


def test_rref_identity():
    rows = [[F(2), F(0)], [F(0), F(3)]]
    reduced, pivots = rref(rows)
    assert reduced == [[F(1), F(0)], [F(0), F(1)]]
    assert pivots == [0, 1]


def test_pivot_columns_rank_deficient():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(0), F(1)]]
    assert pivot_columns(rows, 3) == [0, 2]


def test_nullspace_dimensions():
    rows = [[F(1), F(1), F(1)]]
    basis = nullspace(rows, 3)
    assert len(basis) == 2
    for vec in basis:
        assert sum(vec) == 0


def test_solve_linear_consistent_and_not():
    rows = [[F(1), F(2)], [F(3), F(4)]]
    x = solve_linear(rows, [F(5), F(6)])
    assert x is not None
    assert [sum(a * b for a, b in zip(r, x)) for r in rows] == [F(5), F(6)]
    assert solve_linear([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]) is None


def test_solve_linear_underdetermined_random():
    rng = random.Random(4)
    for _ in range(60):
        rows_n = rng.randint(1, 3)
        cols_n = rng.randint(rows_n, 5)
        rows = [
            [F(rng.randint(-4, 4)) for _ in range(cols_n)] for _ in range(rows_n)
        ]
        target = [F(rng.randint(-3, 3)) for _ in range(cols_n)]
        rhs = [sum(a * b for a, b in zip(r, target)) for r in rows]
        x = solve_linear(rows, rhs)
        assert x is not None  # consistent by construction
        assert [sum(a * b for a, b in zip(r, x)) for r in rows] == rhs


def test_phase1_feasible_by_construction():
    rng = random.Random(11)
    for _ in range(80):
        rows_n = rng.randint(1, 4)
        cols_n = rng.randint(1, 6)
        a = [[F(rng.randint(-5, 5)) for _ in range(cols_n)] for _ in range(rows_n)]
        hidden = [F(rng.randint(0, 4)) for _ in range(cols_n)]
        b = [sum(c * x for c, x in zip(row, hidden)) for row in a]
        gap, x = _answer(solve_phase1(*_integer_system(a, b)))
        assert gap == 0
        assert all(v >= 0 for v in x)
        assert [sum(c * v for c, v in zip(row, x)) for row in a] == b


def test_phase1_infeasible():
    # x1 + x2 = -1 has no nonnegative solution
    gap, _ = solve_phase1([[1, 1]], [-1])
    assert gap > 0
    # x1 - x2 = 3 and x1 + x2 = 1 forces x1 = 2, x2 = -1
    gap, _ = solve_phase1([[1, -1], [1, 1]], [3, 1])
    assert gap > 0


def test_phase1_gap_is_exact_distance_witness():
    # the reported gap never understates: re-adding it as slack succeeds
    rng = random.Random(7)
    for _ in range(40):
        rows_n = rng.randint(1, 3)
        cols_n = rng.randint(1, 4)
        a = [[F(rng.randint(-3, 3)) for _ in range(cols_n)] for _ in range(rows_n)]
        b = [F(rng.randint(-6, 6)) for _ in range(rows_n)]
        gap, x = _answer(solve_phase1(*_integer_system(a, b)))
        assert gap >= 0
        if gap == 0:
            assert [sum(c * v for c, v in zip(row, x)) for row in a] == b
            assert all(v >= 0 for v in x)


def _same_answer(a, b):
    rows, rhs, scale = _integer_system(a, b)
    got = _answer(solve_phase1(rows, rhs, scale))
    assert got == oracle_phase1(a, b), (a, b)
    gap, _ = got
    assert type(gap) is Fraction
    # any one positive scale of the whole system gives the same answer,
    # and a feasibility-only solve reads the same gap
    assert _answer(solve_phase1([[3 * v for v in r] for r in rows], [3 * v for v in rhs], 3 * scale)) == got
    assert solve_phase1(rows, rhs, scale, solution=False) == (gap, None)


def _random_entry(rng, as_fraction):
    if not as_fraction:
        return rng.randint(-5, 5)
    return Fraction(rng.randint(-12, 12), rng.randint(1, 6))


def test_phase1_matches_fraction_oracle_on_random_systems():
    # int and Fraction entries, denominators up to 6, right-hand sides of
    # both signs, duplicate columns and zero rows (ties for Bland's rule)
    rng = random.Random(2024)
    for trial in range(2000):
        as_fraction = trial % 2 == 1
        rows_n = rng.randint(1, 5)
        cols_n = rng.randint(1, 6)
        a = [[_random_entry(rng, as_fraction) for _ in range(cols_n)] for _ in range(rows_n)]
        if rng.random() < 0.3:
            col = rng.randrange(cols_n)
            for row in a:
                row.append(row[col])
        if rng.random() < 0.2:
            a[rng.randrange(rows_n)] = [0] * len(a[0])
        if rng.random() < 0.3:
            a.append([1] * len(a[0]))
        b = [_random_entry(rng, as_fraction) for _ in a]
        _same_answer(a, b)
    _same_answer([], [])


def test_phase1_matches_fraction_oracle_on_convex_systems(monkeypatch):
    # every system convex_system builds: random hulls, with and without pins
    seen = []

    def checked(a, b, scale=1, solution=True):
        assert all(type(v) is int for row in a for v in row) and all(type(v) is int for v in b)
        _same_answer([[Fraction(v, scale) for v in row] for row in a], [Fraction(v, scale) for v in b])
        seen.append(len(a))
        return solve_phase1(a, b, scale, solution)

    monkeypatch.setattr(geometry, "solve_phase1", checked)
    rng = random.Random(77)
    for trial in range(300):
        d = rng.randint(1, 3)
        hulls = [
            random_lattice_multiset(rng, rng.randint(1, 5), d, 3)
            for _ in range(rng.randint(1, 3))
        ]
        if trial % 3 == 0:
            hulls[0] = PointMultiset.from_points(
                [tuple(random_rational(rng, 3, 6) for _ in range(d)) for _ in range(3)]
            )
        geometry.convex_system(hulls)
        pin = [random_rational(rng, 3, 6) for _ in range(rng.randint(1, d))]
        geometry.convex_system(hulls, pin)
    assert len(seen) == 600
