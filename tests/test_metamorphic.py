"""Metamorphic checks: automorphisms of Z^d change no answer.

A unimodular integer matrix U (det U = +-1) followed by an integer
translation t maps Z^d onto itself and is affine, so it carries closed
half-spaces to closed half-spaces and convex combinations to convex
combinations with the same weights.  Depth, the existence of a
partition around a lattice point, and therefore refutations are all
invariant under x -> Ux + t.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tverberg.ambient import Lattice
from tverberg.certificates import verify_certificate
from tverberg.depth import halfspace_depth
from tverberg.oracle import verify_no_partition
from tverberg.planar import plane_tverberg
from tverberg.points import PointMultiset, point
from tverberg.witnesses import doignon_witness, onn_witness

# Elementary moves generating GL_d(Z): the shear adding k times
# coordinate j to coordinate i, the swap of coordinates i and j, and the
# reflection of coordinate i.
_MOVES = ("shear", "swap", "flip")


def _elementary(d, name, i, j, k):
    e = [[int(r == c) for c in range(d)] for r in range(d)]
    if name == "shear" and i != j:
        e[i][j] = k
    elif name == "swap":
        e[i][i], e[j][j], e[i][j], e[j][i] = e[i][j], e[j][i], e[i][i], e[j][j]
    elif name == "flip":
        e[i][i] = -1
    return e


def _compose(d, moves):
    u = [[int(r == c) for c in range(d)] for r in range(d)]
    for move in moves:
        e = _elementary(d, *move)
        u = [[sum(e[i][r] * u[r][j] for r in range(d)) for j in range(d)] for i in range(d)]
    return u


def _det(u):
    if len(u) == 1:
        return u[0][0]
    return sum(
        (-1) ** c * u[0][c] * _det([row[:c] + row[c + 1 :] for row in u[1:]])
        for c in range(len(u))
    )


@st.composite
def automorphisms(draw, d=2, shears=3):
    """(U, t): U in GL_d(Z) a product of at most ``shears`` elementary
    moves, t an integer translation."""
    index = st.integers(0, d - 1)
    moves = draw(
        st.lists(
            st.tuples(st.sampled_from(_MOVES), index, index, st.integers(-2, 2)),
            max_size=shears,
        )
    )
    u = _compose(d, moves)
    assert abs(_det(u)) == 1
    t = draw(st.tuples(*[st.integers(-5, 5)] * d))
    return u, t


def _apply(move, p):
    u, t = move
    return tuple(
        Fraction(sum(u[i][r] * p[r] for r in range(len(t))) + t[i]) for i in range(len(t))
    )


def _apply_all(move, points: PointMultiset) -> PointMultiset:
    return PointMultiset(((_apply(move, p), m) for p, m in points.entries), dim=points.dim)


def _lattice_points(min_size, max_size, d=2, box=4):
    return st.lists(
        st.tuples(*[st.integers(-box, box)] * d),
        min_size=min_size,
        max_size=max_size,
    ).map(lambda pts: PointMultiset.from_points([point(*p) for p in pts], dim=d))


@settings(max_examples=100, deadline=None)
@given(
    _lattice_points(1, 10),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    automorphisms(),
)
def test_depth_is_invariant(points, q, move):
    q = point(*q)
    before = halfspace_depth(q, points).depth
    assert halfspace_depth(_apply(move, q), _apply_all(move, points)).depth == before


@settings(max_examples=40, deadline=None)
@given(_lattice_points(9, 12), st.sampled_from([2, 3]), automorphisms())
def test_planar_certificates_verify_after_transform(points, m, move):
    moved = _apply_all(move, points)
    cert = plane_tverberg(moved, m, Lattice(2))
    assert verify_certificate(cert, moved).ok


@settings(max_examples=20, deadline=None)
@given(automorphisms())
def test_onn_witness_stays_refuted(move):
    assert verify_no_partition(_apply_all(move, onn_witness()), 2, Lattice(2))


@settings(max_examples=10, deadline=None)
@given(automorphisms())
def test_doignon_witness_stays_refuted(move):
    assert verify_no_partition(_apply_all(move, doignon_witness(3)), 3, Lattice(2))


@settings(max_examples=100, deadline=None)
@given(
    _lattice_points(1, 12, d=3, box=3),
    st.tuples(*[st.integers(-1, 1)] * 3),
    automorphisms(d=3),
)
def test_depth_is_invariant_in_z3(points, q, move):
    q = point(*q)
    before = halfspace_depth(q, points).depth
    assert halfspace_depth(_apply(move, q), _apply_all(move, points)).depth == before
