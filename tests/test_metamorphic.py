"""Metamorphic checks: automorphisms of Z^2 change no answer.

A unimodular integer matrix U (det U = +-1) followed by an integer
translation t maps Z^2 onto itself and is affine, so it carries closed
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
from tverberg.witnesses import onn_witness

# Elementary moves generating GL_2(Z): shears by k, the coordinate swap
# and the reflection of the first coordinate.
_MOVES = {
    "shear_x": lambda k: ((1, k), (0, 1)),
    "shear_y": lambda k: ((1, 0), (k, 1)),
    "swap": lambda k: ((0, 1), (1, 0)),
    "flip": lambda k: ((-1, 0), (0, 1)),
}


def _compose(moves):
    u = ((1, 0), (0, 1))
    for name, k in moves:
        e = _MOVES[name](k)
        u = tuple(
            tuple(sum(e[i][r] * u[r][j] for r in range(2)) for j in range(2))
            for i in range(2)
        )
    return u


@st.composite
def automorphisms(draw, shears=3):
    """(U, t): U a product of at most ``shears`` elementary moves."""
    moves = draw(
        st.lists(
            st.tuples(st.sampled_from(sorted(_MOVES)), st.integers(-2, 2)),
            max_size=shears,
        )
    )
    u = _compose(moves)
    assert abs(u[0][0] * u[1][1] - u[0][1] * u[1][0]) == 1
    t = draw(st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
    return u, t


def _apply(move, p):
    u, t = move
    return tuple(
        Fraction(u[i][0] * p[0] + u[i][1] * p[1] + t[i]) for i in range(2)
    )


def _apply_all(move, points: PointMultiset) -> PointMultiset:
    return PointMultiset(((_apply(move, p), m) for p, m in points.entries), dim=2)


def _lattice_points(min_size, max_size):
    return st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        min_size=min_size,
        max_size=max_size,
    ).map(lambda pts: PointMultiset.from_points([point(*p) for p in pts]))


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
