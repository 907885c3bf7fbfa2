from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tverberg.points import PointMultiset


def random_lattice_multiset(rng: random.Random, n: int, d: int, box: int) -> PointMultiset:
    return PointMultiset.from_points(
        [tuple(Fraction(rng.randint(-box, box)) for _ in range(d)) for _ in range(n)]
    )


def random_rational(rng: random.Random, box: int, den: int = 8) -> Fraction:
    return Fraction(rng.randint(-box * den, box * den), rng.randint(1, den))


def clustered_multiset(
    rng: random.Random, sizes, centers, jitter: int = 1
) -> PointMultiset:
    pts = []
    for size, (cx, cy) in zip(sizes, centers):
        for _ in range(size):
            pts.append(
                (
                    Fraction(cx + rng.randint(-jitter, jitter)),
                    Fraction(cy + rng.randint(-jitter, jitter)),
                )
            )
    return PointMultiset.from_points(pts)


@pytest.fixture
def rng():
    return random.Random(0x5EED)


@pytest.fixture
def triangle_fan_set():
    """Seven planar points whose largest free convex subset has size 3.

    A big triangle with four interior or boundary points strung along
    its diagonal: any four points contain either a collinear triple or
    a point caught inside the others' hull.
    """
    from tverberg.ambient import FiniteSet
    from tverberg.points import point

    pts = (
        point(0, 0),
        point(8, 0),
        point(0, 8),
        point(1, 1),
        point(2, 2),
        point(3, 3),
        point(4, 4),
    )
    return FiniteSet(pts, 2)


@pytest.fixture
def seed_miss_set():
    """18 points of Z^3 on which every seed of the Z^3 bipartition misses.

    Found by a seeded search over random sets: the first point of depth 3,
    (0, 1, -1), is no instance and lies on no segment of two instances,
    and the complement of its first minimal subset (a tetrahedron) misses
    it, so the minimal-subset scan is what splits the set.
    """
    from tverberg.points import point

    raw = [
        (-6, 0, 3), (-4, -6, -5), (-4, 5, -6), (-1, -2, 4), (0, 5, 4), (1, -6, 6),
        (1, 1, 0), (1, 5, 4), (1, 6, 2), (2, -1, 6), (2, 0, 3), (4, -3, 5),
        (4, 1, -5), (5, 2, 2), (5, 5, -2), (5, 6, -6), (6, -2, -6), (6, 6, -2),
    ]
    return PointMultiset.from_points([point(*p) for p in raw])
