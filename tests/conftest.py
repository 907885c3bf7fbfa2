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


def driver_corpus(rng: random.Random, fan):
    """Seeded (certificate, source) pairs from every DRIVERS row: Z^1,
    Z^2, Z^3, finite sets of Helly number 1-4 and a 1-D finite set,
    Z^1 x R^1, Z^1 x R^2, Z^2 x R^1 and R^2."""
    from tverberg.ambient import FiniteSet, Lattice, MixedLattice, RealSpace
    from tverberg.planar import finite_gate, z2_gate
    from tverberg.points import point
    from tverberg.product import tverberg_partition

    grid = FiniteSet(tuple(point(x, y) for x in range(3) for y in range(3)), 2)
    collinear = FiniteSet(tuple(point(i, 2 * i) for i in range(4)), 2)
    single = FiniteSet((point(1, 1),), 2)
    line = FiniteSet(tuple(point(Fraction(x, 2)) for x in range(-5, 6)), 1)
    cases = []
    for _ in range(6):
        m = rng.randint(2, 4)
        pts = [point(rng.randint(-5, 5)) for _ in range(2 * m - 1 + rng.randint(0, 2))]
        cases.append((pts, m, Lattice(1)))
    for _ in range(10):
        m = rng.randint(2, 5)
        pts = random_lattice_multiset(rng, z2_gate(m) + rng.randint(0, 2), 2, rng.choice([2, 8, 20]))
        cases.append((pts.instances(), m, Lattice(2)))
    for _ in range(2):
        cases.append((random_lattice_multiset(rng, 17, 3, 2).instances(), 2, Lattice(3)))
    for ambient, he in ((single, 1), (collinear, 2), (fan, 3), (grid, 4), (line, 2)):
        for _ in range(3):
            m = rng.randint(2, 3)
            n = finite_gate(he, m) + rng.randint(0, 2)
            cases.append(([rng.choice(ambient.points) for _ in range(n)], m, ambient))
    for j, k, size in ((1, 1, 5), (1, 2, 7), (2, 1, 9)):
        for _ in range(3):
            pts = [
                tuple(point(*(rng.randint(-3, 3) for _ in range(j))))
                + tuple(random_rational(rng, 3, 4) for _ in range(k))
                for _ in range(size)
            ]
            cases.append((pts, 2, MixedLattice(j, k)))
    for _ in range(3):
        pts = [tuple(random_rational(rng, 3, 4) for _ in range(2)) for _ in range(4)]
        cases.append((pts, 2, RealSpace(2)))
    for pts, m, ambient in cases:
        source = PointMultiset.from_points(pts, dim=ambient.dim)
        yield tverberg_partition(source, m, ambient), source


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
