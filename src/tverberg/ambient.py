"""Ambient set descriptors.

The ambient set S is the discrete (or mixed, or real) universe that
partition points must belong to.  Four descriptors cover the library:

* ``Lattice(d)``          -- Z^d
* ``MixedLattice(j, k)``  -- Z^j x R^k, integer block first
* ``RealSpace(d)``        -- R^d
* ``FiniteSet(points)``   -- an explicit finite subset of Q^d

Descriptors are immutable values; ``contains`` is the only predicate the
rest of the library needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, InputError
from .points import Point, is_integral


@dataclass(frozen=True)
class Lattice:
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise InputError("lattice dimension must be >= 1")

    @property
    def dim(self) -> int:
        return self.d

    def contains(self, p: Point) -> bool:
        return len(p) == self.d and is_integral(p)

    def describe(self) -> str:
        return f"Z^{self.d}"


@dataclass(frozen=True)
class MixedLattice:
    j: int
    k: int

    def __post_init__(self):
        if self.j < 1 or self.k < 1:
            raise InputError("mixed lattice needs j >= 1 integer and k >= 1 real coordinates")

    @property
    def dim(self) -> int:
        return self.j + self.k

    def contains(self, p: Point) -> bool:
        return len(p) == self.dim and is_integral(p[: self.j])

    def describe(self) -> str:
        return f"Z^{self.j} x R^{self.k}"


@dataclass(frozen=True)
class RealSpace:
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise InputError("space dimension must be >= 1")

    @property
    def dim(self) -> int:
        return self.d

    def contains(self, p: Point) -> bool:
        return len(p) == self.d

    def describe(self) -> str:
        return f"R^{self.d}"


class FiniteSet:
    """An explicit finite ambient set; stored as a deduplicated sorted tuple."""

    __slots__ = ("points", "d")

    def __init__(self, points, d: int | None = None):
        pts = sorted(set(points))
        if not pts and d is None:
            raise InputError("empty finite ambient set needs an explicit dimension")
        if d is None:
            d = len(pts[0])
        for p in pts:
            if len(p) != d:
                raise DimensionMismatch("finite ambient set mixes dimensions")
        object.__setattr__(self, "points", tuple(pts))
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteSet is immutable")

    @property
    def dim(self) -> int:
        return self.d

    def contains(self, p: Point) -> bool:
        return p in self.points

    def describe(self) -> str:
        return f"finite set of {len(self.points)} points in Q^{self.d}"

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteSet) and self.points == other.points and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.points, self.d))

    def __repr__(self) -> str:
        return f"FiniteSet({len(self.points)} points, dim={self.d})"


AmbientSet = Lattice | MixedLattice | RealSpace | FiniteSet
