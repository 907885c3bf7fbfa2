"""Exact rational points, multisets of points, and half-spaces.

Conventions used throughout the library:

* A point is a plain tuple of ``fractions.Fraction``.  Tuples compare
  lexicographically, hash, and unpack for free, which is exactly what the
  canonical orderings here need.  ``point()`` builds one from ints,
  rational strings, or Fractions.  ``rational()`` parses a string by
  the document grammar ('a' or 'a/b') and reads its digits as ints,
  never through a regular expression or ``Fraction``'s own string
  parser.

* A ``PointMultiset`` stores entries ``(point, multiplicity)`` sorted
  lexicographically with equal points merged.  Two multisets built from
  the same instances in any order are therefore identical objects values,
  and every algorithm that iterates a multiset is deterministic.  The
  constructor checks the entries in input order, then sorts them by
  point and merges neighbours, so it hashes no coordinate.

* ``ConvexCoefficients`` are weights over a multiset's entries, checked
  and combined as ints over the lcm of their denominators, against the
  multiset's integer coordinates: one Fraction per coordinate of the
  combined point.

* ``clockwise_key`` orders integer directions clockwise by a plain int
  tuple, which the planar depth sweep, the radial order and the
  shallow arc start all sort by.

* A ``HalfSpace`` is the closed set ``{x : normal . x >= offset}``.  The
  representation is normalized by a positive rational scaling so that the
  normal and offset are coprime integers; the sign is semantic (flipping
  it would denote the other side) and is never touched.

All arithmetic is exact; nothing in this module (or anywhere else in the
decision paths of the library) uses floating point.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter, lt
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatch, InputError

Point = tuple[Fraction, ...]

Rationalish = int | str | Fraction


_first = itemgetter(0)


def rational(value: Rationalish) -> Fraction:
    """Parse a rational from an int, a Fraction, or a string 'a' / 'a/b'.

    Strings follow the document grammar exactly: an optional minus sign,
    ASCII digits, and optionally a slash and a nonzero digit string.
    Decimals, exponents, spaces, underscores, plus signs, non-ASCII
    digits and bools are rejected.  A string the grammar accepts is read
    as ints, numerator and denominator, and reduced by ``Fraction``;
    digit strings longer than the interpreter's int conversion limit
    (``sys.get_int_max_str_digits``) are refused.
    """
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        # isdigit() holds on ASCII text for 0-9 only
        if not (value.isascii() and digits.isdigit() and (den.isdigit() or not slash)):
            raise InputError(f"bad rational string: {value!r}; expected 'a' or 'a/b'")
        try:
            if not slash:
                return Fraction(int(value))
            return Fraction(int(num), int(den))
        except ZeroDivisionError as exc:
            raise InputError(f"bad rational string: {value!r} has a zero denominator") from exc
        except ValueError:  # int() refuses digit strings over the interpreter's limit
            raise InputError(
                f"bad rational string of {len(value)} characters: a numerator or "
                f"denominator may have at most {sys.get_int_max_str_digits()} digits"
            ) from None
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise InputError(f"cannot interpret {value!r} as a rational")


def format_rational(value: Fraction | int) -> str:
    """Lowest-terms string form, 'a' or 'a/b' with b > 0.  An answer
    whose digits exceed the interpreter's int conversion limit came from
    input numbers too long to answer, and is refused like them."""
    try:
        return str(value)
    except ValueError:
        raise InputError(
            f"cannot write a rational of more than {sys.get_int_max_str_digits()} digits; "
            "the input's numbers are too long"
        ) from None


def point(*coords: Rationalish) -> Point:
    """Build a point from rational-like coordinates."""
    return tuple(rational(c) for c in coords)


def sub(p: Point, q: Point) -> Point:
    return tuple(a - b for a, b in zip(p, q, strict=True))


def dot(p: Sequence[Fraction], q: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(p, q, strict=True)), Fraction(0))


def cross2(u: Sequence, v: Sequence):
    """The planar cross product u x v; positive when v is counter-clockwise of u."""
    return u[0] * v[1] - u[1] * v[0]


def clockwise_key(start: tuple[int, int], directions: Iterable[tuple[int, int]]):
    """Sort key factory for items (direction, rank, ...) with integer
    directions among ``directions``: the clockwise sweep position from
    ``start``, ties between equal or positively parallel directions
    broken by rank.

    The key is (bucket, (K*a)//c, rank), with a = start.d, c = start x d
    and K = max|c|^2 + 1.  Bucket 0 is the ray of ``start``, 1 the open
    half-plane clockwise of it, 2 the opposite ray and 3 the rest (the
    middle term 0 on the rays).  Inside a half-plane the clockwise angle
    increases with a/c, and distinct ratios differ by at least
    1/max|c|^2, so their floors at scale K order them exactly.
    """
    sx, sy = start
    scale = max([(sx * dy - sy * dx) ** 2 for dx, dy in directions], default=0) + 1

    def key(item) -> tuple:
        dx, dy = item[0]
        c = sx * dy - sy * dx
        a = sx * dx + sy * dy
        if c == 0:
            return (0 if a > 0 else 2), 0, item[1]
        return (1 if c < 0 else 3), scale * a // c, item[1]

    return key


def is_integral(p: Point) -> bool:
    return all(c.denominator == 1 for c in p)


def integer_points(points: Sequence[Point]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(scale, scaled): the least positive int that makes every coordinate
    of the points integral (the lcm of their denominators), and each
    point times scale, in ints.  ``PointMultiset.integer_coordinates``
    keeps this for a multiset whose grid is read again; a caller that
    reads a grid once takes it from here, so nothing stays on a multiset
    that its owner may keep for long."""
    scale = lcm(*{x.denominator for p in points for x in p})
    return scale, tuple([tuple([x.numerator * (scale // x.denominator) for x in p]) for p in points])


def integer_weights(
    weights: Sequence[tuple[int, Fraction]],
) -> tuple[int, list[tuple[int, int]]]:
    """(common, scaled): the lcm of the weights' denominators, and each
    (index, weight) pair with its weight times common, an int."""
    common = lcm(*[w.denominator for _, w in weights])
    return common, [(i, w.numerator * (common // w.denominator)) for i, w in weights]


class PointMultiset:
    """A finite multiset of points of one dimension, canonically ordered.

    ``entries`` is a tuple of (point, multiplicity) pairs sorted
    lexicographically by point with multiplicities >= 1; ``size`` counts
    instances, ``support_size`` counts distinct points.
    """

    __slots__ = ("entries", "dim", "_ranges", "_integer")

    def __init__(self, entries: Iterable[tuple[Point, int]], dim: int | None = None):
        kept: list[tuple[Point, int]] = []
        for p, mult in entries:
            if mult < 0:
                raise InputError("negative multiplicity")
            if mult == 0:
                continue
            if dim is None:
                dim = len(p)
            elif len(p) != dim:
                raise DimensionMismatch(
                    f"point of dimension {len(p)} in multiset of dimension {dim}"
                )
            kept.append((p, mult))
        if dim is None:
            raise InputError("dimension required for an empty multiset")
        # a stable sort by point puts equal points side by side, the
        # first given first; merging them there hashes no coordinate
        kept.sort(key=_first)
        merged: list[tuple[Point, int]] = []
        for p, mult in kept:
            if merged and merged[-1][0] == p:
                merged[-1] = (merged[-1][0], merged[-1][1] + mult)
            else:
                merged.append((p, mult))
        object.__setattr__(self, "entries", tuple(merged))
        object.__setattr__(self, "dim", dim)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("PointMultiset is immutable")

    @classmethod
    def from_points(cls, points: Iterable[Point], dim: int | None = None) -> "PointMultiset":
        return cls(((p, 1) for p in points), dim=dim)

    @property
    def size(self) -> int:
        return sum(m for _, m in self.entries)

    @property
    def support_size(self) -> int:
        return len(self.entries)

    def support(self) -> tuple[Point, ...]:
        return tuple(p for p, _ in self.entries)

    def sub_multiset(self, counts: Sequence[int]) -> "PointMultiset":
        """The multiset holding counts[i] copies of entry i.  Entry order
        is already canonical, so nothing is merged or sorted again."""
        if len(counts) != len(self.entries):
            raise InputError("one count per entry")
        entries = []
        for (p, mult), c in zip(self.entries, counts):
            if not 0 <= c <= mult:
                raise InputError(f"{c} copies of {p} requested; {mult} present")
            if c:
                entries.append((p, c))
        return self._canonical(entries, self.dim)

    @classmethod
    def _from_read(cls, entries: Sequence[tuple[Point, int]], dim: int) -> "PointMultiset":
        """The multiset of entries (multiplicities >= 1) read from a
        document, with its integer grid (``integer_coordinates``)
        computed from them.  Scaling by a positive int keeps the order,
        so when the scaled points strictly increase the entries are
        canonical and kept as given; others go through the constructor."""
        scale, points = integer_points([p for p, _ in entries])
        if not all(map(lt, points, points[1:])):
            return cls(entries, dim=dim)
        out = cls._canonical(entries, dim)
        object.__setattr__(out, "_integer", (scale, tuple(zip(*points)), points))
        return out

    @classmethod
    def _canonical(cls, entries: Sequence[tuple[Point, int]], dim: int) -> "PointMultiset":
        """A multiset over entries already in canonical order, merged and
        positive, built without sorting them again."""
        out = object.__new__(cls)
        object.__setattr__(out, "entries", tuple(entries))
        object.__setattr__(out, "dim", dim)
        return out

    def integer_coordinates(
        self,
    ) -> tuple[int, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """(scale, columns, points) of the entries in integers: scale is
        the least positive int that makes every entry coordinate integral
        (the lcm of their denominators), points[j] is entry j's point
        times scale and columns[c][j] its coordinate c.  Defined for
        nonempty multisets; computed on first use and kept, as the
        multiset is immutable."""
        try:
            return self._integer
        except AttributeError:
            pass
        scale, points = integer_points(self.support())
        integer = (scale, tuple(zip(*points)), points)
        object.__setattr__(self, "_integer", integer)
        return integer

    def integer_ranges(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(lows, highs): per coordinate, the ceiling of the least and the
        floor of the greatest entry coordinate, so the integers of the
        bounding box run from lows[c] to highs[c].  Defined for nonempty
        multisets and kept.  A part of a partition search is given them
        from its entries' rounded coordinates (``_keep_ranges``); any
        other multiset reads them off its integer coordinates on first
        use."""
        try:
            return self._ranges
        except AttributeError:
            pass
        scale, columns, _ = self.integer_coordinates()
        ranges = (
            tuple([-(-min(column) // scale) for column in columns]),
            tuple([max(column) // scale for column in columns]),
        )
        self._keep_ranges(ranges)
        return ranges

    def _keep_ranges(self, ranges: tuple[tuple[int, ...], tuple[int, ...]]) -> None:
        """Keep ranges as the answer of ``integer_ranges``."""
        object.__setattr__(self, "_ranges", ranges)

    def instances(self) -> list[Point]:
        """Instance list in canonical order (entry order, copies adjacent)."""
        out: list[Point] = []
        for p, m in self.entries:
            out.extend([p] * m)
        return out

    def multiplicity(self, p: Point) -> int:
        for q, m in self.entries:
            if q == p:
                return m
            if q > p:
                return 0
        return 0

    def __contains__(self, p: Point) -> bool:
        return self.multiplicity(p) > 0

    def add(self, p: Point, count: int = 1) -> "PointMultiset":
        return PointMultiset(self.entries + ((p, count),), dim=self.dim)

    def remove(self, p: Point, count: int = 1) -> "PointMultiset":
        """The multiset less count copies of p, in the same entry order."""
        m = self.multiplicity(p)
        if not 0 <= count <= m:
            raise InputError(f"cannot remove {count} copies of {p}; only {m} present")
        return self._canonical(
            [(q, mm - count if q == p else mm) for q, mm in self.entries if q != p or mm > count],
            self.dim,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointMultiset)
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.entries))

    def __iter__(self) -> Iterator[tuple[Point, int]]:
        return iter(self.entries)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{tuple(str(c) for c in p)}x{m}" if m > 1 else f"{tuple(str(c) for c in p)}"
            for p, m in self.entries
        )
        return f"PointMultiset[{inner}]"


class HalfSpace:
    """Closed half-space {x : normal . x >= offset} with coprime integer data."""

    __slots__ = ("normal", "offset")

    def __init__(self, normal: Sequence[Fraction | int], offset: Fraction | int):
        fracs = [Fraction(v) for v in normal]
        off = Fraction(offset)
        denom_lcm = 1
        for f in list(fracs) + [off]:
            denom_lcm = denom_lcm * f.denominator // gcd(denom_lcm, f.denominator)
        self._reduce([int(f * denom_lcm) for f in fracs], int(off * denom_lcm))

    @classmethod
    def from_integers(cls, normal: Sequence[int], offset: int) -> "HalfSpace":
        """{x : normal . x >= offset} for int data, divided by its gcd
        without passing through Fractions."""
        out = object.__new__(cls)
        out._reduce(normal, offset)
        return out

    def _reduce(self, normal: Sequence[int], offset: int) -> None:
        if not any(normal):
            raise InputError("half-space normal must be nonzero")
        g = gcd(offset, *normal)
        object.__setattr__(self, "normal", tuple([v // g for v in normal]))
        object.__setattr__(self, "offset", offset // g)

    def __setattr__(self, name, value):
        raise AttributeError("HalfSpace is immutable")

    @property
    def dim(self) -> int:
        return len(self.normal)

    def contains(self, p: Point) -> bool:
        return dot(self.normal, p) >= self.offset

    def boundary_contains(self, p: Point) -> bool:
        return dot(self.normal, p) == self.offset

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HalfSpace)
            and self.normal == other.normal
            and self.offset == other.offset
        )

    def __hash__(self) -> int:
        return hash((self.normal, self.offset))

    def __repr__(self) -> str:
        return f"HalfSpace({self.normal}.x >= {self.offset})"


class ConvexCoefficients:
    """Exact convex-combination weights over the entries of a multiset.

    ``weights`` maps entry index -> Fraction weight; weights are >= 0 and
    sum to exactly 1.  Entry indices refer to the canonically sorted
    entries of the multiset the coefficients were computed against.
    The weights are checked, and kept for ``combination``, as ints over
    the lcm of their denominators (``integer_weights``).
    """

    __slots__ = ("weights", "_integer")

    def __init__(self, weights: Iterable[tuple[int, Fraction]]):
        cleaned = tuple(
            (int(i), f)
            for i, w in sorted(weights)
            if (f := w if type(w) is Fraction else Fraction(w))
        )
        common, scaled = integer_weights(cleaned)
        for i, c in scaled:
            if i < 0:
                raise InputError("negative entry index in coefficients")
            if c < 0:
                raise InputError("negative convex coefficient")
        if sum([c for _, c in scaled]) != common:
            raise InputError("convex coefficients must sum to exactly 1")
        object.__setattr__(self, "weights", cleaned)
        object.__setattr__(self, "_integer", (common, scaled))

    def __setattr__(self, name, value):
        raise AttributeError("ConvexCoefficients is immutable")

    def combination(self, multiset: PointMultiset) -> Point:
        """Evaluate the combination against a multiset's entries, in ints:
        with L the lcm of the weights' denominators and s the multiset's
        scale, coordinate a is the sum of (w*L) times entry j's coordinate
        a times s (``integer_coordinates``), over L*s."""
        common, scaled = self._integer
        for i, _ in scaled:
            if i >= len(multiset.entries):
                raise InputError(f"coefficient entry index {i} out of range")
        scale, _, points = multiset.integer_coordinates()
        terms = [(points[i], c) for i, c in scaled]
        return tuple(
            [Fraction(sum([c * p[a] for p, c in terms]), common * scale) for a in range(multiset.dim)]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, ConvexCoefficients) and self.weights == other.weights

    def __hash__(self) -> int:
        return hash(self.weights)

    def __repr__(self) -> str:
        return "ConvexCoefficients(%s)" % ", ".join(f"{i}:{w}" for i, w in self.weights)
