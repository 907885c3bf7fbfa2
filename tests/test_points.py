from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tverberg.errors import DimensionMismatch, InputError
from tverberg.points import (
    ConvexCoefficients,
    HalfSpace,
    PointMultiset,
    format_rational,
    point,
    primitive,
    rational,
)

from certificate_oracle import rational as reference_rational


def test_rational_parsing():
    assert rational("3") == 3
    assert rational("-2/3") == Fraction(-2, 3)
    assert rational("4/6") == Fraction(2, 3)
    assert rational(Fraction(5, 7)) == Fraction(5, 7)
    assert rational(9) == 9
    for bad in ("", "2/0", "a/b", "1/2/3", None, 0.5, "1.5", "  4/6 "):
        with pytest.raises(InputError):
            rational(bad)


def test_rational_follows_the_document_grammar():
    assert rational("-2/3") == Fraction(-2, 3)
    assert rational("4") == 4
    assert rational("-0") == 0
    for bad in (
        True, False,                     # JSON true/false are not numbers here
        "0.5", "1e3", " 7 ", "7\n", "1_000",
        "+3", "-2/-3", "2/+3", "1/0", "-5/0", "/3", "3/", "--1",
        "\u0663",                        # a non-ASCII digit
    ):
        with pytest.raises(InputError):
            rational(bad)


def test_rational_formatting():
    assert format_rational(Fraction(4)) == "4"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(6, 4)) == "3/2"


@given(st.fractions())
def test_rational_round_trip(x):
    assert rational(format_rational(x)) == x


def test_multiset_entries_sorted_and_merged():
    ms = PointMultiset.from_points(
        [point(1, 2), point(0, 0), point(1, 2), point(-1, 5)]
    )
    assert ms.entries == (
        (point(-1, 5), 1),
        (point(0, 0), 1),
        (point(1, 2), 2),
    )
    assert ms.size == 4
    assert ms.support_size == 3
    assert ms.multiplicity(point(1, 2)) == 2
    assert ms.multiplicity(point(9, 9)) == 0


def test_multiset_add_remove():
    ms = PointMultiset.from_points([point(0, 0), point(1, 1)])
    grown = ms.add(point(0, 0), 2)
    assert grown.multiplicity(point(0, 0)) == 3
    assert ms.multiplicity(point(0, 0)) == 1  # original untouched
    shrunk = grown.remove(point(0, 0), 3)
    assert shrunk.multiplicity(point(0, 0)) == 0
    assert shrunk.size == 1
    with pytest.raises(InputError):
        shrunk.remove(point(0, 0), 1)


def test_multiset_dimension_guard():
    with pytest.raises(DimensionMismatch):
        PointMultiset.from_points([point(0, 0), point(1, 1, 1)])
    with pytest.raises(InputError):
        PointMultiset.from_points([], dim=None)
    empty = PointMultiset.from_points([], dim=2)
    assert empty.size == 0 and empty.dim == 2


def test_multiset_instances_order():
    ms = PointMultiset.from_points([point(2, 0), point(0, 0), point(2, 0)])
    assert ms.instances() == [point(0, 0), point(2, 0), point(2, 0)]


def test_sub_multiset_and_integer_ranges():
    ms = PointMultiset(
        [(point(-1, "5/2"), 2), (point(0, 0), 1), (point("3/2", "-1/3"), 3)], dim=2
    )
    part = ms.sub_multiset((1, 0, 2))
    assert part == PointMultiset([(point("3/2", "-1/3"), 2), (point(-1, "5/2"), 1)], dim=2)
    assert part.integer_ranges() == ((-1, 0), (1, 2))
    assert part.integer_ranges() is part.integer_ranges()
    assert ms.integer_coordinates() == (6, ((-6, 0, 9), (15, 0, -2)), ((-6, 15), (0, 0), (9, -2)))
    assert ms.integer_coordinates() is ms.integer_coordinates()
    assert ms.sub_multiset((0, 1, 0)).integer_coordinates() == (1, ((0,), (0,)), ((0, 0),))
    assert ms.sub_multiset((0, 1, 0)).integer_ranges() == ((0, 0), (0, 0))
    assert ms.sub_multiset((0, 0, 3)).integer_ranges() == ((2, 0), (1, -1))
    for bad in ((1, 0), (3, 0, 0), (0, -1, 1)):
        with pytest.raises(InputError):
            ms.sub_multiset(bad)


def test_primitive():
    assert primitive(point(4, -6)) == (2, -3)
    assert primitive(point(0, 5)) == (0, 1)
    assert primitive((Fraction(1, 2), Fraction(3, 4))) == (2, 3)


def test_halfspace_normalization_preserves_side():
    a = HalfSpace(point(2, 4), Fraction(6))
    b = HalfSpace(point(1, 2), Fraction(3))
    assert a == b
    assert a.normal == (1, 2) and a.offset == 3
    # scaling by a negative would flip the half-space, so it must not
    # be collapsed with its opposite
    c = HalfSpace(point(-1, -2), Fraction(-3))
    assert c != a
    assert a.contains(point(0, 0)) is False
    assert c.contains(point(0, 0)) is True
    assert a.boundary_contains(point(3, 0))


@given(
    st.integers(-40, 40),
    st.integers(-40, 40),
    st.fractions(min_value=-30, max_value=30),
    st.integers(1, 12),
)
def test_halfspace_positive_scaling_invariant(nx, ny, off, k):
    if nx == 0 and ny == 0:
        return
    base = HalfSpace(point(nx, ny), Fraction(off))
    scaled = HalfSpace((Fraction(k * nx), Fraction(k * ny)), k * Fraction(off))
    assert base == scaled


def test_convex_coefficients_validation():
    good = ConvexCoefficients(((0, Fraction(1, 2)), (2, Fraction(1, 2))))
    assert dict(good.weights) == {0: Fraction(1, 2), 2: Fraction(1, 2)}
    with pytest.raises(InputError):
        ConvexCoefficients(((0, Fraction(1, 2)),))  # sums to 1/2
    with pytest.raises(InputError):
        ConvexCoefficients(((0, Fraction(3, 2)), (1, Fraction(-1, 2))))
    with pytest.raises(InputError):
        ConvexCoefficients(((-1, Fraction(1)),))
    # zero weights are dropped from the canonical form
    thin = ConvexCoefficients(((0, Fraction(1)), (3, Fraction(0))))
    assert thin.weights == ((0, Fraction(1)),)


def test_convex_combination():
    ms = PointMultiset.from_points([point(0, 0), point(2, 0), point(0, 2)])
    coeffs = ConvexCoefficients(
        ((0, Fraction(1, 2)), (1, Fraction(1, 4)), (2, Fraction(1, 4)))
    )
    assert coeffs.combination(ms) == (Fraction(1, 2), Fraction(1, 2))


def _outcome(parse, value):
    try:
        return parse(value)
    except InputError as exc:
        return ("InputError", str(exc))


def test_rational_reads_every_short_string_as_fraction_does():
    """Every string over '-0123456789/' of length at most 5: an accepted
    one parses to Fraction(s), and every string gets the reference
    parser's value or its InputError message."""
    accepted = 0
    for length in range(6):
        for chars in itertools.product("-0123456789/", repeat=length):
            s = "".join(chars)
            got = _outcome(rational, s)
            assert got == _outcome(reference_rational, s), s
            if isinstance(got, Fraction):
                assert got == Fraction(s) and type(got) is Fraction, s
                accepted += 1
    assert accepted > 100_000


def test_rational_reads_long_numbers_as_fraction_does():
    rng = random.Random(4300)
    for _ in range(2000):
        num = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 300)))
        den = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 300)))
        for s in (num, "-" + num, f"{num}/{den}", f"-{num}/{den}", f"{num}/1{den}"):
            got = _outcome(rational, s)
            assert got == _outcome(reference_rational, s), s
            if isinstance(got, Fraction):
                assert got == Fraction(s), s


def test_rational_rejects_with_the_reference_messages():
    for bad in ("1/0", " 7", "1e3", "0.5", "+1", "1/-2", "--1", True):
        with pytest.raises(InputError) as exc:
            rational(bad)
        with pytest.raises(InputError) as expected:
            reference_rational(bad)
        assert str(exc.value) == str(expected.value), bad
