from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tverberg.errors import DimensionMismatch, InputError
from tverberg.geometry import convex_system
from tverberg.points import (
    ConvexCoefficients,
    HalfSpace,
    PointMultiset,
    format_rational,
    point,
    rational,
)

import lp_oracle
from certificate_oracle import grammar_rational
from certificate_oracle import rational as reference_rational
from radial_oracle import primitive


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
    den = k * off.denominator
    assert HalfSpace.from_integers((den * nx, den * ny), k * off.numerator) == base


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


_LIMIT = sys.get_int_max_str_digits()
# signs, blanks, separators and digits the grammar refuses: Arabic-Indic
# three, a fullwidth one and a superscript two
_NEAR_GRAMMAR = "0123456789-+/ _.e\n\u0663\uff11\u00b2"


def _long_digits(count: int, signed: bool) -> str:
    return ("-" if signed else "") + "7" * count


_RATIONAL_TEXT = st.one_of(
    st.text(_NEAR_GRAMMAR, max_size=9),
    st.builds(_long_digits, st.integers(_LIMIT - 1, _LIMIT + 1), st.booleans()),
    st.builds(
        "{}/{}".format,
        st.builds(_long_digits, st.sampled_from([1, _LIMIT - 1, _LIMIT, _LIMIT + 1]), st.booleans()),
        st.sampled_from(["0", "3", "1" * (_LIMIT - 1), "1" * _LIMIT, "1" * (_LIMIT + 1), "", "-2"]),
    ),
)


@given(_RATIONAL_TEXT)
@example("")
@example("1/0")
@example("-0/7")
@example(" 1")
@example("1_0")
@example("+1")
@example("\u0663")
@example("\uff11")
@example("\u00b2")
@example("7" * _LIMIT + "/" + "1" * (_LIMIT + 1))
def test_rational_accepts_exactly_the_grammar(text):
    """The parser reads strings without a regular expression; it accepts
    what ``-?[0-9]+(/[0-9]+)?`` accepts, with the same value, and refuses
    the rest with the same message, digit strings at the int conversion
    limit included."""
    got = _outcome(rational, text)
    assert got == _outcome(grammar_rational, text)
    assert type(got) is Fraction or got[0] == "InputError"


def _merged_by_dict(entries, dim):
    """The previous constructor body: entries merged in a dict keyed by
    point, then sorted; the reference for the sort-and-merge one."""
    merged = {}
    for p, mult in entries:
        if mult < 0:
            raise InputError("negative multiplicity")
        if mult == 0:
            continue
        if dim is None:
            dim = len(p)
        elif len(p) != dim:
            raise DimensionMismatch(f"point of dimension {len(p)} in multiset of dimension {dim}")
        merged[p] = merged.get(p, 0) + mult
    if dim is None:
        raise InputError("dimension required for an empty multiset")
    return tuple(sorted(merged.items()))


def _built(entries, dim):
    try:
        return PointMultiset(entries, dim=dim).entries
    except (InputError, DimensionMismatch) as exc:
        return type(exc).__name__, str(exc)


def _reference(entries, dim):
    try:
        return _merged_by_dict(entries, dim)
    except (InputError, DimensionMismatch) as exc:
        return type(exc).__name__, str(exc)


def test_multiset_constructor_matches_the_dict_merge():
    """Same entries, and the same first error, as merging in a dict, for
    every order of the input and multiplicities split over repeated
    entries; equal points of int and Fraction type merge as in the dict,
    keeping the first one given."""
    rng = random.Random(1515)
    for trial in range(400):
        d = rng.randint(1, 3)
        support = list(
            {
                tuple(Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3])) for _ in range(d))
                for _ in range(rng.randint(1, 5))
            }
        )
        entries = []
        for p in support:
            mult = rng.randint(0, 4)
            while mult:
                piece = rng.randint(1, mult)
                entries.append((p, piece))
                mult -= piece
            if rng.random() < 0.3:
                entries.append((p, 0))
        if trial % 5 == 0 and entries:
            # a fault somewhere in the input: the first one in input order is named
            for _ in range(rng.randint(1, 2)):
                pos = rng.randrange(len(entries) + 1)
                bad = rng.choice([(support[0], -1), (support[0] + (Fraction(0),), 1), ((), 1)])
                entries.insert(pos, bad)
        if trial % 7 == 0 and entries:
            # int tuples that equal Fraction points
            entries += [
                (tuple(int(x) for x in p), 1)
                for p, _ in entries
                if len(p) == d and all(x.denominator == 1 for x in p)
            ]
        for _ in range(4):
            order = rng.sample(entries, len(entries))
            dim = d if rng.random() < 0.5 else None
            got, want = _built(order, dim), _reference(order, dim)
            assert got == want, order
            if got and not isinstance(got[0], str):
                # the kept point objects are the dict's: the first given
                assert [tuple(map(type, p)) for p, _ in got] == [tuple(map(type, p)) for p, _ in want]
    assert _built([], None) == _reference([], None)


def test_integer_weights_and_combination_match_a_fraction_fold():
    """On hulls with non-unit scales: convex_system's weights, read off the
    integer tableau, are the Fraction simplex's; the constructor accepts
    exactly the weight sets a Fraction sum and sign check accept; and
    ``combination`` on the integer coordinates is the Fraction fold."""
    rng = random.Random(1516)
    scales = []
    verdicts = []
    for _ in range(300):
        d = rng.randint(1, 3)
        hulls = [
            PointMultiset.from_points(
                [
                    tuple(Fraction(rng.randint(-12, 12), rng.choice([2, 3, 4, 6])) for _ in range(d))
                    for _ in range(rng.randint(1, 5))
                ],
                dim=d,
            )
            for _ in range(rng.randint(1, 3))
        ]
        scales += [h.integer_coordinates()[0] for h in hulls]
        pin = tuple(Fraction(rng.randint(-6, 6), rng.choice([1, 5])) for _ in range(rng.randint(0, d)))
        gap, got = convex_system(hulls, pin)
        want = lp_oracle.convex_solution(hulls, pin)
        assert (gap, None if got is None else tuple(c.weights for c in got)) == want
        if got is not None:
            points = [c.combination(h) for c, h in zip(got, hulls)]
            assert points == [lp_oracle.combination(c.weights, h) for c, h in zip(got, hulls)]
            assert all(type(x) is Fraction for p in points for x in p)
            assert all(p == points[0] for p in points) and points[0][: len(pin)] == pin
        hull = hulls[0]
        indices = rng.sample(range(len(hull.entries)), rng.randint(1, len(hull.entries)))
        raw = [(j, Fraction(rng.randint(-1, 6), rng.choice([1, 2, 3, 7]))) for j in indices]
        if rng.random() < 0.5:
            # rescale so the weights sum to one, negatives and all
            total = sum(w for _, w in raw)
            if total:
                raw = [(j, w / total) for j, w in raw]
        valid = all(w >= 0 for _, w in raw) and sum(w for _, w in raw) == 1
        verdicts.append(valid)
        try:
            coeffs = ConvexCoefficients(raw)
        except InputError:
            assert not valid, raw
            continue
        assert valid, raw
        assert coeffs.weights == tuple(sorted((j, w) for j, w in raw if w))
        assert coeffs.combination(hull) == lp_oracle.combination(coeffs.weights, hull)
    assert sum(s > 1 for s in scales) > 0.9 * len(scales)
    assert 50 < sum(verdicts) < len(verdicts) - 50
