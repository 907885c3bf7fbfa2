from __future__ import annotations

import itertools
import random
from fractions import Fraction

import partition_oracle
import pytest
from depth_oracles import oracle_depth

from tverberg import geometry, oracle
from tverberg.ambient import FiniteSet, Lattice, MixedLattice, RealSpace
from tverberg.errors import BudgetExceeded, DimensionMismatch, NotFound
from tverberg.geometry import hull_membership, in_hull
from tverberg.oracle import (
    exact_tverberg_number,
    iter_multiset_partitions,
    search_partition,
    verify_no_partition,
)
from tverberg.planar import helly_number
from tverberg.product import double_witness
from tverberg.points import PointMultiset, point
from tverberg.witnesses import convex_lowerbound_witness, doignon_witness, onn_witness


def _count(counts, m):
    return sum(1 for _ in iter_multiset_partitions(counts, m))


def _stirling2(n, k):
    total = 0
    for j in range(k + 1):
        total += (-1) ** j * _binom(k, j) * (k - j) ** n
    return total // _fact(k)


def _binom(n, k):
    return _fact(n) // (_fact(k) * _fact(n - k))


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_partition_counts_match_stirling_for_distinct_points():
    assert _count((1,) * 8, 3) == _stirling2(8, 3) == 966
    assert _count((1,) * 5, 2) == _stirling2(5, 2) == 15
    assert _count((1,) * 4, 2) == _stirling2(4, 2) == 7
    assert _count((1,) * 6, 6) == 1
    assert _count((1, 1), 3) == 0


def _brute_multiset_partitions(counts, m):
    """All partitions by labeling instances, canonicalized to count
    vectors; slow but independent of the production enumeration."""
    instances = []
    for idx, c in enumerate(counts):
        instances.extend([idx] * c)
    seen = set()
    for labels in itertools.product(range(m), repeat=len(instances)):
        if len(set(labels)) != m:
            continue
        parts = []
        for part_id in range(m):
            vec = [0] * len(counts)
            for inst, lab in zip(instances, labels):
                if lab == part_id:
                    vec[inst] += 1
            parts.append(tuple(vec))
        seen.add(tuple(sorted(parts, reverse=True)))
    return seen


def test_partition_enumeration_matches_brute_force():
    for counts, m in [
        ((2, 1, 1), 2),
        ((3, 2), 2),
        ((2, 2, 1), 3),
        ((1, 1, 1, 1), 3),
        ((4,), 2),
        ((2, 1, 1, 1), 4),
    ]:
        got = {tuple(sorted(p, reverse=True)) for p in iter_multiset_partitions(counts, m)}
        want = _brute_multiset_partitions(counts, m)
        assert got == want, (counts, m)
        assert _count(counts, m) == len(want)


def test_partition_enumeration_no_duplicates():
    parts = list(iter_multiset_partitions((2, 2, 2), 3))
    canon = {tuple(sorted(p, reverse=True)) for p in parts}
    assert len(parts) == len(canon)


def _same_partitions(counts, m):
    want = list(partition_oracle.iter_multiset_partitions(counts, m))
    assert list(iter_multiset_partitions(counts, m)) == want, (counts, m)


def test_pruned_enumeration_matches_reference_on_small_vectors():
    # every count vector of length <= 5 with entries 0-2, the empty and
    # all-zero vectors among them
    for k in range(6):
        for counts in itertools.product(range(3), repeat=k):
            for m in range(1, 6):
                _same_partitions(counts, m)


def test_pruned_enumeration_matches_reference_on_distinct_points():
    for k in range(1, 10):
        for m in range(1, 5):
            _same_partitions((1,) * k, m)


def test_pruned_enumeration_matches_reference_with_multiplicity_three():
    for counts in [(3,), (3, 3), (3, 1, 2), (1, 3, 0, 3), (3, 2, 1, 1), (2, 3, 3)]:
        for m in range(1, 6):
            _same_partitions(counts, m)


def test_pruned_enumeration_matches_reference_on_longer_vectors():
    """Seeded count vectors of 6-9 entries with counts 0-3, at m = 2-5,
    past the exhaustive check's 5 entries: the same partitions in the
    same order, up to the first 20,000 of each."""
    rng = random.Random(0x0DE6)
    cap = 20000
    for _ in range(8):
        counts = tuple(rng.randint(0, 3) for _ in range(rng.randint(6, 9)))
        m = rng.randint(2, 5)
        want = list(itertools.islice(partition_oracle.iter_multiset_partitions(counts, m), cap))
        assert list(itertools.islice(iter_multiset_partitions(counts, m), cap)) == want, (counts, m)


def _outcome(search, points, m, ambient, budget):
    try:
        return search(points, m, ambient, budget)
    except BudgetExceeded as exc:
        return ("budget", str(exc), exc.remaining)


def _random_rational(rng, box):
    return Fraction(rng.randint(-box * 3, box * 3), rng.randint(1, 3))


def _search_instances(rng):
    """Seeded (points, m, ambient) over Z^2, Z^3, finite sets, Z^1 x R^1,
    R^2 and Z^1, and with an entry of multiplicity m - 1 or m over Z^2
    and finite sets."""
    finite = FiniteSet(
        tuple(point(x, y) for x, y in [(0, 0), (2, 0), (0, 2), (1, 1), (2, 2), (1, 0), (3, 1)]),
        2,
    )
    for _ in range(70):
        n, m = rng.choice([(5, 2), (6, 2), (7, 3), (8, 3)])
        pts = [point(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
        yield PointMultiset.from_points(pts), m, Lattice(2)
    for _ in range(60):
        n, m = rng.choice([(5, 2), (6, 2), (7, 2), (7, 3)])
        pts = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(3)) for _ in range(n)]
        yield PointMultiset.from_points(pts), m, Lattice(3)
    for _ in range(60):
        n, m = rng.choice([(4, 2), (5, 2), (6, 3), (7, 3)])
        yield PointMultiset.from_points(rng.choices(finite.points, k=n)), m, finite
    for _ in range(60):
        n, m = rng.choice([(3, 2), (5, 2), (6, 2), (7, 3)])
        pts = [(Fraction(rng.randint(-3, 3)), _random_rational(rng, 3)) for _ in range(n)]
        yield PointMultiset.from_points(pts), m, MixedLattice(1, 1)
    for _ in range(60):
        n, m = rng.choice([(3, 2), (4, 2), (5, 2), (6, 3)])
        pts = [(_random_rational(rng, 3), _random_rational(rng, 3)) for _ in range(n)]
        yield PointMultiset.from_points(pts), m, RealSpace(2)
    # off-lattice points over Z^d, so each hull rounds its own box
    for _ in range(40):
        n, m = rng.choice([(5, 2), (6, 2), (7, 3)])
        pts = [tuple(_off_lattice(rng, 3) for _ in range(2)) for _ in range(n)]
        yield PointMultiset.from_points(pts), m, Lattice(2)
    for _ in range(25):
        n, m = rng.choice([(6, 2), (7, 2), (8, 2)])
        pts = [tuple(_off_lattice(rng, 3) for _ in range(3)) for _ in range(n)]
        yield PointMultiset.from_points(pts), m, Lattice(3)
    rational_set = FiniteSet(
        tuple(point(x, y) for x, y in [(0, 0), ("1/2", 0), (0, "1/3"), ("1/2", "1/3"),
                                       ("3/2", "2/3"), ("-1/3", "1/2"), (1, 1)]),
        2,
    )
    for _ in range(30):
        n, m = rng.choice([(4, 2), (5, 2), (6, 3), (7, 3)])
        yield PointMultiset.from_points(rng.choices(rational_set.points, k=n)), m, rational_set
    # Z^1 on (1/2)Z and (1/3)Z
    for _ in range(40):
        n, m = rng.choice([(3, 2), (4, 2), (5, 3), (6, 3), (7, 4)])
        yield PointMultiset.from_points([(_off_lattice(rng, 3),) for _ in range(n)]), m, Lattice(1)
    # an entry of multiplicity m - 1 or m, on or off the lattice, which
    # the depth filter passes without a query
    for _ in range(40):
        m, others = rng.choice([(3, 2), (3, 3), (3, 4), (4, 3)])
        for ambient in (Lattice(2), finite, rational_set):
            if isinstance(ambient, FiniteSet):
                pts = rng.choices(ambient.points, k=others + 1)
            else:
                pts = [tuple(_off_lattice(rng, 2) for _ in range(2)) for _ in range(others + 1)]
            pts += [pts[0]] * rng.choice([m - 2, m - 1])
            yield PointMultiset.from_points(pts), m, ambient


def _off_lattice(rng, box):
    """A coordinate in (1/2)Z or (1/3)Z, integral now and then."""
    den = rng.choice([2, 3])
    return Fraction(rng.randint(-box * den, box * den), den)


def test_search_partition_matches_reference():
    rng = random.Random(0x7E5)
    cases = list(_search_instances(rng))
    assert len(cases) >= 400
    outcomes = set()
    for points, m, ambient in cases:
        budget = rng.choice([None, None, None, 1, 3, 30])
        want = _outcome(partition_oracle.search_partition, points, m, ambient, budget)
        got = _outcome(search_partition, points, m, ambient, budget)
        assert got == want, (points.entries, m, ambient, budget)
        outcome = "budget" if isinstance(want, tuple) and want[0] == "budget" else want is None
        outcomes.add((outcome, _kind(points, m, ambient)))
    for kind in ("Z1", "multiplicity m - 1", "multiplicity m"):
        assert {outcome for outcome, k in outcomes if k == kind} >= {True, False}, kind
    assert {outcome for outcome, _ in outcomes} == {"budget", True, False}


def _kind(points, m, ambient):
    """Z^1, or an entry of multiplicity m - 1 or m for m >= 3, or None."""
    if ambient == Lattice(1):
        return "Z1"
    heavy = max(mult for _, mult in points.entries)
    if m >= 3 and heavy in (m - 1, m):
        return "multiplicity m" + " - 1" * (heavy == m - 1)
    return None


def _reference_decisions(monkeypatch, points, m, ambient):
    """The number of the reference search's decisions, their distinct
    (candidate, part) pairs, and the deep ones among those: the pairs
    whose candidate has depth >= m."""
    decided = []
    member = partition_oracle.member

    def counted_reference(q, hull):
        decided.append((q, hull.entries))
        return member(q, hull)

    monkeypatch.setattr(partition_oracle, "member", counted_reference)
    assert partition_oracle.search_partition(points, m, ambient) is None
    monkeypatch.setattr(partition_oracle, "member", member)
    reference = set(decided)
    return len(decided), reference, {(q, part) for q, part in reference if oracle_depth(q, points) >= m}


def _library_decisions(monkeypatch, points, m, ambient):
    """The (candidate, part) pairs the library search decides by
    ``in_hull``, in order, and the number of partitions it scans."""
    decided = []

    def counted(q, hull):
        decided.append((q, hull.entries))
        return in_hull(q, hull)

    monkeypatch.setattr(geometry, "in_hull", counted)
    monkeypatch.setattr(oracle, "in_hull", counted)
    scans = 0
    scan = oracle.iter_common_ambient_points

    def counted_scan(*args):
        nonlocal scans
        scans += 1
        return scan(*args)

    monkeypatch.setattr(oracle, "iter_common_ambient_points", counted_scan)
    assert verify_no_partition(points, m, ambient)
    return decided, scans


def test_search_partition_decides_each_membership_once(monkeypatch):
    """A candidate shared by m disjoint parts has depth >= m, so the
    library decides exactly the reference's memberships of deep
    candidates, each once, and still scans every partition.  Every
    Doignon m = 3 candidate is shallow, so none of its 966 partitions
    decides a membership; the Onn m = 2 search decides 9."""
    for points, m, size, scanned in [(doignon_witness(3), 3, 0, 966), (onn_witness(), 2, 9, 15)]:
        calls, reference, deep = _reference_decisions(monkeypatch, points, m, Lattice(2))
        decided, scans = _library_decisions(monkeypatch, points, m, Lattice(2))
        assert calls >= len(reference) > len(deep)
        assert len(decided) == len(set(decided)) == size
        assert set(decided) == deep
        assert scans == scanned


def test_search_partition_decides_each_finite_set_membership_once(monkeypatch):
    """Over a finite set the verdicts are keyed by the set's own points:
    each (part, deep set point) is decided once, and the decisions are
    the reference's on the deep set points."""
    ambient = FiniteSet(
        tuple(point(x, y) for x, y in [(0, 0), (2, 0), (3, 2), (1, 3), (-1, 2), (1, 1), ("1/2", "3/2")]),
        2,
    )
    box = FiniteSet(tuple(point(x, y) for x in range(4) for y in range(3)), 2)
    for points, m, ambient, size in [
        (convex_lowerbound_witness(ambient, 3), 3, ambient, 0),
        (onn_witness(), 2, box, 22),
    ]:
        calls, reference, deep = _reference_decisions(monkeypatch, points, m, ambient)
        decided, _ = _library_decisions(monkeypatch, points, m, ambient)
        assert calls >= len(reference) > len(deep)
        assert len(decided) == len(set(decided)) == size
        assert set(decided) == deep


def test_exact_numbers_over_finite_sets_equal_the_reference(monkeypatch):
    """Exact numbers at m = 3 on seeded 4-6-point sets, with the library's
    search and then with the reference search in its place."""
    rng = random.Random(0xE4AC7)
    sets = []
    for _ in range(5):
        pts = set()
        for _ in range(rng.randint(4, 6)):
            pts.add(point(Fraction(rng.randint(-4, 4), 2), rng.randint(-2, 2)))
        sets.append(FiniteSet(tuple(pts), 2))
    caps = [2 * helly_number(s).number + 2 for s in sets]
    got = [exact_tverberg_number(s, 3, cap, budget=200000) for s, cap in zip(sets, caps)]
    monkeypatch.setattr(oracle, "search_partition", partition_oracle.search_partition)
    assert got == [exact_tverberg_number(s, 3, cap, budget=200000) for s, cap in zip(sets, caps)]
    assert len(set(got)) >= 2


def test_search_partition_solves_one_system_per_non_entry_decision(monkeypatch):
    # an entry of its part is in at once; every other distinct
    # (candidate, part) decision costs exactly one system: one forced
    # elimination when the part's entries are affinely independent (at
    # most d+1 of them), else one LP.  Only deep candidates are decided:
    # the Onn m = 2 refutation decides 9 memberships, all forced, and an
    # 8-point m = 3 refutation with two double entries decides 31, 7 of
    # them by LP
    solves = forced = 0
    solve = geometry.solve_phase1
    force = geometry._forced_solution

    def counted_solve(*args, **kwargs):
        nonlocal solves
        solves += 1
        return solve(*args, **kwargs)

    def counted_force(q, hull):
        nonlocal forced
        answer = force(q, hull)
        forced += answer[0]
        return answer

    monkeypatch.setattr(geometry, "solve_phase1", counted_solve)
    monkeypatch.setattr(geometry, "_forced_solution", counted_force)
    doubled = PointMultiset.from_points(
        [point(-2, -1), point(0, -1), point(0, 1), point(1, -1), point(1, -1), point(2, 0), point(2, 2), point(2, 2)]
    )
    for points, m, counts in [(onn_witness(), 2, (9, 0, 0, 9)), (doubled, 3, (31, 0, 7, 24))]:
        solves = forced = 0
        decided, _ = _library_decisions(monkeypatch, points, m, Lattice(2))
        entries = sum(1 for q, part in decided if any(p == q for p, _ in part))
        assert solves + forced == len(decided) - entries
        assert (len(decided), entries, solves, forced) == counts


def _refutation_instances(rng):
    """Refutation candidates: Doignon m = 3, Onn m = 2, the unit cube's
    corners at m = 2 over Z^3, a convex lower-bound witness over a
    finite set, and seeded Z^2, Z^3 and finite-set multisets."""
    finite = FiniteSet(
        tuple(point(x, y) for x, y in [(0, 0), (2, 0), (3, 2), (1, 3), (-1, 2), (1, 1), ("1/2", "3/2")]),
        2,
    )
    cube = PointMultiset.from_points([point(*p) for p in itertools.product(range(2), repeat=3)])
    yield "fixed", doignon_witness(3), 3, Lattice(2)
    yield "fixed", onn_witness(), 2, Lattice(2)
    yield "fixed", cube, 2, Lattice(3)
    yield "fixed", convex_lowerbound_witness(finite, 3), 3, finite
    for _ in range(40):
        n, m = rng.choice([(4, 2), (5, 2), (6, 3), (7, 3)])
        pts = [point(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
        yield "Z2", PointMultiset.from_points(pts), m, Lattice(2)
    for _ in range(40):
        n = rng.choice([4, 5, 6])
        pts = [point(*(rng.randint(-1, 1) for _ in range(3))) for _ in range(n)]
        yield "Z3", PointMultiset.from_points(pts), 2, Lattice(3)
    for _ in range(40):
        n, m = rng.choice([(4, 2), (5, 2), (6, 3), (7, 3)])
        yield "finite", PointMultiset.from_points(rng.choices(finite.points, k=n)), m, finite


def test_refutations_scan_every_partition(monkeypatch):
    """Every refutation is an exhaustive enumeration: a search that
    returns None calls ``iter_common_ambient_points`` once for each
    partition that ``iter_multiset_partitions`` lists, however many
    candidates the depth filter settles."""
    scans = 0
    scan = oracle.iter_common_ambient_points

    def counted_scan(*args):
        nonlocal scans
        scans += 1
        return scan(*args)

    monkeypatch.setattr(oracle, "iter_common_ambient_points", counted_scan)
    refuted = {}
    for kind, points, m, ambient in _refutation_instances(random.Random(0x5CA7)):
        scans = 0
        if search_partition(points, m, ambient) is None:
            assert scans == _count(tuple(mult for _, mult in points.entries), m), (points.entries, m)
            refuted[kind] = refuted.get(kind, 0) + 1
    assert refuted["fixed"] == 4
    assert min(refuted["Z2"], refuted["Z3"], refuted["finite"]) >= 5, refuted


def test_search_partition_rounds_each_part_once(monkeypatch):
    """The entries are rounded once per search, each distinct part is
    given its integer ranges once, from them, and no part builds an
    integer grid that no membership reads: every Doignon m = 3
    candidate is shallow."""
    rounded = 0
    rounding = oracle._rounded_entries

    def counted_rounding(points):
        nonlocal rounded
        rounded += 1
        return rounding(points)

    monkeypatch.setattr(oracle, "_rounded_entries", counted_rounding)
    given = []
    keep = PointMultiset._keep_ranges

    def counted_keep(self, ranges):
        given.append(self.entries)
        return keep(self, ranges)

    monkeypatch.setattr(PointMultiset, "_keep_ranges", counted_keep)
    grids = 0
    grid = PointMultiset.integer_coordinates

    def counted_grid(self):
        nonlocal grids
        grids += 1
        return grid(self)

    monkeypatch.setattr(PointMultiset, "integer_coordinates", counted_grid)
    scans = 0
    scan = oracle.iter_common_ambient_points

    def counted_scan(*args):
        nonlocal scans
        scans += 1
        return scan(*args)

    monkeypatch.setattr(oracle, "iter_common_ambient_points", counted_scan)
    assert verify_no_partition(doignon_witness(3), 3, Lattice(2))
    assert (rounded, scans, grids) == (1, 966, 0)
    parts = {vec for partition in iter_multiset_partitions((1,) * 8, 3) for vec in partition}
    assert len(given) == len(set(given)) == len(parts) == 246


def _fresh_ranges(part):
    """The ranges a multiset reads off its own integer coordinates."""
    return PointMultiset(part.entries, dim=part.dim).integer_ranges()


def test_table_ranges_equal_the_parts_own():
    """A part's ranges, given by the part table from its entries'
    rounded coordinates, are those it reads off its own grid: seeded
    parts on Z^2, Z^3, (1/2)Z, (1/3)Z and their planes, and the parts of
    the doubled Z^1 x R^1 witness."""
    rng = random.Random(0x2A6E)
    cases = []
    for den, d in [(1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2)]:
        for _ in range(6):
            pts = [tuple(Fraction(rng.randint(-7, 7), den) for _ in range(d)) for _ in range(rng.randint(3, 6))]
            cases.append((PointMultiset.from_points(pts), rng.randint(2, 3)))
    doubled, _ = double_witness(PointMultiset.from_points([point(0), point(1)]), RealSpace(1))
    cases.append((doubled, 2))
    parts = 0
    for points, m in cases:
        for hulls in oracle._partition_hulls(points, m, True):
            for part in hulls:
                assert part._ranges == _fresh_ranges(part), (points.entries, part.entries)
                parts += 1
    assert parts > 1000


def test_finite_set_witnesses_are_the_sets_own_points():
    """A finite-set search scans the set's deep points, the stored
    objects themselves, so its witness is one of them."""
    rng = random.Random(0xF17E)
    grid = FiniteSet(tuple(point(x, y) for x in range(3) for y in range(3)), 2)
    rational_set = FiniteSet(
        tuple(point(x, y) for x, y in [(0, 0), ("1/2", 0), (0, "1/3"), ("1/2", "1/3"), ("3/2", "2/3"), (1, 1)]),
        2,
    )
    found = 0
    for _ in range(40):
        ambient = rng.choice([grid, rational_set])
        points = PointMultiset.from_points(rng.choices(ambient.points, k=rng.randint(4, 7)))
        answer = search_partition(points, rng.randint(2, 3), ambient)
        if answer is not None:
            witness = answer[1]
            assert any(witness is s for s in ambient.points), witness
            found += 1
    assert found >= 10


def test_witnesses_are_fraction_points():
    grid = FiniteSet(tuple(point(x, y) for x in range(3) for y in range(3)), 2)
    z1r1 = PointMultiset.from_points([point(0, 0), point(0, 3), point(2, 1), point(2, 2), point(1, 5)])
    cases = [
        (PointMultiset.from_points([point(0, 0), point(4, 0), point(0, 4), point(1, 1), point(3, 3)]),
         Lattice(2)),
        (PointMultiset.from_points([point("1/2", 0), point("5/2", "1/3"), point(1, "7/3"),
                                    point("-1/2", "3/2"), point(2, "-3/2"), point("4/3", 1)]),
         Lattice(2)),
        (PointMultiset.from_points([point(0, 0, 0), point(4, 1, 0), point(1, 4, 1), point(0, 1, 4),
                                    point(3, 3, 3), point(-2, 1, 1), point(2, -2, 1)]), Lattice(3)),
        (PointMultiset.from_points([point(0, 0), point(2, 2), point(2, 0), point(0, 2)]), grid),
        (z1r1, MixedLattice(1, 1)),
    ]
    for points, ambient in cases:
        found = search_partition(points, 2, ambient)
        assert found is not None, ambient
        hulls, witness = found
        assert type(witness) is tuple and all(type(c) is Fraction for c in witness)
        for got in geometry.iter_common_ambient_points(hulls, ambient):
            assert type(got) is tuple and all(type(c) is Fraction for c in got)


def test_search_partition_checks_the_ambient_dimension():
    space_points = PointMultiset.from_points([point(0, 0, 0), point(1, 2, 3)])
    with pytest.raises(DimensionMismatch):
        verify_no_partition(space_points, 3, Lattice(2))
    line_points = PointMultiset.from_points([point(0), point(1), point(2)])
    with pytest.raises(DimensionMismatch):
        verify_no_partition(line_points, 2, RealSpace(2))


def test_search_partition_witness_is_sound():
    pts = PointMultiset.from_points(
        [point(0, 0), point(4, 0), point(0, 4), point(1, 1), point(2, 2), point(3, 1)]
    )
    found = search_partition(pts, 2, Lattice(2))
    assert found is not None
    hulls, witness = found
    assert all(x.denominator == 1 for x in witness)
    merged = {}
    for h in hulls:
        assert hull_membership(witness, h) is not None
        for p, mult in h.entries:
            merged[p] = merged.get(p, 0) + mult
    assert PointMultiset(merged.items(), dim=2) == pts


def test_verify_no_partition_onn():
    assert verify_no_partition(onn_witness(), 2, Lattice(2))


def test_verify_no_partition_false_on_easy_instance():
    pts = PointMultiset.from_points([point(0, 0)] * 2 + [point(1, 0)])
    assert not verify_no_partition(pts, 2, Lattice(2))


def test_search_partition_budget():
    pts = onn_witness()
    with pytest.raises(BudgetExceeded) as info:
        search_partition(pts, 2, Lattice(2), budget=3)
    assert info.value.remaining is not None and info.value.remaining > 0


def test_search_partition_budget_stops_enumerating(monkeypatch):
    # 14 distinct points have S(14, 3) ~ 8e5 three-part partitions; a
    # budget of one check must not walk them to count what is left
    pulls = 0

    def counted(counts, m):
        nonlocal pulls
        for parts in iter_multiset_partitions(counts, m):
            pulls += 1
            yield parts

    monkeypatch.setattr(oracle, "iter_multiset_partitions", counted)
    pts = PointMultiset.from_points([point(i, i * i % 7) for i in range(14)])
    assert len(pts.entries) == 14
    with pytest.raises(BudgetExceeded) as info:
        search_partition(pts, 3, Lattice(2), budget=1)
    assert info.value.remaining >= 1
    assert pulls <= 2


def test_real_ambient_partition_search():
    # over the reals the same five points do have a Radon partition
    found = search_partition(onn_witness(), 2, RealSpace(2))
    assert found is not None
    hulls, witness = found
    for h in hulls:
        assert hull_membership(witness, h) is not None


def test_exact_tverberg_number_collinear_set():
    line = FiniteSet((point(0, 0), point(1, 0), point(2, 0)), 2)
    # three points on a line: one value repeats by size 3, and the
    # middle of any spread pair is present
    assert exact_tverberg_number(line, 2, 6) == 3
    assert exact_tverberg_number(line, 3, 6) == 5


def test_exact_tverberg_number_square():
    square = FiniteSet(
        (point(0, 0), point(0, 1), point(1, 0), point(1, 1)), 2
    )
    assert exact_tverberg_number(square, 2, 8) == 5


def test_exact_tverberg_number_raises_what_the_driver_raises_at_its_gate(monkeypatch):
    """From the planar driver's size gate on the theorem promises a
    partition, so a driver failure there surfaces instead of falling
    through to the enumeration; below the gate the driver is not run."""
    line = FiniteSet((point(0, 0), point(1, 0), point(2, 0)), 2)
    sizes = []

    def broken(points, m, ambient):
        sizes.append(points.size)
        raise NotFound("the driver found no partition")

    monkeypatch.setattr(oracle, "plane_tverberg", broken)
    with pytest.raises(NotFound, match="the driver found no partition"):
        exact_tverberg_number(line, 3, 6)
    assert sizes == [5]


def test_exact_tverberg_number_not_found():
    square = FiniteSet(
        (point(0, 0), point(0, 1), point(1, 0), point(1, 1)), 2
    )
    with pytest.raises(NotFound):
        exact_tverberg_number(square, 2, 3)
