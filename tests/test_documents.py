from __future__ import annotations

import copy
import json
import random
from fractions import Fraction

import pytest

from tverberg.ambient import FiniteSet, Lattice, MixedLattice, RealSpace
from tverberg.certificates import verify_certificate
from tverberg import documents
from tverberg.documents import (
    ambient_from_doc,
    ambient_to_doc,
    certificate_from_doc,
    certificate_to_doc,
    dumps,
    loads,
    multiset_from_doc,
    multiset_to_doc,
    point_file_from_doc,
    point_file_to_doc,
    point_from_doc,
)
from tverberg.errors import InputError
from tverberg.planar import plane_tverberg
from tverberg.points import PointMultiset, point, rational

from conftest import driver_corpus, random_lattice_multiset


def test_multiset_round_trip(rng):
    for _ in range(20):
        pts = random_lattice_multiset(rng, rng.randint(1, 8), 2, 9)
        doc = multiset_to_doc(pts)
        assert multiset_from_doc(loads(dumps(doc))) == pts


def test_dumps_is_byte_stable():
    pts = PointMultiset.from_points([point(3, -1), point(3, -1), point(0, 5)])
    a = dumps(multiset_to_doc(pts))
    b = dumps(multiset_to_doc(multiset_from_doc(loads(a))))
    assert a == b
    assert a.endswith("\n")


def test_rationals_serialize_lowest_terms():
    pts = PointMultiset.from_points([(Fraction(2, 4), Fraction(-6, 3))])
    doc = multiset_to_doc(pts)
    assert doc["points"][0]["coords"] == ["1/2", "-2"]


def test_ambient_round_trips():
    for amb in (
        Lattice(2),
        Lattice(3),
        RealSpace(2),
        MixedLattice(1, 2),
        FiniteSet((point(0, 0), point(1, 1))),
    ):
        assert ambient_from_doc(loads(dumps(ambient_to_doc(amb)))) == amb


def test_point_file_round_trip_with_ambient():
    pts = PointMultiset.from_points([point(1, 2), point(3, 4)])
    doc = point_file_to_doc(pts, Lattice(2))
    got_pts, got_amb = point_file_from_doc(loads(dumps(doc)))
    assert got_pts == pts
    assert got_amb == Lattice(2)


def test_point_file_without_ambient():
    pts = PointMultiset.from_points([(Fraction(1, 2), Fraction(3))])
    got_pts, got_amb = point_file_from_doc(point_file_to_doc(pts, None))
    assert got_pts == pts
    assert got_amb is None


def test_lattice_file_rejects_fractional_coords():
    pts = PointMultiset.from_points([(Fraction(1, 2), Fraction(0))])
    doc = point_file_to_doc(pts, None)
    doc["ambient"] = ambient_to_doc(Lattice(2))
    with pytest.raises(InputError):
        point_file_from_doc(doc)


def test_mixed_file_checks_only_the_integer_block():
    pts = PointMultiset.from_points([(Fraction(2), Fraction(1, 3))])
    doc = point_file_to_doc(pts, MixedLattice(1, 1))
    got_pts, got_amb = point_file_from_doc(doc)
    assert got_amb == MixedLattice(1, 1)
    bad = PointMultiset.from_points([(Fraction(1, 3), Fraction(2))])
    with pytest.raises(InputError):
        point_file_from_doc(point_file_to_doc(bad, MixedLattice(1, 1)))


def test_certificate_round_trip(rng):
    for _ in range(10):
        pts = random_lattice_multiset(rng, 9, 2, 12)
        cert = plane_tverberg(pts, 3, Lattice(2))
        doc = certificate_to_doc(cert)
        back = certificate_from_doc(loads(dumps(doc)))
        assert back == cert
        assert verify_certificate(back, pts).ok


def test_the_reader_fills_the_integer_grid_the_multiset_would_compute():
    """Seeded point documents, unsorted or sorted, with duplicated,
    negative, rational and 10^12-multiplicity entries: the multiset read
    equals the one the constructor builds from the same entries, and the
    integer grid the reader filled equals the grid that one computes."""
    rng = random.Random(1012)
    sorted_docs = 0
    for _ in range(400):
        dim = rng.randint(1, 4)
        rows = [
            tuple(Fraction(rng.randint(-300, 300), rng.choice([1, 1, 1, 2, 3, 7, 12])) for _ in range(dim))
            for _ in range(rng.randint(0, 7))
        ]
        rows += rng.sample(rows, rng.randint(0, len(rows))) if rows else []
        entries = [(p, rng.choice([1, 1, 2, 5, 10**12])) for p in rows]
        if rng.random() < 0.5:
            entries = sorted(dict(entries).items())
            sorted_docs += 1
        else:
            rng.shuffle(entries)
        doc = {"dim": dim, "points": [{"coords": [str(x) for x in p], "mult": mult} for p, mult in entries]}
        got = multiset_from_doc(loads(dumps(doc)))
        fresh = PointMultiset(entries, dim=dim)
        assert got == fresh and got.entries == fresh.entries
        assert got.integer_coordinates() == fresh.integer_coordinates()
    assert 100 < sorted_docs < 300


def test_corrupted_weight_reaches_the_verifier():
    pts = random_lattice_multiset(__import__("random").Random(7), 9, 2, 12)
    cert = plane_tverberg(pts, 3, Lattice(2))
    doc = loads(dumps(certificate_to_doc(cert)))
    doc["proofs"][0][0]["weight"] = "3/2"
    back = certificate_from_doc(doc)  # parsing stays lenient
    report = verify_certificate(back, pts)
    assert not report.ok
    assert "bad_coefficients" in report.failures


def test_malformed_documents_raise_input_error():
    with pytest.raises(InputError):
        loads("not json")
    with pytest.raises(InputError):
        loads("[1, 2]")
    with pytest.raises(InputError):
        multiset_from_doc({"points": []})  # dim missing
    with pytest.raises(InputError):
        multiset_from_doc({"dim": True, "points": []})  # bool is not an int
    with pytest.raises(InputError):
        multiset_from_doc({"dim": 2, "points": [{"coords": ["1"], "mult": 1}]})
    with pytest.raises(InputError):
        ambient_from_doc({"kind": "Qd", "d": 2})
    with pytest.raises(InputError):
        multiset_from_doc(
            {"dim": 1, "points": [{"coords": ["x"], "mult": 1}]}
        )


def _json_bytes(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_STRINGS = ["", "a", "-2/3", '"', "\\", "/", "\n\r\t\b\f", "\x00\x1f\x7f", "é", "Ωmega", "\u2028", "😀", "\ud800"]


def _random_value(rng, depth):
    kind = rng.randrange(8 if depth < 4 else 5)
    if kind == 0:
        return rng.choice(_STRINGS) + rng.choice(_STRINGS)
    if kind == 1:
        return rng.choice([0, -1, 7, 10**30, -(10**19)])
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice([[], {}])
    if kind == 5:
        return [_random_value(rng, depth + 1) for _ in range(rng.randint(1, 3))]
    return {rng.choice(_STRINGS) + str(k): _random_value(rng, depth + 1) for k in range(rng.randint(1, 4))}


def test_dumps_writes_the_json_module_bytes():
    """Escapes, non-ASCII, lone surrogates, empty containers, nesting,
    bools, None and big ints: the bytes of json.dumps(doc,
    sort_keys=True, indent=2) and a newline."""
    fixed = [
        {},
        {"a": [], "b": {}, "c": [[]], "d": [{}], "e": {"f": {}}},
        {"z": True, "y": False, "x": None, "w": 0, "v": -12, "u": "é\n\"q\"\\"},
        {"\u00e9": 1, "e": 2, "E": 3, "": 4, "10": 5, "9": 6},
        {"nested": [[1, [2, [3, {"k": ["v", True, None]}]]], {"a": {"b": {"c": []}}}]},
    ]
    rng = random.Random(1550)
    docs = fixed + [{str(k): _random_value(rng, 0) for k in range(rng.randint(0, 4))} for _ in range(300)]
    for doc in docs:
        assert dumps(doc) == _json_bytes(doc), doc


def _written(writer, doc):
    try:
        return writer(doc)
    except TypeError as exc:
        return ("TypeError", str(exc))


def _general_writer(doc):
    """``dumps`` by the general writer alone, as it wrote every document
    before certificates had a writer of their own."""
    out = []
    documents._write(doc, "\n", out)
    return "".join(out) + "\n"


def _certificate_mutant(rng, doc):
    """A deep copy of a certificate document with one seeded change of
    type or shape."""
    doc = copy.deepcopy(doc)
    part = rng.choice(doc["parts"])
    entry = rng.choice(part["points"])
    proof = rng.choice(doc["proofs"])
    record = rng.choice(proof)
    kind = rng.randrange(13)
    if kind == 0:
        doc["m"] = rng.choice([True, False])
    elif kind == 1:
        entry["coords"][rng.randrange(len(entry["coords"]))] = rng.choice([3, True, 0.5, None])
    elif kind == 2:
        doc["point"][rng.randrange(len(doc["point"]))] = rng.choice([3, False, -1.5])
    elif kind == 3:
        record["weight"] = rng.choice([0.5, 1.0, 1])
    elif kind == 4:
        rng.choice([doc, part, entry, record])["extra"] = rng.choice(["x", 1, None, []])
    elif kind == 5:
        holder = rng.choice([doc, part, entry, record])
        del holder[rng.choice(sorted(holder))]
    elif kind == 6:
        doc[rng.choice(["parts", "proofs"])] = []
    elif kind == 7:
        rng.choice([part["points"], entry["coords"], proof, doc["point"]]).clear()
    elif kind == 8:
        rng.choice([doc, part, entry, record])[rng.choice([1, None, (0,)])] = "x"
    elif kind == 9:
        record["weight"] = rng.choice(["\u00bd", "1/2\u00e9", "\u0663", "\ud800"])
    elif kind == 10:
        holder, key = rng.choice([(part, "dim"), (entry, "mult"), (record, "index")])
        holder[key] = rng.choice([True, False, 2.0, "2", 10**5000])
    elif kind == 11:
        doc[rng.choice(["type", "ambient"])] = rng.choice([None, 7, [], {"kind": "Zd", "d": True}, 0.25])
    else:
        holder, key = rng.choice([(doc, "point"), (doc, "parts"), (doc, "proofs"), (part, "points"), (entry, "coords")])
        holder[key] = rng.choice(["12", {"0": "1"}, tuple(holder[key])])
    return doc


def test_dumps_writes_certificates_and_their_mutants_as_json_does(triangle_fan_set):
    """Certificates of every DRIVERS row, and 40 seeded mutants of each
    (a bool m, a number or bool for a string, a float weight, an extra or
    missing key, empty lists, a key that is not a string, a non-ASCII
    weight, a string, object or tuple for a list): ``dumps`` gives
    json.dumps's bytes and a newline, or raises what the general writer
    raises."""
    rng = random.Random(2110)
    for cert, _ in driver_corpus(rng, triangle_fan_set):
        doc = certificate_to_doc(cert)
        assert dumps(doc) == _json_bytes(doc)
        for _ in range(40):
            bad = _certificate_mutant(rng, doc)
            try:
                got = _written(dumps, bad)
            except InputError as exc:  # a number too long to write, as the general writer says
                with pytest.raises(InputError) as expected:
                    _general_writer(bad)
                assert str(exc) == str(expected.value)
                continue
            assert got == _written(_general_writer, bad), bad
            if isinstance(got, str):
                assert got == _json_bytes(bad), bad


def test_dumps_refuses_what_documents_never_hold():
    for value in (0.5, (1, 2), {1}, Fraction(1, 2), b"x", object()):
        with pytest.raises(TypeError):
            dumps({"a": value})
        with pytest.raises(TypeError):
            dumps({"a": [value]})
    with pytest.raises(TypeError):
        dumps({1: "one"})


def test_document_rationals_are_strings_only():
    """Coordinates, finite ambient points and proof weights given as JSON
    numbers are refused; the library constructors keep taking ints."""
    assert point_from_doc(["0", "-3/6"]) == (Fraction(0), Fraction(-1, 2))
    for bad in ([0, "1"], ["0", 1], [True], [0.5], [None]):
        with pytest.raises(InputError, match="string"):
            point_from_doc(bad)
    with pytest.raises(InputError):
        multiset_from_doc({"dim": 1, "points": [{"coords": [3], "mult": 1}]})
    with pytest.raises(InputError):
        ambient_from_doc({"kind": "finite", "dim": 1, "points": [[0], [1]]})
    pts = PointMultiset.from_points([point(x, y) for x in range(3) for y in range(3)])
    doc = certificate_to_doc(plane_tverberg(pts, 3, Lattice(2)))
    assert certificate_from_doc(loads(dumps(doc))).proofs
    doc["proofs"][0][0]["weight"] = 1
    with pytest.raises(InputError, match="string"):
        certificate_from_doc(doc)
    assert point(0, 3) == (Fraction(0), Fraction(3)) and rational(3) == 3


def test_the_grammar_refuses_by_place_and_json_type():
    """Each refusal of the document grammar names where the value sits
    and, for a JSON type, which type came: a top-level field as "the
    {key} field", a deeper one by its path."""
    pts = PointMultiset.from_points([point(x, y) for x in range(3) for y in range(3)])
    cert = certificate_to_doc(plane_tverberg(pts, 3, Lattice(2)))

    def certificate(**fields):
        return certificate_from_doc(json.loads(json.dumps(dict(cert, **fields))))

    part = cert["parts"][1]
    proof = cert["proofs"][0]
    cases = [
        (loads, "[1]", "a document must be an object, not a list"),
        (loads, "7", "a document must be an object, not a number"),
        (multiset_from_doc, [], "a point document must be an object, not a list"),
        (multiset_from_doc, {"points": []}, "the dim field is missing"),
        (multiset_from_doc, {"dim": True, "points": []}, "the dim field must be an integer, not a boolean"),
        (multiset_from_doc, {"dim": 0, "points": []}, "the dim field must be a positive integer, not 0"),
        (multiset_from_doc, {"dim": 1, "points": {}}, "the points field must be a list, not an object"),
        (multiset_from_doc, {"dim": 1, "points": [3]}, "points[0] must be an object, not a number"),
        (multiset_from_doc, {"dim": 1, "points": [{"mult": 1}]}, "points[0].coords is missing"),
        (multiset_from_doc, {"dim": 1, "points": [{"coords": "1"}]}, "points[0].coords must be a list, not a string"),
        (multiset_from_doc, {"dim": 2, "points": [{"coords": ["1"]}]}, "points[0] has 1 coordinates, dim is 2"),
        (multiset_from_doc, {"dim": 1, "points": [{"coords": ["1"], "mult": "2"}]},
         "points[0].mult must be an integer, not a string"),
        (multiset_from_doc, {"dim": 1, "points": [{"coords": ["1"], "mult": 0}]},
         "points[0].mult must be a positive integer, not 0"),
        (multiset_from_doc, {"dim": 1, "points": [{"coords": [1.5]}]}, "points[0].coords[0] must be a string, not a number"),
        (multiset_from_doc, {"dim": 2, "points": [{"coords": ["1", ["1"]]}]}, "points[0].coords[1] must be a string, not a list"),
        (point_from_doc, [], "the point field must be a nonempty list"),
        (point_from_doc, None, "the point field must be a list, not null"),
        (ambient_from_doc, None, "the ambient field must be an object, not null"),
        (ambient_from_doc, {"kind": 2}, "ambient.kind must be a string, not a number"),
        (ambient_from_doc, {"kind": "Zd"}, "ambient.d is missing"),
        (ambient_from_doc, {"kind": "ZjRk", "j": 1, "k": 1.5}, "ambient.k must be an integer, not a number"),
        (ambient_from_doc, {"kind": "finite", "dim": 1, "points": []}, "ambient.points must be a nonempty list"),
        (ambient_from_doc, {"kind": "finite", "dim": 1, "points": [["0"], "1"]},
         "ambient.points[1] must be a list, not a string"),
        (ambient_from_doc, {"kind": "finite", "dim": 1, "points": [[]]}, "ambient.points[0] must be a nonempty list"),
        (ambient_from_doc, {"kind": "finite", "dim": 2, "points": [["0", 0]]},
         "ambient.points[0][1] must be a string, not a number"),
        (certificate_from_doc, "x", "a certificate document must be an object, not a string"),
        (lambda _: certificate(m="3"), None, "the m field must be an integer, not a string"),
        (lambda _: certificate(point=None), None, "the point field must be a list, not null"),
        (lambda _: certificate(point=[]), None, "the point field must be a nonempty list"),
        (lambda _: certificate(point=["0", None]), None, "point[1] must be a string, not null"),
        (lambda _: certificate(parts=[part, dict(part, points=[{"coords": [True, "0"]}])]), None,
         "parts[1].points[0].coords[0] must be a string, not a boolean"),
        (lambda _: certificate(parts={}), None, "the parts field must be a list, not an object"),
        (lambda _: certificate(parts=[part, dict(part, dim=[2])]), None, "parts[1].dim must be an integer, not a list"),
        (lambda _: certificate(parts=[part, dict(part, points=[{"coords": ["0", "0"], "mult": None}])]), None,
         "parts[1].points[0].mult must be an integer, not null"),
        (lambda _: certificate(proofs=[proof, 1]), None, "proofs[1] must be a list, not a number"),
        (lambda _: certificate(proofs=[proof[:1] + [[]]]), None, "proofs[0][1] must be an object, not a list"),
        (lambda _: certificate(proofs=[[dict(proof[0], index=None)]]), None, "proofs[0][0].index must be an integer, not null"),
        (lambda _: certificate(proofs=[[{"index": 0}]]), None, "proofs[0][0].weight is missing"),
        (lambda _: certificate(proofs=[[{"index": 0, "weight": False}]]), None,
         "proofs[0][0].weight must be a string, not a boolean"),
    ]
    for reader, doc, message in cases:
        with pytest.raises(InputError) as refused:
            reader(doc)
        assert str(refused.value) == message


def test_the_grammar_defaults_and_ignores():
    """mult defaults to 1, the ambient of a point file is optional, and
    fields the grammar does not name are ignored."""
    doc = {"dim": 1, "points": [{"coords": ["2"], "note": "x"}, {"coords": ["2"], "mult": 2}], "extra": None}
    points, ambient = point_file_from_doc(doc)
    assert points.entries == (((Fraction(2),), 3),) and ambient is None
