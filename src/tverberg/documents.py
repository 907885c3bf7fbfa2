"""JSON documents for every object the command line reads or writes.

The grammar of the documents read ({key?: ...} is optional, [x] a list
of x; fields not named are ignored):

  point file     {dim: integer >= 1, points: [entry], ambient?: ambient}
  entry          {coords: point of dim rationals, mult?: integer >= 1, default 1}
  ambient        {kind: "Zd" or "Rd", d: integer}, {kind: "ZjRk", j: integer,
                 k: integer} or {kind: "finite", dim: integer, points: nonempty [point]}
  certificate    {type: "tverberg_certificate", m: integer, ambient: ambient,
                 point: point, parts: [point file], proofs: [[weight record]]}
  weight record  {index: integer, weight: rational}
  point          nonempty [rational]
  rational       string "a" or "a/b" (``points.rational``), never a number

One reader, ``_typed``, checks every JSON type (a boolean is not an
integer) and names a refusal by place and by the JSON type that came:
"the ambient field must be an object, not null", "parts[0].dim must be
an integer, not a string".  ``loads`` refuses text that is not JSON,
nests deeper than the parser recurses, or holds a JSON number longer
than the interpreter's int conversion limit.  Proof weights are judged only
by the verifier, so a corrupted certificate still reaches it.

A point document's multiset gets its integer grid as it is read
(``PointMultiset._from_read``), so the verifier computes no grid for a
part read from a document.  Entries listed in strictly increasing
order, as every written document lists them, are kept as given; others
are sorted and merged by the constructor.

``dumps`` writes exactly the bytes of ``json.dumps(doc, sort_keys=True,
indent=2)`` plus a newline (lowest-terms rationals, so equal objects
give equal files) for dicts with string keys, lists, str, int, bool and
None, raises TypeError on any other, and skips json's pure-Python
indent encoder.  A document with the six keys of a certificate is
written from its schema, each coordinate list and weight record in one
piece; any value of another type or shape sends it to the general
writer, so the bytes and the errors are the same for every document.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

from .ambient import AmbientSet, FiniteSet, Lattice, MixedLattice, RealSpace
from .certificates import TverbergCertificate
from .errors import InputError
from .points import Point, PointMultiset, format_rational, rational


def dumps(doc: dict) -> str:
    if type(doc) is dict and len(doc) == len(_CERTIFICATE_KEYS):
        try:
            return _certificate_text(doc)
        except (KeyError, TypeError, ValueError):  # not of the schema: written the general way
            pass
    out: list[str] = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


_CERTIFICATE_KEYS = ("ambient", "m", "parts", "point", "proofs", "type")
# the line break and indent of each nesting level, and the item separator there
_INDENT = tuple("\n" + "  " * level for level in range(7))
_SEPARATOR = tuple("," + indent for indent in _INDENT)


def _strings(values: Any, level: int) -> str:
    """The JSON of a nonempty list of strings whose items sit at level."""
    if type(values) is not list or not values:
        raise TypeError("not a nonempty list")
    items = _SEPARATOR[level].join(map(encode_basestring_ascii, values))
    return f"[{_INDENT[level]}{items}{_INDENT[level - 1]}]"


def _certificate_text(doc: dict) -> str:
    """``dumps`` of a document with the keys of a certificate, written
    from its schema (``certificate_to_doc``): each coordinate list and
    each weight record in one piece.  A missing key, or a value of
    another type or shape (a bool for an int, an empty list, a number
    for a string), raises KeyError, TypeError or ValueError, and the
    caller writes the document the general way."""
    ambient, m, parts, point, proofs, kind = [doc[key] for key in _CERTIFICATE_KEYS]
    if type(m) is not int or type(parts) is not list or type(proofs) is not list:
        raise TypeError("not a certificate")
    if not parts or not proofs:
        raise TypeError("not a certificate")
    i2, i3, i4, i5 = _INDENT[2:6]
    written = []
    for part in parts:
        if type(part) is not dict or len(part) != 2:
            raise TypeError("not a part")
        dim, points = part["dim"], part["points"]
        if type(dim) is not int or type(points) is not list or not points:
            raise TypeError("not a part")
        entries = []
        for entry in points:
            if type(entry) is not dict or len(entry) != 2 or type(entry["mult"]) is not int:
                raise TypeError("not an entry")
            coords = _strings(entry["coords"], 6)
            entries.append(f'{{{i5}"coords": {coords},{i5}"mult": {entry["mult"]}{i4}}}')
        written.append(f'{{{i3}"dim": {dim},{i3}"points": [{i4}{_SEPARATOR[4].join(entries)}{i3}]{i2}}}')
    proved = []
    for proof in proofs:
        if type(proof) is not list or not proof:
            raise TypeError("not a proof")
        records = []
        for record in proof:
            if type(record) is not dict or len(record) != 2 or type(record["index"]) is not int:
                raise TypeError("not a weight record")
            weight = encode_basestring_ascii(record["weight"])
            records.append(f'{{{i4}"index": {record["index"]},{i4}"weight": {weight}{i3}}}')
        proved.append(f"[{i3}{_SEPARATOR[3].join(records)}{i2}]")
    out = ['{\n  "ambient": ']
    _write(ambient, _INDENT[1], out)
    out.append(f',\n  "m": {m},\n  "parts": [{i2}{_SEPARATOR[2].join(written)}\n  ]')
    out.append(f',\n  "point": {_strings(point, 2)},\n  "proofs": [{i2}{_SEPARATOR[2].join(proved)}\n  ]')
    out.append(f',\n  "type": {encode_basestring_ascii(kind)}\n}}\n')
    return "".join(out)


def _write(value: Any, newline: str, out: list[str]) -> None:
    """Append value's canonical JSON to out; newline is the line break
    and indent of value's own nesting level."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(format_rational(value))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[")
        for pos, item in enumerate(value):
            out.append("," + inner if pos else inner)
            _write(item, inner, out)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        if not all(isinstance(key, str) for key in value):
            raise TypeError("document keys must be strings")
        inner = newline + "  "
        out.append("{")
        for pos, key in enumerate(sorted(value)):
            out.append(("," + inner if pos else inner) + encode_basestring_ascii(key) + ": ")
            _write(value[key], inner, out)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise InputError("not valid JSON: nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from None
    except ValueError:  # int() refuses a number over the interpreter's digit limit
        raise InputError(
            f"not valid JSON: a number has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    return _typed(doc, dict, "a document")


_MISSING = object()
# every other type json.loads gives is a number, an int or a float
_JSON_TYPES = {type(None): "null", bool: "a boolean", str: "a string", list: "a list", dict: "an object"}
_WANTED = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _typed(value: Any, want: type, where: str) -> Any:
    """value, a field (``_MISSING`` if absent) or a list item, when its
    JSON type is want; else the refusal "{where} is missing" or "{where}
    must be {type}, not {JSON type}".  Loops over entries test ``type(v)
    is want`` inline and call this only to refuse."""
    if type(value) is want:
        return value
    if value is _MISSING:
        raise InputError(f"{where} is missing")
    raise InputError(f"{where} must be {_WANTED[want]}, not {_JSON_TYPES.get(type(value), 'a number')}")


def _name(prefix: str, key: str) -> str:
    return f"{prefix}{key}" if prefix else f"the {key} field"


def _field(doc: dict, key: str, want: type, prefix: str = "") -> Any:
    """doc[key] by ``_typed``; prefix is doc's path and a dot, or empty
    for a document, whose fields are named "the {key} field"."""
    value = doc.get(key, _MISSING)
    return value if type(value) is want else _typed(value, want, _name(prefix, key))


def _not_string(values: list, path: str) -> Fraction:
    """Refuse the first item of values, the list at path, that is not a string."""
    pos = next(pos for pos, c in enumerate(values) if type(c) is not str)
    return _typed(values[pos], str, f"{path}[{pos}]")


def point_to_doc(p: Point) -> list[str]:
    return [format_rational(c) for c in p]


def point_from_doc(doc: Any, key: str = "point", prefix: str = "") -> Point:
    """The point doc at key of its document, named as by ``_field``; items by path, "point[0]"."""
    if not _typed(doc, list, _name(prefix, key)):
        raise InputError(f"{_name(prefix, key)} must be a nonempty list")
    return tuple([rational(c) if type(c) is str else _not_string(doc, prefix + key) for c in doc])


def multiset_to_doc(points: PointMultiset) -> dict:
    return {
        "dim": points.dim,
        "points": [
            {"coords": point_to_doc(p), "mult": mult} for p, mult in points.entries
        ],
    }


def multiset_from_doc(doc: Any, path: str = "") -> PointMultiset:
    """The multiset of a point document; path is where it sits inside
    its document ("parts[0]"), empty for a document of its own.  The
    multiset gets its integer grid as it is read."""
    _typed(doc, dict, path or "a point document")
    prefix = path + "." if path else ""
    dim = _field(doc, "dim", int, prefix)
    if dim < 1:
        raise InputError(f"{_name(prefix, 'dim')} must be a positive integer, not {dim}")
    entries = []
    for pos, item in enumerate(_field(doc, "points", list, prefix)):
        if type(item) is not dict:
            _typed(item, dict, f"{prefix}points[{pos}]")
        coords = item.get("coords", _MISSING)
        if type(coords) is not list or len(coords) != dim:
            where = f"{prefix}points[{pos}]"
            _typed(coords, list, where + ".coords")
            raise InputError(f"{where} has {len(coords)} coordinates, dim is {dim}")
        mult = item.get("mult", 1)
        if type(mult) is not int or mult < 1:
            where = f"{prefix}points[{pos}].mult"
            raise InputError(f"{where} must be a positive integer, not {_typed(mult, int, where)}")
        p = tuple([rational(c) if type(c) is str else _not_string(coords, f"{prefix}points[{pos}].coords")
                   for c in coords])
        entries.append((p, mult))
    return PointMultiset._from_read(entries, dim)


def ambient_to_doc(ambient: AmbientSet) -> dict:
    if isinstance(ambient, Lattice):
        return {"kind": "Zd", "d": ambient.d}
    if isinstance(ambient, MixedLattice):
        return {"kind": "ZjRk", "j": ambient.j, "k": ambient.k}
    if isinstance(ambient, RealSpace):
        return {"kind": "Rd", "d": ambient.d}
    if isinstance(ambient, FiniteSet):
        return {
            "kind": "finite",
            "dim": ambient.dim,
            "points": [point_to_doc(p) for p in ambient.points],
        }
    raise InputError(f"cannot serialize ambient {ambient!r}")


def ambient_from_doc(doc: Any) -> AmbientSet:
    _typed(doc, dict, "the ambient field")
    kind = _field(doc, "kind", str, "ambient.")
    if kind == "Zd":
        return Lattice(_field(doc, "d", int, "ambient."))
    if kind == "ZjRk":
        return MixedLattice(_field(doc, "j", int, "ambient."), _field(doc, "k", int, "ambient."))
    if kind == "Rd":
        return RealSpace(_field(doc, "d", int, "ambient."))
    if kind == "finite":
        dim, pts = _field(doc, "dim", int, "ambient."), _field(doc, "points", list, "ambient.")
        if not pts:
            raise InputError("ambient.points must be a nonempty list")
        return FiniteSet((point_from_doc(p, f"points[{i}]", "ambient.") for i, p in enumerate(pts)), dim)
    raise InputError(f"unknown ambient kind {kind!r}")


def point_file_to_doc(points: PointMultiset, ambient: AmbientSet | None) -> dict:
    doc = multiset_to_doc(points)
    if ambient is not None:
        doc["ambient"] = ambient_to_doc(ambient)
    return doc


def point_file_from_doc(doc: Any) -> tuple[PointMultiset, AmbientSet | None]:
    """Multiset plus its declared ambient; every instance must lie in it
    (``ambient.contains``)."""
    points = multiset_from_doc(doc)
    ambient = None
    if "ambient" in doc:
        ambient = ambient_from_doc(doc["ambient"])
        if ambient.dim != points.dim:
            raise InputError(
                f"points of dimension {points.dim} in an ambient set of dimension {ambient.dim}"
            )
        for p, _ in points.entries:
            if not ambient.contains(p):
                raise InputError(
                    f"instance {','.join(point_to_doc(p))} lies outside {ambient.describe()}"
                )
    return points, ambient


def certificate_to_doc(cert: TverbergCertificate) -> dict:
    return {
        "type": "tverberg_certificate",
        "m": cert.m,
        "ambient": ambient_to_doc(cert.ambient),
        "point": point_to_doc(cert.point),
        "parts": [multiset_to_doc(part) for part in cert.parts],
        "proofs": [
            [{"index": i, "weight": format_rational(w)} for i, w in proof]
            for proof in cert.proofs
        ],
    }


def certificate_from_doc(doc: Any) -> TverbergCertificate:
    _typed(doc, dict, "a certificate document")
    if doc.get("type") != "tverberg_certificate":
        raise InputError("not a certificate document")
    m = _field(doc, "m", int)
    ambient = ambient_from_doc(doc.get("ambient", _MISSING))
    point = point_from_doc(doc.get("point", _MISSING))
    parts = _field(doc, "parts", list)
    parts = tuple(multiset_from_doc(p, f"parts[{pos}]") for pos, p in enumerate(parts))
    proofs = []
    for pos, proof in enumerate(_field(doc, "proofs", list)):
        if type(proof) is not list:
            _typed(proof, list, f"proofs[{pos}]")
        pairs = []
        for at, item in enumerate(proof):
            if type(item) is not dict:
                _typed(item, dict, f"proofs[{pos}][{at}]")
            index, weight = item.get("index"), item.get("weight")
            if type(index) is not int or type(weight) is not str:
                _field(item, "index", int, f"proofs[{pos}][{at}].")
                _field(item, "weight", str, f"proofs[{pos}][{at}].")
            pairs.append((index, rational(weight)))
        proofs.append(tuple(pairs))
    return TverbergCertificate(m, point, parts, tuple(proofs), ambient)


def halfspace_to_doc(halfspace) -> dict:
    return {
        "normal": point_to_doc(halfspace.normal),
        "offset": format_rational(halfspace.offset),
    }
