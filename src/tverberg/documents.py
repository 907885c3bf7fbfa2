"""JSON documents for every object the command line reads or writes.

A point file carries a dimension, an ambient descriptor, and a list of
entries {coords, mult}.  Ambient kinds are "Zd" (integer lattice),
"ZjRk" (integer-by-real product), "Rd", and "finite" (explicit point
list).  All rationals are strings "a" or "a/b" ("3", "-2/3"), never
JSON numbers, and are written in lowest terms; a document that gives a
coordinate or a proof weight as a number is refused, as is a field
that must be an object (a point file, the ambient, a certificate or one
of its parts) and holds another JSON value, by name: "the ambient
field must be an object, not null".  Serialization is
canonical (sorted keys, two-space indent, trailing newline), so equal
objects produce byte-identical files.  ``dumps`` writes exactly the
bytes of ``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline,
for the types the documents hold (dict with string keys, list, str,
int, bool, None), and raises TypeError on any other; json's own
writer, asked for an indent, runs its pure-Python encoder.

Certificate proofs parse leniently: weights are kept as raw
(index, weight) pairs and only judged by the verifier, so a corrupted
document still reaches it instead of dying here.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

from .ambient import AmbientSet, FiniteSet, Lattice, MixedLattice, RealSpace
from .certificates import TverbergCertificate
from .errors import InputError
from .points import Point, PointMultiset, format_rational, rational


def dumps(doc: dict) -> str:
    out: list[str] = []
    _write(doc, "\n", out)
    out.append("\n")
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
        out.append(int.__repr__(value))
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
    except ValueError as exc:
        raise InputError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("expected a JSON object at top level")
    return doc


def _not_object(value: Any, what: str) -> InputError:
    """The refusal of a JSON value that stands where an object must: it
    names what the object stands for and which JSON value came."""
    if value is None:
        kind = "null"
    elif isinstance(value, bool):
        kind = "a boolean"
    elif isinstance(value, str):
        kind = "a string"
    elif isinstance(value, list):
        kind = "a list"
    else:
        kind = "a number"
    return InputError(f"{what} must be an object, not {kind}")


def _need(doc: Any, key: str) -> Any:
    if not isinstance(doc, dict):
        raise _not_object(doc, f"a document holding the {key!r} field")
    if key not in doc:
        raise InputError(f"document is missing the {key!r} field")
    return doc[key]


def _int_field(doc: dict, key: str) -> int:
    value = _need(doc, key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"field {key!r} must be an integer, got {value!r}")
    return value


def point_to_doc(p: Point) -> list[str]:
    return [format_rational(c) for c in p]


def _rational_from_doc(value: Any) -> Fraction:
    """A document rational: a string "a" or "a/b" (``points.rational``),
    never a JSON number."""
    if not isinstance(value, str):
        raise InputError(f"a rational must be a string 'a' or 'a/b', got {value!r}")
    return rational(value)


def point_from_doc(doc: Any) -> Point:
    if not isinstance(doc, list) or not doc:
        raise InputError("a point must be a nonempty list of rational strings")
    return tuple([_rational_from_doc(c) for c in doc])


def multiset_to_doc(points: PointMultiset) -> dict:
    return {
        "dim": points.dim,
        "points": [
            {"coords": point_to_doc(p), "mult": mult} for p, mult in points.entries
        ],
    }


def multiset_from_doc(doc: Any, what: str = "a point document") -> PointMultiset:
    """The multiset of a point document; what names the document in a
    refusal when it is not an object."""
    if not isinstance(doc, dict):
        raise _not_object(doc, what)
    dim = _int_field(doc, "dim")
    if dim < 1:
        raise InputError("dim must be a positive integer")
    raw = _need(doc, "points")
    if not isinstance(raw, list):
        raise InputError("the points field must be a list")
    entries = []
    for pos, item in enumerate(raw):
        if not isinstance(item, dict):
            raise InputError(f"points[{pos}] must be an object with coords and mult")
        p = point_from_doc(_need(item, "coords"))
        mult = item.get("mult", 1)
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise InputError(f"points[{pos}].mult must be a positive integer")
        if len(p) != dim:
            raise InputError(f"points[{pos}] has {len(p)} coordinates, dim is {dim}")
        entries.append((p, mult))
    return PointMultiset(entries, dim=dim)


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
    if not isinstance(doc, dict):
        raise _not_object(doc, "the ambient field")
    kind = _need(doc, "kind")
    if kind == "Zd":
        return Lattice(_int_field(doc, "d"))
    if kind == "ZjRk":
        return MixedLattice(_int_field(doc, "j"), _int_field(doc, "k"))
    if kind == "Rd":
        return RealSpace(_int_field(doc, "d"))
    if kind == "finite":
        dim = _int_field(doc, "dim")
        pts = _need(doc, "points")
        if not isinstance(pts, list) or not pts:
            raise InputError("a finite ambient needs a nonempty point list")
        return FiniteSet(tuple(point_from_doc(p) for p in pts), dim)
    raise InputError(f"unknown ambient kind {kind!r}")


def point_file_to_doc(points: PointMultiset, ambient: AmbientSet | None) -> dict:
    doc = multiset_to_doc(points)
    if ambient is not None:
        doc["ambient"] = ambient_to_doc(ambient)
    return doc


def point_file_from_doc(doc: Any) -> tuple[PointMultiset, AmbientSet | None]:
    """Multiset plus its declared ambient; every instance must lie in it
    (``ambient.contains``)."""
    points = multiset_from_doc(doc, "a point file")
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
    if not isinstance(doc, dict):
        raise _not_object(doc, "a certificate document")
    if doc.get("type") != "tverberg_certificate":
        raise InputError("not a certificate document")
    m = _int_field(doc, "m")
    ambient = ambient_from_doc(_need(doc, "ambient"))
    point = point_from_doc(_need(doc, "point"))
    parts_doc = _need(doc, "parts")
    if not isinstance(parts_doc, list):
        raise InputError("the parts field must be a list")
    parts = tuple(multiset_from_doc(p, f"parts[{pos}]") for pos, p in enumerate(parts_doc))
    proofs_doc = _need(doc, "proofs")
    if not isinstance(proofs_doc, list):
        raise InputError("the proofs field must be a list")
    proofs = []
    for proof in proofs_doc:
        if not isinstance(proof, list):
            raise InputError("each proof must be a list of weight records")
        pairs = []
        for item in proof:
            if not isinstance(item, dict):
                raise InputError("each weight record must be an object")
            idx = _need(item, "index")
            if not isinstance(idx, int) or isinstance(idx, bool):
                raise InputError("weight index must be an integer")
            pairs.append((idx, _rational_from_doc(_need(item, "weight"))))
        proofs.append(tuple(pairs))
    return TverbergCertificate(m, point, parts, tuple(proofs), ambient)


def halfspace_to_doc(halfspace) -> dict:
    return {
        "normal": point_to_doc(halfspace.normal),
        "offset": format_rational(halfspace.offset),
    }
