"""Exit-contract fuzz: mutated point files and certificates through every
subcommand, in process.

Valid documents over every kind of ambient are mutated one or two times
(a field dropped or duplicated, a JSON value swapped for one of another
type, a wrong dimension, a zero or huge multiplicity), and some of them
once more as raw text (a value nested 3 to 100,000 levels deep,
a byte that is not UTF-8, a digit string or JSON number near the
interpreter's int conversion limit), and handed to the CLI on stdin or
through --input.  Whatever comes in, the exit code is 0, 1, 2 or 3 and
never 4 (an internal fault), stdout of an exit 0 is the canonical
writer's bytes of its own parse, and every certificate written passes
``verify`` against the point file it came from.  Enumerations run under
a budget, and a document with a huge multiplicity or a long number goes
only to subcommands whose work does not grow with it, so no case takes
an unbudgeted exponential path or an integer box of astronomic size.
"""

from __future__ import annotations

import copy
import io
import json
import random
import sys
from collections import Counter
from fractions import Fraction

from tverberg.ambient import FiniteSet, Lattice, MixedLattice, RealSpace
from tverberg.cli import main
from tverberg.documents import dumps, loads, point_file_to_doc
from tverberg.points import PointMultiset

CASES = 3000
HUGE = 10**12
LIMIT = sys.get_int_max_str_digits()

# The documents with a huge multiplicity that a command runs on: point
# files over Z^1, Z^2, Z^3 and Z^1 x R^1 ("counted"), whose drivers cut
# their parts by count, and the rest.  Over R^2 and finite sets the real
# enumeration grows with the counts.
ANY, COUNTED, NONE = ("counted", "other"), ("counted",), ()

# (argv, the huge-multiplicity documents it runs on, runs on a long number)
POINT_FILE_COMMANDS = (
    (["depth", "--point", "0,0"], ANY, True),
    (["centerpoint", "--m", "2"], ANY, False),
    (["tverberg", "--m", "2"], COUNTED, False),
    (["tverberg", "--m", "3"], COUNTED, False),
    (["refute", "--m", "2", "--budget", "2"], ANY, False),
    (["helly"], ANY, True),
    (["tvnumber", "--m", "2", "--n-max", "3", "--budget", "4"], ANY, True),
    (["select", "--seeds", "3"], ANY, False),
    (["partition-depth", "--alpha", "1/3", "--r", "2", "--budget", "3"], ANY, False),
    (["witness", "double"], NONE, False),
    (["witness", "convex-lb", "--m", "2"], NONE, False),
)

OTHER_TYPES = (None, True, 7, -1, 2.5, "7", "x", [], ["1"], {}, {"kind": "Zd"})


def _point_file(rng: random.Random) -> str:
    """A valid point file of 4 to 7 instances over Z^1, Z^2, Z^3,
    Z^1 x R^1, R^2 or a planar finite set, with small coordinates."""
    kind = rng.randrange(6)
    dim = (1, 2, 3, 2, 2, 2)[kind]
    n = rng.randint(4, 7)
    if kind == 3:
        pts = [(rng.randint(-3, 3), Fraction(rng.randint(-6, 6), rng.randint(1, 3))) for _ in range(n)]
        ambient = MixedLattice(1, 1)
    elif kind == 4:
        pts = [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2)) for _ in range(n)]
        ambient = RealSpace(2)
    else:
        pts = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim)) for _ in range(n)]
        ambient = Lattice(dim)
    multiset = PointMultiset.from_points([tuple(map(Fraction, p)) for p in pts], dim=dim)
    if kind == 5:
        ambient = FiniteSet(multiset.support())
    return dumps(point_file_to_doc(multiset, ambient))


def _paths(value, path=()):
    """Every (path, value) below the root of a JSON tree."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,), child
        yield from _paths(child, path + (key,))


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _delete(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    del doc[path[-1]]


def _mutate(rng: random.Random, text: str) -> str:
    """One mutation of a document's text."""
    doc = json.loads(text)
    paths = list(_paths(doc))
    kind = rng.randrange(5)
    if kind == 0:  # drop a field or a list item
        _delete(doc, rng.choice(paths)[0])
    elif kind == 1:  # duplicate a top-level key or a list item
        lists = [(p, v) for p, v in paths if isinstance(v, list) and v]
        if lists and rng.random() < 0.5:
            path, items = rng.choice(lists)
            items.insert(rng.randrange(len(items) + 1), copy.deepcopy(rng.choice(items)))
        else:
            pairs = list(doc.items())
            key, value = rng.choice(pairs)
            twin = value if rng.random() < 0.5 else rng.choice(OTHER_TYPES)
            pairs.insert(rng.randrange(len(pairs) + 1), (key, twin))
            body = ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs)
            return "{" + body + "}"
    elif kind == 2:  # a JSON value of another type
        path, value = rng.choice(paths)
        _set(doc, path, rng.choice([v for v in OTHER_TYPES if type(v) is not type(value)]))
    elif kind == 3:  # a wrong dimension
        dims = [(p, v) for p, v in paths if p[-1] in ("dim", "d", "j", "k") and type(v) is int]
        coords = [v for p, v in paths if p[-1] in ("coords", "point") and isinstance(v, list)]
        if dims and rng.random() < 0.5:
            path, value = rng.choice(dims)
            _set(doc, path, value + rng.choice((-1, 1, 2)))
        elif coords:
            target = rng.choice(coords)
            if target and rng.random() < 0.5:
                target.pop()
            else:
                target.append("1")
    else:  # a zero, negative or huge multiplicity
        mults = [p for p, v in paths if p[-1] == "mult"]
        if mults:
            _set(doc, rng.choice(mults), rng.choice((0, -1, HUGE, HUGE**2)))
    return json.dumps(doc)


_RAW = "\u0000raw\u0000"


def _mutate_raw(rng: random.Random, text: str) -> tuple[bytes, bool]:
    """One raw-text mutation: a value replaced by deep nesting, a long
    digit string or a long JSON number, or a byte that is not UTF-8;
    and whether it put in a long number."""
    kind = rng.randrange(3)
    if kind == 2:
        data = text.encode()
        at = rng.randrange(len(data) + 1)
        return data[:at] + bytes([rng.randrange(0x80, 0x100)]) + data[at:], False
    doc = json.loads(text)
    path = rng.choice([p for p, _ in _paths(doc)])
    _set(doc, path, _RAW)
    if kind == 0:
        depth = rng.choice((3, 300, 5000, 100_000))
        opener, closer = rng.choice((("[", "]"), ('{"a":', "}")))
        raw = opener * depth + '"1"' + closer * rng.choice((depth, depth - 1))
    else:
        digits = "9" * rng.choice((25, LIMIT - 1, LIMIT + 1, LIMIT + 40))
        raw = rng.choice((f'"{digits}"', f'"-1/{digits}"', f'"{digits}/7"', digits))
    return json.dumps(doc).replace(json.dumps(_RAW), raw).encode(), kind == 1


def _huge(data: bytes) -> str | None:
    """None when a document holds no huge multiplicity, "counted" when it
    holds one and is a point file over Z^1, Z^2, Z^3 or Z^1 x R^1, and
    "other" otherwise."""
    try:
        doc = json.loads(data.decode(errors="surrogateescape"))
    except (ValueError, RecursionError):
        return None
    if not any(p[-1] == "mult" and type(v) is int and v > 1000 for p, v in _paths(doc)):
        return None
    counted = isinstance(doc, dict) and (doc.get("dim"), doc.get("ambient")) in (
        (1, {"d": 1, "kind": "Zd"}),
        (2, {"d": 2, "kind": "Zd"}),
        (3, {"d": 3, "kind": "Zd"}),
        (2, {"j": 1, "k": 1, "kind": "ZjRk"}),
    )
    return "counted" if counted else "other"


def _utf8_file(data: bytes) -> bytes:
    """A point file that --source reads as stdin read data: data itself
    when it is UTF-8, else the document that stdin's surrogateescape
    decoding parsed, with those surrogates JSON-escaped (an undecodable
    byte of a document that parsed sits inside a JSON string)."""
    try:
        data.decode()
        return data
    except UnicodeDecodeError:
        return json.dumps(json.loads(data.decode(errors="surrogateescape"))).encode()


def _run(monkeypatch, capsys, argv, stdin_data, errors="strict"):
    """main(argv) with stdin_data (str or bytes) on a stdin that decodes
    UTF-8 with the given error handler."""
    if isinstance(stdin_data, str):
        stdin_data = stdin_data.encode()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin_data), encoding="utf-8", errors=errors))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_mutated_documents_keep_the_exit_contract(monkeypatch, capsys, tmp_path):
    rng = random.Random(20261019)
    source = tmp_path / "points.json"
    given = tmp_path / "given.json"
    certificates = []
    codes = Counter()
    for case in range(CASES):
        if case % 4 == 3 and certificates:
            base, origin = rng.choice(certificates)
            text = base
            for _ in range(rng.randint(1, 2)):
                text = _mutate(rng, text)
            source.write_bytes(origin)
            argv = rng.choice((["verify"], ["verify", "--source", str(source)]))
        else:
            text = _point_file(rng)
            if case % 4 != 0:
                for _ in range(rng.randint(1, 2)):
                    text = _mutate(rng, text)
            argv = None
        data, long = _mutate_raw(rng, text) if case % 3 == 1 else (text.encode(), False)
        huge = _huge(data)
        if argv is None:
            argv = rng.choice([a for a, huge_ok, long_ok in POINT_FILE_COMMANDS if (huge is None or huge in huge_ok) and (long_ok or not long)])
        errors = "strict"
        if rng.random() < 0.3:
            given.write_bytes(data)
            argv = argv + ["--input", str(given)]
        else:
            errors = rng.choice(("strict", "surrogateescape"))
        code, out, err = _run(monkeypatch, capsys, argv, data, errors)
        assert code in (0, 1, 2, 3), (argv, data, err)
        codes[code] += 1
        if code in (2, 3):
            assert out == "" and err.startswith("tverberg: "), (argv, data, err)
        if code != 0:
            continue
        assert dumps(loads(out)) == out, (argv, data)
        if loads(out).get("type") == "tverberg_certificate":
            origin = _utf8_file(data)
            if argv[0] == "tverberg" and len(certificates) < 60:
                certificates.append((out, origin))
            source.write_bytes(origin)
            check = _run(monkeypatch, capsys, ["verify", "--source", str(source)], out)
            assert check[0] == 0 and json.loads(check[1])["ok"], (argv, data, check)
    # every outcome of the contract shows up
    assert min(codes[c] for c in range(4)) >= 30, codes
