from __future__ import annotations

import io
import json
import pathlib
import random
import re
import sys
from fractions import Fraction

import pytest

from tverberg.ambient import FiniteSet, Lattice, MixedLattice, RealSpace
from tverberg import documents
from tverberg.cli import main
from tverberg.documents import dumps, point_file_from_doc, point_file_to_doc
from tverberg.errors import AssertionFailed
from tverberg.points import PointMultiset, point


def run(monkeypatch, capsys, argv, stdin_text=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _square_doc():
    pts = PointMultiset.from_points(
        [point(0, 0), point(1, 0), point(0, 1), point(1, 1)]
    )
    return dumps(point_file_to_doc(pts, Lattice(2)))


def _grid_doc():
    pts = PointMultiset.from_points(
        [point(x, y) for x in range(3) for y in range(3)]
    )
    return dumps(point_file_to_doc(pts, Lattice(2)))


def _hexagon_doc(mult=1):
    hexa = [
        point(2, 0),
        point(1, 2),
        point(-1, 2),
        point(-2, 0),
        point(-1, -2),
        point(1, -2),
    ]
    pts = PointMultiset(((p, mult) for p in hexa), dim=2)
    return dumps(point_file_to_doc(pts, Lattice(2)))


def test_onn_witness_refuted(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys, ["witness", "onn"])
    assert code == 0
    code, out, _ = run(
        monkeypatch, capsys, ["refute", "--m", "2", "--ambient", "Zd"], out
    )
    assert code == 0
    assert json.loads(out)["no_partition"] is True


def test_doignon_witness_too_small_for_partition(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys, ["witness", "doignon", "--m", "3"])
    assert code == 0
    code, _, err = run(
        monkeypatch, capsys, ["tverberg", "--m", "3", "--ambient", "Zd"], out
    )
    assert code == 2
    assert "9" in err and "8" in err


def test_tvnumber_square_is_five(monkeypatch, capsys):
    code, out, _ = run(
        monkeypatch, capsys, ["tvnumber", "--m", "2"], _square_doc()
    )
    assert code == 0
    assert json.loads(out)["number"] == 5


def test_tverberg_then_verify_round_trip(monkeypatch, capsys, tmp_path):
    grid = _grid_doc()
    src = tmp_path / "grid.json"
    src.write_text(grid)
    code, cert_text, _ = run(
        monkeypatch, capsys, ["tverberg", "--m", "3"], grid
    )
    assert code == 0
    code, out, _ = run(
        monkeypatch,
        capsys,
        ["verify", "--source", str(src)],
        cert_text,
    )
    assert code == 0
    assert json.loads(out)["ok"] is True
    # the default source is the union of the parts
    code, out, _ = run(monkeypatch, capsys, ["verify"], cert_text)
    assert code == 0


def test_verify_rejects_corrupted_certificate(monkeypatch, capsys):
    code, cert_text, _ = run(
        monkeypatch, capsys, ["tverberg", "--m", "3"], _grid_doc()
    )
    doc = json.loads(cert_text)
    doc["proofs"][0][0]["weight"] = "7"
    code, out, _ = run(monkeypatch, capsys, ["verify"], dumps(doc))
    assert code == 1
    assert "bad_coefficients" in json.loads(out)["failures"]


def test_output_bytes_are_stable(monkeypatch, capsys):
    _, first, _ = run(
        monkeypatch, capsys, ["tvnumber", "--m", "2"], _square_doc()
    )
    _, second, _ = run(
        monkeypatch, capsys, ["tvnumber", "--m", "2"], _square_doc()
    )
    assert first == second


def test_depth_reports_witness_halfspace(monkeypatch, capsys):
    code, out, _ = run(
        monkeypatch, capsys, ["depth", "--point", "1,1"], _grid_doc()
    )
    assert code == 0
    doc = json.loads(out)
    # a generic line through the grid center keeps four points
    # plus the center itself on the closed side
    assert doc["depth"] == 5
    assert "witness" in doc and "normal" in doc["witness"]


_DEPTH_CASES = {
    # name: (instances, query, stdout of `tverberg depth`)
    "z2": (
        [(0, 0), (3, 1), (1, 4), (-2, 2), (-1, -3), (2, -2), (4, 3), (0, 1)],
        "1,1",
        (
            '{\n'
            '  "depth": 3,\n'
            '  "point": [\n'
            '    "1",\n'
            '    "1"\n'
            '  ],\n'
            '  "type": "depth",\n'
            '  "witness": {\n'
            '    "normal": [\n'
            '      "5",\n'
            '      "12"\n'
            '    ],\n'
            '    "offset": "17"\n'
            '  }\n'
            '}\n'
        ),
    ),
    "z3": (
        [(0, 0, 0), (2, 1, 0), (0, 2, 1), (1, 0, 2), (-1, -1, 1), (2, 2, 2), (-2, 1, -1),
         (1, -2, 0), (0, 0, 3)],
        "0,1,1",
        (
            '{\n'
            '  "depth": 2,\n'
            '  "point": [\n'
            '    "0",\n'
            '    "1",\n'
            '    "1"\n'
            '  ],\n'
            '  "type": "depth",\n'
            '  "witness": {\n'
            '    "normal": [\n'
            '      "-11",\n'
            '      "8",\n'
            '      "12"\n'
            '    ],\n'
            '    "offset": "20"\n'
            '  }\n'
            '}\n'
        ),
    ),
    "rational_q": (
        [(0, 0), (4, 0), (0, 4), (4, 4), (2, 1), (1, 3)],
        "5/3,3/2",
        (
            '{\n'
            '  "depth": 2,\n'
            '  "point": [\n'
            '    "5/3",\n'
            '    "3/2"\n'
            '  ],\n'
            '  "type": "depth",\n'
            '  "witness": {\n'
            '    "normal": [\n'
            '      "408",\n'
            '      "-450"\n'
            '    ],\n'
            '    "offset": "5"\n'
            '  }\n'
            '}\n'
        ),
    ),
    "q_in_multiset": (
        [(1, 1), (1, 1), (0, 0), (2, 0), (0, 2), (2, 2), (3, 1)],
        "1,1",
        (
            '{\n'
            '  "depth": 4,\n'
            '  "point": [\n'
            '    "1",\n'
            '    "1"\n'
            '  ],\n'
            '  "type": "depth",\n'
            '  "witness": {\n'
            '    "normal": [\n'
            '      "-1",\n'
            '      "2"\n'
            '    ],\n'
            '    "offset": "1"\n'
            '  }\n'
            '}\n'
        ),
    ),
    "collinear": (
        [(-2, -4), (-1, -2), (0, 0), (1, 2), (1, 2), (3, 6)],
        "1,2",
        (
            '{\n'
            '  "depth": 3,\n'
            '  "point": [\n'
            '    "1",\n'
            '    "2"\n'
            '  ],\n'
            '  "type": "depth",\n'
            '  "witness": {\n'
            '    "normal": [\n'
            '      "1",\n'
            '      "0"\n'
            '    ],\n'
            '    "offset": "1"\n'
            '  }\n'
            '}\n'
        ),
    ),
    "empty": (
        [],
        "0,0",
        (
            '{\n'
            '  "depth": 0,\n'
            '  "point": [\n'
            '    "0",\n'
            '    "0"\n'
            '  ],\n'
            '  "type": "depth",\n'
            '  "witness": {\n'
            '    "normal": [\n'
            '      "1",\n'
            '      "0"\n'
            '    ],\n'
            '    "offset": "0"\n'
            '  }\n'
            '}\n'
        ),
    ),
}
@pytest.mark.parametrize("name", sorted(_DEPTH_CASES))
def test_depth_stdout_is_pinned(monkeypatch, capsys, name):
    """Byte-exact `depth` output on fixed inputs: a change to the depth
    engine that moves a witness half-space fails here."""
    instances, query, expected = _DEPTH_CASES[name]
    dim = len(query.split(","))
    pts = PointMultiset.from_points([point(*p) for p in instances], dim=dim)
    doc = dumps(point_file_to_doc(pts, Lattice(dim)))
    code, out, err = run(monkeypatch, capsys, ["depth", "--point=" + query], doc)
    assert (code, out, err) == (0, expected, "")


# name: (instances, ambient, m), one input per driver route of `tverberg`
_GRID = [(x, y) for x in range(3) for y in range(3)]
_FAN = [(0, 0), (8, 0), (0, 8), (1, 1), (2, 2), (3, 3), (4, 4)]
_TVERBERG_CASES = {
    "z2_m2": ([(0, 0), (3, 1), (1, 4), (-2, 2), (-1, -3), (2, -2)], Lattice(2), 2),
    "z2_m3": ([(0, 0), (3, 1), (1, 4), (-2, 2), (-1, -3), (2, -2), (4, 3), (0, 1), (1, 1)],
              Lattice(2), 3),
    "z3_m2": ([(0, 0, 0), (2, 1, 0), (0, 2, 1), (1, 0, 2), (-1, -1, 1), (2, 2, 2), (-2, 1, -1),
               (1, -2, 0), (0, 0, 3), (1, 1, 1), (-1, 2, 0), (2, -1, 1), (0, -2, -1), (1, 1, -2),
               (-2, 0, 2), (0, 1, 1), (3, 0, 0)], Lattice(3), 2),
    "finite_he4": ([(0, 0), (2, 2), (1, 0), (0, 2), (2, 0), (1, 1), (2, 1)],
                   FiniteSet([point(*p) for p in _GRID], 2), 2),
    "finite_he3": ([(0, 0), (8, 0), (0, 8), (1, 1), (2, 2), (3, 3), (0, 0)],
                   FiniteSet([point(*p) for p in _FAN], 2), 3),
    "collinear_he2": ([(0, 0), (3, 3), (1, 1), (1, 1), (2, 2), (0, 0), (3, 3)],
                      FiniteSet([point(i, i) for i in range(4)], 2), 3),
    "he1": ([(1, 1)] * 5, FiniteSet([point(1, 1)], 2), 3),
    "z1r1_ties": ([(0, 3), (0, 1), (1, 2), (1, -1), (2, 0), (2, 5), (3, 1), (0, 0)],
                  MixedLattice(1, 1), 2),
    "z1r2": ([(0, 0, 1), (1, 2, 0), (2, 1, 1), (3, 3, -1), (4, 0, 2), (5, 2, 2), (6, 1, 0)],
             MixedLattice(1, 2), 2),
    "z2r1": ([(0, 0, 1), (1, 2, 0), (2, 1, 1), (3, 3, -1), (0, 2, 2), (2, 0, 2), (1, 1, 0),
              (3, 0, 1), (0, 3, 5)], MixedLattice(2, 1), 2),
    "r2": ([(0, 0), (4, 1), (1, 5), ("1/2", 2), (3, 3), (-2, 1), (2, -3)], RealSpace(2), 3),
}
_TVERBERG_STDOUT = json.loads(
    (pathlib.Path(__file__).parent / "tverberg_stdout.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("name", sorted(_TVERBERG_CASES))
def test_tverberg_stdout_is_pinned(monkeypatch, capsys, name):
    """Byte-exact `tverberg` certificates, one input per driver route: a
    change that moves a centre, a part or a proof weight fails here."""
    instances, ambient, m = _TVERBERG_CASES[name]
    pts = PointMultiset.from_points([point(*p) for p in instances])
    doc = dumps(point_file_to_doc(pts, ambient))
    code, out, err = run(monkeypatch, capsys, ["tverberg", "--m", str(m)], doc)
    assert (code, out, err) == (0, _TVERBERG_STDOUT[name], "")


# name: (instances, declared ambient, refute arguments): refutations over
# Z^2, Z^1 x R^1 and a budget exit, and hits over Z^2, Z^3, rational
# points over Z^2 and a finite set
_REFUTE_CASES = {
    "onn_m2": ([(0, 0), (0, 1), (2, 0), (1, 2), (3, 2)], Lattice(2), ["--m", "2"]),
    "doignon_m3": ([(-1, -1), (-1, 2), (0, 0), (0, 1), (1, 1), (1, 0), (2, 2), (2, -1)],
                   Lattice(2), ["--m", "3"]),
    "doubled_z1r1": ([(0, 0), (0, 1), (1, 0), (1, 1)], MixedLattice(1, 1), ["--m", "2"]),
    "z2_six_hit": ([(0, 0), (7, 1), (2, 9), (-4, 3), (-1, -6), (5, -5)], Lattice(2), ["--m", "2"]),
    "z3_hit": ([(0, 0, 0), (4, 1, 0), (1, 4, 1), (0, 1, 4), (3, 3, 3), (-2, 1, 1), (2, -2, 1)],
               Lattice(3), ["--m", "2"]),
    "z2_rational_hit": ([("1/2", 0), ("5/2", "1/3"), (1, "7/3"), ("-1/2", "3/2"), (2, "-3/2"),
                         ("4/3", 1)], None, ["--m", "2", "--ambient", "Zd"]),
    "finite_hit": ([(0, 0), (2, 0), (0, 2), (2, 2), (1, 0), (0, 1)],
                   FiniteSet([point(*p) for p in _GRID], 2), ["--m", "2"]),
    "onn_budget": ([(0, 0), (0, 1), (2, 0), (1, 2), (3, 2)], Lattice(2),
                   ["--m", "2", "--budget", "3"]),
}
_REFUTE_STDOUT = json.loads(
    (pathlib.Path(__file__).parent / "refute_stdout.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("name", sorted(_REFUTE_CASES))
def test_refute_stdout_is_pinned(monkeypatch, capsys, name):
    """Byte-exact `refute` output and exit code: a change to the search
    that moves a partition, a witness or a budget exit fails here."""
    instances, ambient, args = _REFUTE_CASES[name]
    pts = PointMultiset.from_points([point(*p) for p in instances])
    doc = dumps(point_file_to_doc(pts, ambient))
    code, out, err = run(monkeypatch, capsys, ["refute"] + args, doc)
    assert [code, out, err] == _REFUTE_STDOUT[name]


def test_tverberg_on_z1_then_verify(monkeypatch, capsys, tmp_path):
    pts = PointMultiset.from_points([point(x) for x in (4, -1, 0, 0, 7, 2, 2)])
    src = tmp_path / "z1.json"
    src.write_text(dumps(point_file_to_doc(pts, Lattice(1))))
    code, cert_text, err = run(monkeypatch, capsys, ["tverberg", "--m", "2", "--input", str(src)])
    assert (code, err) == (0, "")
    code, out, _ = run(monkeypatch, capsys, ["verify", "--source", str(src)], cert_text)
    assert code == 0 and json.loads(out)["ok"] is True


_AMBIENT_FORMS = {
    # --ambient value: dimension of its input file
    "Z1": 1, "Z2": 2, "Z3": 3, "Z4": 4, "R1": 1, "R2": 2, "Z1R1": 2, "Z2R1": 3,
    "Z3R1": 4, "Z4R1": 5, "finite1": 1, "finite2": 2, "finite3": 3,
}


@pytest.mark.parametrize("form", sorted(_AMBIENT_FORMS))
def test_tverberg_exit_contract_over_every_ambient_form(monkeypatch, capsys, form):
    """Every ambient the flag accepts reaches a driver or a refusal: exit
    0 with a verifying certificate, or 1/2 with one stderr line, never 4."""
    rng = random.Random(form)
    dim = _AMBIENT_FORMS[form]
    for n, d in ((7, dim), (7, 2)):
        pts = PointMultiset.from_points(
            [tuple(Fraction(rng.randint(-2, 2)) for _ in range(d)) for _ in range(n)]
        )
        if form.startswith("finite"):
            declared, flag = FiniteSet(pts.support(), d), "finite"
        else:
            declared, flag = None, form
        doc = dumps(point_file_to_doc(pts, declared))
        code, out, err = run(monkeypatch, capsys, ["tverberg", "--m", "2", "--ambient", flag], doc)
        assert code in (0, 1, 2), (form, d, err)
        if code == 0:
            assert err == "" and json.loads(out)["type"] == "tverberg_certificate"
            code, out, _ = run(monkeypatch, capsys, ["verify"], out)
            assert code == 0
        else:
            assert out == "" and err.count("\n") == 1 and err.startswith("tverberg: ")


def test_tverberg_over_rd_keeps_the_requested_dimension(monkeypatch, capsys):
    pts = PointMultiset.from_points([point(0, 0), point(4, 0), point(0, 4), point(1, 1)])
    doc = dumps(point_file_to_doc(pts, None))
    for flag, d in (("R1", 1), ("R3", 3)):
        code, out, err = run(monkeypatch, capsys, ["tverberg", "--m", "2", "--ambient", flag], doc)
        assert (code, out) == (2, "")
        assert err == f"tverberg: points of dimension 2 in an ambient set of dimension {d}\n"
        refute = run(monkeypatch, capsys, ["refute", "--m", "2", "--ambient", flag], doc)
        assert refute == (code, out, err)
    for flag in ("R2", "Rd"):
        code, out, err = run(monkeypatch, capsys, ["tverberg", "--m", "2", "--ambient", flag], doc)
        assert (code, err) == (0, "") and json.loads(out)["ambient"] == {"d": 2, "kind": "Rd"}


# name: (instances, declared ambient, --ambient flag, stderr of `tverberg --m 2`)
_REFUSALS = {
    "z2": ([(0, 0), ("1/2", 4)] + [(i, i % 3) for i in range(5)], None, "Z2",
           "tverberg: instance 1/2,4 lies outside Z^2\n"),
    "z3": ([("1/2", 0, 0)] + [(i, i % 3, i % 2) for i in range(17)], None, "Z3",
           "tverberg: instance 1/2,0,0 lies outside Z^3\n"),
    "finite": ([(0, 0), (1, 0), (0, 1), (5, 5), (1, 1)],
               FiniteSet([point(0, 0), point(1, 0), point(0, 1), point(1, 1)], 2), "finite",
               "tverberg: instance 5,5 lies outside finite set of 4 points in Q^2\n"),
    "z1r1": ([(0, 1), ("1/2", 4), (1, 0), (2, 3), (3, 1)], None, "Z1R1",
             "tverberg: instance 1/2,4 lies outside Z^1 x R^1\n"),
    "rd": ([(0, 0), (4, 0), (0, 4), (1, 1)], None, "R3",
           "tverberg: points of dimension 2 in an ambient set of dimension 3\n"),
    "finite3": ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)] * 2,
                FiniteSet([point(0, 0, 0), point(1, 0, 0), point(0, 1, 0), point(0, 0, 1), point(1, 1, 1)], 3),
                "finite", "tverberg: no driver for finite set of 5 points in Q^3\n"),
}


@pytest.mark.parametrize("name", sorted(_REFUSALS))
def test_tverberg_refusal_stderr_is_pinned(monkeypatch, capsys, name):
    """One exact stderr line per ambient kind: an instance outside Z^2,
    Z^3, a declared finite set (refused on load) or Z^1 x R^1, written
    as --point writes it, and an R^d of another dimension."""
    instances, declared, flag, expected = _REFUSALS[name]
    pts = PointMultiset.from_points([point(*p) for p in instances])
    doc = dumps(point_file_to_doc(pts, declared))
    code, out, err = run(monkeypatch, capsys, ["tverberg", "--m", "2", "--ambient", flag], doc)
    assert (code, out, err) == (2, "", expected)


def test_tverberg_over_rd_needs_two_parts(monkeypatch, capsys):
    pts = PointMultiset.from_points([point(0, 0), point(4, 0), point(0, 4), point(1, 1)])
    doc = dumps(point_file_to_doc(pts, None))
    for m in ("1", "0"):
        code, out, err = run(monkeypatch, capsys, ["tverberg", "--m", m, "--ambient", "R2"], doc)
        assert (code, out, err) == (2, "", "tverberg: partitions need m >= 2\n")


def test_point_file_instances_must_lie_in_the_declared_finite_set(monkeypatch, capsys, tmp_path):
    """A file declaring the unit square with an instance at 5,5 is refused
    on load by every command that reads a point file."""
    pts = PointMultiset.from_points([point(0, 0), point(1, 0), point(0, 1), point(5, 5), point(1, 1)])
    square = FiniteSet([point(0, 0), point(1, 0), point(0, 1), point(1, 1)], 2)
    src = tmp_path / "points.json"
    src.write_text(dumps(point_file_to_doc(pts, square)))
    _, cert_text, _ = run(monkeypatch, capsys, ["tverberg", "--m", "2"], _grid_doc())
    expected = "tverberg: instance 5,5 lies outside finite set of 4 points in Q^2\n"
    commands = [
        ["depth", "--point", "0,0"],
        ["centerpoint", "--m", "2"],
        ["tverberg", "--m", "2"],
        ["refute", "--m", "2"],
        ["witness", "double"],
        ["witness", "convex-lb", "--m", "2"],
        ["tvnumber", "--m", "2"],
        ["helly"],
        ["select", "--point", "0,0"],
        ["partition-depth", "--alpha", "1/3", "--r", "3"],
    ]
    for argv in commands:
        assert run(monkeypatch, capsys, argv, src.read_text()) == (2, "", expected), argv
    verified = run(monkeypatch, capsys, ["verify", "--source", str(src)], cert_text)
    assert verified == (2, "", expected)


def _readme_block(readme: str, heading: str) -> str:
    """The body of the first fenced block after the line ``heading``."""
    rest = readme.split("\n" + heading + "\n", 1)[1]
    return rest.split("```", 2)[1].split("\n", 1)[1]


def test_readme_point_file_and_examples_hold(monkeypatch, capsys):
    """README's sample point file loads, and each example of its CLI
    section that reads no file gives the exit code and output it states."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    points, ambient = point_file_from_doc(json.loads(_readme_block(readme, "A point file:")))
    assert points.size == 4 and ambient is not None
    examples = _readme_block(readme, "Examples:").strip().split("\n\n")
    checked = 0
    for example in examples:
        command, result = example.split("\n")[:2]
        if "--input" in command:
            continue
        stated, exit_code = (s.strip() for s in result.split("# exit "))
        stdout = ""
        for stage in command.removeprefix("$ ").split(" | "):
            argv = stage.split()
            assert argv[0] == "tverberg"
            code, stdout, err = run(monkeypatch, capsys, argv[1:], stdout)
        assert code == int(exit_code)
        if stated.startswith("{..."):
            assert stated.removeprefix("{...").removesuffix("...}").strip() in stdout
        else:
            assert err == stated + "\n"
        checked += 1
    assert checked == 2


def test_centerpoint_found_and_missing(monkeypatch, capsys):
    code, out, _ = run(
        monkeypatch, capsys, ["centerpoint", "--m", "3"], _grid_doc()
    )
    assert code == 0
    assert json.loads(out)["depth"] >= 3
    code, _, err = run(
        monkeypatch, capsys, ["centerpoint", "--m", "2"], _square_doc()
    )
    assert code == 1
    assert err


def test_helly_square(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys, ["helly"], _square_doc())
    assert code == 0
    doc = json.loads(out)
    assert doc["number"] == 4
    assert len(doc["witness"]) == 4


def test_select_hexagon(monkeypatch, capsys):
    code, out, _ = run(
        monkeypatch,
        capsys,
        ["select", "--point", "0,0", "--min-size", "2"],
        _hexagon_doc(),
    )
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["sizes"]) == [2, 2, 2]
    assert doc["verified"] is True


def test_select_defaults_to_groups_of_one_on_five_points(monkeypatch, capsys):
    """Below 2(d+1) instances the default group size floor is 1, not 0."""
    pts = PointMultiset.from_points([point(0, 0), point(4, 0), point(0, 4), point(4, 4), point(1, 2)])
    code, out, err = run(monkeypatch, capsys, ["select"], dumps(point_file_to_doc(pts, Lattice(2))))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert len(doc["sizes"]) == 3 and min(doc["sizes"]) >= 1
    assert doc["verified"] is True


def test_partition_depth_doubled_hexagon(monkeypatch, capsys):
    code, out, _ = run(
        monkeypatch,
        capsys,
        ["partition-depth", "--alpha", "5/12", "--r", "3"],
        _hexagon_doc(mult=2),
    )
    assert code == 0
    assert sorted(json.loads(out)["sizes"]) == [4, 4, 4]


def test_mixed_ambient_flag(monkeypatch, capsys):
    # 7 = 2t-1 instances for m = 2, k = 1 over Z x R
    rows = [(0, 0), (1, 2), (2, 1), (3, 3), (4, 0), (5, 2), (6, 1)]
    pts = PointMultiset.from_points([point(a, b) for a, b in rows])
    text = dumps(point_file_to_doc(pts, MixedLattice(1, 1)))
    code, out, _ = run(
        monkeypatch, capsys, ["tverberg", "--m", "2", "--ambient", "Z1R1"], text
    )
    assert code == 0
    cert_doc = json.loads(out)
    assert cert_doc["type"] == "tverberg_certificate"


def test_budget_exit_code(monkeypatch, capsys):
    _, wit, _ = run(monkeypatch, capsys, ["witness", "onn"])
    code, _, err = run(
        monkeypatch, capsys, ["refute", "--m", "2", "--budget", "1"], wit
    )
    assert code == 3
    assert err


def test_usage_errors(monkeypatch, capsys):
    code, _, err = run(monkeypatch, capsys, ["tverberg", "--m", "1"], _grid_doc())
    assert code == 2
    code, _, err = run(
        monkeypatch,
        capsys,
        ["tverberg", "--m", "2", "--ambient", "Q2"],
        _grid_doc(),
    )
    assert code == 2
    assert "unknown ambient" in err
    code, _, err = run(monkeypatch, capsys, ["depth", "--point", "1,1"], "not json")
    assert code == 2
    code, _, err = run(
        monkeypatch,
        capsys,
        ["tvnumber", "--m", "2", "--input", "/nonexistent/file.json"],
    )
    assert code == 2
    assert "cannot read" in err


def test_internal_fault_exit_code(monkeypatch, capsys):
    def broken(points, m, ambient):
        raise AssertionFailed("construction lost its common point")

    monkeypatch.setattr("tverberg.product.plane_tverberg", broken)
    code, out, err = run(monkeypatch, capsys, ["tverberg", "--m", "2"], _grid_doc())
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1
    assert "AssertionFailed" in err and "lost its common point" in err


def test_a_label_class_missing_the_center_exits_4(monkeypatch, capsys):
    """The theorem forbids a label class that misses the center, so one
    is an internal fault (certify's AssertionFailed), not a refused
    input."""
    monkeypatch.setattr(
        "tverberg.planar.radon_labeling",
        lambda order, witness: tuple((c, 0) for c in order.counts),
    )
    code, out, err = run(monkeypatch, capsys, ["tverberg", "--m", "2"], _hexagon_doc())
    assert code == 4
    assert out == ""
    assert "AssertionFailed" in err and "part 1" in err


def test_a_bipartition_scan_that_finds_nothing_exits_4(monkeypatch, capsys, seed_miss_set):
    """Every seed misses on this set, so the minimal-subset scan splits it;
    a scan that finds nothing contradicts the theorem, so the CLI reports
    an internal fault, not a refused input."""
    doc = dumps(point_file_to_doc(seed_miss_set, Lattice(3)))
    code, out, _ = run(monkeypatch, capsys, ["tverberg", "--m", "2"], doc)
    assert code == 0 and out
    monkeypatch.setattr("tverberg.space3._split_scan", lambda points, p, sizes: None)
    code, out, err = run(monkeypatch, capsys, ["tverberg", "--m", "2"], doc)
    assert code == 4
    assert out == ""
    assert "AssertionFailed" in err and "Caratheodory" in err


def test_no_subcommand_takes_a_seed(capsys):
    """Every partition driver is deterministic and `partition-depth`
    regroups from a fixed seed, so no subcommand has --seed (`select
    --seeds` is a cap, not a seed)."""
    commands = [
        [c] for c in ("depth", "centerpoint", "tverberg", "verify", "refute", "tvnumber",
                      "helly", "select", "partition-depth")
    ] + [["witness", w] for w in ("onn", "doignon", "double", "convex-lb")]
    for command in commands:
        with pytest.raises(SystemExit) as stop:
            main([*command, "--help"])
        assert stop.value.code == 0
        assert re.search(r"--seed\b", capsys.readouterr().out) is None, command


def test_rational_grammar_violations_exit_2(monkeypatch, capsys):
    code, _, err = run(monkeypatch, capsys, ["depth", "--point", "0.5,1"], _grid_doc())
    assert code == 2
    assert "0.5" in err
    doc = json.loads(_grid_doc())
    for bad in (True, "1e3", " 1 "):
        doc["points"][0]["coords"][0] = bad
        code, out, err = run(monkeypatch, capsys, ["depth", "--point", "1,1"], json.dumps(doc))
        assert code == 2, bad
        assert out == ""


def test_verify_names_another_dimension_with_or_without_source(monkeypatch, capsys, tmp_path):
    """A Z^2 certificate whose point gains a coordinate, or whose part 0
    becomes one 3-D point, exits 1 with the same failures whether the
    source is the point file or the default union of the parts of the
    declared ambient dimension, never 2 or 4."""
    pts = PointMultiset.from_points(
        [point(*p) for p in [(0, 0), (3, 1), (1, 4), (-2, 2), (-1, -3), (2, -2), (4, 3), (0, 1), (1, 1)]]
    )
    src = tmp_path / "points.json"
    src.write_text(dumps(point_file_to_doc(pts, Lattice(2))))
    code, cert_text, _ = run(monkeypatch, capsys, ["tverberg", "--m", "3"], src.read_text())
    assert code == 0
    longer = json.loads(cert_text)
    longer["point"].append("0")
    other_part = json.loads(cert_text)
    other_part["parts"][0] = {"dim": 3, "points": [{"coords": ["0", "0", "0"], "mult": 1}]}
    for doc, clause in ((longer, "membership_mismatch"), (other_part, "partition_mismatch")):
        reports = []
        for args in (["verify", "--source", str(src)], ["verify"]):
            code, out, err = run(monkeypatch, capsys, args, dumps(doc))
            assert (code, err) == (1, "")
            reports.append(json.loads(out))
        assert reports[0]["failures"] == reports[1]["failures"]
        assert reports[0]["details"] == reports[1]["details"]
        assert reports[0]["failures"][0] == clause


def test_every_document_the_cli_writes_is_the_json_module_bytes(monkeypatch, capsys):
    """Every document of every subcommand, certificates of every driver
    route and refutations included, is written with exactly the bytes of
    json.dumps(doc, sort_keys=True, indent=2) and a newline."""
    written = []
    writer = documents.dumps

    def recorded(doc):
        written.append(doc)
        return writer(doc)

    monkeypatch.setattr(documents, "dumps", recorded)
    line = dumps(point_file_to_doc(PointMultiset.from_points([point(0), point("1/2")]), RealSpace(1)))
    commands = [
        (["depth", "--point", "1,1"], _grid_doc()),
        (["centerpoint", "--m", "3"], _grid_doc()),
        (["helly"], _square_doc()),
        (["tvnumber", "--m", "2"], _square_doc()),
        (["select", "--point", "0,0", "--min-size", "2"], _hexagon_doc()),
        (["partition-depth", "--alpha", "5/12", "--r", "3"], _hexagon_doc(mult=2)),
        (["witness", "onn"], ""),
        (["witness", "doignon", "--m", "3"], ""),
        (["witness", "double"], line),
        (["witness", "convex-lb", "--m", "2"], _square_doc()),
    ]
    for instances, ambient, m in _TVERBERG_CASES.values():
        pts = PointMultiset.from_points([point(*p) for p in instances])
        commands.append((["tverberg", "--m", str(m)], dumps(point_file_to_doc(pts, ambient))))
    for instances, ambient, args in _REFUTE_CASES.values():
        pts = PointMultiset.from_points([point(*p) for p in instances])
        commands.append((["refute"] + args, dumps(point_file_to_doc(pts, ambient))))
    for argv, stdin_text in commands:
        code, out, err = run(monkeypatch, capsys, argv, stdin_text)
        # the budget case of the refutations exits 3 with no document
        assert code in (0, 1) and err == "" or "--budget" in argv, argv
        if argv[0] == "tverberg":
            corrupted = json.loads(out)
            corrupted["proofs"][0][0]["weight"] = "7"
            for cert_text in (out, json.dumps(corrupted)):
                run(monkeypatch, capsys, ["verify"], cert_text)
    kinds = {doc.get("type", "point_file") for doc in written}
    assert kinds == {
        "depth", "centerpoint", "helly_number", "tverberg_number", "selection",
        "depth_partition", "point_file", "tverberg_certificate", "verification", "refutation",
    }
    assert {doc["ok"] for doc in written if doc.get("type") == "verification"} == {True, False}
    for doc in written:
        assert writer(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_rationals_given_as_json_numbers_exit_2(monkeypatch, capsys):
    """Document rationals are strings: a point file with numeric
    coordinates, a finite ambient with numeric points, or a certificate
    with a numeric weight is an input error (exit 2), never a result."""
    numeric = {"ambient": {"d": 1, "kind": "Zd"}, "dim": 1,
               "points": [{"coords": [0], "mult": 2}, {"coords": [3], "mult": 1}]}
    code, out, err = run(monkeypatch, capsys, ["tverberg", "--m", "2", "--ambient", "Zd"], json.dumps(numeric))
    assert (code, out) == (2, "")
    assert "0" in err and "string" in err
    strings = json.loads(json.dumps(numeric).replace("[0]", '["0"]').replace("[3]", '["3"]'))
    code, cert_text, _ = run(monkeypatch, capsys, ["tverberg", "--m", "2", "--ambient", "Zd"], json.dumps(strings))
    assert code == 0
    finite = json.loads(_square_doc())
    finite["ambient"] = {"dim": 2, "kind": "finite", "points": [[0, 0], [1, 0], [0, 1], [1, 1]]}
    code, out, _ = run(monkeypatch, capsys, ["helly"], json.dumps(finite))
    assert (code, out) == (2, "")
    cert = json.loads(cert_text)
    for path in ("weight", "point"):
        bad = json.loads(cert_text)
        if path == "weight":
            bad["proofs"][0][0]["weight"] = 1
        else:
            bad["point"] = [int(cert["point"][0])]
        code, out, err = run(monkeypatch, capsys, ["verify"], json.dumps(bad))
        assert (code, out) == (2, ""), path
        assert "string" in err


def test_non_object_document_fields_exit_2(monkeypatch, capsys, tmp_path):
    """A field that must be a JSON object but holds null, a number, a
    string or a list is a named input error (exit 2), not an internal
    error: an ambient field under ``centerpoint --input``, ``helly`` and
    ``verify --source``, and a part or the ambient of a certificate
    under ``verify``."""
    code, cert_text, _ = run(monkeypatch, capsys, ["tverberg", "--m", "2", "--ambient", "Zd"], _grid_doc())
    assert code == 0
    grid = json.loads(_grid_doc())
    path = tmp_path / "points.json"
    for value, kind in ((None, "null"), (3, "a number"), ("kind", "a string"), ([1], "a list")):
        path.write_text(json.dumps(dict(grid, ambient=value)))
        for argv, stdin in (
            (["centerpoint", "--input", str(path), "--m", "1"], ""),
            (["helly", "--input", str(path)], ""),
            (["verify", "--source", str(path)], cert_text),
        ):
            code, out, err = run(monkeypatch, capsys, argv, stdin)
            assert (code, out) == (2, ""), (argv, value)
            assert f"the ambient field must be an object, not {kind}" in err
            assert "internal error" not in err
    for field, value, message in (
        ("parts", [3], "parts[0] must be an object, not a number"),
        ("parts", [json.loads(cert_text)["parts"][0], None], "parts[1] must be an object, not null"),
        ("ambient", "Zd", "the ambient field must be an object, not a string"),
    ):
        bad = dict(json.loads(cert_text), **{field: value})
        code, out, err = run(monkeypatch, capsys, ["verify"], json.dumps(bad))
        assert (code, out) == (2, ""), (field, value)
        assert message in err and "internal error" not in err


def test_caps_below_one_are_usage_errors(monkeypatch, capsys):
    """--budget on refute, tvnumber and partition-depth and select's
    --seeds take positive ints: a cap below 1 (or not an int) exits 2
    at parse time and names the flag, where it used to read as a
    search result (exit 3 or 1)."""
    pts = PointMultiset.from_points([point(*p) for p in [(0, 0), (3, 1), (1, 4), (-2, 2), (-1, -3), (2, -2)]])
    doc = dumps(point_file_to_doc(pts, Lattice(2)))
    square = _square_doc()
    cases = (
        (["refute", "--m", "2", "--budget", "-1"], doc, "--budget", "-1"),
        (["refute", "--m", "2", "--budget", "0"], doc, "--budget", "0"),
        (["tvnumber", "--m", "2", "--budget", "0"], square, "--budget", "0"),
        (["select", "--seeds", "0"], doc, "--seeds", "0"),
        (["partition-depth", "--alpha", "1/3", "--r", "3", "--budget", "0"], doc, "--budget", "0"),
        (["partition-depth", "--alpha", "1/3", "--r", "3", "--budget", "x"], doc, "--budget", "x"),
    )
    for argv, stdin_text, flag, value in cases:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        with pytest.raises(SystemExit) as stop:
            main(argv)
        out, err = capsys.readouterr()
        assert stop.value.code == 2, argv
        assert out == ""
        assert f"argument {flag}: must be a positive int, not '{value}'" in err
    # a cap of 1 is a cap: the search runs and reports its budget
    code, out, err = run(monkeypatch, capsys, ["refute", "--m", "2", "--budget", "1"], doc)
    assert (code, out, err) == (3, "", "tverberg: partition budget 1 exhausted\n")


def test_deeply_nested_json_exits_2(monkeypatch, capsys, tmp_path):
    """JSON nested deeper than the parser recurses is invalid JSON (exit
    2), on stdin, through --input and as the ambient of a certificate
    under verify, never a RecursionError (exit 4)."""
    deep = "[" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    ambient = '{"a":' * 50_000 + "1" + "}" * 50_000
    certificate = '{"type": "tverberg_certificate", "m": 2, "ambient": ' + ambient + "}"
    expected = (2, "", "tverberg: not valid JSON: nested too deeply\n")
    assert run(monkeypatch, capsys, ["helly"], deep) == expected
    assert run(monkeypatch, capsys, ["centerpoint", "--m", "2", "--input", str(path)]) == expected
    assert run(monkeypatch, capsys, ["verify"], certificate) == expected


def test_digit_strings_over_the_int_limit_exit_2(monkeypatch, capsys):
    """A rational whose numerator or denominator is longer than the
    interpreter's int conversion limit is refused by name (exit 2) from
    a document coordinate, ``depth --point`` and ``--alpha``; so is an
    answer whose rationals grow past it from numbers within it."""
    limit = sys.get_int_max_str_digits()
    long = "7" * (limit + 1)
    refusal = f"a numerator or denominator may have at most {limit} digits\n"
    doc = json.loads(_grid_doc())
    doc["points"][0]["coords"] = [long, "0"]
    for argv, stdin, text in (
        (["helly"], json.dumps(doc), long),
        (["depth", "--point", f"1/{long},0"], _grid_doc(), f"1/{long}"),
        (["partition-depth", "--alpha", f"1/{long}", "--r", "3"], _hexagon_doc(mult=2), f"1/{long}"),
    ):
        code, out, err = run(monkeypatch, capsys, argv, stdin)
        assert (code, out) == (2, ""), argv
        assert err == f"tverberg: bad rational string of {len(text)} characters: {refusal}", argv
    big = "1" * (limit - 300)
    doc = {"dim": 2, "points": [{"coords": c} for c in (["0", "0"], [big, "1"], ["1", big], ["-" + big, "-" + big], ["2", "3"])]}
    code, out, err = run(monkeypatch, capsys, ["depth", "--point", f"1/{big},{big}"], json.dumps(doc))
    assert (code, out) == (2, "")
    assert err == f"tverberg: cannot write a rational of more than {limit} digits; the input's numbers are too long\n"


def test_json_number_over_the_int_limit_exits_2(monkeypatch, capsys):
    """A JSON number longer than the interpreter's int conversion limit is
    invalid JSON (exit 2), refused with the limit, not with advice to
    raise it."""
    limit = sys.get_int_max_str_digits()
    doc = '{"dim": 2, "points": [{"coords": ["0", "0"], "mult": %s}]}' % ("9" * (limit + 1))
    refusal = f"tverberg: not valid JSON: a number has more than {limit} digits\n"
    assert run(monkeypatch, capsys, ["helly"], doc) == (2, "", refusal)


def test_centerpoint_of_huge_multiplicities_exits_0(monkeypatch, capsys):
    """The scan box is read off (value, multiplicity) pairs, so planar
    entries of multiplicity 10^12, or one of 10^24, expand into no list:
    ``centerpoint --m 2`` answers with the deepest integer point."""
    corners = [point(0, 0), point(3, 0), point(0, 3)]
    for mults, centre, depth in (
        ((10**12,) * 3, ["0", "0"], 10**12),
        ((10**12, 10**24, 10**12), ["3", "0"], 10**24),
    ):
        doc = dumps(point_file_to_doc(PointMultiset(zip(corners, mults), dim=2), Lattice(2)))
        code, out, err = run(monkeypatch, capsys, ["centerpoint", "--m", "2"], doc)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"type": "centerpoint", "m": 2, "point": centre, "depth": depth}


def test_tverberg_of_huge_multiplicities_on_a_line_exits_0(monkeypatch, capsys, tmp_path):
    """The median construction cuts its parts by count per entry, so over
    Z^1, a 1-D finite set and a collinear planar set (Helly number 2)
    entries of multiplicity 10^12 expand into no list: ``tverberg --m 3``
    answers, and the certificate verifies against its point file."""
    big = 10**12
    line = [point(0), point(3), point(5)]
    diagonal = [point(0, 0), point(3, 3), point(5, 5)]
    source = tmp_path / "points.json"
    for support, ambient in (
        (line, Lattice(1)),
        (line, FiniteSet(line + [point(7)], 1)),
        (diagonal, FiniteSet(diagonal, 2)),
    ):
        text = dumps(point_file_to_doc(PointMultiset(zip(support, (big, big, 1)), dim=len(support[0])), ambient))
        code, out, err = run(monkeypatch, capsys, ["tverberg", "--m", "3"], text)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["point"] == ["0"] * len(support[0])
        assert [sum(e["mult"] for e in part["points"]) for part in doc["parts"]] == [2, 2, 2 * big - 3]
        source.write_text(text)
        code, out, err = run(monkeypatch, capsys, ["verify", "--source", str(source)], out)
        assert (code, err) == (0, "") and json.loads(out)["ok"] is True


def test_tverberg_of_huge_multiplicities_over_products_exits_0(monkeypatch, capsys, tmp_path):
    """The product driver splits its base and fiber parts by count per
    entry, so over Z^1 x R^1 and Z^3 x R^1 entries of multiplicity 10^12
    expand into no list: ``tverberg`` answers, and the certificate
    verifies against its point file."""
    big = 10**12
    source = tmp_path / "points.json"
    for support, ambient, m, centre, sizes in (
        (
            [point(0, 0), point(0, 1), point(3, Fraction(1, 2)), point(5, 2)],
            MixedLattice(1, 1), 3, ["0", "0"], [6, 2, 3 * big - 7],
        ),
        (
            [point(0, 0, 0, 0), point(3, 0, 0, 1), point(0, 3, 0, 2), point(0, 0, 3, 3)],
            MixedLattice(3, 1), 2, ["1", "1", "0", "1"], [6, 3 * big - 5],
        ),
    ):
        text = dumps(point_file_to_doc(PointMultiset(zip(support, (big, big, big, 1)), dim=len(support[0])), ambient))
        code, out, err = run(monkeypatch, capsys, ["tverberg", "--m", str(m)], text)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["point"] == centre
        assert [sum(e["mult"] for e in part["points"]) for part in doc["parts"]] == sizes
        source.write_text(text)
        code, out, err = run(monkeypatch, capsys, ["verify", "--source", str(source)], out)
        assert (code, err) == (0, "") and json.loads(out)["ok"] is True


def test_tverberg_of_huge_multiplicities_on_the_radial_route_exits_0(monkeypatch, capsys, tmp_path):
    """The radial route orders one run per entry and labels each run by
    counts, so over Z^2, Z^2 x R^1 and a finite planar set of Helly
    number 4 entries of multiplicity 10^12 expand into no list:
    ``tverberg`` answers, and the certificate verifies against its point
    file."""
    big = 10**12
    corners = [point(0, 0), point(3, 0), point(0, 3), point(1, 1)]
    lifted = [point(0, 0, 0), point(3, 0, 1), point(0, 3, 2), point(1, 1, 3)]
    grid = FiniteSet([point(x, y) for x in range(3) for y in range(3)], 2)
    column = [(point(0, y), 1) for y in range(3)] + [(point(2, 0), big), (point(2, 2), big)]
    source = tmp_path / "points.json"
    for points, ambient, m, centre, sizes in (
        (zip(corners, (big, big, big, 1)), Lattice(2), 3, ["1", "1"], [1] + [3 * big // 2] * 2),
        (zip(corners, (big, big, big, 1)), Lattice(2), 5, ["1", "1"], [1] + [3 * big // 4] * 4),
        (zip(lifted, (big, big, big, 1)), MixedLattice(2, 1), 2, ["1", "1", "1"], [3 * big // 2 + 1, 3 * big // 2]),
        (column, grid, 3, ["1", "1"], [(2 * big + 3) // 3 + 1] * 2 + [(2 * big + 3) // 3]),
    ):
        ms = PointMultiset(points, dim=len(centre))
        text = dumps(point_file_to_doc(ms, ambient))
        code, out, err = run(monkeypatch, capsys, ["tverberg", "--m", str(m)], text)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["point"] == centre
        assert [sum(e["mult"] for e in part["points"]) for part in doc["parts"]] == sizes
        source.write_text(text)
        code, out, err = run(monkeypatch, capsys, ["verify", "--source", str(source)], out)
        assert (code, err) == (0, "") and json.loads(out)["ok"] is True


def test_selection_of_huge_multiplicities_exits_2(monkeypatch, capsys):
    """Selection lists every instance, so ``select`` and
    ``partition-depth`` refuse a multiset above their instance cap by
    name (exit 2) before any list is built."""
    corners = [point(0, 0), point(3, 0), point(0, 3), point(1, 1)]
    text = dumps(point_file_to_doc(PointMultiset(zip(corners, (10**12,) * 3 + (1,)), dim=2), Lattice(2)))
    refusal = "tverberg: selection takes at most 100000 instances, got 3000000000001\n"
    for argv in (
        ["select"],
        ["select", "--point", "1,1"],
        ["partition-depth", "--alpha", "1/3", "--r", "3"],
    ):
        assert run(monkeypatch, capsys, argv, text) == (2, "", refusal)


def test_ambient_dimension_over_the_int_limit_exits_2(monkeypatch, capsys):
    """An --ambient dimension longer than the interpreter's int conversion
    limit is refused by name (exit 2) in each explicit form, never a
    ValueError (exit 4); a long one within the limit reaches the
    ambient's own checks."""
    limit = sys.get_int_max_str_digits()
    refusal = f"tverberg: an ambient dimension may have at most {limit} digits\n"
    long = "9" * (limit + 1)
    for spec in (f"Z{long}", f"R{long}", f"Z1R{long}", f"Z{long}R1"):
        assert run(monkeypatch, capsys, ["tverberg", "--m", "2", "--ambient", spec], _grid_doc()) == (2, "", refusal)
    code, out, err = run(monkeypatch, capsys, ["tverberg", "--m", "2", "--ambient", "R" + "9" * limit], _grid_doc())
    assert (code, out) == (2, "") and "ambient set of dimension" in err


def test_input_file_that_is_not_utf8_exits_2(monkeypatch, capsys, tmp_path):
    """An --input or --source file that does not decode as UTF-8 is
    refused by name (exit 2), and so is stdin when it decodes strictly;
    with surrogateescape (a C or POSIX locale) the bytes reach the
    grammar, which refuses them."""
    path = tmp_path / "latin1.json"
    path.write_bytes(_grid_doc().replace('"0"', '"\xe9"').encode("latin-1"))
    _, cert_text, _ = run(monkeypatch, capsys, ["tverberg", "--m", "2"], _grid_doc())
    for argv, stdin in ((["helly", "--input", str(path)], ""), (["verify", "--source", str(path)], cert_text)):
        code, out, err = run(monkeypatch, capsys, argv, stdin)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"tverberg: cannot read {path}: 'utf-8' codec can't decode byte 0xe9"), err
    for errors, expected in (("strict", "cannot read stdin: 'utf-8' codec"), ("surrogateescape", "bad rational")):
        stdin = io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="utf-8", errors=errors)
        monkeypatch.setattr("sys.stdin", stdin)
        code = main(["helly"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "") and err.startswith(f"tverberg: {expected}"), (errors, err)
