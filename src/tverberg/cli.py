"""Command-line front end.

Subcommands read point-file documents from --input (default stdin),
write result documents to stdout, and report through exit codes:

  0  success, or a refutation that holds
  1  negative result: verification failed, a partition exists where
     none was claimed, or a search completed empty-handed
  2  usage error, malformed document, or violated precondition
  3  an enumeration budget ran out before the answer was settled
  4  internal fault: a guaranteed fact failed or an unexpected exception
     escaped, so no answer was reached

Documents are exact (rationals as strings) and byte-stable for fixed
inputs, so they pipe cleanly between subcommands.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from . import documents as docs
from .ambient import AmbientSet, FiniteSet, Lattice, MixedLattice, RealSpace
from .certificates import verify_certificate
from .depth import (
    depth_value,
    finite_set_centerpoint,
    halfspace_depth,
    integer_centerpoint,
)
from .errors import (
    BudgetExceeded,
    Infeasible,
    InputError,
    NotFound,
    PreconditionViolated,
    SelectionNotFound,
    UnsupportedAmbient,
)
from .oracle import exact_tverberg_number, search_partition
from .planar import helly_number
from .points import Point, PointMultiset, rational
from .product import double_witness, tverberg_partition
from .selection import depth_partition_search, fraction_selection
from .witnesses import convex_lowerbound_witness, doignon_witness, onn_witness

_MIXED_FORM = re.compile(r"^Z(\d+)R(\d+)$")
_LATTICE_FORM = re.compile(r"^Z(\d+)$")
_REAL_FORM = re.compile(r"^R(\d+)$")


def _read_text(source: str) -> str:
    """The text of a file, or of stdin for "-"; stdin decodes as the
    interpreter set it up (surrogateescape in a C or POSIX locale)."""
    try:
        if source == "-":
            return sys.stdin.read()
        with open(source, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {'stdin' if source == '-' else source}: {exc}") from None


def _emit(doc: dict) -> None:
    sys.stdout.write(docs.dumps(doc))


def _load_point_file(args) -> tuple[PointMultiset, AmbientSet | None]:
    return docs.point_file_from_doc(docs.loads(_read_text(args.input)))


def _parse_point(text: str) -> Point:
    tokens = [tok.strip() for tok in text.split(",")]
    if not all(tokens):
        raise InputError(f"malformed point {text!r}; expected comma-separated rationals")
    return tuple(rational(tok) for tok in tokens)


def _dimension(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # int() refuses digit strings over the interpreter's limit
        raise InputError(
            f"an ambient dimension may have at most {sys.get_int_max_str_digits()} digits"
        ) from None


def _resolve_ambient(
    spec: str | None, dim: int, declared: AmbientSet | None
) -> AmbientSet:
    """The ambient to work over: flag first, then the file, then Z^dim."""
    if spec is None:
        return declared if declared is not None else Lattice(dim)
    if spec == "Zd":
        return Lattice(dim)
    if spec == "Rd":
        return RealSpace(dim)
    if spec == "finite":
        if isinstance(declared, FiniteSet):
            return declared
        raise InputError("a finite ambient must be declared inside the point file")
    match = _MIXED_FORM.match(spec)
    if match:
        return MixedLattice(_dimension(match.group(1)), _dimension(match.group(2)))
    match = _LATTICE_FORM.match(spec)
    if match:
        return Lattice(_dimension(match.group(1)))
    match = _REAL_FORM.match(spec)
    if match:
        return RealSpace(_dimension(match.group(1)))
    raise InputError(
        f"unknown ambient {spec!r}; use Zd, Rd, finite, or explicit forms "
        "like Z2, R3, Z1R2"
    )


def _finite_ground_set(
    points: PointMultiset, declared: AmbientSet | None
) -> FiniteSet:
    if isinstance(declared, FiniteSet):
        return declared
    if declared is not None and not isinstance(declared, Lattice):
        raise InputError("this subcommand needs a finite ambient set")
    return FiniteSet(points.support(), points.dim)


def cmd_depth(args) -> int:
    points, _ = _load_point_file(args)
    q = _parse_point(args.point)
    witness = halfspace_depth(q, points)
    _emit(
        {
            "type": "depth",
            "point": docs.point_to_doc(q),
            "depth": witness.depth,
            "witness": docs.halfspace_to_doc(witness.halfspace),
        }
    )
    return 0


def cmd_centerpoint(args) -> int:
    points, declared = _load_point_file(args)
    ambient = _resolve_ambient(args.ambient, points.dim, declared)
    if isinstance(ambient, Lattice):
        center = integer_centerpoint(points, args.m)
    elif isinstance(ambient, FiniteSet):
        center = finite_set_centerpoint(points, ambient, args.m)
    else:
        raise UnsupportedAmbient(
            f"centerpoints are computed over Zd or finite sets, not "
            f"{ambient.describe()}"
        )
    _emit(
        {
            "type": "centerpoint",
            "m": args.m,
            "point": docs.point_to_doc(center),
            "depth": depth_value(center, points),
        }
    )
    return 0


def cmd_tverberg(args) -> int:
    points, declared = _load_point_file(args)
    ambient = _resolve_ambient(args.ambient, points.dim, declared)
    _emit(docs.certificate_to_doc(tverberg_partition(points, args.m, ambient)))
    return 0


def cmd_verify(args) -> int:
    cert = docs.certificate_from_doc(docs.loads(_read_text(args.input)))
    if args.source is not None:
        source, _ = docs.point_file_from_doc(docs.loads(_read_text(args.source)))
    else:
        # parts of another dimension stay out of the union, so the
        # verifier names them as it does against a --source file
        dim = cert.ambient.dim
        entries = (entry for part in cert.parts if part.dim == dim for entry in part.entries)
        source = PointMultiset(entries, dim=dim)
    report = verify_certificate(cert, source)
    _emit(
        {
            "type": "verification",
            "ok": report.ok,
            "failures": list(report.failures),
            "details": list(report.details),
        }
    )
    return 0 if report.ok else 1


def cmd_refute(args) -> int:
    points, declared = _load_point_file(args)
    ambient = _resolve_ambient(args.ambient, points.dim, declared)
    found = search_partition(points, args.m, ambient, budget=args.budget)
    if found is None:
        _emit(
            {
                "type": "refutation",
                "m": args.m,
                "ambient": docs.ambient_to_doc(ambient),
                "no_partition": True,
            }
        )
        return 0
    hulls, witness = found
    _emit(
        {
            "type": "refutation",
            "m": args.m,
            "ambient": docs.ambient_to_doc(ambient),
            "no_partition": False,
            "point": docs.point_to_doc(witness),
            "parts": [docs.multiset_to_doc(h) for h in hulls],
        }
    )
    return 1


def cmd_witness(args) -> int:
    if args.shape == "onn":
        _emit(docs.point_file_to_doc(onn_witness(), Lattice(2)))
        return 0
    if args.shape == "doignon":
        _emit(docs.point_file_to_doc(doignon_witness(args.m), Lattice(2)))
        return 0
    if args.shape == "double":
        points, declared = _load_point_file(args)
        ambient = _resolve_ambient(args.ambient, points.dim, declared)
        doubled, lifted = double_witness(points, ambient)
        _emit(docs.point_file_to_doc(doubled, lifted))
        return 0
    if args.shape == "convex-lb":
        points, declared = _load_point_file(args)
        ground = _finite_ground_set(points, declared)
        _emit(docs.point_file_to_doc(convex_lowerbound_witness(ground, args.m), ground))
        return 0
    raise InputError(f"unknown witness shape {args.shape!r}")


def cmd_tvnumber(args) -> int:
    points, declared = _load_point_file(args)
    ground = _finite_ground_set(points, declared)
    number = exact_tverberg_number(ground, args.m, args.n_max, budget=args.budget)
    _emit(
        {
            "type": "tverberg_number",
            "m": args.m,
            "number": number,
            "ambient": docs.ambient_to_doc(ground),
        }
    )
    return 0


def cmd_helly(args) -> int:
    points, declared = _load_point_file(args)
    ground = _finite_ground_set(points, declared)
    witness = helly_number(ground)
    _emit(
        {
            "type": "helly_number",
            "number": witness.number,
            "witness": [docs.point_to_doc(p) for p in witness.points],
        }
    )
    return 0


def cmd_select(args) -> int:
    points, _ = _load_point_file(args)
    n, d = points.size, points.dim
    if args.point is not None:
        q = _parse_point(args.point)
    else:
        q = integer_centerpoint(points, -(-n // (d + 1)))
    min_size = args.min_size if args.min_size is not None else max(1, n // (2 * (d + 1)))
    result = fraction_selection(points, q, min_size, max_seeds=args.seeds)
    _emit(
        {
            "type": "selection",
            "point": docs.point_to_doc(result.point),
            "sizes": list(result.sizes),
            "parts": [docs.multiset_to_doc(part) for part in result.parts],
            "verified": result.verified,
        }
    )
    return 0


def cmd_partition_depth(args) -> int:
    points, _ = _load_point_file(args)
    alpha = rational(args.alpha)
    parts = depth_partition_search(points, alpha, args.r, budget=args.budget)
    _emit(
        {
            "type": "depth_partition",
            "alpha": args.alpha,
            "sizes": [part.size for part in parts],
            "parts": [docs.multiset_to_doc(part) for part in parts],
        }
    )
    return 0


def _positive_int(text: str) -> int:
    """A cap's value: an int of at least 1, so that a cap below 1 is a
    usage error (exit 2) and never reads as a search result."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive int, not {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps
    no state in it between calls."""
    parser = argparse.ArgumentParser(
        prog="tverberg",
        description="Exact Tverberg partitions, depth, and refutations "
        "over discrete point sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ambient=True):
        p.add_argument(
            "--input",
            default="-",
            help="point or certificate document; - reads stdin (default)",
        )
        if ambient:
            p.add_argument(
                "--ambient",
                default=None,
                help="Zd, Rd, finite, or explicit forms like Z2, R3, Z1R2; "
                "defaults to the file's declaration, then Zd",
            )

    p = sub.add_parser("depth", help="half-space depth of a query point")
    common(p, ambient=False)
    p.add_argument("--point", required=True, help="query, e.g. 1,-2/3")
    p.set_defaults(func=cmd_depth)

    p = sub.add_parser("centerpoint", help="deepest ambient point for a target m")
    common(p)
    p.add_argument("--m", type=int, required=True, help="depth target")
    p.set_defaults(func=cmd_centerpoint)

    p = sub.add_parser("tverberg", help="construct a verified m-part partition")
    common(p)
    p.add_argument("--m", type=int, required=True, help="number of parts")
    p.set_defaults(func=cmd_tverberg)

    p = sub.add_parser("verify", help="re-check a certificate document")
    common(p, ambient=False)
    p.add_argument(
        "--source",
        default=None,
        help="point file the certificate must partition; defaults to the "
        "union of its parts of the declared ambient dimension",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("refute", help="prove no m-partition admits an ambient point")
    common(p)
    p.add_argument("--m", type=int, required=True, help="number of parts")
    p.add_argument("--budget", type=_positive_int, default=None, help="partition check cap")
    p.set_defaults(func=cmd_refute)

    p = sub.add_parser("witness", help="emit a named lower-bound configuration")
    wsub = p.add_subparsers(dest="shape", required=True)
    w = wsub.add_parser("onn", help="five points with no integer Radon point")
    common(w, ambient=False)
    w.set_defaults(func=cmd_witness)
    w = wsub.add_parser("doignon", help="4m-4 points with no integer m-partition")
    common(w, ambient=False)
    w.add_argument("--m", type=int, required=True)
    w.set_defaults(func=cmd_witness)
    w = wsub.add_parser("double", help="duplicate a set across a new coordinate")
    common(w)
    w.set_defaults(func=cmd_witness)
    w = wsub.add_parser(
        "convex-lb", help="hull-independent points repeated m-1 times each"
    )
    common(w, ambient=False)
    w.add_argument("--m", type=int, required=True)
    w.set_defaults(func=cmd_witness)

    p = sub.add_parser("tvnumber", help="exact Tverberg number of a finite set")
    common(p, ambient=False)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n-max", type=int, default=12, help="largest size to try")
    p.add_argument("--budget", type=_positive_int, default=None, help="partition check cap")
    p.set_defaults(func=cmd_tvnumber)

    p = sub.add_parser("helly", help="Helly number of a finite planar set")
    common(p, ambient=False)
    p.set_defaults(func=cmd_helly)

    p = sub.add_parser("select", help="three large groups every hull transversal hits")
    common(p, ambient=False)
    p.add_argument("--point", default=None, help="center; defaults to a centerpoint")
    p.add_argument(
        "--min-size", type=int, default=None, help="group size floor (default n // (2(d+1)), at least 1)"
    )
    p.add_argument("--seeds", type=_positive_int, default=150, help="seed transversal cap")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser(
        "partition-depth", help="balanced groups keeping deep points covered"
    )
    common(p, ambient=False)
    p.add_argument("--alpha", required=True, help="depth fraction, e.g. 1/3")
    p.add_argument("--r", type=int, required=True, help="number of groups")
    p.add_argument("--budget", type=_positive_int, default=200, help="regrouping attempts")
    p.set_defaults(func=cmd_partition_depth)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"tverberg: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"tverberg: {exc}", file=sys.stderr)
        return 2
    except (PreconditionViolated, UnsupportedAmbient) as exc:
        print(f"tverberg: {exc}", file=sys.stderr)
        return 2
    except SelectionNotFound as exc:
        best = f" (best sizes {list(exc.best_sizes)})" if exc.best_sizes else ""
        print(f"tverberg: {exc}{best}", file=sys.stderr)
        return 1
    except (NotFound, Infeasible) as exc:
        print(f"tverberg: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault must not read as a negative result
        print(f"tverberg: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
