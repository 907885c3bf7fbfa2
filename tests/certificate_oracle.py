"""Reference certificate checks in ``fractions.Fraction`` arithmetic.

``verify_certificate`` is the library's previous verifier, kept verbatim
as the reference for the integer one that replaced it: it reassembles
the parts into a merged ``PointMultiset`` and combines each proof's
weights with the part's Fraction points by ``add`` and ``scale``, the
point helpers the library's ``combination`` folded with before it
summed in ints.  ``rational`` is the
library's previous parser body, which hands a string that passed the
grammar to ``Fraction``'s own string parser, and ``grammar_rational``
the one after it, which decides the grammar by a regular expression
and reads the digits as ints under the interpreter's int conversion
limit.  The tests check that the library returns the same reports and
the same values, and raises the same errors, on the same inputs.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from tverberg.certificates import TverbergCertificate, VerificationReport
from tverberg.errors import InputError
from tverberg.points import Point, PointMultiset, Rationalish

_RATIONAL_STRING = re.compile(r"-?[0-9]+(/[0-9]+)?")


def add(p: Point, q: Point) -> Point:
    return tuple(a + b for a, b in zip(p, q, strict=True))


def scale(t: Fraction | int, p: Point) -> Point:
    return tuple(t * a for a in p)


def rational(value: Rationalish) -> Fraction:
    """Parse a rational from an int, a Fraction, or a string 'a' / 'a/b'.

    Strings follow the document grammar exactly: an optional minus sign,
    ASCII digits, and optionally a slash and a nonzero digit string.
    Decimals, exponents, spaces, underscores and bools are rejected.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_STRING.fullmatch(value):
            raise InputError(f"bad rational string: {value!r}; expected 'a' or 'a/b'")
        try:
            return Fraction(value)
        except ZeroDivisionError as exc:
            raise InputError(f"bad rational string: {value!r} has a zero denominator") from exc
    raise InputError(f"cannot interpret {value!r} as a rational")


def grammar_rational(value: str) -> Fraction:
    """A rational string by the document grammar, decided by
    ``_RATIONAL_STRING`` and read as ints."""
    if not _RATIONAL_STRING.fullmatch(value):
        raise InputError(f"bad rational string: {value!r}; expected 'a' or 'a/b'")
    num, slash, den = value.partition("/")
    try:
        if not slash:
            return Fraction(int(value))
        return Fraction(int(num), int(den))
    except ZeroDivisionError as exc:
        raise InputError(f"bad rational string: {value!r} has a zero denominator") from exc
    except ValueError:
        raise InputError(
            f"bad rational string of {len(value)} characters: a numerator or "
            f"denominator may have at most {sys.get_int_max_str_digits()} digits"
        ) from None


def verify_certificate(
    cert: TverbergCertificate, source: PointMultiset
) -> VerificationReport:
    """Judge a certificate against the multiset it claims to partition."""
    failures: list[str] = []
    details: list[str] = []

    def fail(clause: str, detail: str) -> None:
        if clause not in failures:
            failures.append(clause)
        details.append(detail)

    if len(cert.parts) != cert.m:
        fail("partition_mismatch", f"{len(cert.parts)} parts against m={cert.m}")
    if len(cert.proofs) != len(cert.parts):
        fail("bad_coefficients", f"{len(cert.proofs)} proofs for {len(cert.parts)} parts")
    misfits = [k for k, part in enumerate(cert.parts) if part.dim != source.dim]
    for k in misfits:
        fail("partition_mismatch", f"part {k} has dimension {cert.parts[k].dim}, source {source.dim}")
    union = (entry for part in cert.parts for entry in part.entries)
    if not misfits and PointMultiset(union, dim=source.dim) != source:
        fail("partition_mismatch", "parts do not reassemble the source multiset")
    for k, part in enumerate(cert.parts):
        if part.size == 0:
            fail("empty_part", f"part {k} is empty")
    for k in range(min(len(cert.parts), len(cert.proofs))):
        part, proof = cert.parts[k], cert.proofs[k]
        bad = False
        total = Fraction(0)
        for idx, w in proof:
            if not (0 <= idx < len(part.entries)):
                fail("bad_coefficients", f"part {k}: weight index {idx} out of range")
                bad = True
                continue
            if w < 0:
                fail("bad_coefficients", f"part {k}: negative weight {w}")
                bad = True
            total += w
        if total != 1:
            fail("bad_coefficients", f"part {k}: weights sum to {total}")
            bad = True
        if bad or part.size == 0 or part.dim != source.dim:
            continue
        combo = tuple(Fraction(0) for _ in range(source.dim))
        for idx, w in proof:
            combo = add(combo, scale(w, part.entries[idx][0]))
        if combo != cert.point:
            fail("membership_mismatch", f"part {k}: weights combine to a different point")
    if len(cert.point) != source.dim:
        fail("membership_mismatch", "certified point has the wrong dimension")
    elif not cert.ambient.contains(cert.point):
        fail("point_not_in_ambient", f"certified point lies outside {cert.ambient.describe()}")
    return VerificationReport(not failures, tuple(failures), tuple(details))
