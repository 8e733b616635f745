"""Command-line interface: decide irreducibility of a curve ideal read
from a small text file, inspect weights and initial forms, and re-check
previously emitted JSON certificates.

Ideal files are line oriented.  A header declares the coefficient field
and the variable names, then ``ideal:`` starts the generator list, one
polynomial per line::

    char 0
    vars x y
    ideal:
    (y^2 - x^3)^2 - x^7

An optional ``ext`` line between ``char`` and ``vars`` adjoins a root of
a monic polynomial in the reserved symbol ``th``; generators may then
use ``th`` in their coefficients::

    char 5
    ext th^2 + 3
    vars x y
    ideal:
    y^2 - th*x^3

``th`` is that root wherever text is parsed in the file's ring, ``int
--poly`` included, and every polynomial the commands print parses back
the same way.  The ``ring:`` line that ``decide`` and ``semigroup``
print names the field as the header does.

Blank lines and ``#`` comments are ignored.  Exit codes: ``decide``
returns 0 for irreducible, 1 for reducible and 2 for any parse or
precondition failure; ``verify`` returns 0 for a valid certificate, 1
for an invalid one and 2 for unreadable input; the query commands
return 0 on success and 2 on error.  Diagnostics go to stderr.
"""

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from .decide import (Certificate, DecisionReport, _monomial_witness,
                     assert_preconditions, decide_irreducible,
                     value_semigroup, verify_certificate)
from .errors import AlgebroidError, ParseError
from .groebner import IdealHandle
from .localalg import initial_ideal, intersection_number
from .polyring import _EXPONENT_CAP, INF, Poly, RingCtx, parse_poly
from .scalars import _EXT_NAME, FieldSpec
from .semigroups import conductor, gcd_weights, membership

# Coefficient strings that ``_coeff_decoder`` reads without Fraction: an
# ASCII integer.  str.isdigit accepts "²", which Fraction refuses, so
# every other string is left to ``_coeff_parse``.
_INTEGER = re.compile(r"-?[0-9]+")


# ------------------------------------------------------------ ideal files

def _parse_char(text: str, lineno: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ParseError(
            f"line {lineno}: 'char' expects an integer, got {text!r}") from None


def _extension_field(base: FieldSpec, text: str, lineno: int) -> FieldSpec:
    ring = RingCtx(base, (_EXT_NAME,))
    try:
        p = parse_poly(text, ring)
    except AlgebroidError as exc:
        raise ParseError(f"line {lineno}: bad extension polynomial: {exc}")
    if p.is_zero():
        raise ParseError(f"line {lineno}: extension polynomial is zero")
    deg = max(m[0] for m in p.terms)
    if deg < 2:
        raise ParseError(
            f"line {lineno}: extension degree must be at least two")
    if not base.eq(p.terms[(deg,)], base.one()):
        raise ParseError(
            f"line {lineno}: extension polynomial must be monic")
    coeffs = tuple(p.terms.get((k,), base.zero()) for k in range(deg))
    try:
        return FieldSpec(base.characteristic, coeffs)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


def parse_ideal_text(text: str) -> IdealHandle:
    """Parse the line-oriented ideal format into an ideal handle."""
    char: Optional[int] = None
    ext: Optional[Tuple[int, str]] = None
    names: Optional[tuple] = None
    names_line = 0
    gen_lines: List[Tuple[int, str]] = []
    in_ideal = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if in_ideal:
            gen_lines.append((lineno, line))
            continue
        if line == "ideal:":
            in_ideal = True
            continue
        head, _, rest = line.partition(" ")
        if head == "char":
            char = _parse_char(rest, lineno)
        elif head == "ext":
            ext = (lineno, rest.strip())
        elif head == "vars":
            names = tuple(rest.replace(",", " ").split())
            names_line = lineno
        else:
            raise ParseError(
                f"line {lineno}: expected char/ext/vars/ideal:, got {line!r}")
    if char is None:
        raise ParseError("missing 'char <n>' line")
    if not names:
        raise ParseError("missing 'vars <names>' line")
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable names")
    if not gen_lines:
        raise ParseError("missing 'ideal:' section with generators")
    try:
        field = FieldSpec(char)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if ext is not None:
        if _EXT_NAME in names:
            raise ParseError(
                f"variable name {_EXT_NAME!r} is reserved by the ext line")
        field = _extension_field(field, ext[1], ext[0])
    try:
        ctx = RingCtx(field, names)
    except ValueError as exc:
        raise ParseError(f"line {names_line}: {exc}") from None
    gens = []
    for lineno, line in gen_lines:
        try:
            p = parse_poly(line, ctx)
        except AlgebroidError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if not p.is_zero():
            gens.append(p)
    if not gens:
        raise ParseError("the ideal has no nonzero generator")
    return IdealHandle(gens, ctx)


def load_ideal_file(path: str) -> IdealHandle:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ideal_text(fh.read())


# ------------------------------------------------------------ JSON codec

def _json_int(obj, what: str) -> int:
    if type(obj) is not int:  # refuses bools, floats and strings
        raise ParseError(f"{what} must be a JSON integer, got {obj!r}")
    return obj


def _json_str(obj, what: str) -> str:
    if not isinstance(obj, str):
        raise ParseError(f"{what} must be a JSON string, got {obj!r}")
    return obj


def _json_names(obj, what: str) -> tuple:
    if not isinstance(obj, list) or not all(isinstance(v, str) for v in obj):
        raise ParseError(f"{what} must be a list of strings, got {obj!r}")
    return tuple(obj)


def _coeff_json(field: FieldSpec, c):
    if field.extension is not None:
        return [_coeff_json(field.base(), x) for x in c]
    return str(c)


def _coeff_parse(field: FieldSpec, obj):
    """One JSON coefficient as a payload of ``field``, read as Fraction
    reads it; the reference that ``_coeff_decoder`` agrees with."""
    if field.extension is not None:
        vec = tuple(_coeff_parse(field.base(), x) for x in obj)
        if len(vec) != field.degree:
            raise ParseError("extension coefficient has the wrong length")
        return vec
    if isinstance(obj, (bool, float)):
        raise ParseError(f"bad coefficient {obj!r}: not an exact number")
    try:
        q = Fraction(obj)
        return field.coerce(int(q) if q.denominator == 1 else q)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"bad coefficient {obj!r}: {exc}") from None


def _coeff_decoder(field: FieldSpec):
    """The coefficient reader of one document over ``field``.  It returns
    what ``_coeff_parse`` returns, value and payload type, or raises its
    ParseError: an ASCII integer string is read directly with ``int``,
    the shape of nearly every coefficient a certificate carries; anything
    else, and an integer with too many digits for ``int``, is left to
    ``_coeff_parse``."""
    if field.extension is not None:
        base, degree = _coeff_decoder(field.base()), field.degree

        def decode_vector(obj):
            vec = tuple(map(base, obj))
            if len(vec) != degree:
                raise ParseError("extension coefficient has the wrong length")
            return vec
        return decode_vector
    p = field.characteristic

    def decode(obj):
        if type(obj) is str and _INTEGER.fullmatch(obj):
            try:
                return int(obj) % p if p else int(obj)
            except ValueError:
                pass
        return _coeff_parse(field, obj)
    return decode


def _poly_json(p: Poly) -> dict:
    field = p.ctx.field
    return {
        "text": str(p),
        "terms": [[list(m), _coeff_json(field, c)]
                  for m, c in sorted(p.terms.items())],
    }


def _exponents(mono, nvars: int) -> tuple:
    """An exponent vector that the inline check of ``_poly_parse`` did not
    pass, or the ParseError saying what is wrong with it."""
    m = tuple(_json_int(e, "an exponent") for e in mono)
    if len(m) != nvars or any(e < 0 for e in m):
        raise ParseError(f"bad exponent vector {mono!r}")
    if any(e > _EXPONENT_CAP for e in m):
        raise ParseError(f"exponent vector {mono!r} exceeds "
                         f"_EXPONENT_CAP = {_EXPONENT_CAP}")
    return m


def _terms(obj: dict, nvars: int, decode):
    """The (exponent vector, coefficient) pairs of a JSON term list: a
    well-formed vector is passed inline, any other goes to ``_exponents``
    for its ParseError, and each coefficient is read by ``decode`` (from
    ``_coeff_decoder``)."""
    for mono, coeff in obj["terms"]:
        m = None
        if type(mono) is list and len(mono) == nvars:
            for e in mono:
                if type(e) is not int or e < 0 or e > _EXPONENT_CAP:
                    break
            else:
                m = tuple(mono)
        if m is None:
            m = _exponents(mono, nvars)
        yield m, decode(coeff)


def _poly_parse(obj: dict, ctx: RingCtx, decode) -> Poly:
    return Poly.from_items(_terms(obj, ctx.nvars, decode), ctx)


def _ring_json(ctx: RingCtx) -> dict:
    field = ctx.field
    return {
        "char": field.characteristic,
        "vars": list(ctx.variables),
        "ext": (None if field.extension is None
                else [_coeff_json(field.base(), c) for c in field.extension]),
    }


def _ring_parse(obj: dict) -> RingCtx:
    if not isinstance(obj, dict):
        raise ParseError("the ring must be a JSON object")
    char = _json_int(obj["char"], "char")
    ext = obj.get("ext")
    if ext is not None:
        ext = tuple(map(_coeff_decoder(FieldSpec(char)), ext))
    try:
        field = FieldSpec(char, ext)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return RingCtx(field, _json_names(obj["vars"], "vars"))


def _data_json(cert: Certificate):
    if cert.kind == "prime_tropism":
        return [int(e) for e in cert.data]
    if cert.kind == "monomial_witness":
        return _poly_json(cert.data)
    if cert.kind == "two_tropisms":
        return [[int(e) for e in ray] for ray in cert.data]
    raise ParseError(f"unknown certificate kind {cert.kind!r}")


def certificate_json(cert: Certificate) -> dict:
    return {
        "kind": cert.kind,
        "ring": _ring_json(cert.ideal.ctx),
        "generators": [_poly_json(g) for g in cert.ideal.generators],
        "data": _data_json(cert),
        "base_vars": list(cert.base_vars),
        "transcript": [{"name": name, "poly": _poly_json(f)}
                       for name, f in cert.transcript],
    }


def report_json(report: DecisionReport) -> dict:
    stats = {}
    for key, value in report.stats.items():
        if key == "weight_history":
            stats[key] = [list(w) for w in value]
        elif isinstance(value, tuple):
            stats[key] = list(value)
        else:
            stats[key] = value
    return {
        "verdict": report.verdict,
        "certificate": certificate_json(report.certificate),
        "stats": stats,
    }


def certificate_from_json(doc: dict) -> Certificate:
    """Rebuild a certificate from a decision report document (or from a
    bare certificate object).  Exponents, weights and ray entries must be
    JSON integers, the kind and transcript names JSON strings, and
    variable names lists of strings."""
    cert = doc.get("certificate", doc) if isinstance(doc, dict) else None
    if not isinstance(cert, dict):
        raise ParseError("the document is not a JSON certificate object")
    try:
        ctx = _ring_parse(cert["ring"])
        decode = _coeff_decoder(ctx.field)
        handle = IdealHandle([_poly_parse(g, ctx, decode)
                              for g in cert["generators"]], ctx)
        kind = _json_str(cert["kind"], "the kind")
        if kind == "prime_tropism":
            data = tuple(_json_int(e, "a data entry") for e in cert["data"])
        elif kind == "monomial_witness":
            data = _poly_parse(cert["data"], ctx, decode)
        elif kind == "two_tropisms":
            data = tuple(tuple(_json_int(e, "a ray entry") for e in ray)
                         for ray in cert["data"])
        else:
            data = cert["data"]
        transcript = tuple((_json_str(t["name"], "a transcript name"),
                            _poly_parse(t["poly"], ctx, decode))
                           for t in cert.get("transcript", ()))
        base_vars = cert.get("base_vars",
                             list(ctx.variables[:ctx.nvars - len(transcript)]))
        return Certificate(kind, handle, data,
                           _json_names(base_vars, "base_vars"), transcript)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed certificate document: {exc}") from None


_KIND_VERDICT = {
    "prime_tropism": "irreducible",
    "monomial_witness": "reducible",
    "two_tropisms": "reducible",
}


# ------------------------------------------------------------- commands

def _parse_weights(text: str, nvars: int) -> tuple:
    parts = text.replace(",", " ").split()
    try:
        w = tuple(int(p) for p in parts)
    except ValueError:
        raise ParseError(f"weights must be integers: {text!r}") from None
    if len(w) != nvars:
        raise ParseError(f"expected {nvars} weights, got {len(w)}")
    if any(e <= 0 for e in w):
        raise ParseError("weights must be positive")
    return w


def _ring_line(ctx: RingCtx) -> str:
    """The ring as the header of an ideal file names it."""
    field = ctx.field
    ext = "" if field.extension is None else f"ext {field.defining_poly()}, "
    return (f"ring: char {field.characteristic}, {ext}"
            f"vars {' '.join(ctx.variables)}")


def _print_report(report: DecisionReport) -> None:
    cert = report.certificate
    print(f"verdict: {report.verdict}")
    print(f"certificate: {cert.kind}")
    if cert.kind == "prime_tropism":
        print("tropism: " + " ".join(str(e) for e in cert.data))
    elif cert.kind == "monomial_witness":
        print(f"witness: {cert.data}")
    else:
        for ray in cert.data:
            print("ray: " + " ".join(str(e) for e in ray))
    print(_ring_line(cert.ideal.ctx))
    for name, f in cert.transcript:
        print(f"adjoined: {name} = {f}")
    shown = sorted(k for k in report.stats if k != "weight_history")
    print("stats: " + " ".join(f"{k}={report.stats[k]}" for k in shown))


def cmd_decide(args: argparse.Namespace) -> int:
    handle = assert_preconditions(load_ideal_file(args.path))
    report = decide_irreducible(handle)
    if args.json:
        print(json.dumps(report_json(report), indent=2))
    else:
        _print_report(report)
    return 0 if report.verdict == "irreducible" else 1


def _minimal_generators(w: tuple) -> tuple:
    uniq = sorted({int(e) for e in w})
    kept = []
    for n in uniq:
        others = tuple(m for m in uniq if m != n)
        if others and membership(n, others) is not None:
            continue
        kept.append(n)
    return tuple(kept)


def cmd_semigroup(args: argparse.Namespace) -> int:
    handle = assert_preconditions(load_ideal_file(args.path))
    final, w = value_semigroup(handle)
    print("weights: " + " ".join(str(e) for e in w))
    print("generators: " + " ".join(str(e) for e in _minimal_generators(w)))
    print(f"conductor: {conductor(w)}")
    print(_ring_line(final.ctx))
    return 0


def cmd_int(args: argparse.Namespace) -> int:
    handle = load_ideal_file(args.path)
    f = parse_poly(args.poly, handle.ctx)
    n = intersection_number(f, handle)
    print("infinite" if n == INF else str(n))
    return 0


def cmd_initial(args: argparse.Namespace) -> int:
    handle = load_ideal_file(args.path)
    w = _parse_weights(args.weights, handle.ctx.nvars)
    for g in initial_ideal(handle, w):
        print(str(g))
    return 0


def cmd_tropism(args: argparse.Namespace) -> int:
    handle = load_ideal_file(args.path)
    w = _parse_weights(args.weights, handle.ctx.nvars)
    if gcd_weights(w) != 1:
        print("tropism: false")
        print(f"reason: weights share the factor {gcd_weights(w)}")
        return 0
    witness = _monomial_witness(handle, w)
    if witness is None:
        print("tropism: true")
    else:
        print("tropism: false")
        print(f"witness: {witness}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    with open(args.path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or too many digits
            raise ParseError(f"not valid JSON: {exc}") from None
    cert = certificate_from_json(doc)
    ok, reason = verify_certificate(cert)
    claimed = doc.get("verdict") if isinstance(doc, dict) else None
    if ok and claimed is not None and claimed != _KIND_VERDICT[cert.kind]:
        ok, reason = False, "the claimed verdict does not match the kind"
    if ok:
        print(f"certificate: ok ({cert.kind})")
        return 0
    print(f"certificate: invalid ({reason})")
    return 1


# ------------------------------------------------------------ entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algebroid",
        description="Irreducibility decisions for algebroid curve ideals "
                    "with machine-checkable certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide",
                       help="decide irreducibility (exit 0 yes, 1 no)")
    p.add_argument("path", help="ideal file")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON on stdout")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("semigroup",
                       help="value semigroup of a prime curve ideal")
    p.add_argument("path", help="ideal file")
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("int",
                       help="intersection number of a polynomial")
    p.add_argument("path", help="ideal file")
    p.add_argument("--poly", required=True, metavar="EXPR",
                   help="polynomial in the file's variables")
    p.set_defaults(func=cmd_int)

    p = sub.add_parser("initial",
                       help="weighted initial ideal generators")
    p.add_argument("path", help="ideal file")
    p.add_argument("--weights", required=True, metavar="W",
                   help="comma or space separated positive integers")
    p.set_defaults(func=cmd_initial)

    p = sub.add_parser("tropism",
                       help="test whether a weight vector is a tropism")
    p.add_argument("path", help="ideal file")
    p.add_argument("--weights", required=True, metavar="W",
                   help="comma or space separated positive integers")
    p.set_defaults(func=cmd_tropism)

    p = sub.add_parser("verify",
                       help="re-check an emitted JSON report "
                            "(exit 0 valid, 1 invalid)")
    p.add_argument("path", help="JSON report file")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AlgebroidError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
