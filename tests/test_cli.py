"""End-to-end tests for the command-line interface."""

import contextlib
import copy
import hashlib
import io
import json
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from algebroid import groebner
from algebroid.cli import (_coeff_decoder, _coeff_parse, _poly_json,
                           certificate_from_json, certificate_json, main,
                           parse_ideal_text)
from algebroid.decide import (Certificate, _certified_weights,
                              decide_irreducible, verify_certificate)
from algebroid.errors import ParseError
from algebroid.groebner import IdealHandle, ideal_membership
from algebroid.localalg import base_weights
from algebroid.polyring import RingCtx, parse_poly
from algebroid.scalars import GF, QQ
from test_decide import (PRIME_TOWER_CURVES, TWO_BRANCH_CURVES, _curve,
                         benchmark_certificates)

DOUBLE_BRANCH = "char 0\nvars x y\nideal:\n(y^2 - x^3)^2 - x^7\n"
CHAR2_PLANE = "char 2\nvars x y\nideal:\n(y^2 + x^3)^2 + x^7\n"
CHAR2_TOWER = ("char 2\nvars x y z\nideal:\n"
              "(y^2 + x^3)^2 + x^7\nz + x^3 + x^2*y + y^2\n")
CUSP = "char 0\nvars x y\nideal:\nx^3 - y^2\n"
QUARTIC = "char 0\nvars x y\nideal:\nx^3 - y^4\n"
ONE_STEP = "char 0\nvars x y\nideal:\n(y^2 - x^3)^2 - x^2*y^3\n"
# decides to a prime_tropism certificate with weights (4, 6, 13)
PRIME_4_6_13 = "char 0\nvars x y\nideal:\n(y^2 - x^3)^2 - x^5*y\n"
# Its base weights would enumerate a staircase of 3,000,000 monomials.
HUGE_EXPONENT = "char 0\nvars x y\nideal:\ny^2 - x^3000000\n"
# 5151 terms once expanded, which took seconds.
HUGE_POWER = "char 0\nvars x y z\nideal:\n(x + y + z)^100\nz - x*y\n"
MINORS = ("char 0\nvars x y z\nideal:\n"
          "(x^3 + y^2)*x - y*z^2\ny^2 - x*z\nz^3 - (x^3 + y^2)*y\n")
# y^2 = x^3*(th + x) over F_5(th), one branch on which y^2 - th*x^3 = x^4
EXT_CUSP = "char 5\next th^2 + 2\nvars x y\nideal:\ny^2 - th*x^3 - x^4\n"
# two_tropisms with the transcript z, u
STRETCH = "char 0\nvars x y\nideal:\n((y^2 - x^3)^2 - x^5*y)^2 - x^11*y^2\n"


def write(tmp_path, text, name="curve.ideal"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_for(tmp_path, text, *flags):
    path = write(tmp_path, text)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["decide", "--json", *flags, path])
    return code, json.loads(buf.getvalue())


# ----------------------------------------------------------------- decide

def test_decide_double_branch_exits_one(tmp_path, capsys):
    code, out, _ = run(capsys, "decide", write(tmp_path, DOUBLE_BRANCH))
    assert code == 1
    assert "verdict: reducible" in out
    assert "ray: 2 3 7\n" in out
    assert "ray: 2 3 8\n" in out


def test_decide_char_two_exits_zero(tmp_path, capsys):
    code, out, _ = run(capsys, "decide", write(tmp_path, CHAR2_PLANE))
    assert code == 0
    assert "verdict: irreducible" in out
    assert "tropism: 4 6 15" in out


def test_decide_json_has_the_advertised_shape(tmp_path):
    code, doc = report_for(tmp_path, DOUBLE_BRANCH)
    assert code == 1
    assert doc["verdict"] == "reducible"
    cert = doc["certificate"]
    assert cert["kind"] == "two_tropisms"
    assert cert["data"] == [[2, 3, 7], [2, 3, 8]]
    assert cert["ring"]["char"] == 0
    assert set(doc["stats"]) >= {"outer_iterations", "parametric_calls"}


def test_malformed_file_exits_two(tmp_path, capsys):
    path = write(tmp_path, "char 0\nvars x y\nx^3 - y^2\n")
    code, _, err = run(capsys, "decide", path)
    assert code == 2
    assert "error:" in err


def test_missing_header_exits_two(tmp_path, capsys):
    path = write(tmp_path, "vars x y\nideal:\nx^3 - y^2\n")
    code, _, err = run(capsys, "decide", path)
    assert code == 2
    assert "char" in err


# (ideal file, --weights for ``tropism`` or None for ``decide``, message)
UNTRUSTED_INPUT_REFUSALS = {
    "char-zero": ("char zero\nvars x y\nideal:\ny^2 - x^3\n", None,
                  "line 1: 'char' expects an integer, got 'zero'"),
    "char-4": ("char 4\nvars x y\nideal:\ny^2 - x^3\n", None,
               "characteristic must be 0 or a prime"),
    "no-vars": ("char 0\nideal:\ny^2 - x^3\n", None,
                "missing 'vars <names>' line"),
    "duplicate-vars": ("char 0\nvars x x\nideal:\nx^2 - x^3\n", None,
                       "duplicate variable names"),
    "no-ideal": ("char 0\nvars x y\n", None,
                 "missing 'ideal:' section with generators"),
    "th-variable": ("char 3\next th^2 + 1\nvars th y\nideal:\ny^2 - th^3\n",
                    None, "variable name 'th' is reserved by the ext line"),
    "ext-unparsable": ("char 3\next th^2 +\nvars x y\nideal:\ny^2 - x^3\n",
                       None, "line 2: bad extension polynomial: "
                             "unexpected end of input"),
    "ext-zero": ("char 3\next 0\nvars x y\nideal:\ny^2 - x^3\n", None,
                 "line 2: extension polynomial is zero"),
    "ext-linear": ("char 3\next th + 1\nvars x y\nideal:\ny^2 - x^3\n", None,
                   "line 2: extension degree must be at least two"),
    "ext-not-monic": ("char 3\next 2*th^2 + 1\nvars x y\nideal:\ny^2 - x^3\n",
                      None, "line 2: extension polynomial must be monic"),
    "ext-reducible": ("char 3\next th^2 - 1\nvars x y\nideal:\ny^2 - x^3\n",
                      None, "line 2: defining polynomial is reducible"),
    "zero-generators": ("char 0\nvars x y\nideal:\nx - x\n0\n", None,
                        "the ideal has no nonzero generator"),
    "char-x": ("char x\nvars x y\nideal:\ny^2 - x^3\n", None,
               "line 1: 'char' expects an integer, got 'x'"),
    "char-negative": ("char -3\nvars x y\nideal:\ny^2 - x^3\n", None,
                      "characteristic must be 0 or a prime"),
    "vars-bad-name": ("char 0\nvars x 2y\nideal:\nx^2 - x^3\n", None,
                      "line 2: bad variable name '2y'"),
    "vars-non-ascii": ("char 0\nvars \u00e9 y\nideal:\ny^2 - y^3\n", None,
                       "line 2: bad variable name '\u00e9'"),
    "vars-empty": ("char 0\nvars\nideal:\ny^2 - x^3\n", None,
                   "missing 'vars <names>' line"),
    "ext-degree-one": ("char 3\next th\nvars x y\nideal:\ny^2 - x^3\n", None,
                       "line 2: extension degree must be at least two"),
    "ext-foreign-variable": ("char 3\next th^2 + y\nvars x y\nideal:\n"
                             "y^2 - x^3\n", None, "line 2: bad extension "
                             "polynomial: unknown variable 'y'"),
    "ext-reducible-over-F5": ("char 5\next th^2 + 1\nvars x y\nideal:\n"
                              "y^2 - x^3\n", None,
                              "line 2: defining polynomial is reducible"),
    "weights-not-integers": (CUSP, "1,x", "weights must be integers: '1,x'"),
    "weights-not-positive": (CUSP, "0,1", "weights must be positive"),
}


@pytest.mark.parametrize("case", UNTRUSTED_INPUT_REFUSALS)
def test_a_malformed_ideal_file_or_weight_vector_exits_two(
        tmp_path, capsys, case):
    text, weights, message = UNTRUSTED_INPUT_REFUSALS[case]
    argv = ["decide"] if weights is None else ["tropism", "--weights", weights]
    code, out, err = run(capsys, *argv, write(tmp_path, text))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["decide", "semigroup"])
@pytest.mark.parametrize("text", ["x - 1", "1 + x"])
def test_a_curve_off_the_origin_exits_two(tmp_path, capsys, command, text):
    path = write(tmp_path, f"char 0\nvars x y\nideal:\n{text}\n")
    assert run(capsys, command, path) == (
        2, "", "error: the curve does not pass through the origin\n")


@pytest.mark.parametrize("text", ["(y^2 - x^3)^2 - x^8",
                                  "(y^2 - x^5)^2 - x^12"])
def test_a_square_over_f2_exits_two_at_once(tmp_path, capsys, text):
    path = write(tmp_path, f"char 2\nvars x y\nideal:\n{text}\n")
    start = time.monotonic()
    code, out, err = run(capsys, "decide", path)
    assert time.monotonic() - start < 1.0
    assert (code, out) == (2, "")
    assert "is a p-th power, p = 2 the characteristic" in err


def test_wrong_dimension_exits_two(tmp_path, capsys):
    path = write(tmp_path, "char 0\nvars x y\nideal:\nx\ny\n")
    code, _, err = run(capsys, "decide", path)
    assert code == 2
    assert "dimension" in err


# -------------------------------------------------------------- semigroup

def test_semigroup_of_the_cusp(tmp_path, capsys):
    code, out, _ = run(capsys, "semigroup", write(tmp_path, CUSP))
    assert code == 0
    assert "weights: 2 3" in out
    assert "generators: 2 3" in out
    assert "conductor: 2" in out


def test_semigroup_after_one_adjunction(tmp_path, capsys):
    code, out, _ = run(capsys, "semigroup", write(tmp_path, ONE_STEP))
    assert code == 0
    assert "weights: 4 6 13" in out
    assert "conductor: 16" in out


def test_semigroup_of_a_reducible_curve_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, "semigroup", write(tmp_path, DOUBLE_BRANCH))
    assert code == 2
    assert "false" in err


# ------------------------------------------------------------ int/initial

def test_intersection_number_of_a_monomial(tmp_path, capsys):
    path = write(tmp_path, QUARTIC)
    code, out, _ = run(capsys, "int", path, "--poly", "x*y^2")
    assert code == 0
    assert out.strip() == "10"


def test_intersection_number_of_a_member_is_infinite(tmp_path, capsys):
    path = write(tmp_path, CUSP)
    code, out, _ = run(capsys, "int", path, "--poly", "x^3 - y^2")
    assert code == 0
    assert out.strip() == "infinite"


def test_int_with_an_unknown_variable_exits_two(tmp_path, capsys):
    path = write(tmp_path, CUSP)
    code, _, err = run(capsys, "int", path, "--poly", "w^2")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("poly, plain, value", [
    ("y^2 - th*x^3", "x^4", "8"),               # one class modulo the ideal
    ("y^2 - th^2*x^3", "y^2 - 3*x^3", "6"),     # one polynomial: th^2 = 3
])
def test_int_reads_th_as_the_generator_of_the_files_extension(
        tmp_path, capsys, poly, plain, value):
    path = write(tmp_path, EXT_CUSP)
    code, out, _ = run(capsys, "int", path, "--poly", poly)
    assert code == 0
    assert out == run(capsys, "int", path, "--poly", plain)[1] == value + "\n"


@pytest.mark.parametrize("text, line", [
    (EXT_CUSP, "ring: char 5, ext th^2 + 2, vars x y"),
    (CUSP, "ring: char 0, vars x y"),
], ids=["extension", "base"])
@pytest.mark.parametrize("command", ["decide", "semigroup"])
def test_the_ring_line_names_the_field_as_the_header_does(
        tmp_path, capsys, command, text, line):
    code, out, _ = run(capsys, command, write(tmp_path, text))
    assert code == 0
    assert line in out.splitlines()


def test_initial_ideal_of_the_char_two_tower(tmp_path, capsys):
    path = write(tmp_path, CHAR2_TOWER)
    code, out, _ = run(capsys, "initial", path, "--weights", "4,6,15")
    assert code == 0
    ctx = parse_ideal_text(CHAR2_TOWER).ctx
    got = [parse_poly(line, ctx) for line in out.splitlines() if line]
    expected = [parse_poly("x^3 + y^2", ctx), parse_poly("y^5 + z^2", ctx)]
    for f in expected:
        assert ideal_membership(f, got)
    for g in got:
        assert ideal_membership(g, expected)


def test_initial_rejects_a_short_weight_vector(tmp_path, capsys):
    path = write(tmp_path, CHAR2_TOWER)
    code, _, err = run(capsys, "initial", path, "--weights", "4,6")
    assert code == 2
    assert "expected 3 weights" in err


# ---------------------------------------------------------------- tropism

def test_tropism_false_with_monomial_witness(tmp_path, capsys):
    path = write(tmp_path, MINORS)
    code, out, _ = run(capsys, "tropism", path, "--weights", "5,6,7")
    assert code == 0
    assert "tropism: false" in out
    assert "witness: x*y^2" in out


def test_tropism_true_on_the_char_two_tower(tmp_path, capsys):
    path = write(tmp_path, CHAR2_TOWER)
    code, out, _ = run(capsys, "tropism", path, "--weights", "4,6,15")
    assert code == 0
    assert "tropism: true" in out


def test_tropism_on_a_surface_exits_two(tmp_path, capsys):
    path = write(tmp_path, "char 0\nvars x y z\nideal:\ny^2 - x^3\n")
    code, out, err = run(capsys, "tropism", path, "--weights", "2 3 1")
    assert code == 2
    assert "tropism" not in out
    assert "not one-dimensional" in err and "(2, 3, 1)" in err


def test_imprimitive_weights_are_never_a_tropism(tmp_path, capsys):
    path = write(tmp_path, CUSP)
    code, out, _ = run(capsys, "tropism", path, "--weights", "4,6")
    assert code == 0
    assert "tropism: false" in out
    assert "factor 2" in out


@pytest.mark.parametrize("char", ["0", "101"])
def test_a_witness_that_only_the_monomial_search_finds(
        tmp_path, capsys, monkeypatch, char):
    """The initial ideal at (1, 1, 1) is the ideal itself, two lines in
    coordinate planes.  It holds y*z = y*(z + y - x) - (y^2 - x*y), yet no
    generator and no element of its reduced InvLex basis is a monomial,
    so only the last tier of ``_monomial_witness`` finds one, from the
    sliced test; ``contains_monomial`` never runs."""
    calls = []
    monkeypatch.setattr(groebner, "contains_monomial", calls.append)
    path = write(tmp_path, f"char {char}\nvars x y z\nideal:\n"
                           "z + y - x\ny^2 - x*y\n")
    code, out, _ = run(capsys, "tropism", path, "--weights", "1,1,1")
    assert (code, out) == (0, "tropism: false\nwitness: y*z\n")
    assert calls == []


# ----------------------------------------------------------------- verify

def test_emitted_report_verifies(tmp_path, capsys):
    _, doc = report_for(tmp_path, DOUBLE_BRANCH)
    out_path = tmp_path / "report.json"
    out_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 0
    assert "certificate: ok (two_tropisms)" in out


def test_round_trip_rebuilds_an_equal_certificate(tmp_path):
    _, doc = report_for(tmp_path, CHAR2_PLANE)
    cert = certificate_from_json(doc)
    assert cert.kind == "prime_tropism"
    assert cert.data == (4, 6, 15)
    ok, reason = verify_certificate(cert)
    assert ok, reason


def test_extension_field_report_round_trips(tmp_path, capsys):
    text = "char 5\next th^2 + 3\nvars x y\nideal:\ny^2 - th*x^3\n"
    code, doc = report_for(tmp_path, text)
    assert code == 0
    assert doc["certificate"]["ring"]["ext"] is not None
    out_path = tmp_path / "report.json"
    out_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 0
    assert "ok" in out


def test_extensions_of_a_large_prime_field(tmp_path, capsys):
    def decide(ext):
        text = (f"char 1000003\next {ext}\nvars x y\nideal:\n"
                "(y^2 - th*x^3)^2 - x^7\n")
        return run(capsys, "decide", write(tmp_path, text))

    # 1000003 = 3 mod 8, so 2 is not a square and th^2 - 2 is irreducible
    code, out, _ = decide("th^2 - 2")
    assert code == 1 and "verdict: reducible" in out
    # 1000003 = 1 mod 3, so -3 is a square and th^2 + 3 splits
    code, _, err = decide("th^2 + 3")
    assert code == 2
    assert "line 2: defining polynomial is reducible" in err


def test_scaled_ray_fails_verification(tmp_path, capsys):
    _, doc = report_for(tmp_path, DOUBLE_BRANCH)
    doc["certificate"]["data"][0] = [
        2 * e for e in doc["certificate"]["data"][0]]
    out_path = tmp_path / "tampered.json"
    out_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 1
    assert "not primitive" in out


def test_dropped_transcript_entry_fails_verification(tmp_path, capsys):
    _, doc = report_for(tmp_path, CHAR2_PLANE)
    assert doc["certificate"]["transcript"]
    doc["certificate"]["transcript"] = []
    out_path = tmp_path / "tampered.json"
    out_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 1
    assert "transcript" in out


def test_flipped_verdict_fails_verification(tmp_path, capsys):
    _, doc = report_for(tmp_path, CHAR2_PLANE)
    doc["verdict"] = "reducible"
    out_path = tmp_path / "tampered.json"
    out_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 1
    assert "verdict" in out


def _reshaped(gens, how):
    """The generator list of a one-adjunction certificate rewritten into
    another generating set of the same ideal."""
    g, rel, x = gens[0], gens[-1], gens[0].ctx.var(0)
    if how == "extra":
        return gens + [g]
    if how == "reordered":
        return [rel] + gens[:-1]
    if how == "equivalent":
        return gens[:-1] + [rel + x * g]
    return [g + x * rel] + gens[1:]


@pytest.mark.parametrize(
    "how", ["extra", "reordered", "equivalent", "adjoined_in_base"])
def test_a_certificate_off_the_graph_shape_fails_verification(
        tmp_path, capsys, how):
    _, doc = report_for(tmp_path, ONE_STEP)
    cert = certificate_from_json(doc)
    assert len(cert.transcript) == 1
    gens = _reshaped(list(cert.ideal.generators), how)
    doc["certificate"]["generators"] = [_poly_json(g) for g in gens]
    out_path = tmp_path / "reshaped.json"
    out_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 1
    assert "generator" in out


def test_a_surface_certificate_fails_verification(tmp_path, capsys):
    _, doc = report_for(tmp_path, DOUBLE_BRANCH)
    cert = doc["certificate"]
    cert["ring"]["vars"] = ["x", "y", "z"]
    cert["base_vars"] = ["x", "y", "z"]
    cert["transcript"] = []
    cert["generators"] = [{"text": "y^2 - x^3",
                           "terms": [[[0, 2, 0], "1"], [[3, 0, 0], "-1"]]}]
    cert["data"] = [[2, 3, 1], [2, 3, 5]]
    out_path = tmp_path / "surface.json"
    out_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 1
    assert "not one-dimensional" in out


def _crafted_doc(verdict, variables, gens, kind, data, transcript=(),
                 base_vars=None):
    """A report document holding a hand-made certificate over Q."""
    ctx = RingCtx(QQ, tuple(variables.split()))
    if kind == "monomial_witness":
        data = ctx.poly(data)
    cert = Certificate(kind, IdealHandle([ctx.poly(g) for g in gens], ctx),
                       data, tuple((base_vars or variables).split()),
                       tuple((n, ctx.poly(t)) for n, t in transcript))
    return {"verdict": verdict, "certificate": certificate_json(cert)}


def _crafted_report(tmp_path, *args, **kwargs):
    """A report file holding ``_crafted_doc(*args, **kwargs)``."""
    path = tmp_path / "crafted.json"
    path.write_text(json.dumps(_crafted_doc(*args, **kwargs)))
    return str(path)


def test_a_witness_for_the_unit_ideal_is_refused_without_a_traceback(
        tmp_path):
    path = _crafted_report(tmp_path, "reducible", "x y", ["1 + x"],
                           "monomial_witness", "x")
    proc = subprocess.run([sys.executable, "-m", "algebroid", "verify", path],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "base weights are not all positive" in proc.stdout
    assert "Traceback" not in proc.stdout + proc.stderr


def test_a_definition_off_the_origin_is_refused(tmp_path, capsys):
    path = _crafted_report(tmp_path, "irreducible", "x y z",
                           ["y^2 - x^3", "z - 1 - x"], "prime_tropism",
                           (2, 3, 0), [("z", "1 + x")], "x y")
    code, out, _ = run(capsys, "verify", path)
    assert code == 1
    assert "adjoined definition of z does not vanish at the origin" in out


def _single_field_mutants(doc):
    """(label, document) for each one-field change of a decided report's
    certificate: a weight or ray entry set to 0, negated or bumped by 1, a
    constant added to a base generator or a transcript definition, a
    generator dropped, or the last base variable dropped."""
    cert = certificate_from_json(doc)
    gens = cert.ideal.generators

    def variant():
        m = copy.deepcopy(doc)
        return m, m["certificate"]

    if cert.kind != "monomial_witness":
        prime = cert.kind == "prime_tropism"
        for r, ray in enumerate([cert.data] if prime else cert.data):
            for i, e in enumerate(ray):
                for new in (0, -e, e + 1):
                    m, c = variant()
                    (c["data"] if prime else c["data"][r])[i] = new
                    yield f"data[{r}][{i}] = {new}", m
    for i, g in enumerate(gens[:len(gens) - len(cert.transcript)]):
        m, c = variant()
        c["generators"][i] = _poly_json(g + g.ctx.one())
        yield f"constant added to generator {i}", m
    for j, (name, fdef) in enumerate(cert.transcript):
        m, c = variant()
        c["transcript"][j]["poly"] = _poly_json(fdef + fdef.ctx.one())
        yield f"constant added to {name}", m
    for i in range(len(gens)):
        m, c = variant()
        del c["generators"][i]
        yield f"generator {i} dropped", m
    m, c = variant()
    c["base_vars"].pop()
    yield "base_vars shortened", m


@pytest.mark.parametrize("text, kind", [
    (ONE_STEP, "prime_tropism"), (DOUBLE_BRANCH, "two_tropisms"),
    (MINORS, "monomial_witness")], ids=["prime", "two_tropisms", "witness"])
def test_every_single_field_mutant_is_refused(tmp_path, capsys, text, kind):
    """``main`` turns library errors into exit 2; anything else would
    escape it as a traceback."""
    _, doc = report_for(tmp_path, text)
    assert doc["certificate"]["kind"] == kind
    accepted = []
    for label, mutant in _single_field_mutants(doc):
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps(mutant))
        code, out, err = run(capsys, "verify", str(path))
        assert "Traceback" not in out + err
        if code not in (1, 2):
            accepted.append(label)
    assert not accepted


@pytest.mark.parametrize("bad", ["1/0", "abc", 0.5])
def test_malformed_coefficient_exits_two(tmp_path, capsys, bad):
    _, doc = report_for(tmp_path, CUSP)
    doc["certificate"]["generators"][0]["terms"][0][1] = bad
    out_path = tmp_path / "tampered.json"
    out_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(out_path))
    assert code == 2
    assert "bad coefficient" in err


COEFFICIENT_STRINGS = ["7", "-12", "-0", "007", "٣", "1_0", " 7", "7 ", "+5",
                       "3/4", "-6/3", "1e3", "", "-", "²", "1" * 5000]


@pytest.mark.parametrize("text", COEFFICIENT_STRINGS)
@pytest.mark.parametrize("field", (QQ, GF(101)), ids=str)
def test_coefficient_strings_are_read_as_fraction_reads_them(field, text):
    """``_coeff_parse``, the reference that the per-document decoder
    follows, accepts or refuses every string, and reads it to the same
    value, exactly as Fraction does."""
    try:
        want = field.coerce(Fraction(text))
    except ValueError:
        with pytest.raises(ParseError, match="bad coefficient"):
            _coeff_parse(field, text)
    else:
        assert _coeff_parse(field, text) == want


def _typed(c):
    """A payload with the type of each of its coordinates."""
    if isinstance(c, tuple):
        return tuple(map(_typed, c))
    return type(c), c


def _read(read, obj):
    """What ``read`` makes of obj: its typed value or its ParseError."""
    try:
        return _typed(read(obj))
    except ParseError as exc:
        return "ParseError", str(exc)


# More coefficients than strings: ratios whose denominator vanishes or
# cancels, and JSON values that are not strings.
COEFFICIENT_OBJECTS = [*COEFFICIENT_STRINGS, "1/0", "-0/5", "4/2", "-7/10",
                       "5/101", "202/101", "2/4", "3/2/1", "1" * 5000 + "/3",
                       12, -5, 0, 10 ** 30, True, False, 0.5, None, ["1"]]


@pytest.mark.parametrize("field", (QQ, GF(101), GF(2), GF(5, (2, 0))),
                         ids=str)
def test_the_coefficient_decoder_agrees_with_the_reference(field):
    """Each coefficient is read by the per-document decoder to the value
    and payload type ``_coeff_parse`` reads, or refused with its
    ParseError; over F_5(th) as coordinate vectors, of the right length
    or not."""
    decode = _coeff_decoder(field)
    objs = COEFFICIENT_OBJECTS
    if field.extension is not None:
        objs = [v for c in objs if c != ["1"]
                for v in ([c, c], [c, "1"], ["-1", c], [c], [c, c, c])]
    for obj in objs:
        assert _read(decode, obj) == _read(
            lambda o: _coeff_parse(field, o), obj), obj


def test_decoded_certificates_keep_their_terms_and_payload_types():
    """The certificate of each benchmark curve, written and read back,
    has the polynomials it had, term by term, and each coefficient is the
    payload ``_coeff_parse`` reads, type included."""
    for cid, cert in benchmark_certificates():
        doc = certificate_json(cert)
        back = certificate_from_json(json.loads(json.dumps(doc)))
        field = cert.ideal.ctx.field
        pairs = [*zip(back.ideal.generators, doc["generators"]),
                 *((f, t["poly"]) for (_, f), t in zip(back.transcript,
                                                       doc["transcript"]))]
        for poly, obj in pairs:
            want = {tuple(m): _typed(_coeff_parse(field, c))
                    for m, c in obj["terms"]}
            assert {m: _typed(c) for m, c in poly.terms.items()} == want, cid
        assert back.ideal.generators == cert.ideal.generators, cid
        assert back.transcript == cert.transcript, cid


def test_unreadable_json_exits_two(tmp_path, capsys):
    out_path = tmp_path / "broken.json"
    out_path.write_text("{not json")
    code, _, err = run(capsys, "verify", str(out_path))
    assert code == 2
    assert "error:" in err


def _halves_added(doc):
    """Half a unit added to every weight and exponent: ``int()`` would
    truncate them back to the report's own."""
    cert = doc["certificate"]
    cert["data"] = [e + 0.5 for e in cert["data"]]
    for p in cert["generators"] + [t["poly"] for t in cert["transcript"]]:
        p["terms"] = [[[e + 0.5 for e in m], c] for m, c in p["terms"]]


def _set(path, value):
    """A mutation setting the entry at ``path`` of the certificate."""
    def mutate(doc):
        obj = doc["certificate"]
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return mutate


@pytest.mark.parametrize("text, mutate", [
    (None, "[1, 2]"),
    (None, '"a report"'),
    (None, "[" + "7" * 5000 + "]"),
    (PRIME_4_6_13, "1e400"),
    (PRIME_4_6_13, _halves_added),
    (PRIME_4_6_13, _set(("data", 0), True)),
    (PRIME_4_6_13, _set(("data", 0), "4")),
    (PRIME_4_6_13, _set(("generators", 0, "terms", 0, 0, 1), "4")),
    (PRIME_4_6_13, _set(("generators", 0, "terms", 0, 1), True)),
    (PRIME_4_6_13, _set(("ring", "vars"), "xyz")),
    (PRIME_4_6_13, _set(("base_vars",), "xy")),
    (DOUBLE_BRANCH, _set(("data", 0, 0), 2.0)),
    (DOUBLE_BRANCH, _set(("kind",), ["two_tropisms"])),
    (PRIME_4_6_13, _set(("transcript", 0, "name"), 7)),
    (PRIME_4_6_13, _set(("ring",), [0, ["x", "y", "z"]])),
    (PRIME_4_6_13, _set(("ring", "char"), 4)),
    (PRIME_4_6_13, _set(("generators", 0, "terms", 0, 0), [1, 0])),
    (PRIME_4_6_13, _set(("ring", "ext"), [1])),
    (PRIME_4_6_13, _set(("generators",), {"terms": []})),
    (PRIME_4_6_13, _set(("generators", 0, "terms"), None)),
], ids=["list", "string", "long-integer", "char-1e400", "fractional",
        "bool-weight", "string-weight", "string-exponent", "bool-coefficient",
        "vars-string", "base-vars-string", "float-ray", "list-kind",
        "number-name", "ring-list", "char-4", "short-exponent", "ext-one",
        "generators-object", "null-terms"])
def test_a_malformed_document_exits_two_without_a_traceback(
        tmp_path, text, mutate):
    """Each document is refused as unreadable (exit 2), not judged an
    invalid certificate (exit 1) or a valid one."""
    if text is None:
        body = mutate
    else:
        _, doc = report_for(tmp_path, text)
        if mutate == "1e400":
            body = json.dumps(doc).replace('"char": 0', '"char": 1e400')
        else:
            mutate(doc)
            body = json.dumps(doc)
    path = tmp_path / "malformed.json"
    path.write_text(body)
    proc = subprocess.run([sys.executable, "-m", "algebroid", "verify",
                           str(path)], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stdout + proc.stderr


# ------------------------------------------------------ verifier refusals

def _definition(variables, text):
    """The JSON of ``text`` in the ring over Q with these variables."""
    return _poly_json(RingCtx(QQ, tuple(variables.split())).poly(text))


# refusal -> (decided ideal file or ``_crafted_doc`` arguments, one-field
# mutation or None, reason)
VERIFIER_REFUSALS = {
    "short-generators": (
        ONE_STEP, _set(("generators",), []),
        "the certified ideal has fewer generators than the transcript"),
    "later-variable": (
        STRETCH, _set(("transcript", 0, "poly"),
                      _definition("x y z u", "x^3 - y^2 + u")),
        "adjoined definition uses later variables"),
    "dropped-weight": (
        ONE_STEP, lambda doc: doc["certificate"]["data"].pop(),
        "weight data does not match the ring variables"),
    "imprimitive-tropism": (
        ("irreducible", "x y", ["(y^2 - x^3)^2 - x^7"], "prime_tropism",
         (4, 6)), None,
        "certified tropism is not primitive"),
    "tropism-with-monomial": (
        ("irreducible", "x y", ["(y^2 - x^3)*(y - x^2)"], "prime_tropism",
         (3, 5)), None,
        "initial ideal at the certified tropism contains a monomial"),
    "zero-witness": (
        MINORS, _set(("data",), {"text": "0", "terms": []}),
        "witness is not a nonzero polynomial"),
    "binomial-witness": (
        MINORS, _set(("data",), _definition("x y z", "x*y^2 + x^2*z")),
        "witness initial form is not a single monomial"),
    "three-rays": (
        DOUBLE_BRANCH, lambda doc: doc["certificate"]["data"].append([2, 3, 9]),
        "certificate does not carry exactly two rays"),
    "renamed-transcript": (
        ONE_STEP, _set(("transcript", 0, "name"), "w"),
        "transcript does not span the certificate ring"),
    "adjoined-in-base": (
        ONE_STEP, _set(("generators", 0),
                       _definition("x y z", "(y^2 - x^3)^2 - x^2*y^3 + z")),
        "a base generator of the certified ideal uses an adjoined variable"),
    "other-relation": (
        ONE_STEP, _set(("transcript", 0, "poly"), _definition("x y z", "y^2")),
        "generator 2 of the certified ideal is not the transcript relation "
        "of z"),
    "infinite-weight": (
        ("reducible", "x y", ["x*y"], "monomial_witness", "x"), None,
        "base weights are not all finite"),
    "witness-outside": (
        ("reducible", "x y", ["y^2 - x^3"], "monomial_witness", "x"), None,
        "witness initial form does not lie in the initial ideal"),
    "zero-ray-entry": (
        DOUBLE_BRANCH, _set(("data", 0, 0), 0),
        "ray entries must be positive integers"),
    "unknown-kind": (
        DOUBLE_BRANCH, _set(("kind",), "three_tropisms"),
        "unknown certificate kind: three_tropisms"),
}


@pytest.mark.parametrize("case", VERIFIER_REFUSALS)
def test_each_verifier_refusal_names_its_reason(tmp_path, capsys, case):
    source, mutate, reason = VERIFIER_REFUSALS[case]
    if isinstance(source, str):
        _, doc = report_for(tmp_path, source)
    else:
        doc = _crafted_doc(*source)
    if mutate is not None:
        mutate(doc)
    assert verify_certificate(certificate_from_json(doc)) == (False, reason)
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out, err) == (1, f"certificate: invalid ({reason})\n", "")


def test_the_data_is_checked_before_the_graph_shape(tmp_path, capsys):
    """A doubled ray and a renamed transcript entry: the ray, which the
    certificate's data alone refutes, is the reason given."""
    _, doc = report_for(tmp_path, STRETCH)
    cert = doc["certificate"]
    assert cert["kind"] == "two_tropisms" and cert["transcript"]
    cert["data"][0] = [2 * e for e in cert["data"][0]]
    cert["transcript"][0]["name"] = "w"
    reason = "ray 1 is not primitive"
    assert verify_certificate(certificate_from_json(doc)) == (False, reason)
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out, err) == (1, f"certificate: invalid ({reason})\n", "")


def test_a_crafted_ray_at_a_monomial_generator_form_is_refused_at_once(
        tmp_path, capsys):
    """At (1, 10, 11) the generator y^4 - x^6 has the initial form -x^6,
    so the initial ideal holds a monomial and the sliced test builds no
    basis of it; that basis alone took over a minute over Q."""
    _, doc = report_for(tmp_path, "char 0\nvars x y\nideal:\n"
                                  "(y^2 - x^3)*(y^2 + x^3)\n")
    assert doc["certificate"]["kind"] == "two_tropisms"
    doc["certificate"]["data"][0] = [1, 10, 11]
    path = tmp_path / "crafted.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (1, "certificate: invalid (initial ideal at "
                                   "ray 1 contains a monomial)\n", "")


def test_a_claimed_verdict_that_does_not_match_the_kind_is_refused(
        tmp_path, capsys):
    """The certificate itself is valid, so only ``algebroid verify``,
    which reads the report's verdict, refuses it."""
    _, doc = report_for(tmp_path, DOUBLE_BRANCH)
    assert verify_certificate(certificate_from_json(doc)) == (True, "ok")
    doc["verdict"] = "irreducible"
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out, err) == (
        1, "certificate: invalid (the claimed verdict does not match the "
        "kind)\n", "")


def test_a_definition_from_a_foreign_ring_is_refused(tmp_path):
    """JSON has one ring per certificate, so only the API can carry it."""
    _, doc = report_for(tmp_path, ONE_STEP)
    cert = certificate_from_json(doc)
    (name, fdef), = cert.transcript
    foreign = RingCtx(GF(101), fdef.ctx.variables)
    cert = replace(cert, transcript=((name, parse_poly(str(fdef), foreign)),))
    assert verify_certificate(cert) == (
        False, "adjoined definition lives in a foreign ring")


def test_an_ideal_file_above_the_exponent_cap_exits_two_at_once(
        tmp_path, capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "decide", write(tmp_path, HUGE_EXPONENT))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "line 4: an exponent exceeds _EXPONENT_CAP = 1000" in err


def test_an_ideal_file_above_the_term_cap_exits_two_at_once(
        tmp_path, capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "decide", write(tmp_path, HUGE_POWER))
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert ("line 4: a product or power could have more than "
            "_TERM_CAP = 1000 terms") in err


def test_an_overlong_integer_literal_exits_two(tmp_path, capsys):
    text = f"char 0\nvars x y\nideal:\ny^2 - {'7' * 5000}*x^3\n"
    code, _, err = run(capsys, "decide", write(tmp_path, text))
    assert code == 2
    assert "line 4: a 5000-digit literal is too long" in err


def test_a_certificate_above_the_exponent_cap_exits_two_at_once(
        tmp_path, capsys):
    _, doc = report_for(tmp_path, CUSP)
    cert = doc["certificate"]
    cert["generators"] = [{"text": "y^2 - x^3000000",
                           "terms": [[[0, 2], "1"], [[3000000, 0], "-1"]]}]
    cert["data"] = [2, 3000000]
    out_path = tmp_path / "huge.json"
    out_path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, err = run(capsys, "verify", str(out_path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "exceeds _EXPONENT_CAP = 1000" in err


# -------------------------------------------------------- certificate pins

# SHA-256 of json.dumps(certificate_json(cert), sort_keys=True) for the
# benchmark's table curves.  A change that claims bit-identical
# certificates keeps these; one that changes a certificate says why and
# re-pins it.
CERTIFICATE_PINS = {
    ("dbl-2-3-7-0", "QQ"): "df180dce68d281bcf78b67bf3aa0faa88c3047358bc44cd5846cf3459deb7d0b",
    ("dbl-2-3-7-0", "F101"): "c5bed58185f91426e661dcd5f23af3070591bde1f370170e2472ddd4178ad05c",
    ("dbl-2-3-8-0", "QQ"): "533a67f15b3f10ae84c816649c79c397593a6792c1a3538cd64011a4c0a3facf",
    ("dbl-2-3-8-0", "F101"): "2b13bedfec3b16fcd7b4093783d34a028f4bc60e6cbcfb8ff993ab6590a45d31",
    ("dbl-2-5-11-0", "QQ"): "96b303fbabc0705e61fa0ec6221a94eed3c6875dae4977822b19b6b24cac6811",
    ("dbl-2-5-11-0", "F101"): "c09005edc03999fe6021eef8489604e9a0733071c6aab78d470124e3469344e3",
    ("dbl-2-5-12-0", "QQ"): "6e1f7ce845e5d57c98a67579cddf3cf19698ed7ee7b3d15ad61c22bc6c81a53d",
    ("dbl-2-5-12-0", "F101"): "7f1a6db5030849f009f8af697ecdd827aedb7704b924704668c3e6a1d5cc694f",
    ("dbl-3-4-8-1", "QQ"): "d2797574729d42aea7c90851c81cd9b7e36e77fbfb4937c6bc0ec779445be71e",
    ("dbl-3-4-8-1", "F101"): "dcb559db92389742169df310a4da89286b35e439cccf8d38629291a6f8b06ecf",
    ("space-pair", "QQ"): "d5ba5f7d6d5b09d13bbff4912e010a16df5aa21ddeb17f3d8cd73e0a4b147aab",
    ("space-pair", "F101"): "990284505b20cb407b4389052f08808c3c8926983cd4b035543d809e898162d7",
    ("tangent-pair", "QQ"): "1a4e161cc88e809d2ab2505abb2a07715c6d920db2c636e8b5aceb448a1d948a",
    ("tangent-pair", "F101"): "61b8e4416f98f6c632ab1ef181a7cac0f7b59e9d7f817cae8ddefb045f0ed1db",
    ("tower-1", "QQ"): "9b5ea8a1311193199243cf77dc42cff8d2ace33a9231a0429e0b451277486c38",
    ("tower-1", "F101"): "4cca990b24fa46fdd4592b1fa423ec650c27663c47e30a9874a3e05d32820af7",
    ("tower-2", "QQ"): "89b40ca4944e00e662af77a145abfc61df67c672876873fbd009791f332f29ea",
    ("tower-2", "F101"): "de7f47698150d59cf8284aaa2102630c444a9d5079e4e7c9001ec3e92d786df1",
    ("tower-3", "QQ"): "64a1100b86d94f0b7c231a3eb69235ac34f5b48261890427c0b1315ea0ed932b",
    ("tower-3", "F101"): "fbb556acf605e9cad57a56787f5162aaffe754866704ed54f08d57824be4c784",
    ("space-1", "QQ"): "56f6a1f7e22583deab701214080b897cb8958284f8c7d024449df21001c4284a",
    ("space-1", "F101"): "38b0d388f352d607624a55bee8e51233ee77bc221f02e96009ff4238076d8c55",
    ("space-2", "QQ"): "0e5527b437a3e6e78bb881c75c05a0b75bb6fdafe11a5343adba87bf3209550d",
    ("space-2", "F101"): "d02ff8c43b68dba8720fe23920f029bcdb61dc4de4ff051fd33676a2f2c28e1a",
    ("implicit-6-9-10", "QQ"): "0a8aab34e834eb96a12155181b46f18f9eb0155566fc979d24b68a793e483cc4",
    ("implicit-6-9-10", "F101"): "066755bf71466ba9367b503740c4ddc884b2250e247b8d9522b0ee420f97cbb7",
    ("implicit-4-6-7-9", "QQ"): "3e89d62a15782f22f89bdba2c2abd36f167b4560544921fc9cc374b550117445",
    ("implicit-4-6-7-9", "F101"): "86aae0a597c21b199e0e7e90de74dfbd9bdd72d07de4d6741ff4a8dc2d33db55",
}


@pytest.mark.parametrize("cid, fid", CERTIFICATE_PINS)
def test_table_certificates_match_their_pins(cid, fid):
    curve = TWO_BRANCH_CURVES.get(cid) or PRIME_TOWER_CURVES[cid]
    field = {"QQ": QQ, "F101": GF(101)}[fid]
    cert = decide_irreducible(_curve(*curve, field)).certificate
    text = json.dumps(certificate_json(cert), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        CERTIFICATE_PINS[cid, fid]


# The pinned prime certificates, a branch with two adjoined coordinates
# (semigroup <8, 12, 26, 53>) and a monomial witness.
BASE_RING_CASES = {
    **{(cid, fid): PRIME_TOWER_CURVES[cid]
       for cid, fid in CERTIFICATE_PINS if cid in PRIME_TOWER_CURVES},
    **{("three-pair", fid): ("x y", (
        "((y^2 - x^3)^2 - x^5*y)^2 - x^10*(y^2 - x^3)",))
       for fid in ("QQ", "F101")},
    ("minors", "QQ"): ("x y z", tuple(MINORS.split("\n")[3:6])),
}


@pytest.mark.parametrize("cid, fid", BASE_RING_CASES)
def test_certified_weights_in_the_base_ring_match_the_certified_ring(
        cid, fid):
    """The base ring's weights are the certified ideal's, and checking a
    certificate with a transcript on a fresh handle leaves no intersection
    number in its memo: no local standard basis is taken in its ring."""
    field = {"QQ": QQ, "F101": GF(101)}[fid]
    cert = decide_irreducible(_curve(*BASE_RING_CASES[cid, fid],
                                     field)).certificate
    assert cert.kind != "two_tropisms"
    fresh = IdealHandle(cert.ideal.generators, cert.ideal.ctx)
    assert tuple(_certified_weights(cert)) == base_weights(fresh)
    cold = IdealHandle(cert.ideal.generators, cert.ideal.ctx)
    assert verify_certificate(Certificate(
        cert.kind, cold, cert.data, cert.base_vars, cert.transcript))[0]
    if cert.transcript:
        assert not [k for k in cold._memo if k[0] == "intersection"]


# ------------------------------------------------------------- packaging

def test_module_entry_point(tmp_path):
    path = write(tmp_path, CUSP)
    proc = subprocess.run([sys.executable, "-m", "algebroid",
                           "semigroup", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "conductor: 2" in proc.stdout


def test_extension_file_parses_coefficients():
    text = "char 5\next th^2 + 3\nvars x y\nideal:\ny^2 - th*x^3\n"
    handle = parse_ideal_text(text)
    field = handle.ctx.field
    assert field.characteristic == 5
    assert field.degree == 2
    g, = handle.generators
    assert g.terms[(3, 0)] == field.neg(field.generator())
