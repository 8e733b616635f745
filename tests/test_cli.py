"""End-to-end tests for the command-line interface."""

import contextlib
import io
import json
import subprocess
import sys
import time

import pytest

from algebroid.cli import (_poly_json, certificate_from_json, main,
                           parse_ideal_text)
from algebroid.decide import verify_certificate
from algebroid.groebner import ideal_membership
from algebroid.polyring import parse_poly
from algebroid.scalars import GF

DOUBLE_BRANCH = "char 0\nvars x y\nideal:\n(y^2 - x^3)^2 - x^7\n"
CHAR2_PLANE = "char 2\nvars x y\nideal:\n(y^2 + x^3)^2 + x^7\n"
CHAR2_TOWER = ("char 2\nvars x y z\nideal:\n"
              "(y^2 + x^3)^2 + x^7\nz + x^3 + x^2*y + y^2\n")
CUSP = "char 0\nvars x y\nideal:\nx^3 - y^2\n"
QUARTIC = "char 0\nvars x y\nideal:\nx^3 - y^4\n"
ONE_STEP = "char 0\nvars x y\nideal:\n(y^2 - x^3)^2 - x^2*y^3\n"
# Its base weights would enumerate a staircase of 3,000,000 monomials.
HUGE_EXPONENT = "char 0\nvars x y\nideal:\ny^2 - x^3000000\n"
MINORS = ("char 0\nvars x y z\nideal:\n"
          "(x^3 + y^2)*x - y*z^2\ny^2 - x*z\nz^3 - (x^3 + y^2)*y\n")


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


def test_char_override_flips_the_verdict(tmp_path, capsys):
    path = write(tmp_path, DOUBLE_BRANCH)
    code, out, _ = run(capsys, "decide", "--char-override", "2", path)
    assert code == 0
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


def test_decide_verify_flag_reports_to_stderr(tmp_path, capsys):
    path = write(tmp_path, CHAR2_PLANE)
    code, out, err = run(capsys, "decide", "--verify", path)
    assert code == 0
    assert "re-checked: ok" in err
    assert "re-checked" not in out


def test_an_iter_cap_of_zero_exits_two_naming_the_cap(tmp_path, capsys):
    path = write(tmp_path, ONE_STEP)
    code, out, err = run(capsys, "decide", "--iter-cap", "0", path)
    assert code == 2
    assert out == ""
    assert "exceeded 0 rounds" in err


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


@pytest.mark.parametrize("bad", ["1/0", "abc", 0.5])
def test_malformed_coefficient_exits_two(tmp_path, capsys, bad):
    _, doc = report_for(tmp_path, CUSP)
    doc["certificate"]["generators"][0]["terms"][0][1] = bad
    out_path = tmp_path / "tampered.json"
    out_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(out_path))
    assert code == 2
    assert "bad coefficient" in err


def test_unreadable_json_exits_two(tmp_path, capsys):
    out_path = tmp_path / "broken.json"
    out_path.write_text("{not json")
    code, _, err = run(capsys, "verify", str(out_path))
    assert code == 2
    assert "error:" in err


def test_an_ideal_file_above_the_exponent_cap_exits_two_at_once(
        tmp_path, capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "decide", write(tmp_path, HUGE_EXPONENT))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "line 4: an exponent exceeds _EXPONENT_CAP = 1000" in err


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
