"""Tests for the irreducibility decision and its certificates."""

import functools
import hashlib
import itertools
import json
import random
import re
import time
from dataclasses import replace
from fractions import Fraction
from math import gcd, prod

import pytest

from algebroid import decide, groebner, parametric
from algebroid.cli import certificate_from_json, certificate_json
from algebroid.decide import (
    Certificate,
    _certified_weights,
    _graph_shape_error,
    _initial_handle,
    _monomial_witness,
    assert_preconditions,
    decide_irreducible,
    value_semigroup,
    verify_certificate,
)
from algebroid.errors import (
    AlgebroidError,
    CertificateSearchFailed,
    InfiniteWeight,
    NonRadicalSuspected,
    NotPrime,
    TruncationExhausted,
    UnitIdeal,
    WrongDimension,
)
from algebroid.groebner import (
    IdealHandle,
    buchberger,
    contains_monomial,
    ideal_membership,
)
from algebroid.localalg import (base_weights, initial_ideal,
                                intersection_number)
from algebroid.parametric import choose_pivot, parametric_intersection
from algebroid.polyring import Poly, RingCtx, embed, in_w, parse_poly
from algebroid.scalars import GF, QQ, FieldSpec
from algebroid.semigroups import membership
from pencil_attachments import two_attachment_ideal


def plane_ideal(text, field=QQ):
    ctx = RingCtx(field, ("x", "y"))
    return IdealHandle((parse_poly(text, ctx),), ctx), ctx


def space_ideal(*texts, field=QQ):
    ctx = RingCtx(field, ("x", "y", "z"))
    return IdealHandle(tuple(parse_poly(t, ctx) for t in texts), ctx), ctx


def same_ideal(gens_a, gens_b, ctx):
    A = IdealHandle(tuple(gens_a), ctx)
    B = IdealHandle(tuple(gens_b), ctx)
    return (all(ideal_membership(g, A) for g in B.generators)
            and all(ideal_membership(g, B) for g in A.generators))


# ------------------------------------------------------------ prime inputs

def test_cusp_is_immediately_prime():
    I, _ = plane_ideal("y^2 - x^3")
    rep = decide_irreducible(I)
    assert rep.verdict == "irreducible"
    assert rep.certificate.kind == "prime_tropism"
    assert rep.certificate.data == (2, 3)
    assert rep.certificate.transcript == ()
    assert rep.stats["outer_iterations"] == 0
    assert verify_certificate(rep.certificate) == (True, "ok")


def test_one_adjunction_value_semigroup():
    I, _ = plane_ideal("(y^2 - x^3)^2 - x^2*y^3")
    p, w = value_semigroup(I)
    assert w == (4, 6, 13)
    assert p.ctx.variables == ("x", "y", "z")
    rel = parse_poly("z - x^3 + y^2", p.ctx)
    assert ideal_membership(rel, p)


def test_one_adjunction_decide_matches():
    I, _ = plane_ideal("(y^2 - x^3)^2 - x^2*y^3")
    rep = decide_irreducible(I)
    assert rep.verdict == "irreducible"
    assert rep.certificate.data == (4, 6, 13)
    assert rep.stats["weight_history"] == [(4, 6), (4, 6, 13)]
    assert [n for n, _ in rep.certificate.transcript] == ["z"]


def test_odd_tail_family_is_prime():
    I, _ = space_ideal("x^3 - y^2", "(z^2 - x*y)^2 - x*y*z^3")
    p, w = value_semigroup(I)
    assert w == (8, 12, 10, 25)
    assert p.ctx.variables == ("x", "y", "z", "u")
    rep = decide_irreducible(I)
    assert rep.verdict == "irreducible"
    assert rep.certificate.data == (8, 12, 10, 25)


def test_four_variable_tower():
    I, _ = space_ideal("x^3 - y^2", "(z^2 - x^2*y)^2 - x^3*y^2*z")
    p, w = value_semigroup(I)
    assert w == (8, 12, 14, 31)


def test_char_two_tower_and_initial_ideal():
    I, ctx = plane_ideal("(y^2 + x^3)^2 + x^7", field=GF(2))
    rep = decide_irreducible(I)
    assert rep.verdict == "irreducible"
    assert rep.certificate.kind == "prime_tropism"
    assert rep.certificate.data == (4, 6, 15)
    (name, fdef), = rep.certificate.transcript
    assert name == "z"
    big = rep.certificate.ideal.ctx
    assert fdef == parse_poly("x^3 + x^2*y + y^2", big)
    expected = (parse_poly("x^3 + y^2", big), parse_poly("y^5 + z^2", big))
    assert same_ideal(initial_ideal(rep.certificate.ideal, (4, 6, 15)),
                      expected, big)


def test_weight_history_strictly_ascends():
    I, _ = plane_ideal("(y^2 + x^3)^2 + x^7", field=GF(2))
    rep = decide_irreducible(I)
    hist = rep.stats["weight_history"]
    assert hist == [(4, 6), (4, 6, 15)]
    for prev, cur in zip(hist, hist[1:]):
        assert cur[:-1] == prev
        assert membership(cur[-1], prev) is None


# --------------------------------------------------------- reducible inputs

def test_double_branch_plane_curve_rays():
    I, _ = plane_ideal("(y^2 - x^3)^2 - x^7")
    rep = decide_irreducible(I)
    assert rep.verdict == "reducible"
    assert rep.certificate.kind == "two_tropisms"
    assert set(rep.certificate.data) == {(2, 3, 7), (2, 3, 8)}
    assert rep.certificate.ideal.ctx.nvars == 3
    assert verify_certificate(rep.certificate) == (True, "ok")
    assert rep.stats["parametric_calls"] >= 2


def test_double_branch_pencil_determinant():
    I, ctx = plane_ideal("(y^2 - x^3)^2 - x^7")
    po = parametric_intersection(parse_poly("x^3 - y^2", ctx),
                                 parse_poly("x^2*y", ctx), I)
    assert po.generic_value == 14
    got = {(ev.beta, ev.value) for ev in po.exceptional}
    assert got == {(1, 15), (-1, 15)}
    assert {k for _, k in po.determinant} == {14, 15}
    assert po.coefficient(14) == [1, 0, -2, 0, 1]
    assert po.coefficient(15) == [0, 0, 0, 0, -1]


def test_minor_relations_monomial_witness():
    I, ctx = space_ideal("(x^3 + y^2)*x - y*z^2", "y^2 - x*z",
                         "z^3 - (x^3 + y^2)*y")
    assert base_weights(I) == (5, 6, 7)
    rep = decide_irreducible(I)
    assert rep.verdict == "reducible"
    assert rep.certificate.kind == "monomial_witness"
    assert rep.certificate.data == parse_poly("x*y^2", ctx)
    assert rep.stats["parametric_calls"] == 0
    assert verify_certificate(rep.certificate) == (True, "ok")


# A curve whose monomial witness comes from the initial ideal's reduced
# basis, not from a generator's initial form: the bend of its attachment
# leaves no generator monomial at w = (6, 9, 22).  K's reduced basis holds
# the one monomial x^7*z.
BASIS_WITNESS_PINS = {
    "Q": "a330007e112231030cb73c2988889d3e6ffe3256b94e5806ca9478dcbb7ae766",
    "F101": "ed7196037a68947045790c85688e0882499ef1764f59b29efb0ef6dbd609e50d",
}


@pytest.mark.parametrize("fid", BASIS_WITNESS_PINS)
def test_a_monomial_witness_from_the_initial_ideal_basis(fid, monkeypatch):
    calls = []
    inner = decide._monomial_witness

    def record(handle, w):
        wit = inner(handle, w)
        calls.append((handle, w, wit))
        return wit

    def refuse(ideal):
        raise AssertionError("the last-resort monomial search ran")

    monkeypatch.setattr(decide, "_monomial_witness", record)
    monkeypatch.setattr(groebner, "contains_monomial", refuse)
    I, _ = plane_ideal("((y^2 - x^3)^2 - x^7)*(y^2 - x^3 - x^4)",
                       PIN_FIELDS[fid])
    rep = decide_irreducible(I)
    assert rep.verdict == "reducible"
    assert rep.certificate.kind == "monomial_witness"
    (handle, w, wit), = [c for c in calls if c[2] is not None]
    assert w == (6, 9, 22)
    assert all(len(in_w(g, w).terms) > 1 for g in handle.generators)
    assert wit == parse_poly("x^7*z", handle.ctx)
    assert wit in _initial_handle(handle, w).groebner()
    assert verify_certificate(rep.certificate) == (True, "ok")
    text = json.dumps(certificate_json(rep.certificate), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BASIS_WITNESS_PINS[fid]


@pytest.mark.parametrize("fid", BASIS_WITNESS_PINS)
def test_a_basis_witness_is_read_before_the_slice(fid, monkeypatch):
    """The witness in K's reduced basis is returned without slicing K: no
    staircase of the slice is counted."""
    I, _ = plane_ideal("((y^2 - x^3)^2 - x^7)*(y^2 - x^3 - x^4)",
                       PIN_FIELDS[fid])
    J = decide_irreducible(I).certificate.ideal
    fresh = IdealHandle(J.generators, J.ctx)

    def refuse(leads, nvars):
        raise AssertionError("the slice was counted")

    monkeypatch.setattr(decide, "staircase_size", refuse)
    assert _monomial_witness(fresh, (6, 9, 22)) == parse_poly("x^7*z", J.ctx)


@pytest.mark.parametrize("field", (QQ, GF(101)), ids=str)
def test_the_monomial_search_is_the_witness_of_last_resort(field,
                                                           monkeypatch):
    """(z + y - x, y^2 - x*y) is its own initial ideal K at (1, 1, 1).  K
    holds y*z, but neither the generators nor K's reduced InvLex basis
    holds a monomial, so the witness is read from the sliced test: y*z
    vanishes on the slice x = 1, and lies in K itself.  The Rabinowitsch
    search of ``contains_monomial`` never runs."""
    calls = []
    monkeypatch.setattr(groebner, "contains_monomial", calls.append)
    I, ctx = space_ideal("z + y - x", "y^2 - x*y", field=field)
    w = (1, 1, 1)
    basis = _initial_handle(I, w).generators
    assert same_ideal(basis, I.generators, ctx)
    assert all(len(g.terms) > 1 for g in I.generators + basis)
    assert decide._monomial_witness(I, w) == ctx.poly("y*z")
    assert calls == []


def test_space_curve_rays():
    I, _ = space_ideal("x^3 - y^2", "(z^2 - x*y)^2 - x^2*y*z^2")
    rep = decide_irreducible(I)
    assert rep.verdict == "reducible"
    assert set(rep.certificate.data) == {(4, 6, 5, 12), (4, 6, 5, 14)}
    assert verify_certificate(rep.certificate) == (True, "ok")


def test_space_curve_pencil_values():
    I, ctx = space_ideal("x^3 - y^2", "(z^2 - x*y)^2 - x^2*y*z^2")
    po = parametric_intersection(parse_poly("z^2 - x*y", ctx),
                                 parse_poly("y^2", ctx), I)
    assert po.generic_value == 24
    assert {(ev.beta, ev.value) for ev in po.exceptional} == \
        {(1, 26), (-1, 26)}


def test_tangent_branches_need_bent_attachment():
    I, _ = plane_ideal("(y - x^2)*(y - x^2 - x^3)")
    rep = decide_irreducible(I)
    assert rep.verdict == "reducible"
    assert rep.certificate.kind == "two_tropisms"
    assert set(rep.certificate.data) == {(1, 2, 3), (1, 2, 4)}
    (name, fdef), = rep.certificate.transcript
    assert name == "z"
    assert fdef == parse_poly("x^4 + x^2 - y", rep.certificate.ideal.ctx)
    assert verify_certificate(rep.certificate) == (True, "ok")


def test_symmetric_family_witness_and_component_rays():
    I, ctx = space_ideal("x^2 + y^3 + z^3", "x*y + y*z + z*x")
    bw = base_weights(I)
    assert bw == (6, 5, 5)
    rep = decide_irreducible(I)
    assert rep.verdict == "reducible"
    assert rep.certificate.kind == "monomial_witness"
    rays = [(3, 3, 2), (3, 2, 3)]
    for ray in rays:
        in_handle = IdealHandle(initial_ideal(I, ray), ctx)
        assert contains_monomial(in_handle) is None
    assert tuple(a + b for a, b in zip(*rays)) == bw


def _cusp_branch(k, c):
    """The implicit equation of the branch (t^2, t^3 + c*t^k), k >= 4, on
    which y^2 - x^3 has order 3 + k."""
    if k % 2 == 0:
        return f"((y - ({c})*x^{k // 2})^2 - x^3)"
    return f"(y^2 - x^3*(1 + ({c})*x^{(k - 3) // 2})^2)"


def _seeded_case1_curves(seed=14, count=4):
    """Products of two such branches with k2 = k1 + 2: the binomial
    y^2 - x^3 has value 6 + k1 + k2, even, and its orders on the branches
    straddle that of a monomial of the same weight, so the pencil's
    generic value drops (case 1).  Larger k1 and wider gaps decide the
    same way but cost more: k1 = 6 or 7 takes seconds for the rays of J
    below.  Wider gaps are in ``POLYGON_RAYS``."""
    rng = random.Random(seed)
    out = set()
    while len(out) < count:
        k1 = rng.randrange(4, 6)
        out.add((k1, k1 + 2, rng.choice((1, 2, -1, 3)),
                 rng.choice((1, -2, 5))))
    return sorted(out)


def record_tropism_checks(mp):
    """Record (handle, ray, inside verification) for each tropism test
    that ``decide`` runs while ``mp`` is active."""
    checks, depth = [], []
    inner_witness = decide._monomial_witness
    inner_verify = decide.verify_certificate

    def witness(handle, w):
        checks.append((handle, tuple(w), bool(depth)))
        return inner_witness(handle, w)

    def verify(cert):
        depth.append(cert)
        try:
            return inner_verify(cert)
        finally:
            depth.pop()

    mp.setattr(decide, "_monomial_witness", witness)
    mp.setattr(decide, "verify_certificate", verify)
    return checks


def verified_rays(checks, cert):
    """The sorted rays tested on the certificate's ideal, each of them
    inside verification."""
    on_cert = [(ray, inside) for handle, ray, inside in checks
               if handle is cert.ideal]
    assert all(inside for _, inside in on_cert)
    return sorted(ray for ray, _ in on_cert)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(101)], ids=str)
@pytest.mark.parametrize("k1, k2, c1, c2", _seeded_case1_curves())
def test_case1_rays_are_found_and_certified_in_one_attachment(
        k1, k2, c1, c2, field):
    I, _ = plane_ideal(_cusp_branch(k1, c1) + "*" + _cusp_branch(k2, c2),
                       field)
    verdicts = []
    pencil_test = decide.parametric_test

    def record(f, g, handle):
        verdict = pencil_test(f, g, handle)
        if verdict.result == "false":
            verdicts.append((verdict, base_weights(handle), handle, f, g))
        return verdict

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide, "parametric_test", record)
        checks = record_tropism_checks(mp)
        rep = decide_irreducible(I)
    (verdict, w, handle, f, g), = verdicts
    assert verdict.case == 1 and w == (4, 6)
    cert = rep.certificate
    assert rep.verdict == "reducible" and cert.kind == "two_tropisms"
    assert set(cert.data) == {(2, 3, 3 + k1), (2, 3, 3 + k2)}
    # the two rays are tested once each, by the verification
    assert verified_rays(checks, cert) == sorted(cert.data)
    assert cert.ideal.ctx.nvars == handle.ctx.nvars + 1
    assert verify_certificate(cert) == (True, "ok")
    # the rays lam*wb + (u, lam*vbar) of J, which attaches both f and g,
    # drop onto them
    (a, b), = g.terms
    vbar = 2 * a + 3 * b
    J = two_attachment_ideal(handle, f, g, verdict)
    for u in (3 + k1, 3 + k2):
        assert decide._monomial_witness(J, (2, 3, u, vbar)) is None


def _three_cusp_branches(ks):
    return "*".join(_cusp_branch(k, c) for k, c in zip(ks, (1, 2, 3)))


# Curves whose rays a search over candidate rays found slowly or never:
# (curve, field ids, rays, truncations at which the pencil determinant is
# recomputed for the hull).  Case 1 with the branches' orders of y^2 - x^3
# far apart, case 1 with three branches (lam_total = 3), a vanishing
# attachment whose hull's left end may pass the truncation N = 32, and a
# finite value 66 past N = 56.
POLYGON_RAYS = {
    "wide-gap-2-4": ("((y - x^2)^2 - x^3)*((y - x^4)^2 - x^3)", ("Q", "F7"),
                     ((2, 3, 7), (2, 3, 11)), []),
    "wide-gap-3-5": ("((y - x^3)^2 - x^3)*((y - 5*x^5)^2 - x^3)",
                     ("Q", "F7"), ((2, 3, 9), (2, 3, 13)), []),
    "three-cusps-4-5-6": (_three_cusp_branches((4, 5, 6)), ("Q", "F7"),
                          ((2, 3, 7), (2, 3, 8)), []),
    "three-cusps-5-6-7": (_three_cusp_branches((5, 6, 7)), ("F7",),
                          ((2, 3, 8), (2, 3, 9)), []),
    "lines-12-14": ("(y - x^2)*(y - x^2 - x^12)*(y - x^2 - x^14)",
                    ("F7", "F101"), ((1, 2, 12), (1, 2, 14)), [33]),
    "cusps-value-66": ("(y^2 - x^3 - x^30)*(y^2 - 2*x^3)", ("F7", "F101"),
                       ((2, 3, 6), (2, 3, 60)), [67]),
}


@pytest.mark.parametrize("cid, fid", [
    pytest.param(cid, fid, id=f"{cid}-{fid}")
    for cid, (_, fids, _, _) in POLYGON_RAYS.items() for fid in fids])
def test_rays_come_from_the_pencil_newton_polygon(cid, fid):
    text, _, rays, recomputed = POLYGON_RAYS[cid]
    I, _ = plane_ideal(text, PIN_FIELDS[fid])
    truncations = []
    inner = decide._pencil_determinant

    def record(f, g, ideal, N):
        truncations.append(N)
        return inner(f, g, ideal, N)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide, "_pencil_determinant", record)
        checks = record_tropism_checks(mp)
        rep = decide_irreducible(I)
    cert = rep.certificate
    assert rep.verdict == "reducible" and cert.kind == "two_tropisms"
    assert cert.data == rays
    assert verified_rays(checks, cert) == list(rays)
    assert truncations == recomputed
    assert verify_certificate(cert) == (True, "ok")


# Branches whose base valuation is not a multiple of the primitive weights:
# (t^2, t^3), (t, t^5) and (t^3, t) at w = (6, 9), where the polygon gives
# a ray that is not positive, and (t^2, t), (t^3, t), (t^4, t) at w = (9, 3),
# where the pair it gives fails verification.
OFF_WB = {
    "cusp-and-two-lines": ("(y^2 - x^3)*(y - x^5)*(x - y^3)",
                           "(2, 3, -8)], not all positive"),
    "three-parabolas": ("(x - y^2)*(x - y^3)*(x - y^4)",
                        "failed verification: initial ideal at ray 1 "
                        "contains a monomial"),
}


@pytest.mark.parametrize("fid", ["Q", "F7", "F101"])
@pytest.mark.parametrize("cid", OFF_WB)
def test_branches_off_the_primitive_weights_are_a_typed_limit(cid, fid):
    text, how = OFF_WB[cid]
    I, _ = plane_ideal(text, PIN_FIELDS[fid])
    with pytest.raises(CertificateSearchFailed) as info:
        decide_irreducible(I)
    message = str(info.value)
    assert message.startswith(
        "the pencil's rays assume that every branch's base valuation is a "
        "multiple of the primitive base weights wb")
    assert how in message


def test_permuting_variables_keeps_the_verdict():
    ctx = RingCtx(QQ, ("a", "b", "c"))
    gens = (parse_poly("c^3 - a^2", ctx),
            parse_poly("(b^2 - c*a)^2 - c^2*a*b^2", ctx))
    rep = decide_irreducible(IdealHandle(gens, ctx))
    assert rep.verdict == "reducible"
    assert verify_certificate(rep.certificate) == (True, "ok")


# ------------------------------------------------------- contract failures

def test_non_prime_input_to_value_semigroup():
    I, _ = plane_ideal("(y^2 - x^3)^2 - x^7")
    with pytest.raises(NotPrime):
        value_semigroup(I)


def test_non_radical_input_is_flagged():
    I, _ = plane_ideal("(y^2 - x^3)^2")
    with pytest.raises(NonRadicalSuspected):
        decide_irreducible(I)
    with pytest.raises(NotPrime):
        value_semigroup(I)


# Curves on which an attached pencil combination vanishes on a branch, or
# whose two parameters form a conjugate class, with the four case-2 probes
# of the benchmark: (curve, {field id: (rays, extension of the
# certificate's field, None for the base field)}).
_LINES = ((1, 1, 1), (1, 1, 2))
VANISHING_ATTACHMENTS = {
    "node": ("(y - x)*(y + x)", {fid: (_LINES, None)
                                 for fid in ("Q", "F7", "F101")}),
    "triple-point": ("(y - x)*(y - 2*x)*(y - 3*x)", {
        fid: (((1, 1, 1), (1, 1, 3)), None) for fid in ("Q", "F7", "F101")}),
    "conj-lines": ("y^2 + x^2", {"Q": (_LINES, (1, 0)),
                                 "F7": (_LINES, (1, 0)),
                                 "F101": (_LINES, None)}),
    "cubic-lines": ("y^3 - 2*x^3", {
        fid: (((1, 1, 1), (1, 1, 3)), ext) for fid, ext in (
            ("Q", (Fraction(-1, 2), 0, 0)), ("F7", (3, 0, 0)),
            ("F101", None))}),
    "cubic-cusps": ("(y^2 - x^3)^3 - 2*x^12", {
        fid: (((2, 3, 8), (2, 3, 10)), ext) for fid, ext in (
            ("Q", (2, 0, 0)), ("F7", (2, 0, 0)), ("F101", None))}),
    "cubic-e6": ("(y^3 - x^4)^3 - 2*x^13", {
        fid: (((3, 4, 13), (3, 4, 14)), ext) for fid, ext in (
            ("Q", (2, 0, 0)), ("F7", (2, 0, 0)), ("F101", None))}),
    "quartic-lines": ("y^4 + x^4", {
        fid: (((1, 1, 1), (1, 1, 4)), ext) for fid, ext in (
            ("Q", (1, 0, 0, 0)), ("F7", (1, 3)), ("F101", (10, 0)))}),
    "quintic-lines": ("y^5 - 3*x^5", {
        fid: (((1, 1, 1), (1, 1, 5)), ext) for fid, ext in (
            ("Q", (Fraction(-1, 3), 0, 0, 0, 0)), ("F7", None),
            ("F101", (67, 0, 0, 0, 0)))}),
    "mixed-classes": ("(y^2 - 2*x^3)*(y^4 + x^6)", {
        fid: (((2, 3, 6), (2, 3, 26)), None) for fid in ("Q", "F7", "F101")}),
    "case2-cusps": ("(y^2 - x^3)*(y^2 - 2*x^3)", {
        fid: (((2, 3, 6), (2, 3, 14)), None) for fid in ("Q", "F7", "F101")}),
    "case2-e6": ("(y^3 - x^4)*(y^3 - 2*x^4)", {
        fid: (((3, 4, 12), (3, 4, 39)), None) for fid in ("Q", "F7", "F101")}),
    "case2-three": ("(y - x^2)*(y - x^2 - x^3)*(y + x^2)", {
        "Q": (((1, 2, 2), (1, 2, 5)), None),
        "F7": (((1, 2, 2), (1, 2, 3)), None),
        "F101": (((1, 2, 2), (1, 2, 3)), None)}),
    "case2-tacnode": ("(y^2 - x^3)^2 - x^4*y^2", {
        fid: (((2, 3, 7), (2, 3, 16)), None) for fid in ("Q", "F7", "F101")}),
}
PIN_FIELDS = {"Q": QQ, "F7": GF(7), "F101": GF(101)}


@pytest.mark.parametrize("cid, fid", [
    pytest.param(cid, fid, id=f"{cid}-{fid}")
    for cid, (_, pins) in VANISHING_ATTACHMENTS.items() for fid in pins])
def test_vanishing_attachments_get_verified_certificates(cid, fid):
    text, pins = VANISHING_ATTACHMENTS[cid]
    rays, extension = pins[fid]
    I, _ = plane_ideal(text, PIN_FIELDS[fid])
    rep = decide_irreducible(I)
    cert = rep.certificate
    assert rep.verdict == "reducible" and cert.kind == "two_tropisms"
    assert cert.data == rays
    assert cert.ideal.ctx.field.extension == extension
    assert verify_certificate(cert) == (True, "ok")


def test_a_conjugate_pair_over_an_extension_base_field_is_a_typed_limit():
    # th is not a square in F_5(th), so the pencil's two parameters, the
    # square roots of th, would need a tower of extensions
    ctx = RingCtx(F5TH, ("x", "y"))
    x, y = ctx.var("x"), ctx.var("y")
    f = (y ** 2 - x ** 3) ** 2 - ctx.const(F5TH.generator()) * x ** 7
    with pytest.raises(CertificateSearchFailed,
                       match="the base field is already an extension"):
        decide_irreducible(IdealHandle([f], ctx))


# the curves that stopped at the pencil's root extraction while roots over
# F_p were found by enumerating the field, up to 4096 elements
LARGE_PRIME_CURVES = {
    "quartic": ("(y^2 - 2*x^3)^2 - 3*x^7", "reducible"),
    "conjugate": ("(y^3 - 1000003*x^4)^2 - 7*x^9", "reducible"),
    "prime": ("(y^2 - x^3)^2 - 10000000019*x^2*y^3", "irreducible"),
}


@pytest.mark.parametrize("cid", LARGE_PRIME_CURVES)
def test_curves_over_a_large_prime_field_get_verified_certificates(cid):
    text, verdict = LARGE_PRIME_CURVES[cid]
    I, _ = plane_ideal(text, GF(1000003))
    rep = decide_irreducible(I)
    assert rep.verdict == verdict
    assert verify_certificate(rep.certificate) == (True, "ok")


# Curves through (0, -1), so the hyperplane x = 0 meets them away from
# the origin, and the pivot falls to y, whose hyperplane meets them only
# there: two conics, a cusp product and a unit factor.  Each
# certificate's digest is the SHA-256 of its sorted-key JSON.
FIBRE_CURVES = {
    ("conics", "Q"): ("(y - x^2 + y^2)*(y + x^2)", (
        "7aa73da92bf7f23b5f20681ce962c459b18c544d0f207785365a21ae14cb2927")),
    ("conics", "F101"): ("(y - x^2 + y^2)*(y + x^2)", (
        "6a0b1afbecf18bbc8e63cf492e45958a3e8612db9fcc171e5b6bff4cd6b4d953")),
    ("cusps", "Q"): ("(y^2 - x^3 + y^3)*(y^2 - 2*x^3)", (
        "592e9d4f02c911e722b4551f3b1e27bd03efb4eac8d0d9ab6f8d9551e59e9937")),
    ("cusps", "F101"): ("(y^2 - x^3 + y^3)*(y^2 - 2*x^3)", (
        "b17b1a1e281e22eb873ad78fbb048088881f07521b2c98d97f156b73f4123e9f")),
    ("unit", "Q"): ("(y^2 - x^3)*(y^2 - 2*x^3)*(1 + y)", (
        "526a91886beebe8894174fce14ad2807df88774ee9ee0d09e56fdbb88b250858")),
    ("unit", "F101"): ("(y^2 - x^3)*(y^2 - 2*x^3)*(1 + y)", (
        "e8f37107cf8ab9dd7f836abc3c2a14c20157e9465b7a432808b8192acc0a25d0")),
}


@pytest.mark.parametrize("cid, fid", FIBRE_CURVES)
def test_a_curve_off_the_first_pivot_fibre_certifies_on_the_next(cid, fid):
    text, pin = FIBRE_CURVES[cid, fid]
    I, _ = plane_ideal(text, PIN_FIELDS[fid])
    start = time.monotonic()
    rep = decide_irreducible(I)
    assert time.monotonic() - start < 1.0
    assert choose_pivot(I) == (1, base_weights(I)[1])
    assert base_weights(I)[0] < base_weights(I)[1]
    assert rep.verdict == "reducible"
    assert verify_certificate(rep.certificate) == (True, "ok")
    text = json.dumps(certificate_json(rep.certificate), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == pin


# Curves that both coordinate hyperplanes meet away from the origin, with
# the global and local colengths of I + (x) and of I + (y).
FIBRE_LIMITS = {
    "line-conic": ("(x + 2*y)*((y + 3*x) - (x + 2*y)^2)", (3, 2), (3, 2)),
    "unit": ("((y^2 - x^3)^2 - x^7)*(1 + x + y)", (5, 4), (8, 6)),
}


@pytest.mark.parametrize("fid", ["Q", "F101"])
@pytest.mark.parametrize("cid", FIBRE_LIMITS)
def test_a_curve_every_coordinate_hyperplane_meets_elsewhere_is_refused(
        cid, fid):
    text, x, y = FIBRE_LIMITS[cid]
    I, _ = plane_ideal(text, PIN_FIELDS[fid])
    start = time.monotonic()
    with pytest.raises(TruncationExhausted) as info:
        decide_irreducible(I)
    assert time.monotonic() - start < 0.5
    assert str(info.value) == (
        "every coordinate hyperplane meets the curve away from the origin: "
        f"I + (x) has colength {x[0]} globally, {x[1]} at the origin, "
        f"I + (y) has colength {y[0]} globally, {y[1]} at the origin")


@pytest.mark.xfail(strict=True, raises=TruncationExhausted, reason=(
    "the unit's zero set 1 + x + y = 0 meets both x = 0 and y = 0 on the "
    "curve, so no coordinate pivot has a free basis from a global Groebner "
    "basis; only a normal form that allows units, or a pivot that is a "
    "linear form, has one"))
@pytest.mark.parametrize("text", ["((y^2 - x^3)^2 - x^7)*(1 + x + y)"])
def test_a_unit_factor_meeting_the_pivot_fibre_is_a_known_limit(text):
    I, _ = plane_ideal(text, GF(101))
    rep = decide_irreducible(I)
    assert rep.verdict == "reducible"
    assert verify_certificate(rep.certificate) == (True, "ok")


# ------------------------------------------------------------ preconditions

def test_preconditions_keep_a_clean_curve():
    I, _ = plane_ideal("y^2 - x^3")
    h = assert_preconditions(I)
    assert h.ctx.variables == ("x", "y")
    assert base_weights(h) == (2, 3)


def test_preconditions_drop_member_variables():
    ctx = RingCtx(QQ, ("x", "y", "z"))
    gens = (parse_poly("x", ctx), parse_poly("y^2 - z^3", ctx))
    h = assert_preconditions(IdealHandle(gens, ctx))
    assert h.ctx.variables == ("y", "z")
    assert [str(g) for g in h.generators] == ["-z^3 + y^2"]


def _assert_infinite_weight_names(text, var):
    """Both entry points refuse an infinite base weight as
    ``assert_preconditions`` does, naming the variable."""
    I, _ = plane_ideal(text)
    for entry in (assert_preconditions, decide_irreducible, value_semigroup):
        with pytest.raises(InfiniteWeight) as info:
            entry(I)
        assert str(info.value) == (
            f"intersection number of {var} is infinite: {var} vanishes on "
            "some but not all branches of the curve, so a radical input is "
            "reducible; no certificate kind covers this case yet")


def test_preconditions_reject_union_with_an_axis():
    _assert_infinite_weight_names("x*y", "x")


def test_preconditions_reject_a_branch_on_a_coordinate_axis():
    _assert_infinite_weight_names("y*(y - x^2)", "y")


@pytest.mark.parametrize("text", ["x - 1", "1 + x"])
def test_a_curve_off_the_origin_is_the_unit_ideal(text):
    """Every base weight is 0 off the origin; both entry points refuse
    that too, for callers that skip the preconditions."""
    I, _ = plane_ideal(text)
    for entry in (assert_preconditions, decide_irreducible, value_semigroup):
        with pytest.raises(UnitIdeal, match="does not pass through the "
                           "origin"):
            entry(I)


def test_preconditions_reject_wrong_dimension():
    ctx = RingCtx(QQ, ("x", "y", "z"))
    with pytest.raises(WrongDimension):
        assert_preconditions(IdealHandle((parse_poly("x", ctx),), ctx))
    ctx2 = RingCtx(QQ, ("x", "y"))
    gens = (parse_poly("x", ctx2), parse_poly("y", ctx2))
    with pytest.raises(WrongDimension):
        assert_preconditions(IdealHandle(gens, ctx2))


# --------------------------------------------------------------- tampering

def test_tampered_ray_pair_is_rejected():
    I, _ = plane_ideal("(y^2 - x^3)^2 - x^7")
    cert = decide_irreducible(I).certificate
    w1 = cert.data[0]
    bad = replace(cert, data=(w1, tuple(2 * e for e in w1)))
    ok, reason = verify_certificate(bad)
    assert not ok
    assert "proportional" in reason
    flagged = replace(cert, data=((True,) + w1[1:], cert.data[1]))
    assert verify_certificate(flagged) == (
        False, "ray entries must be positive integers")


def test_dropped_transcript_entry_is_rejected():
    I, _ = plane_ideal("(y^2 + x^3)^2 + x^7", field=GF(2))
    cert = decide_irreducible(I).certificate
    bad = replace(cert, transcript=())
    ok, reason = verify_certificate(bad)
    assert not ok
    assert "transcript" in reason


def test_tampered_prime_weights_are_rejected():
    I, _ = plane_ideal("y^2 - x^3")
    cert = decide_irreducible(I).certificate
    bad = replace(cert, data=(4, 6))
    ok, reason = verify_certificate(bad)
    assert not ok
    assert "base weights" in reason
    # entries equal to the weights but not ints are refused, not raised
    line = decide_irreducible(plane_ideal("y - x^2")[0]).certificate
    for c, data in ((cert, (2, 3.0)), (line, (True, 2))):
        assert c.kind == "prime_tropism"
        assert verify_certificate(replace(c, data=data)) == (
            False, "tropism entries must be positive integers")


def test_tampered_monomial_witness_is_rejected():
    I, ctx = space_ideal("(x^3 + y^2)*x - y*z^2", "y^2 - x*z",
                         "z^3 - (x^3 + y^2)*y")
    cert = decide_irreducible(I).certificate
    bad = replace(cert, data=parse_poly("x", ctx))
    ok, reason = verify_certificate(bad)
    assert not ok
    assert "initial ideal" in reason


def test_unknown_kind_is_rejected():
    I, _ = plane_ideal("y^2 - x^3")
    cert = decide_irreducible(I).certificate
    ok, reason = verify_certificate(replace(cert, kind="oracle"))
    assert not ok
    assert "unknown" in reason


# ------------------------------------------------------ sliced monomial test

F5TH = GF(5, (2, 0))  # F_5[th]/(th^2 + 2)
SLICE_FIELDS = [QQ, GF(2), GF(7), F5TH]
SLICE_IDS = ["Q", "F2", "F7", "F5th"]


def _agrees(handle, w, expected=None):
    """The sliced test against the Rabinowitsch search on the same initial
    ideal, and against the known answer when there is one."""
    got = _monomial_witness(handle, w) is None
    K = _initial_handle(handle, w)
    assert got == (contains_monomial(IdealHandle(K.generators, K.ctx)) is None)
    if expected is not None:
        assert got == expected
    return got


def _distinct_scalars(rng, field: FieldSpec, count):
    """count distinct field elements, zero allowed."""
    if field.characteristic == 0:
        pool = list(range(-6, 7))
    else:
        pool = list(field.elements())
    return rng.sample(pool, min(count, len(pool)))


@pytest.mark.parametrize("field", SLICE_FIELDS, ids=SLICE_IDS)
def test_sliced_test_on_seeded_plane_products(field):
    """prod_k (y^a - c_k x^b), with distinct c_k, at w = (a, b) / gcd, and the
    same times x.  The zero set meets the torus exactly when some c_k is
    nonzero; x adds the y-axis, which does not."""
    ctx = RingCtx(field, ("x", "y"))
    x, y = ctx.var("x"), ctx.var("y")
    rng = random.Random(f"slice-plane-{field!r}")
    for _ in range(6):
        a, b = rng.randint(1, 3), rng.randint(1, 4)
        g = gcd(a, b)
        w = (a // g, b // g)
        cs = _distinct_scalars(rng, field, rng.randint(1, 3))
        f = prod((y ** a - ctx.const(c) * x ** b for c in cs), start=ctx.one())
        meets = any(not field.is_zero(field.coerce(c)) for c in cs)
        _agrees(IdealHandle([f], ctx), w, meets)
        _agrees(IdealHandle([x * f], ctx), w, meets)


@pytest.mark.parametrize("field", SLICE_FIELDS, ids=SLICE_IDS)
def test_sliced_test_on_a_space_curve_with_an_axis(field):
    """A torus curve y^a = c x^b, z^e = d x^f times the fat z-axis (x^2, y^2),
    and the fat axis alone: the axis never meets the torus, and it lies
    inside x = 0, so the slice x = 1 misses it and is the unit ideal on
    the axis alone."""
    ctx = RingCtx(field, ("x", "y", "z"))
    x, y, z = ctx.var("x"), ctx.var("y"), ctx.var("z")
    rng = random.Random(f"slice-space-{field!r}")
    axis = [x ** 2, y ** 2]
    for _ in range(3):
        a, b, e, f = (rng.randint(1, 3) for _ in range(4))
        w = (a * e, b * e, f * a)
        g = gcd(gcd(*w[:2]), w[2])
        w = tuple(v // g for v in w)
        c, d = _distinct_scalars(rng, field, 2)
        curve = [y ** a - ctx.const(c) * x ** b,
                 z ** e - ctx.const(d) * x ** f]
        meets = all(not field.is_zero(field.coerce(v)) for v in (c, d))
        product = [p * q for p in curve for q in axis]
        _agrees(IdealHandle(product, ctx), w, meets)
        _agrees(IdealHandle(axis, ctx), w, False)


@pytest.mark.parametrize("field", SLICE_FIELDS, ids=SLICE_IDS)
def test_sliced_test_on_unit_and_nilpotent_slices(field):
    ctx = RingCtx(field, ("x", "y"))
    cases = [
        ("x^2", (1, 2), False),        # slice x = 1 is the unit ideal
        ("y^2", (1, 2), False),        # slice x = 1 is (y^2): y nilpotent
        ("y^2", (2, 1), False),        # the same slice at any weight
        ("x*y", (1, 1), False),        # slice x = 1 is (y)
        ("y^2 - x^2", (1, 1), True),
        ("y^2 - x^3", (2, 3), True),   # 2 divides a weight, also over F_2
        ("y^4 - x^6", (2, 3), True),   # a double branch, still a tropism
        ("(y^2 - x^3)*y^3", (2, 3), True),
    ]
    for text, w, expected in cases:
        _agrees(IdealHandle([parse_poly(text, ctx)], ctx), w, expected)


SPACE_CURVES = [
    (("x^3 - y^2", "(z^2 - x*y)^2 - x^2*y*z^2"), [(4, 6, 5)]),
    (("x^3 - y^2", "(z^2 - x*y)^2 - x*y*z^3"), [(4, 6, 5)]),
    (("x^3 - y^2", "(z^2 - x^2*y)^2 - x^3*y^2*z"), [(4, 6, 7)]),
    (("(x^3 + y^2)*x - y*z^2", "y^2 - x*z", "z^3 - (x^3 + y^2)*y"),
     [(5, 6, 7)]),
    (("x^2 + y^3 + z^3", "x*y + y*z + z*x"),
     [(6, 5, 5), (3, 3, 2), (3, 2, 3), (2, 3, 3)]),
]


@pytest.mark.parametrize("field", SLICE_FIELDS, ids=SLICE_IDS)
def test_sliced_test_on_the_initial_ideals_of_the_space_curves(field):
    for texts, rays in SPACE_CURVES:
        I, _ = space_ideal(*texts, field=field)
        for w in rays:
            _agrees(I, w)


@pytest.mark.parametrize("field", SLICE_FIELDS, ids=SLICE_IDS)
def test_sliced_test_on_the_certified_rays(field):
    I, _ = space_ideal("x^3 - y^2", "(z^2 - x*y)^2 - x^2*y*z^2", field=field)
    cert = decide_irreducible(I).certificate
    rays = cert.data if cert.kind == "two_tropisms" else [cert.data]
    for w in rays:
        assert _agrees(cert.ideal, w)


def test_sliced_test_names_a_surface_slice():
    I, _ = space_ideal("y^2 - x^3")
    with pytest.raises(WrongDimension, match=r"\(2, 3, 1\)"):
        _monomial_witness(I, (2, 3, 1))


def test_a_surface_certificate_is_refused_not_raised():
    I, _ = space_ideal("y^2 - x^3")
    cert = Certificate("two_tropisms", I, ((2, 3, 1), (2, 3, 5)),
                       ("x", "y", "z"))
    assert verify_certificate(cert) == (
        False, "initial ideal at ray 1 is not one-dimensional")


def test_a_certificate_with_a_plane_inside_x0_is_refused():
    """(x*y, x*z) is the plane x = 0 and the x-axis.  The slice x = 1 sees
    only the axis, where y*z vanishes, so each ray's initial ideal, the
    ideal itself, contains a monomial."""
    I, _ = space_ideal("x*y", "x*z")
    rays = ((1, 2, 3), (1, 3, 2))
    for w in rays:
        assert not _agrees(I, w)
    cert = Certificate("two_tropisms", I, rays, ("x", "y", "z"))
    assert verify_certificate(cert) == (
        False, "initial ideal at ray 1 contains a monomial")


# ----------------------------------------------- the graph shape check

def _relation_reason(cert):
    """What ``_graph_shape_error`` must say of a certificate whose only
    possible faults are its transcript names and its relations, read by
    building each relation z - fdef."""
    ctx = cert.ideal.ctx
    names = tuple(name for name, _ in cert.transcript)
    if tuple(cert.base_vars) + names != ctx.variables:
        return "transcript does not span the certificate ring"
    gens = cert.ideal.generators
    head = len(gens) - len(names)
    for k, ((name, fdef), gen) in enumerate(zip(cert.transcript, gens[head:])):
        if gen != ctx.var(name) - fdef:
            return (f"generator {head + k + 1} of the certified ideal is not "
                    f"the transcript relation of {name}")
    return None


def _perturbed(cert, rng):
    """(label, certificate) for each seeded perturbation of each transcript
    relation: a coefficient changed, a term dropped or added, a sign
    flipped, z's coefficient set to 2, or the transcript entry renamed."""
    gens = cert.ideal.generators
    ctx = cert.ideal.ctx
    field = ctx.field
    head = len(gens) - len(cert.transcript)
    for k, (name, fdef) in enumerate(cert.transcript):
        gen = gens[head + k]
        terms = dict(gen.terms)
        z = next(iter(ctx.var(name).terms))
        m = rng.choice(sorted(terms))
        scalar = field.from_int(rng.randrange(1, 50))
        fresh = tuple(rng.randrange(4) for _ in range(ctx.nvars))
        while fresh in terms:
            fresh = tuple(rng.randrange(4) for _ in range(ctx.nvars))
        variants = {
            "coefficient changed": {**terms, m: field.add(terms[m], scalar)},
            "term dropped": {t: c for t, c in terms.items() if t != m},
            "term added": {**terms, fresh: scalar},
            "sign flipped": {**terms, m: field.neg(terms[m])},
            "z doubled": {**terms, z: field.from_int(2)},
        }
        for label, new in variants.items():
            rel = Poly.from_items(new.items(), ctx)
            yield f"{name}: {label}", replace(cert, ideal=IdealHandle(
                gens[:head + k] + (rel,) + gens[head + k + 1:], ctx))
        renamed = cert.transcript[:k] + ((name + "_", fdef),) + \
            cert.transcript[k + 1:]
        yield f"{name}: renamed", replace(cert, transcript=renamed)


def test_the_shape_check_agrees_with_building_each_relation():
    """The shape check compares terms instead of building z - fdef, and
    refuses exactly the perturbed relations that differ from z - fdef,
    with the same reason; a perturbation that leaves the relation as it
    was (a flipped sign in characteristic 2) is accepted."""
    rng = random.Random("shape-check")
    seen = set()
    for cid, cert in benchmark_certificates():
        assert cert.transcript
        assert _graph_shape_error(cert) is None is _relation_reason(cert)
        for _ in range(3):
            for label, bad in _perturbed(cert, rng):
                reason = _relation_reason(bad)
                assert _graph_shape_error(bad) == reason, (cid, label)
                seen.add(reason is None)
    assert seen == {True, False}


# ---------------------------------------- initial ideals with their basis

# The curves of the benchmark's two_branch and prime_tower workloads.
TWO_BRANCH_CURVES = {
    "dbl-2-3-7-0": ("x y", ("(y^2 - x^3)^2 - x^7",)),
    "dbl-2-3-8-0": ("x y", ("(y^2 - x^3)^2 - x^8",)),
    "dbl-2-5-11-0": ("x y", ("(y^2 - x^5)^2 - x^11",)),
    "dbl-2-5-12-0": ("x y", ("(y^2 - x^5)^2 - x^12",)),
    "dbl-3-4-8-1": ("x y", ("(y^3 - x^4)^2 - x^8*y",)),
    "space-pair": ("x y z", ("x^3 - y^2", "(z^2 - x*y)^2 - x^2*y*z^2")),
    "tangent-pair": ("x y", ("(y - x^2)*(y - x^2 - x^3)",)),
}
# Over F_2 these are squares, (y^2 + x^3 + x^4)^2 and (y^2 + x^5 + x^6)^2,
# so not radical.
NOT_RADICAL_OVER_F2 = ("dbl-2-3-8-0", "dbl-2-5-12-0")
PRIME_TOWER_CURVES = {
    "tower-1": ("x y", ("(y^2 - x^3)^2 - x^2*y^3",)),
    "tower-2": ("x y", ("(y^3 - x^4)^2 - x^9",)),
    "tower-3": ("x y", ("(y^2 - x^5)^2 - x^9*y",)),
    "space-1": ("x y z", ("x^3 - y^2", "(z^2 - x^2*y)^2 - x^3*y^2*z")),
    "space-2": ("x y z", ("x^3 - y^2", "(z^2 - x*y)^2 - x*y*z^3")),
    "implicit-6-9-10": ("x y", (
        "x^10 - x^9 - 6*x^8*y + 3*x^6*y^2 - 2*x^5*y^3 - 3*x^3*y^4 + y^6",)),
    "implicit-4-6-7-9": ("x y", (
        "x^9 - 2*x^8 + 5*x^7 + 4*x^6*y - x^6 + 4*x^5*y + 4*x^4*y^2"
        " + 2*x^3*y^2 - y^4",)),
}
STRETCH_CURVE = ("x y", ("((y^2 - x^3)^2 - x^5*y)^2 - x^11*y^2",))


def _curve(variables, texts, field):
    ctx = RingCtx(field, tuple(variables.split()))
    return IdealHandle(tuple(parse_poly(t, ctx) for t in texts), ctx)


@functools.cache
def benchmark_certificates():
    """(id, certificate) of each curve of the two_branch and prime_tower
    workloads, decided over each field the benchmark decides it over."""
    cases = [(cid, curve, field)
             for cid, curve in TWO_BRANCH_CURVES.items()
             for field in (QQ, GF(101))]
    cases += [(cid, curve, field)
              for cid, curve in PRIME_TOWER_CURVES.items()
              for field in (QQ, GF(7), F5TH)]
    cases.append(("char2-tower", ("x y", ("(y^2 + x^3)^2 + x^7",)), GF(2)))
    return tuple((f"{cid}.{field}", decide_irreducible(
        _curve(*curve, field)).certificate) for cid, curve, field in cases)


# p-th powers over fields of characteristic p: each exponent is divisible
# by p, and the field is perfect, so the generator is a p-th power.
PTH_POWERS = {
    **{f"{cid}-F2": (GF(2), *TWO_BRANCH_CURVES[cid])
       for cid in NOT_RADICAL_OVER_F2},
    "cusp-7th-F7": (GF(7), "x y", ("(y^2 - x^3)^7",)),
    "cusp-5th-F5th": (F5TH, "x y", ("(y^2 - 2*x^3)^5 + x^5*y^10",)),
}


@pytest.mark.parametrize("cid", PTH_POWERS)
def test_a_pth_power_is_refused_at_once(cid):
    """A principal ideal whose generator is a p-th power is not radical,
    and both entry points refuse it before their first round."""
    field, variables, texts = PTH_POWERS[cid]
    p = field.characteristic
    for entry, error in ((decide_irreducible, NonRadicalSuspected),
                         (value_semigroup, NotPrime)):
        I = _curve(variables, texts, field)
        start = time.monotonic()
        with pytest.raises(error, match=rf"is a p-th power, p = {p} the "
                           "characteristic"):
            entry(I)
        assert time.monotonic() - start < 1.0


def _decide_recording_initial_handles(I):
    """Decide I, certificate check included, and return the report with
    every (handle, w, K) that ``_initial_handle`` handed out."""
    built = []
    inner = decide._initial_handle

    def record(handle, w):
        K = inner(handle, w)
        built.append((handle, tuple(w), K))
        return K

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide, "_initial_handle", record)
        rep = decide_irreducible(I)
    return rep, built


def _check_the_seeded_bases(rep, built):
    """Each initial handle's seeded basis is the one Buchberger
    gives on its generators, and the sliced test answers on a fresh handle
    as on the decide's, in agreement with ``contains_monomial``.  Among
    the weights checked are every weight of the decide's history and
    every certified ray."""
    assert built
    cert = rep.certificate
    rays = {"prime_tropism": (cert.data,),
            "two_tropisms": cert.data}.get(cert.kind, ())
    assert set(rep.stats["weight_history"]) | set(map(tuple, rays)) <= \
        {w for _, w, _ in built}
    for handle, w, K in {id(t[2]): t for t in built}.values():
        seeded = K.groebner()
        assert seeded == buchberger(list(K.generators), K.order)
        fresh = IdealHandle(handle.generators, handle.ctx)
        assert _agrees(fresh, w) == (_monomial_witness(handle, w) is None)


@pytest.mark.parametrize("field", SLICE_FIELDS, ids=SLICE_IDS)
def test_seeded_bases_of_the_two_branch_curves(field):
    for cid, (variables, texts) in TWO_BRANCH_CURVES.items():
        if field.characteristic == 2 and cid in NOT_RADICAL_OVER_F2:
            continue
        _check_the_seeded_bases(*_decide_recording_initial_handles(
            _curve(variables, texts, field)))


@pytest.mark.parametrize("field", SLICE_FIELDS, ids=SLICE_IDS)
def test_seeded_bases_of_the_prime_tower_curves(field):
    for variables, texts in PRIME_TOWER_CURVES.values():
        _check_the_seeded_bases(*_decide_recording_initial_handles(
            _curve(variables, texts, field)))


def test_seeded_bases_of_the_stretch_curve_over_F7():
    _check_the_seeded_bases(*_decide_recording_initial_handles(
        _curve(*STRETCH_CURVE, GF(7))))


@pytest.mark.parametrize("field", SLICE_FIELDS, ids=SLICE_IDS)
def test_seeded_bases_of_seeded_plane_products(field):
    """prod_k (y^a - c_k x^b) with a, b coprime and distinct nonzero c_k:
    one branch per c_k, so the curve is reducible exactly when it has two
    or more factors."""
    ctx = RingCtx(field, ("x", "y"))
    x, y = ctx.var("x"), ctx.var("y")
    rng = random.Random(f"seeded-basis-{field!r}")
    nonzero = [c for c in _distinct_scalars(rng, field, 13)
               if not field.is_zero(field.coerce(c))]
    for _ in range(4):
        a, b = rng.choice([(1, 1), (1, 2), (2, 3), (3, 2), (2, 5), (3, 4)])
        cs = rng.sample(nonzero, min(rng.randint(1, 3), len(nonzero)))
        f = prod((y ** a - ctx.const(c) * x ** b for c in cs), start=ctx.one())
        rep, built = _decide_recording_initial_handles(IdealHandle([f], ctx))
        assert rep.verdict == ("reducible" if len(cs) >= 2 else "irreducible")
        _check_the_seeded_bases(rep, built)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "F101"])
def test_seeded_bases_of_every_variable_order_of_the_space_pair(field):
    """The slice is at the first variable: with z first it has the
    largest weight, with x first the smallest."""
    variables, texts = TWO_BRANCH_CURVES["space-pair"]
    for perm in itertools.permutations(variables.split()):
        rep, built = _decide_recording_initial_handles(
            _curve(" ".join(perm), texts, field))
        assert rep.verdict == "reducible"
        _check_the_seeded_bases(rep, built)


def _count_buchberger_inputs(monkeypatch):
    """Record every initial handle the decide asks for, the generators of
    every Buchberger call, whether each tropism test got K's handle, and
    the Buchberger loops the tropism test runs once it holds it."""
    handles, calls, built, sliced = [], [], [], []
    inner_witness = decide._monomial_witness
    inner_handle = decide._initial_handle
    inner_global, inner_rows = groebner.buchberger, groebner._buchberger_rows
    holds_K = []

    def record_witness(handle, w):
        holds_K.append(False)
        try:
            return inner_witness(handle, w)
        finally:
            built.append(holds_K.pop())

    def record_handle(handle, w):
        K = inner_handle(handle, w)
        handles.append(K)
        if holds_K:
            holds_K[-1] = True
        return K

    def record_global(gens, order, **kwargs):
        calls.append(tuple(gens))
        return inner_global(gens, order, **kwargs)

    def record_rows(rows, order):
        if holds_K and holds_K[-1]:
            sliced.append(len(rows))
        return inner_rows(rows, order)

    monkeypatch.setattr(decide, "_monomial_witness", record_witness)
    monkeypatch.setattr(decide, "_initial_handle", record_handle)
    monkeypatch.setattr(groebner, "buchberger", record_global)
    monkeypatch.setattr(groebner, "_buchberger_rows", record_rows)
    return handles, calls, built, sliced


@pytest.mark.parametrize("cid", [*TWO_BRANCH_CURVES, *PRIME_TOWER_CURVES])
def test_no_buchberger_on_initial_generators_and_slices_stay_small(
        monkeypatch, cid):
    """No Buchberger loop runs on an initial ideal's generators, and the
    sliced test, once it holds K's handle, runs none at all: its slice
    basis is K's own basis at x_0 = 1."""
    handles, calls, built, sliced = _count_buchberger_inputs(monkeypatch)
    curve = TWO_BRANCH_CURVES.get(cid) or PRIME_TOWER_CURVES[cid]
    decide_irreducible(_curve(*curve, QQ))
    assert handles and calls and any(built)
    assert not any(gens == K.generators for K in handles for gens in calls)
    assert sliced == []


def _sliced_tests(monkeypatch):
    """A list that grows by one for every sliced test built, with the
    staircase leads it counted and those of its K's basis at x_0 = 1."""
    built, last_K = [], []
    inner_size, inner_handle = decide.staircase_size, decide._initial_handle

    def record_handle(handle, w):
        K = inner_handle(handle, w)
        last_K[:] = [K]
        return K

    def counted(leads, nvars):
        K = last_K[0]
        built.append((list(leads), [g.lead(K.order)[0][1:]
                                    for g in K.groebner()]))
        return inner_size(leads, nvars)

    monkeypatch.setattr(decide, "_initial_handle", record_handle)
    monkeypatch.setattr(decide, "staircase_size", counted)
    return built


@pytest.mark.parametrize("cid", PRIME_TOWER_CURVES)
def test_the_self_check_reuses_the_sliced_test_of_the_decide(
        monkeypatch, cid):
    built = _sliced_tests(monkeypatch)
    rep = decide_irreducible(_curve(*PRIME_TOWER_CURVES[cid], QQ))
    assert rep.certificate.kind == "prime_tropism"
    # one sliced test per weight the loop tested, none for the self-check,
    # each counting the leads of its K's basis with x_0 dropped
    assert len(built) == len(rep.stats["weight_history"])
    assert all(leads == ours for leads, ours in built)
    built.clear()
    assert verify_certificate(rep.certificate) == (True, "ok")
    assert built == []
    rebuilt = certificate_from_json(certificate_json(rep.certificate))
    assert verify_certificate(rebuilt) == (True, "ok")
    assert len(built) == 1
    assert all(leads == ours for leads, ours in built)


# ------------------------------------------------------------- graph shape

def _graph_mutants(cert):
    """Certificates for the same ideal whose generators leave the graph
    shape: each used to pass the membership check of the transcript."""
    gens = cert.ideal.generators
    ctx = cert.ideal.ctx
    head = len(gens) - len(cert.transcript)
    g, x, rel = gens[0], ctx.var(0), gens[-1]
    return {
        "extra generator": gens + (g,),
        "reordered generators": (rel,) + gens[:-1],
        "equivalent relation": gens[:-1] + (rel + x * g,),
        "base generator with an adjoined variable":
            (g + x * rel,) + gens[1:],
        "relation among the base generators":
            gens[:head] + (rel,) + gens[head:],
    }


def _one_adjunction_certificate():
    I, _ = plane_ideal("(y^2 - x^3)^2 - x^2*y^3")
    cert = decide_irreducible(I).certificate
    assert [n for n, _ in cert.transcript] == ["z"]
    return cert


def test_graph_shape_mutants_are_the_same_ideal_but_refused():
    cert = _one_adjunction_certificate()
    for label, gens in _graph_mutants(cert).items():
        assert same_ideal(gens, cert.ideal.generators, cert.ideal.ctx), label
        bad = replace(cert, ideal=IdealHandle(gens, cert.ideal.ctx))
        ok, reason = verify_certificate(bad)
        assert not ok, label
        assert "generator" in reason, (label, reason)
    assert verify_certificate(cert) == (True, "ok")


def test_graph_shape_refuses_a_two_ray_certificate_with_a_reordered_pair():
    ctx = RingCtx(GF(7), ("x", "y"))
    I = IdealHandle(
        [parse_poly("((y^2 - x^3)^2 - x^5*y)^2 - x^11*y^2", ctx)], ctx)
    cert = decide_irreducible(I).certificate
    assert cert.kind == "two_tropisms"
    assert [n for n, _ in cert.transcript] == ["z", "u"]
    gens = cert.ideal.generators
    swapped = gens[:-2] + (gens[-1], gens[-2])
    bad = replace(cert, ideal=IdealHandle(swapped, cert.ideal.ctx))
    ok, reason = verify_certificate(bad)
    assert not ok
    assert "transcript relation" in reason


@pytest.mark.parametrize("field", (QQ, GF(101)), ids=str)
def test_a_bumped_base_weight_is_refused_at_its_own_entry(field):
    """Each table prime certificate with one base-weight entry raised by
    one is refused for differing weights, on a cold handle, after the
    intersection numbers of the base variables up to that entry and of no
    transcript polynomial."""
    taken = []

    def counted(f, ideal):
        taken.append(f)
        return intersection_number(f, ideal)

    with_transcript = 0
    for variables, texts in PRIME_TOWER_CURVES.values():
        cert = decide_irreducible(_curve(variables, texts, field)).certificate
        assert cert.kind == "prime_tropism"
        with_transcript += bool(cert.transcript)
        for i in range(len(cert.base_vars)):
            w = list(cert.data)
            w[i] += 1
            bumped = replace(cert, data=tuple(w), ideal=IdealHandle(
                cert.ideal.generators, cert.ideal.ctx))
            taken.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(decide, "intersection_number", counted)
                assert verify_certificate(bumped) == (False, (
                    "recomputed base weights differ from the certified "
                    "tropism"))
            assert [str(f) for f in taken] == list(cert.base_vars[:i + 1])
    assert with_transcript


def _random_definition(rng, ctx, nvars):
    """A definition of up to three terms of degree one or two in the
    first nvars variables, zero at the origin."""
    field = ctx.field
    items = []
    for _ in range(rng.randint(1, 3)):
        e = [0] * ctx.nvars
        for _ in range(rng.randint(1, 2)):
            e[rng.randrange(nvars)] += 1
        if field.extension is not None:
            c = tuple(rng.randint(0, 4) for _ in range(field.degree))
        else:
            c = rng.randint(-3, 3)
        items.append((tuple(e), field.coerce(c)))
    return Poly.from_items(items, ctx)


@pytest.mark.parametrize("field", (QQ, GF(7), GF(5, (2, 0))), ids=str)
def test_base_ring_weights_of_random_transcripts_match_the_ring(field):
    """On random graph-shaped certificates over the cusp, the base-ring
    weights, which read each h_j* as a normal form, equal the weights of
    the certified ideal itself, which never forms h_j*."""
    rng = random.Random(f"transcript-{field!r}")
    for _ in range(20):
        names = ("z", "u", "v")[:rng.randint(2, 3)]
        ctx = RingCtx(field, ("x", "y") + names)
        defs = []
        for j in range(len(names)):
            f = ctx.zero()
            while f.is_zero():
                f = _random_definition(rng, ctx, 2 + j)
            defs.append(f)
        gens = [parse_poly("y^2 - x^3", ctx)] + [
            ctx.var(n) - f for n, f in zip(names, defs)]
        cert = Certificate("prime_tropism", IdealHandle(gens, ctx), (),
                           ("x", "y"), tuple(zip(names, defs)))
        assert decide._graph_shape_error(cert) is None
        assert tuple(_certified_weights(cert)) == \
            base_weights(IdealHandle(gens, ctx))


# ------------------------------------------------------------ the shared loop

def test_an_iter_cap_of_one_is_enough_for_one_round(monkeypatch):
    """An iteration cap of one round, ``decide._LOOP_CAP`` patched to 1."""
    monkeypatch.setattr(decide, "_LOOP_CAP", 1)
    rep = decide_irreducible(_curve(*TWO_BRANCH_CURVES["dbl-2-3-7-0"], QQ))
    assert rep.verdict == "reducible"
    assert rep.stats["outer_iterations"] == 1
    # this branch pair needs a second round, after adjoining z
    with pytest.raises(NonRadicalSuspected, match=r"the outer loop exceeded "
                       r"_LOOP_CAP = 1 rounds"):
        decide_irreducible(_curve(*STRETCH_CURVE, QQ))


def test_value_semigroup_renames_the_loop_refusal(monkeypatch):
    monkeypatch.setattr(decide, "_LOOP_CAP", 1)
    with pytest.raises(NotPrime, match=r"exceeded _LOOP_CAP = 1 rounds") as exc:
        value_semigroup(_curve(*STRETCH_CURVE, QQ))
    assert type(exc.value.__cause__) is NonRadicalSuspected
    assert str(exc.value.__cause__) == str(exc.value)


def test_a_descent_past_the_loop_cap_is_refused(monkeypatch):
    """The stretch curve's second round descends twice; its descent,
    replayed under a cap of one step, stops at the second."""
    calls = []
    inner = decide._descend

    def record(handle, w, f, value, *, stats):
        before = stats["descent_steps"]
        out = inner(handle, w, f, value, stats=stats)
        calls.append((handle, w, f, value, stats["descent_steps"] - before))
        return out

    monkeypatch.setattr(decide, "_descend", record)
    decide_irreducible(_curve(*STRETCH_CURVE, QQ))
    handle, w, f, value, steps = calls[-1]
    assert steps == 2
    monkeypatch.setattr(decide, "_LOOP_CAP", 1)
    stats = {"descent_steps": 0, "parametric_calls": 0,
             "truncation_high_water": 0}
    with pytest.raises(NonRadicalSuspected,
                       match=r"descent exceeded _LOOP_CAP = 1 steps"):
        inner(handle, w, f, value, stats=stats)
    assert stats["descent_steps"] == 2


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("cid", PRIME_TOWER_CURVES)
def test_the_decide_transcript_is_a_prefix_of_the_value_semigroup_tower(
        cid, field):
    """Both entry points run one loop; the decide stops it at primitive
    weights, so its tower is where the value semigroup's begins."""
    curve = PRIME_TOWER_CURVES[cid]
    cert = decide_irreducible(_curve(*curve, field)).certificate
    tower, w = value_semigroup(_curve(*curve, field))
    assert cert.kind == "prime_tropism" and cert.transcript
    n = cert.ideal.ctx.nvars
    assert tower.ctx.variables[:n] == cert.ideal.ctx.variables
    head = len(cert.ideal.generators) - len(cert.transcript)
    for k, (name, fdef) in enumerate(cert.transcript):
        assert tower.generators[head + k] == (
            tower.ctx.var(name) - embed(fdef, tower.ctx))
    assert cert.data == w[:n]


# --------------------------------------------- pencil determinant pins

# For each pencil the decide of a table curve runs, keyed (curve, field,
# str(f), str(g)): the SHA-256 of repr(sorted (d, e, str(payload)) items)
# of its ParametricOrder.determinant, as computed before the screen
# stopped at the lowest escaping degree.  A change to the determinant
# kernel keeps these.  PARAMETRIC_CALLS pins the pencils each decide runs,
# so a return to screening every binomial fails as well.
DETERMINANT_PINS = {
    ("dbl-2-3-7-0", "QQ", "x^3", "y^2"):
        "5b494230d812fbb0ed9590ec5964b4b349bc004b4b27d5bf4d69baedfaf586df",
    ("dbl-2-3-7-0", "QQ", "x^3 - y^2", "x^2*y"):
        "b4b60dee4936cac2e2f59db105ead3d09aff70d46e826a4d8375be614f81a672",
    ("dbl-2-3-7-0", "F101", "x^3", "y^2"):
        "8c4dc288ea48190516c43d6d85980110980223448f01448c78697f5ac9ee863e",
    ("dbl-2-3-7-0", "F101", "x^3 + 100*y^2", "x^2*y"):
        "7d90000c279337384cf6c3d7b83be432eb71cbfdeaf5d19f630c654cbde4ad4c",
    ("dbl-2-3-8-0", "QQ", "x^3", "y^2"):
        "ac69eb63cfcd0922e91aca49e78904b0ab45b2e2bacf8213c84370e868e68be6",
    ("dbl-2-3-8-0", "QQ", "x^3 - y^2", "x*y^2"):
        "7f36ea3aa7692057965abb44a0283532654de90af747042f5c7f72286fed6067",
    ("dbl-2-3-8-0", "F101", "x^3", "y^2"):
        "efec4b626d7921b398d9b20f437be1cfd487dca4817ba26ecd51992c08ac1117",
    ("dbl-2-3-8-0", "F101", "x^3 + 100*y^2", "x*y^2"):
        "02ac36a438da356af53c64e495e0478c078115800179048d39f1eba0506449c5",
    ("dbl-2-5-11-0", "QQ", "x^5", "y^2"):
        "48532b9314dcadd7bd3c581643cfb8d3cfca67d6396a5dcf45f646d26f2b4cc2",
    ("dbl-2-5-11-0", "QQ", "x^5 - y^2", "x^3*y"):
        "74fff8875c180f4404992e0848a2d5f4e184ad952478e80e5d0c83fd7aac97de",
    ("dbl-2-5-11-0", "F101", "x^5", "y^2"):
        "72849d67f64328660a33614f887d1b1043eba3f3de26ce3be382bf23b3db6479",
    ("dbl-2-5-11-0", "F101", "x^5 + 100*y^2", "x^3*y"):
        "4334a2029515b5c9bbfe46a571dc457ddadc297a236374b3a2ae7bdcd22351ca",
    ("dbl-2-5-12-0", "QQ", "x^5", "y^2"):
        "7b96d0c079efad9f46b84b72571f8b5de632936ea6b018f7422e4b33c4f2cfa6",
    ("dbl-2-5-12-0", "QQ", "x^5 - y^2", "x*y^2"):
        "bdea3dc88dea2020d9662bc1984aef4cb74caba79b0744f11108d8a78d23232a",
    ("dbl-2-5-12-0", "F101", "x^5", "y^2"):
        "de419dc89e07fa307da925a80cdd888f0d483f9fe2cf2cbddd75fdeb05e646c2",
    ("dbl-2-5-12-0", "F101", "x^5 + 100*y^2", "x*y^2"):
        "4e877605c1b311a4e5a1db0fc32654989487efd1ed2352a83ccae36b9293f175",
    ("dbl-3-4-8-1", "QQ", "x^4", "y^3"):
        "e003b615bf5e0bb2f6546ac558fe5732752a4022d25da05835ac2e8d1519f11e",
    ("dbl-3-4-8-1", "QQ", "x^4 - y^3", "x^2*y^2"):
        "b0dbfcf9c5900641a4b41f01c88438cd368882b1bb4e9046216145b0a32e1fbe",
    ("dbl-3-4-8-1", "F101", "x^4", "y^3"):
        "079c7c9f14e8c8a5ba394cee9ff360e21d377e087ec3ce51a44926c42769cf6d",
    ("dbl-3-4-8-1", "F101", "x^4 + 100*y^3", "x^2*y^2"):
        "867ec49c496aa7b79166387908f2880ca2a3ef4979a074edf8131d88df4c8b2d",
    ("space-pair", "QQ", "x*y", "z^2"):
        "c5d7059ca799d105068b6409d482a6f96f06fe6ecf7c1b08bb8f1ade5cc47244",
    ("space-pair", "QQ", "x*y - z^2", "y^2"):
        "62e469b0d813cf5ef306415e9d92fdd8024259f9e986eea03e7707acf7b85940",
    ("space-pair", "F101", "x*y", "z^2"):
        "efbae6c479d7230b1e60c79e66b513b5076268811ccd430d5324de1c2fcf29d2",
    ("space-pair", "F101", "x*y + 100*z^2", "y^2"):
        "2fbcd3a69e88231a96d779786fb7762a9ee7808aa7321cc12b7381dc6fb1ec64",
    ("tangent-pair", "QQ", "x^2", "y"):
        "2c25ebc28bd0921cd3ee7f8aa9930cef5fd8d72546476452881506cc3fa29d83",
    ("tangent-pair", "F101", "x^2", "y"):
        "0ddc863b1fb1557de197e52ddb2db7de60f0aa622829c98a4397a429f84abd51",
    ("tower-1", "QQ", "x^3", "y^2"):
        "13d1d78a2dd059ad57930c920348d92d02a426be1425c39ed7cae646f9d37c93",
    ("tower-1", "F101", "x^3", "y^2"):
        "87f6185e1fc7cd76d18444c779f3792ab2d43c252b3b9fc31655a4186ed34143",
    ("tower-2", "QQ", "x^4", "y^3"):
        "8fe51f256cb06327e876e6becae8f3144d3ca9a63eabfadd7c513498eab4b327",
    ("tower-2", "F101", "x^4", "y^3"):
        "c163c9c4e28149ee4c9ef80404ea250fb23fc3daf8917f5efa78b8a363c35a1b",
    ("tower-3", "QQ", "x^5", "y^2"):
        "94c4583333422b95ec0a77c4cd0c326784a639697e0d7361b5d8b55b579c4e7e",
    ("tower-3", "F101", "x^5", "y^2"):
        "edad2f01703688864dc0013ded12180d211559003d96c8eff69671b4295edba2",
    ("space-1", "QQ", "x^2*y", "z^2"):
        "7d50d5a87d6659cac6c9af6357a95edc5e0a4f29947d3bf55005c1949145f775",
    ("space-1", "F101", "x^2*y", "z^2"):
        "2b1838e2e930b9b8b280001fed6c9905f2a1821a5f9531fc3065ec2b16bd61fe",
    ("space-2", "QQ", "x*y", "z^2"):
        "98bbd983f6504df81debe71f7ea8fab64e22eb08a8ae105267505a10235328ec",
    ("space-2", "F101", "x*y", "z^2"):
        "e905eae18e850f9e5dc909346f9f897b2b663243fdee878acdfd647def2d1638",
    ("implicit-6-9-10", "QQ", "x^3", "y^2"):
        "30f2f5a51bc2f2ce36491dacef80322f0873a49e18579d05073f22f7b21d2288",
    ("implicit-6-9-10", "F101", "x^3", "y^2"):
        "6d5e8d8721ccb3064304196b9e8a75af58ab4bf5be554343a164d7db3f130f7e",
    ("implicit-4-6-7-9", "QQ", "x^3", "y^2"):
        "ff34ffec0f64f015ba510f382187df6e0a670611f1ea1d881462f5882914bc58",
    ("implicit-4-6-7-9", "F101", "x^3", "y^2"):
        "5e079de671fca2e9f57b4af182e961f9bbb059cc05507fadee1753792f8573ff",
}
PARAMETRIC_CALLS = {
    ("dbl-2-3-7-0", "QQ"): 2,
    ("dbl-2-3-7-0", "F101"): 2,
    ("dbl-2-3-8-0", "QQ"): 2,
    ("dbl-2-3-8-0", "F101"): 2,
    ("dbl-2-5-11-0", "QQ"): 2,
    ("dbl-2-5-11-0", "F101"): 2,
    ("dbl-2-5-12-0", "QQ"): 2,
    ("dbl-2-5-12-0", "F101"): 2,
    ("dbl-3-4-8-1", "QQ"): 2,
    ("dbl-3-4-8-1", "F101"): 2,
    ("space-pair", "QQ"): 2,
    ("space-pair", "F101"): 2,
    ("tangent-pair", "QQ"): 1,
    ("tangent-pair", "F101"): 1,
    ("tower-1", "QQ"): 1,
    ("tower-1", "F101"): 1,
    ("tower-2", "QQ"): 1,
    ("tower-2", "F101"): 1,
    ("tower-3", "QQ"): 1,
    ("tower-3", "F101"): 1,
    ("space-1", "QQ"): 1,
    ("space-1", "F101"): 1,
    ("space-2", "QQ"): 1,
    ("space-2", "F101"): 1,
    ("implicit-6-9-10", "QQ"): 1,
    ("implicit-6-9-10", "F101"): 1,
    ("implicit-4-6-7-9", "QQ"): 1,
    ("implicit-4-6-7-9", "F101"): 1,
}


def _determinants(curve, field):
    """The decide's report and its (str(f), str(g), digest) per pencil."""
    pencils = []
    inner = parametric.parametric_intersection

    def record(f, g, ideal):
        po = inner(f, g, ideal)
        items = sorted((d, e, str(c)) for (d, e), c in po.determinant.items())
        pencils.append((str(f), str(g),
                        hashlib.sha256(repr(items).encode()).hexdigest()))
        return po

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parametric, "parametric_intersection", record)
        rep = decide_irreducible(_curve(*curve, field))
    return rep, pencils


@pytest.mark.parametrize("cid, fid", PARAMETRIC_CALLS)
def test_pencil_determinants_of_the_table_curves_match_their_pins(cid, fid):
    curve = TWO_BRANCH_CURVES.get(cid) or PRIME_TOWER_CURVES[cid]
    field = {"QQ": QQ, "F101": GF(101)}[fid]
    rep, pencils = _determinants(curve, field)
    assert rep.stats["parametric_calls"] == PARAMETRIC_CALLS[cid, fid]
    assert len(pencils) == PARAMETRIC_CALLS[cid, fid]
    for f, g, digest in pencils:
        assert DETERMINANT_PINS.get((cid, fid, f, g)) == digest, (f, g)


# --------------------------------------------- values the descent holds

@pytest.mark.parametrize("cid", [
    *(cid for cid in TWO_BRANCH_CURVES if cid != "tangent-pair"), "stretch"])
def test_each_descent_step_reads_its_value_from_the_memo(cid):
    """The screen's candidate and each descent step seed the handle's
    intersection memo with the value their pencil found, so every pencil
    on a polynomial f with several terms finds I(f) there."""
    curve = STRETCH_CURVE if cid == "stretch" else TWO_BRANCH_CURVES[cid]
    seen = []
    inner = parametric._pencil_value

    def record(f, ideal):
        if len(f.terms) > 1:
            seen.append(("intersection", f.key()) in ideal._memo)
        return inner(f, ideal)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parametric, "_pencil_value", record)
        rep = decide_irreducible(_curve(*curve, QQ))
    assert rep.stats["descent_steps"] >= 1
    assert seen and all(seen)


def test_a_wrong_value_in_the_intersection_memo_is_caught_by_the_pencil():
    """I(x^3 - y^2) = 14 on (y^2 - x^3)^2 - x^7; a memo seeded with 16,
    the value of x^4, fails the pencil's check of det(M_f)."""
    I = _curve(*TWO_BRANCH_CURVES["dbl-2-3-7-0"], QQ)
    ctx = I.ctx
    f = parse_poly("x^3 - y^2", ctx)
    assert intersection_number(f, _curve(*TWO_BRANCH_CURVES["dbl-2-3-7-0"],
                                         QQ)) == 14
    I.cached(("intersection", f.key()), lambda: 16)
    with pytest.raises(AlgebroidError, match=r"det\(M_f\) has pivot order 14"):
        parametric.parametric_test(f, parse_poly("x^4", ctx), I)


# ------------------------------------------- curves with large coefficients

def _scaled(texts, a, b):
    """The generators after x -> a*x, y -> b*y."""
    out = []
    for t in texts:
        t = re.sub(r"\bx\b", f"({a}*x)", t)
        out.append(re.sub(r"\by\b", f"({b}*y)", t))
    return tuple(out)


@pytest.mark.parametrize("cid, a, b, verdict, kind", [
    ("dbl-2-3-7-0", 100003, 100019, "reducible", "two_tropisms"),
    ("tower-2", 10000019, 10000079, "irreducible", "prime_tropism"),
])
def test_large_scalings_decide_within_two_seconds(cid, a, b, verdict, kind):
    """The pencil's rational roots come from p-adic lifting, not from the
    divisors of coefficients that grow with the scaling."""
    variables, texts = TWO_BRANCH_CURVES.get(cid) or PRIME_TOWER_CURVES[cid]
    I = _curve(variables, _scaled(texts, a, b), QQ)
    start = time.perf_counter()
    report = decide_irreducible(I)
    assert time.perf_counter() - start < 2
    assert (report.verdict, report.certificate.kind) == (verdict, kind)
