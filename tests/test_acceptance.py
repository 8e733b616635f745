"""Acceptance gate: ten end-to-end criteria, one test (one pass/fail
line under ``pytest -v``) per criterion, and the hard inputs pinned with
a budget each.  All arithmetic is exact, so every comparison below is
strict equality; the timed criteria carry their own wall-clock
budgets."""

import hashlib
import json
import random
import time
from dataclasses import replace

import pytest

from algebroid.cli import certificate_json
from algebroid.decide import (
    _primitive,
    decide_irreducible,
    value_semigroup,
    verify_certificate,
)
from algebroid.errors import ContextViolation
from algebroid.groebner import IdealHandle, buchberger, ideal_membership
from algebroid.localalg import base_weights, initial_ideal, intersection_number
from algebroid.parametric import (
    FreeBasis,
    _det,
    mult_matrix,
    parametric_intersection,
    parametric_test,
)
from algebroid.polyring import (
    DegRevLex,
    Poly,
    RingCtx,
    in_w,
    normal_form,
    ord_w,
    parse_poly,
    wdot,
)
from algebroid.sagbi import Parametrization, sagbi_complete
from algebroid.scalars import GF, QQ
from algebroid.semigroups import membership, prim_generators

from oracles import semi_member
from test_decide import (_check_the_seeded_bases,
                         _decide_recording_initial_handles,
                         _three_cusp_branches)

_SUITE_START = time.monotonic()

SPECS = {
    "double_branch": (("x", "y"), ("(y^2 - x^3)^2 - x^7",), QQ),
    "char_two": (("x", "y"), ("(y^2 + x^3)^2 + x^7",), GF(2)),
    "minors": (("x", "y", "z"),
               ("(x^3 + y^2)*x - y*z^2", "y^2 - x*z",
                "z^3 - (x^3 + y^2)*y"), QQ),
    "space": (("x", "y", "z"),
              ("x^3 - y^2", "(z^2 - x*y)^2 - x^2*y*z^2"), QQ),
    "one_step": (("x", "y"), ("(y^2 - x^3)^2 - x^2*y^3",), QQ),
}

REPORTS = {}


def handle_of(names, *texts, field=QQ):
    ctx = RingCtx(field, names)
    return IdealHandle(tuple(parse_poly(t, ctx) for t in texts), ctx), ctx


def report(key):
    if key not in REPORTS:
        names, texts, field = SPECS[key]
        handle, _ = handle_of(names, *texts, field=field)
        REPORTS[key] = decide_irreducible(handle)
    return REPORTS[key]


def same_ideal(gens_a, gens_b, ctx):
    A = IdealHandle(tuple(gens_a), ctx)
    B = IdealHandle(tuple(gens_b), ctx)
    return (all(ideal_membership(g, A) for g in B.generators)
            and all(ideal_membership(g, B) for g in A.generators))


def random_poly(rng, ctx):
    while True:
        items = []
        for _ in range(rng.randrange(1, 5)):
            mono = tuple(rng.randrange(0, 5) for _ in range(ctx.nvars))
            items.append((mono, ctx.field.from_int(rng.randrange(-6, 7) or 1)))
        p = Poly.from_items(items, ctx)
        if not p.is_zero():
            return p


def test_criterion_01_double_branch_rays_and_determinant():
    start = time.monotonic()
    rep = report("double_branch")
    assert rep.verdict == "reducible"
    assert rep.certificate.kind == "two_tropisms"
    assert set(rep.certificate.data) == {(2, 3, 7), (2, 3, 8)}
    names, texts, field = SPECS["double_branch"]
    I, ctx = handle_of(names, *texts, field=field)
    po = parametric_intersection(parse_poly("x^3 - y^2", ctx),
                                 parse_poly("x^2*y", ctx), I)
    assert po.generic_value == 14
    assert {(ev.beta, ev.value) for ev in po.exceptional} == \
        {(1, 15), (-1, 15)}
    assert po.determinant == {(0, 14): 1, (2, 14): -2, (4, 14): 1,
                              (4, 15): -1}
    assert time.monotonic() - start < 5.0


def test_criterion_02_char_two_tropism_and_initial_ideal():
    start = time.monotonic()
    rep = report("char_two")
    assert rep.verdict == "irreducible"
    assert rep.certificate.kind == "prime_tropism"
    assert rep.certificate.data == (4, 6, 15)
    big = rep.certificate.ideal.ctx
    got = initial_ideal(rep.certificate.ideal, (4, 6, 15))
    expected = (parse_poly("x^3 + y^2", big), parse_poly("y^5 + z^2", big))
    assert same_ideal(got, expected, big)
    assert time.monotonic() - start < 5.0


def test_criterion_03_monomial_witness_is_immediate():
    start = time.monotonic()
    names, texts, field = SPECS["minors"]
    handle, ctx = handle_of(names, *texts, field=field)
    assert base_weights(handle) == (5, 6, 7)
    rep = report("minors")
    assert rep.verdict == "reducible"
    assert rep.certificate.kind == "monomial_witness"
    assert rep.certificate.data == parse_poly("x*y^2", ctx)
    assert rep.stats["parametric_calls"] == 0
    assert time.monotonic() - start < 2.0


def test_criterion_04_space_curve_rays_and_pencil():
    start = time.monotonic()
    rep = report("space")
    assert rep.verdict == "reducible"
    assert set(rep.certificate.data) == {(4, 6, 5, 12), (4, 6, 5, 14)}
    names, texts, field = SPECS["space"]
    I, ctx = handle_of(names, *texts, field=field)
    po = parametric_intersection(parse_poly("z^2 - x*y", ctx),
                                 parse_poly("y^2", ctx), I)
    assert po.generic_value == 24
    assert {(ev.beta, ev.value) for ev in po.exceptional} == \
        {(1, 26), (-1, 26)}
    assert time.monotonic() - start < 10.0


def test_criterion_05_colength_matches_monomial_valuations():
    quart, qctx = handle_of(("x", "y"), "x^3 - y^4")
    assert intersection_number(parse_poly("x*y^2", qctx), quart) == 10
    pool = [
        (handle_of(("x", "y"), "y^2 - x^3")[0], (2, 3)),
        (quart, (4, 3)),
        (handle_of(("x", "y", "z"),
                   "x^3 - y*z", "y^2 - x*z", "z^2 - x^2*y")[0], (3, 4, 5)),
    ]
    for handle, bw in pool:
        assert base_weights(handle) == bw
    rng = random.Random(20260815)
    for k in range(20):
        handle, bw = pool[k % 3]
        exps = tuple(rng.randrange(0, 4) for _ in bw)
        if not any(exps):
            exps = (1,) + exps[1:]
        assert intersection_number(handle.ctx.mono(exps), handle) == \
            wdot(bw, exps)


def test_criterion_06_determinant_order_equals_colength():
    quart, qctx = handle_of(("x", "y"), "x^3 - y^4")
    mono, mctx = handle_of(("x", "y", "z"),
                           "x^3 - y*z", "y^2 - x*z", "z^2 - x^2*y")
    instances = [(quart, qctx, pivot, expr)
                 for pivot in ("x", "y")
                 for expr in ("y^2", "x*y", "x + y")]
    instances += [(mono, mctx, pivot, expr)
                  for pivot in ("x", "y", "z")
                  for expr in ("y + z", "x^2 + y*z")]
    assert len(instances) >= 10
    for handle, ctx, pivot, expr in instances:
        f = parse_poly(expr, ctx)
        n = intersection_number(f, handle)
        basis = FreeBasis(handle, ctx.index(pivot))
        assert basis.rank == intersection_number(ctx.var(pivot), handle)
        det = _det(mult_matrix(f, basis, 2 * n + 6), basis.rank, ctx.field,
                   2 * n + 6)
        assert det and min(e for (_, e) in det) == n


def test_criterion_07_semigroup_membership_cross_check():
    rng = random.Random(7)
    t_ring = RingCtx(QQ, ("t",))
    for _ in range(10):
        size = rng.randrange(2, 5)
        w = tuple(rng.randrange(2, 30) for _ in range(size))
        gens = sorted(set(w))
        for N in range(0, 201):
            witness = membership(N, w)
            assert (witness is not None) == semi_member(N, gens)
            if witness is not None:
                assert wdot(w, witness) == N
        for b in prim_generators(w):
            folded = Poly.from_items(
                [((wdot(w, m),), c) for m, c in b.terms.items()], t_ring)
            assert folded.is_zero()


def test_criterion_08_value_semigroup_agrees_with_completion():
    start = time.monotonic()
    rep = report("one_step")
    assert rep.verdict == "irreducible"
    assert rep.certificate.data == (4, 6, 13)
    assert len(rep.certificate.transcript) == 1
    names, texts, field = SPECS["one_step"]
    I, _ = handle_of(names, *texts, field=field)
    _, w = value_semigroup(I)
    assert w == (4, 6, 13)
    t_ring = RingCtx(QQ, ("t",))
    xi = Parametrization.from_polynomials(
        [t_ring.poly("t^4"), t_ring.poly("t^6 + t^7")])
    assert sagbi_complete(xi).orders == (4, 6, 13)
    assert time.monotonic() - start < 10.0


def test_criterion_09_certificates_verify_and_mutations_fail():
    for key in SPECS:
        assert verify_certificate(report(key).certificate) == (True, "ok")
    two = report("double_branch").certificate
    scaled = replace(two, data=(tuple(2 * e for e in two.data[0]),
                                two.data[1]))
    ok, reason = verify_certificate(scaled)
    assert not ok and "primitive" in reason
    prime = report("char_two").certificate
    dropped = replace(prime, transcript=())
    ok, reason = verify_certificate(dropped)
    assert not ok and "transcript" in reason


def test_certificates_check_the_same_on_a_fresh_handle():
    """The decide handle arrives with a full memo; a handle rebuilt from
    the same generators starts cold and must give the same answer."""
    certs = [report(key).certificate for key in SPECS]
    two = report("double_branch").certificate
    first, second = two.data
    bumped = _primitive(first[:-1] + (second[-1] + 1,))
    assert bumped not in two.data
    certs.append(replace(two, data=(bumped, second)))
    for cert in certs:
        cold = IdealHandle(cert.ideal.generators, cert.ideal.ctx)
        outcome = verify_certificate(cert)
        assert verify_certificate(replace(cert, ideal=cold)) == outcome
    assert not outcome[0] and "ray 1" in outcome[1]


def test_criterion_10_algebraic_property_suite():
    rng = random.Random(101)
    for _ in range(100):
        field = QQ if rng.random() < 0.5 else GF(rng.choice((2, 5, 13)))
        ctx = RingCtx(field, ("x", "y", "z"))
        w = tuple(rng.randrange(1, 9) for _ in range(3))
        f, g = random_poly(rng, ctx), random_poly(rng, ctx)
        assert ord_w(f * g, w) == ord_w(f, w) + ord_w(g, w)
        assert in_w(f * g, w) == in_w(f, w) * in_w(g, w)
    ctx = RingCtx(QQ, ("x", "y", "z"))
    order = DegRevLex()
    gb = buchberger([parse_poly("x^3 - y*z", ctx),
                     parse_poly("y^2 - x*z", ctx)], order)
    for _ in range(25):
        r = normal_form(random_poly(rng, ctx), gb, order)
        assert normal_form(r, gb, order) == r
    for key in SPECS:
        hist = report(key).stats["weight_history"]
        for prev, cur in zip(hist, hist[1:]):
            assert cur[:-1] == prev
            assert membership(cur[-1], prev) is None
    cusp_ctx = RingCtx(QQ, ("x", "y"))
    cusp = IdealHandle((parse_poly("y^2 - x^3", cusp_ctx),), cusp_ctx)
    with pytest.raises(ContextViolation):
        parametric_test(parse_poly("y^2", cusp_ctx),
                        parse_poly("x^3", cusp_ctx), cusp)


# Inputs whose local standard bases once cost seconds: the bend curve,
# whose saturation bends the attachment, and a tacnode probe; a double
# branch whose pivot rules once ran past a cap of 400 homogenising
# powers; and three cusp branches over Q, whose Buchberger rows grew
# fractions until they were kept integral.  Each certificate's digest is
# the SHA-256 of its sorted-key JSON.
HARD_INPUTS = {
    "bend-Q": ("(y^2 - x^3)*((y^2 - x^3)^2 - x^7)", QQ, (
        "fff44674a6fc95803b38a82fc13c6e49d2a88240f01e354c8c9ec473c3a616e9")),
    "bend-F101": ("(y^2 - x^3)*((y^2 - x^3)^2 - x^7)", GF(101), (
        "da9770b3f84b78d8b6b55dce213042a0b25e237098c22a16e6f2ef443a6257f7")),
    "tacnode-Q": ("(y^2 - x^3)^2 - x^4*y^2", QQ, (
        "09338f4b28c4158c617295d8e6b1f83dd0149f9e263b689b93330ea3dcae37a8")),
    "x999-Q": ("(y^2 - x^3)^2 - x^999", QQ, (
        "547c29f8d3444757071d2e87b45232c3de667cf0f6531625642a648f986cc026")),
    "three-cusps-5-6-7-Q": (_three_cusp_branches((5, 6, 7)), QQ, (
        "6d42617ce3137c56ea1848b82a8e80d8cd57772c025e001aa2d4d0487344b59c")),
}


# Twin products: two branches whose initial forms agree up to a high
# order.  Their local standard bases at the adjoined coordinate's
# intersection number ran past 30 s while that number graded the
# coordinate (``localalg._grading``).
TWIN_PRODUCT = "((y^3 - x^4)^2 + 9*x^12*y)*((y^3 - x^4)^2 + 7*x^9*y^2)"
TWIN_PRODUCTS = {
    "twin-Q": (TWIN_PRODUCT, QQ, (
        "20d1312af849363be447fee1a43394f2ee396e8d36a1f8d2919dd9c26b2c4572")),
    "twin-F101": (TWIN_PRODUCT, GF(101), (
        "8de4ac2dc217515083bb8211008e65860a507daffff66e5f27373d8e1a5d6653")),
}


def _check_certified_within_budget(text, field, kind, pin):
    handle, _ = handle_of(("x", "y"), text, field=field)
    start = time.monotonic()
    rep = decide_irreducible(handle)
    assert time.monotonic() - start < 1.0
    assert rep.verdict == "reducible"
    assert rep.certificate.kind == kind
    assert verify_certificate(rep.certificate) == (True, "ok")
    text = json.dumps(certificate_json(rep.certificate), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == pin


@pytest.mark.parametrize("case", HARD_INPUTS)
def test_hard_inputs_certify_within_their_budget(case):
    text, field, pin = HARD_INPUTS[case]
    _check_certified_within_budget(text, field, "two_tropisms", pin)


@pytest.mark.parametrize("case", TWIN_PRODUCTS)
def test_twin_products_certify_within_their_budget(case):
    text, field, pin = TWIN_PRODUCTS[case]
    _check_certified_within_budget(text, field, "monomial_witness", pin)


@pytest.mark.parametrize("case", HARD_INPUTS)
def test_the_sliced_test_agrees_at_the_hard_input_rays(case):
    """At every weight and certified ray of the decide, the sliced test
    answers as the Rabinowitsch search does."""
    text, field, _ = HARD_INPUTS[case]
    handle, _ = handle_of(("x", "y"), text, field=field)
    _check_the_seeded_bases(*_decide_recording_initial_handles(handle))


def test_suite_runtime_stays_under_budget():
    assert time.monotonic() - _SUITE_START < 120.0
