"""Case-2 rays, read from the pencil's Newton polygon.

A case-2 verdict carries its pencil, and ``decide._rays_for_false`` reads
the rays of the ideal J1 = I + (v1 - h1), which adjoins its attachment,
from the Newton polygon of the determinant with no tropism test and no
intersection number on J1; the certificate's verification is the one
exact check.  These tests build the ideal J with both attachments from
the recorded handle, f, g and verdict (``pencil_attachments``), and check
that the verdict's value and the pencil's other exceptional value are the
intersection numbers of both attachments, that the sliced test runs on
the certificate's ideal once per certified ray and only in verification,
that the rays J carries project onto the certificate's, and the rays of
the stretch curve over F_7 and Q.  The polygon, read up to its top with
the shift over Q in integers, is checked against the oracle that reads
every order of the determinant on the field's kernels.  The module is
also run under ``python -O``.
"""

import functools
import random
import re
from fractions import Fraction

import pytest

import oracles
from algebroid import decide, localalg, parametric
from algebroid.decide import decide_irreducible, verify_certificate
from algebroid.groebner import IdealHandle
from algebroid.localalg import base_weights, intersection_number
from algebroid.polyring import RingCtx, parse_poly, wdot
from algebroid.scalars import GF, QQ
from pencil_attachments import two_attachment_ideal
from test_decide import (F5TH, TWO_BRANCH_CURVES, record_tropism_checks,
                         verified_rays)

FIELDS = {"Q": QQ, "F101": GF(101), "F7": GF(7)}

# The double-branch curves of the benchmark's two_branch workload.
DOUBLE_BRANCH = {
    "dbl-2-3-7-0": ("x y", ("(y^2 - x^3)^2 - x^7",)),
    "dbl-2-3-8-0": ("x y", ("(y^2 - x^3)^2 - x^8",)),
    "dbl-2-5-11-0": ("x y", ("(y^2 - x^5)^2 - x^11",)),
    "dbl-2-5-12-0": ("x y", ("(y^2 - x^5)^2 - x^12",)),
    "dbl-3-4-8-1": ("x y", ("(y^3 - x^4)^2 - x^8*y",)),
    "space-pair": ("x y z", ("x^3 - y^2", "(z^2 - x*y)^2 - x^2*y*z^2")),
}

# Curves whose two pencil parameters are conjugate over the base field,
# so the verdict lifts to a quadratic extension; with their rays.
CONJUGATE = {
    "conj-2-3-7": ("x y", ("(y^2 - x^3)^2 + x^7",),
                   {(2, 3, 7), (2, 3, 8)}),
    "conj-2-3-8": ("x y", ("(y^2 - x^3)^2 + 2*x^8",),
                   {(2, 3, 8), (2, 3, 10)}),
    "conj-3-4-8": ("x y", ("(y^3 - x^4)^2 + x^8*y",),
                   {(3, 4, 14), (3, 4, 16)}),
}

CASES = ([(cid, fid) for cid in DOUBLE_BRANCH for fid in FIELDS]
         + [("conj-2-3-7", "Q"), ("conj-2-3-7", "F7"),
            ("conj-2-3-8", "Q"), ("conj-3-4-8", "Q")])


def _ideal(variables, texts, field):
    ctx = RingCtx(field, tuple(variables.split()))
    return IdealHandle(tuple(parse_poly(t, ctx) for t in texts), ctx)


@functools.lru_cache(maxsize=None)
def _instrumented(cid, fid):
    """Decide one curve, recording the case-2 verdict with its handle, f
    and monomial g, the sliced tropism tests and the ideal of every
    intersection number asked."""
    variables, texts = (DOUBLE_BRANCH[cid] if cid in DOUBLE_BRANCH
                        else CONJUGATE[cid][:2])
    verdicts, asked = [], []
    pencil_test = decide.parametric_test

    def record_verdict(f, g, handle):
        verdict = pencil_test(f, g, handle)
        if verdict.result == "false":
            verdicts.append((verdict, base_weights(handle), handle, f, g))
        return verdict

    def record_ideal(f, ideal):
        asked.append(ideal)
        return intersection_number(f, ideal)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide, "parametric_test", record_verdict)
        checks = record_tropism_checks(mp)
        for module in (decide, localalg, parametric):
            mp.setattr(module, "intersection_number", record_ideal)
        rep = decide_irreducible(_ideal(variables, texts, FIELDS[fid]))
    (verdict, w, handle, f, g), = verdicts
    return rep, verdict, w, checks, asked, handle, f, g


def _values(verdict, handle):
    """The exceptional values at beta and at the second parameter of
    ``two_attachment_ideal``: another base-field root, or a conjugate of
    beta, which shares its class's value.  beta is a conjugate exactly
    when the verdict's ring is not the tested handle, and its class is
    that ring's defining polynomial."""
    if verdict.ideal is not handle:
        factor = verdict.ideal.ctx.field.extension + (1,)
        other = next(ev for ev in verdict.pencil.exceptional
                     if ev.factor == factor)
    else:
        other = next(ev for ev in verdict.pencil.exceptional
                     if ev.beta is not None and ev.beta != verdict.beta)
    return verdict.value, other.value


@pytest.mark.parametrize("cid, fid", CASES)
def test_case2_values_are_the_intersection_numbers_in_J(cid, fid):
    rep, verdict, _, _, _, handle, f, g = _instrumented(cid, fid)
    assert verdict.result == "false" and verdict.case == 2
    assert (verdict.ideal is not handle) == (cid in CONJUGATE)
    J = two_attachment_ideal(handle, f, g, verdict)
    assert _values(verdict, handle) == tuple(
        intersection_number(J.ctx.var(name), J)
        for name in J.ctx.variables[-2:])
    J1, name = decide._extend_with(verdict.ideal, verdict.attachment)
    assert intersection_number(J1.ctx.var(name), J1) == verdict.value
    assert rep.verdict == "reducible"
    assert rep.certificate.kind == "two_tropisms"
    if cid in CONJUGATE:
        assert set(rep.certificate.data) == CONJUGATE[cid][2]
    assert verify_certificate(rep.certificate) == (True, "ok")


@pytest.mark.parametrize("cid, fid", CASES)
def test_case2_search_tests_two_rays_and_counts_nothing_in_J(cid, fid):
    rep, verdict, w, checks, asked, *_ = _instrumented(cid, fid)
    assert decide.gcd_weights(w) == 2
    assert verified_rays(checks, rep.certificate) == sorted(
        rep.certificate.data)
    J, _ = decide._extend_with(verdict.ideal, verdict.attachment)
    assert not any(getattr(ideal, "ctx", None) == J.ctx for ideal in asked)


@pytest.mark.parametrize("cid, fid", CASES)
def test_the_two_attachment_rays_project_onto_the_certificate(cid, fid):
    """wb + (vbar + d1, vbar) and wb + (vbar, vbar + d2) are tropisms of
    J, which attaches both v1 and v2, and drop onto the certificate's
    rays in J1."""
    rep, verdict, w, _, _, handle, f, g = _instrumented(cid, fid)
    J = two_attachment_ideal(handle, f, g, verdict)
    wb = tuple(e // 2 for e in w)
    vbar = wdot(wb, next(iter(g.terms)))
    d1, d2 = (value - 2 * vbar for value in _values(verdict, handle))
    old = {wb + (vbar + d1, vbar), wb + (vbar, vbar + d2)}
    assert all(decide._monomial_witness(J, ray) is None for ray in old)
    assert {ray[:-1] for ray in old} == set(rep.certificate.data)
    assert rep.certificate.ideal.ctx.nvars == handle.ctx.nvars + 1
    assert rep.certificate.ideal.ctx.variables == J.ctx.variables[:-1]


STRETCH = "((y^2 - x^3)^2 - x^5*y)^2 - x^11*y^2"


def _check_stretch_curve(field):
    rep = decide_irreducible(_ideal("x y", (STRETCH,), field))
    assert rep.verdict == "reducible"
    assert rep.certificate.kind == "two_tropisms"
    assert set(rep.certificate.data) == {(4, 6, 13, 28), (4, 6, 13, 29)}
    assert [n for n, _ in rep.certificate.transcript] == ["z", "u"]
    assert verify_certificate(rep.certificate) == (True, "ok")


def test_stretch_curve_rays_over_F7():
    _check_stretch_curve(GF(7))


def test_stretch_curve_rays_over_Q():
    _check_stretch_curve(QQ)


# ------------------------------------------- the polygon against its oracle

def _scaled(texts, a, b):
    """The generators after x -> a*x, y -> b*y, as the benchmark scales
    its curves."""
    return tuple(re.sub(r"\by\b", f"({b}*y)", re.sub(r"\bx\b", f"({a}*x)", t))
                 for t in texts)


@functools.lru_cache(maxsize=None)
def _ray_calls(cid, fid, a, b):
    """The (arguments, result) of every ``_rays_for_false`` call in the
    decide of one two_branch curve scaled by (a, b)."""
    variables, texts = TWO_BRANCH_CURVES[cid]
    field = {"Q": QQ, "F101": GF(101), "F5th": F5TH}[fid]
    calls, rays_for_false = [], decide._rays_for_false

    def record(*args):
        out = rays_for_false(*args)
        calls.append((args, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide, "_rays_for_false", record)
        decide_irreducible(_ideal(variables, _scaled(texts, a, b), field))
    return calls


def _oracle_rays(args):
    """``_rays_for_false`` with its polygon read by the oracle from every
    order of the determinant it was given."""
    seen, coefficients = [], decide._coefficients

    def record(D, field):
        seen.append(D)
        return coefficients(D, field)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide, "_coefficients", record)
        mp.setattr(decide, "_polygon_rays",
                   lambda coeffs, *rest: oracles.polygon_rays(seen[-1], *rest))
        return decide._rays_for_false(*args)


SCALINGS = {"Q": ((1, 1), (3, -5), (-7, 2)), "F101": ((1, 1), (17, 58)),
            "F5th": ((1, 1), (2, 3))}


@pytest.mark.parametrize("cid", TWO_BRANCH_CURVES)
@pytest.mark.parametrize("fid", SCALINGS)
def test_the_polygon_up_to_top_gives_the_oracle_rays(cid, fid):
    """Every case-2 verdict, and the INF verdict of the tangent pair, has
    the same attachment and rays when the polygon reads every order of
    the determinant on the field's kernels."""
    kinds = set()
    for a, b in SCALINGS[fid]:
        calls = _ray_calls(cid, fid, a, b)
        assert calls
        for args, (h, rays) in calls:
            verdict = args[2]
            kinds.add("INF" if verdict.value is decide.INF else verdict.case)
            oh, orays = _oracle_rays(args)
            assert (oh.key(), orays) == (h.key(), rays)
    assert kinds == ({"INF"} if cid == "tangent-pair" else {2})


def _horner_support(ck, beta, field):
    """The k with a nonzero a^k coefficient of ck(a + beta), by Horner's
    rule on the field's kernels."""
    zero, shifted = field.zero(), []
    for c in reversed(ck):
        shifted = [field.add(field.mul(beta, x), y)
                   for x, y in zip(shifted + [zero], [zero] + shifted)]
        shifted[0] = field.add(shifted[0], c)
    return [k for k, c in enumerate(shifted) if not field.is_zero(c)]


def test_the_integer_shift_vanishes_where_the_fraction_shift_does():
    rng, vanished = random.Random(50), 0
    for _ in range(400):
        p = rng.choice((-1, 1)) * rng.randint(1, 40)
        q = 1 if rng.random() < 0.25 else rng.randint(1, 40)
        beta = p if q == 1 else Fraction(p, q)
        # ck has the root beta of multiplicity up to 3, so the low
        # coefficients of ck(a + beta) vanish, times a random cofactor
        ck = [1]
        for _ in range(rng.randint(0, 3)):
            ck = [q * y - p * x for x, y in zip(ck + [0], [0] + ck)]
        for _ in range(rng.randint(0, 3)):
            r = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            ck = [x * r + y for x, y in zip(ck + [0], [0] + ck)]
        if rng.random() < 0.3:
            # coefficients scaled one by one, so the root is likely gone
            ck = [Fraction(c) / rng.randint(1, 12) for c in ck]
        want = _horner_support(ck, Fraction(beta), QQ)
        assert decide._shifted_support(ck, beta, QQ) == want
        vanished += want[0] > 0
    assert vanished > 100


@pytest.mark.parametrize("p", [5, 101, 2 ** 31 - 1])
def test_the_integer_shift_over_a_prime_field_matches_horner(p):
    rng, field = random.Random(p), GF(p)
    for _ in range(200):
        beta = rng.randrange(p)
        ck = [1]
        for _ in range(rng.randint(0, 3)):
            ck = [(y - beta * x) % p for x, y in zip(ck + [0], [0] + ck)]
        for _ in range(rng.randint(0, 4)):
            r = rng.randrange(p)
            ck = [(x * r + y) % p for x, y in zip(ck + [0], [0] + ck)]
        assert (decide._shifted_support(ck, beta, field)
                == _horner_support(ck, beta, field))
