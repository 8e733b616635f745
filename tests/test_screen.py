"""The screen's stop rule: ``decide._screen_round`` tests no binomial
above the lowest w-degree with an escape.  A copy of the screen that
pencil-tests every binomial first, monkeypatched in, gives the same
verdicts, kinds and certificates on the table curves in every variable
order, the hard inputs, the Newton-polygon curves and seeded plane
products, with at least as many pencils; and ``value_semigroup`` reads
the same weights either way."""

import itertools
import json
import random
from math import prod

import pytest

from algebroid import decide
from algebroid.cli import certificate_json
from algebroid.decide import (
    _call_test,
    _initial_handle,
    _nf_ratio_resolves,
    decide_irreducible,
    value_semigroup,
)
from algebroid.errors import AlgebroidError, NonRadicalSuspected
from algebroid.groebner import (IdealHandle, ideal_membership,
                                radical_membership)
from algebroid.polyring import RingCtx, ord_w, wdot
from algebroid.scalars import GF, QQ
from algebroid.semigroups import prim_generators

from test_acceptance import HARD_INPUTS, handle_of
from test_decide import (
    PIN_FIELDS,
    POLYGON_RAYS,
    PRIME_TOWER_CURVES,
    STRETCH_CURVE,
    TWO_BRANCH_CURVES,
    _curve,
    _distinct_scalars,
    plane_ideal,
)

FIELDS = {"Q": QQ, "F7": GF(7), "F101": GF(101)}
ORDERINGS = [(cid, " ".join(perm), texts)
             for cid, (variables, texts) in {**TWO_BRANCH_CURVES,
                                             **PRIME_TOWER_CURVES}.items()
             for perm in itertools.permutations(variables.split())]


def _exhaustive_screen_round(handle, w, *, stats):
    """The screen as it was before the stop rule: every binomial's pencil
    is run, and the least escape by (w-degree, key) is kept."""
    ctx = handle.ctx
    in_handle = _initial_handle(handle, w)
    binomials = prim_generators(w, ctx)
    binomials.sort(key=lambda b: (ord_w(b, w), b.key()))
    escapes = []
    for b in binomials:
        items = sorted(b.terms.items(), reverse=True)
        (m1, _), (m2, _) = items
        if _nf_ratio_resolves(m1, m2, in_handle):
            continue
        f = ctx.mono(m1)
        g = ctx.mono(m2)
        v = _call_test(f, g, handle, stats=stats)
        if v.result == "false":
            return ("false", v, f, g)
        cand = f - g.scale(v.beta)
        escapes.append((wdot(w, m1), cand.key(), cand, v.value))
    if not escapes:
        return ("radical",)
    escapes.sort(key=lambda t: (t[0], t[1]))
    _, _, f, value = escapes[0]
    if not radical_membership(f, in_handle):
        raise NonRadicalSuspected(
            "the resolved binomial does not vanish on the initial ideal's "
            "zero set; the input contract is violated")
    if ideal_membership(f, in_handle):
        raise NonRadicalSuspected(
            "the resolved binomial lies in the initial ideal despite the "
            "normal-form screen; the input contract is violated")
    return ("candidate", f, value)


def _outcome(make, exhaustive):
    """(verdict, kind, sorted-key certificate JSON) of a decide of the
    fresh handle ``make()``, or the name of the typed error it raised;
    with the number of pencils it ran."""
    pencils = []
    inner = decide.parametric_test

    def count(f, g, ideal):
        pencils.append((f, g))
        return inner(f, g, ideal)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide, "parametric_test", count)
        if exhaustive:
            mp.setattr(decide, "_screen_round", _exhaustive_screen_round)
        try:
            rep = decide_irreducible(make())
        except AlgebroidError as exc:
            return (type(exc).__name__,), len(pencils)
    cert = json.dumps(certificate_json(rep.certificate), sort_keys=True)
    return (rep.verdict, rep.certificate.kind, cert), len(pencils)


def _check_both_screens(makers):
    """Both screens agree on every input; returns the pencil counts
    summed over the inputs, (stop rule, exhaustive)."""
    lazy_total = full_total = 0
    for label, make in makers:
        lazy, lazy_pencils = _outcome(make, exhaustive=False)
        full, full_pencils = _outcome(make, exhaustive=True)
        assert lazy == full, label
        assert lazy_pencils <= full_pencils, label
        lazy_total += lazy_pencils
        full_total += full_pencils
    return lazy_total, full_total


@pytest.mark.parametrize("fid", FIELDS)
def test_both_screens_agree_on_every_variable_order_of_the_table_curves(fid):
    assert len(ORDERINGS) == 40
    field = FIELDS[fid]
    makers = [((cid, variables),
               lambda variables=variables, texts=texts:
               _curve(variables, texts, field))
              for cid, variables, texts in ORDERINGS]
    lazy, full = _check_both_screens(makers)
    # the space curves test fewer pencils in every field
    assert lazy < full


def test_both_screens_agree_on_the_hard_inputs_and_the_stretch_curve():
    makers = [(case, lambda text=text, field=field:
               handle_of(("x", "y"), text, field=field)[0])
              for case, (text, field, _) in HARD_INPUTS.items()]
    _check_both_screens(makers)
    stretch = [(f"stretch-{fid}", lambda field=field:
                _curve(*STRETCH_CURVE, field))
               for fid, field in FIELDS.items()]
    # one pencil fewer in each field, 4 against 5
    assert _check_both_screens(stretch) == (12, 15)


def test_both_screens_agree_on_the_polygon_ray_curves():
    makers = [(f"{cid}-{fid}", lambda text=text, fid=fid:
               plane_ideal(text, PIN_FIELDS[fid])[0])
              for cid, (text, fids, _, _) in POLYGON_RAYS.items()
              for fid in fids]
    _check_both_screens(makers)


@pytest.mark.parametrize("fid", FIELDS)
def test_both_screens_agree_on_seeded_plane_products(fid):
    """prod_k (y^a - c_k x^b), a and b coprime, distinct nonzero c_k."""
    field = FIELDS[fid]
    ctx = RingCtx(field, ("x", "y"))
    x, y = ctx.var("x"), ctx.var("y")
    rng = random.Random(f"screen-{fid}")
    nonzero = [c for c in _distinct_scalars(rng, field, 13)
               if not field.is_zero(field.coerce(c))]
    makers = []
    for _ in range(4):
        a, b = rng.choice([(1, 1), (1, 2), (2, 3), (3, 2), (2, 5), (3, 4)])
        cs = rng.sample(nonzero, min(rng.randint(1, 3), len(nonzero)))
        f = prod((y ** a - ctx.const(c) * x ** b for c in cs), start=ctx.one())
        makers.append((str(f), lambda f=f: IdealHandle([f], ctx)))
    _check_both_screens(makers)


@pytest.mark.parametrize("fid", ["Q", "F101"])
def test_both_screens_give_the_prime_towers_the_same_value_semigroup(fid):
    for cid, (variables, texts) in PRIME_TOWER_CURVES.items():
        lazy = value_semigroup(_curve(variables, texts, FIELDS[fid]))[1]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decide, "_screen_round", _exhaustive_screen_round)
            full = value_semigroup(_curve(variables, texts, FIELDS[fid]))[1]
        assert lazy == full, cid
