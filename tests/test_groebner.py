"""Groebner engine: the one Buchberger loop on plain and cofactor rows
(checked against the chain-criterion reference), membership, staircases,
colength, dimension and elimination."""

import random
from fractions import Fraction

import pytest

from algebroid import groebner
from algebroid.errors import SolverLimitation, UnitIdeal
from algebroid.groebner import (
    IdealHandle,
    buchberger,
    buchberger_tagged,
    colength,
    contains_monomial,
    eliminate,
    fresh_names,
    ideal_membership,
    is_unit_ideal,
    krull_dimension,
    monomial_staircase,
    radical_membership,
)
from algebroid.polyring import (
    INF,
    BlockOrder,
    DegRevLex,
    HomogenizedLocalOrder,
    Lex,
    Poly,
    RingCtx,
    WeightedOrder,
)
from algebroid.scalars import GF, QQ

import oracles
from oracles import buchberger_chain, staircase_count
from test_polyring import DIVISION_FIELDS, _random_coeff

CTX = RingCtx(QQ, ("x", "y", "z"))
CTX2 = RingCtx(QQ, ("x", "y"))


def test_buchberger_small_known():
    # <x^2 + y, x*y + x> over Q: closed form is {x^2 + y, x*y + x, y^2 + y}
    gens = [CTX2.poly("x^2 + y"), CTX2.poly("x y + x")]
    gb = buchberger(gens, DegRevLex())
    strs = {str(g) for g in gb}
    assert strs == {"x^2 + y", "x*y + x", "y^2 + y"}


def test_buchberger_matches_sympy_on_random_ideals():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(17)
    xs = sympy.symbols("x y z")

    def to_sympy(p):
        acc = 0
        for m, c in p.terms.items():
            term = sympy.Rational(Fraction(c))
            for s, e in zip(xs, m):
                term *= s ** e
            acc += term
        return acc

    for _ in range(8):
        gens = []
        for _ in range(rng.randint(2, 3)):
            items = []
            for _ in range(rng.randint(2, 4)):
                m = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
                items.append((m, QQ.coerce(rng.randint(-3, 3))))
            p = Poly.from_items(items, CTX)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        ours = buchberger(gens, DegRevLex())
        theirs = sympy.groebner([to_sympy(g) for g in gens], *xs,
                                order="grevlex")
        ours_list = [sympy.expand(to_sympy(g)) for g in ours]
        theirs_list = [sympy.expand(e) for e in theirs.exprs]
        assert len(ours_list) == len(theirs_list)
        used = set()
        for og in ours_list:
            for idx, e in enumerate(theirs_list):
                if idx in used:
                    continue
                q = sympy.cancel(e / og)
                if q.is_Rational and q != 0:
                    used.add(idx)
                    break
            else:
                raise AssertionError(f"no sympy partner for {og}")


# global orders on three variables (the homogenized local order reads the
# last one as the homogenizing variable).  An INF weight gives a monomial
# order only when the tie ranks that variable first and agrees with the
# finite weights on the others.
GROEBNER_ORDERS = (
    Lex(),
    DegRevLex(),
    WeightedOrder((INF, 2, 3), BlockOrder(1, Lex(), WeightedOrder((2, 3)))),
    BlockOrder(1),
    HomogenizedLocalOrder((2, 3)),
)



def _random_ideal(rng, ctx):
    gens = []
    for _ in range(rng.randint(2, 3)):
        items = [((rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)),
                  ctx.field.coerce(_random_coeff(rng, ctx.field)))
                 for _ in range(rng.randint(1, 4))]
        gens.append(Poly.from_items(items, ctx))
    return gens


@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=str)
def test_buchberger_matches_the_chain_criterion_reference(field):
    ctx = RingCtx(field, ("x", "y", "h"))
    rng = random.Random(41)
    for order in GROEBNER_ORDERS:
        for _ in range(10):
            gens = _random_ideal(rng, ctx)
            ref = buchberger_chain([g.terms for g in gens], order.key, field)
            got = buchberger(gens, order)
            # same polynomials, each with its terms in the same order
            assert [list(g.terms.items()) for g in got] == \
                [list(r.items()) for r in ref]
            # The same loop on unit cofactor rows: the same basis, and every
            # row is the combination its cofactors say.  Run under the pivot
            # reducer's order over every field, and under every order over
            # F_7.  Under the global orders over Q and F_5(th) the cofactors
            # of some of these ideals grow to thousands of terms (2770 on one
            # over Q), a cost of cofactor tracking itself.
            if not isinstance(order, HomogenizedLocalOrder) \
                    and field != GF(7):
                continue
            rows = [(g, tuple(ctx.one() if k == i else ctx.zero()
                              for k in range(len(gens))))
                    for i, g in enumerate(gens)]
            tagged = buchberger_tagged(rows, order)
            assert [list(p.terms.items()) for p, _ in tagged] == \
                [list(g.terms.items()) for g in got]
            for p, tags in tagged:
                combo = ctx.zero()
                for t, g in zip(tags, gens):
                    combo = combo + t * g
                assert combo == p


@pytest.mark.parametrize("texts, fewer", [
    # x^2 divides the first lead, so x^2*y^2 leaves the active basis and
    # its pair with y^3 is never formed; the reference reduces that pair
    (("x^2*y^2", "x^2 + y"), True),
    # criterion M drops new pairs whose lcm another new lcm properly divides
    (("x*h^2 - y*h", "x^2*y*h^2"), False),
])
def test_buchberger_reduces_no_more_s_polynomials_than_the_reference(
        monkeypatch, texts, fewer):
    ctx = RingCtx(QQ, ("x", "y", "h"))
    gens = [ctx.poly(t) for t in texts]
    calls = {"buchberger": 0, "reference": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(groebner, "normal_form",
                        counted("buchberger", groebner.normal_form))
    monkeypatch.setattr(oracles, "division_maxscan",
                        counted("reference", oracles.division_maxscan))
    got = buchberger(gens, DegRevLex())
    ref = buchberger_chain([g.terms for g in gens], DegRevLex().key, QQ)
    assert [list(g.terms.items()) for g in got] == \
        [list(r.items()) for r in ref]
    # both counts include one division per element of the final basis
    assert calls["buchberger"] <= calls["reference"]
    if fewer:
        assert calls["buchberger"] < calls["reference"]


def test_buchberger_char_p():
    ctx = RingCtx(GF(2), ("x", "y"))
    gens = [ctx.poly("x^2 + y"), ctx.poly("y^2 + x")]
    gb = buchberger(gens, DegRevLex())
    assert ideal_membership(ctx.poly("x^4 + x"), IdealHandle(gens))
    assert all(g.lead(DegRevLex())[1] == 1 for g in gb)


def test_tagged_rows_certify_membership():
    gens = [CTX2.poly("x^2 + y"), CTX2.poly("x y + x")]
    rows = []
    for i, g in enumerate(gens):
        tags = [CTX2.zero(), CTX2.zero()]
        tags[i] = CTX2.one()
        rows.append((g, tuple(tags)))
    out = buchberger_tagged(rows, DegRevLex())
    assert {str(r[0]) for r in out} == {"x^2 + y", "x*y + x", "y^2 + y"}
    for p, tags in out:
        assert tags[0] * gens[0] + tags[1] * gens[1] == p


def test_membership_and_unit():
    handle = IdealHandle([CTX2.poly("x^2")])
    assert ideal_membership(CTX2.poly("x^3 + x^2 y"), handle)
    assert not ideal_membership(CTX2.poly("x"), handle)
    assert not is_unit_ideal(handle)
    assert is_unit_ideal(IdealHandle([CTX2.poly("x"), CTX2.poly("x + 1")]))


def test_radical_membership():
    handle = IdealHandle([CTX2.poly("x^2")])
    assert radical_membership(CTX2.poly("x"), handle)
    assert not radical_membership(CTX2.poly("y"), handle)
    assert radical_membership(CTX2.poly("x y + x^5 y^2"), handle)
    cusp = IdealHandle([CTX2.poly("y^2 - x^3")])
    assert radical_membership(CTX2.poly("y^2 - x^3"), cusp)
    assert not radical_membership(CTX2.poly("y"), cusp)


def test_contains_monomial_finds_minimal():
    handle = IdealHandle([CTX2.poly("x + y"), CTX2.poly("x - y")])
    assert contains_monomial(handle) == (0, 1)  # y before x at degree 1
    assert contains_monomial(IdealHandle([CTX2.poly("y^2 - x^3")])) is None
    assert contains_monomial(IdealHandle([CTX2.poly("x y")])) == (1, 1)


def test_contains_monomial_names_the_power_cap(monkeypatch):
    handle = IdealHandle([CTX2.poly("x^2"), CTX2.poly("y^2")])
    monkeypatch.setattr(groebner, "_WITNESS_POWER_CAP", 1)
    with pytest.raises(SolverLimitation, match="_WITNESS_POWER_CAP = 1"):
        contains_monomial(handle)


def test_staircase_count_matches_oracle():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 3)
        gens = [tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(1, 4))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        expected = staircase_count(gens, n)
        got = monomial_staircase(gens, n)
        if expected is None:
            assert got is None
        else:
            assert len(got) == expected
            # the members are distinct monomials that no generator divides
            assert all(len(m) == n for m in got)
            assert not any(all(a >= b for a, b in zip(m, g))
                           for m in got for g in gens)


def test_colength_examples():
    assert colength(IdealHandle([CTX2.poly("x^2"), CTX2.poly("y^3")])) == 6
    assert colength(IdealHandle([CTX2.poly("x^2 - y"), CTX2.poly("y^2")])) == 4
    assert colength(IdealHandle([CTX2.poly("x")])) == INF


def test_krull_dimension():
    assert krull_dimension(IdealHandle([CTX2.poly("x y")])) == 1
    assert krull_dimension(IdealHandle([CTX2.poly("x")])) == 1
    assert krull_dimension(IdealHandle([CTX2.poly("x"), CTX2.poly("y")])) == 0
    assert krull_dimension(IdealHandle([CTX.poly("y^2 - x^3")])) == 2
    with pytest.raises(UnitIdeal):
        krull_dimension(IdealHandle([CTX2.one()]))


def test_krull_dimension_caps_the_variable_count():
    n = groebner._KRULL_VARIABLE_CAP + 1
    ctx = RingCtx(QQ, tuple(f"x{i}" for i in range(n)))
    message = f"_KRULL_VARIABLE_CAP = {n - 1} variables, got {n}"
    with pytest.raises(SolverLimitation, match=message):
        krull_dimension(IdealHandle([ctx.var(0)]))


def test_eliminate():
    ctx = RingCtx(QQ, ("t", "x", "y"))
    handle = IdealHandle([ctx.poly("t - x^2"), ctx.poly("t^2 - y")])
    kept = eliminate(handle, 1)
    assert len(kept) == 1
    assert kept[0] == ctx.poly("x^4 - y")


def test_fresh_names_avoid_collisions():
    out = fresh_names(("x", "z", "z1"), "z", 3)
    assert out == ["z2", "z3", "z4"]
    assert fresh_names(("x",), "z", 2) == ["z", "z1"]


def test_groebner_cache_reuse():
    handle = IdealHandle([CTX2.poly("x^2 - y")])
    gb1 = handle.groebner()
    gb2 = handle.groebner()
    assert gb1 is gb2
    lex = handle.groebner(Lex())
    assert lex is not gb1
