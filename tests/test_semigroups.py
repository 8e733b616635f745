"""Semigroup membership, relation ideals, gcd and conductor."""

import random

import pytest

from algebroid import semigroups
from algebroid.errors import AllInfinite, NotPrimitive
from algebroid.groebner import buchberger
from algebroid.polyring import INF, RingCtx
from algebroid.scalars import GF, QQ
from algebroid.semigroups import (
    SemigroupSpec,
    conductor,
    gcd_weights,
    membership,
    prim_generators,
)

from oracles import semi_conductor, semi_member


def test_membership_examples():
    assert membership(5, (2, 3)) == (1, 1)
    assert membership(1, (2, 3)) is None
    assert membership(13, (4, 6)) is None
    assert membership(0, (2, 3)) == (0, 0)
    assert membership(-4, (2, 3)) is None


def test_membership_witness_hits_value():
    rng = random.Random(3)
    pool = [(2, 3), (4, 6, 13), (5, 7, 9), (4, 6, 15), (8, 12, 10, 25)]
    for w in pool:
        for _ in range(40):
            n = rng.randint(0, 120)
            c = membership(n, w)
            if c is not None:
                assert sum(ci * wi for ci, wi in zip(c, w)) == n
            assert (c is not None) == semi_member(n, list(w))


def test_membership_ignores_infinite_entries():
    assert membership(4, (2, INF)) == (2, 0)
    assert membership(5, (2, INF)) is None


def test_membership_all_infinite():
    with pytest.raises(AllInfinite):
        membership(3, (INF, INF))


def test_prim_generators_cusp():
    ctx = RingCtx(QQ, ("x", "y"))
    gens = prim_generators((2, 3), ctx)
    assert len(gens) == 1
    assert gens[0] in (ctx.poly("x^3 - y^2"), ctx.poly("y^2 - x^3"))


def test_prim_generators_vanish_under_substitution():
    rng = random.Random(9)
    pool = [(2, 3), (4, 6, 13), (8, 12, 10, 25), (3, 5, 7)]
    for w in pool:
        ctx = RingCtx(QQ, tuple(f"x{i}" for i in range(len(w))))
        t_ring = RingCtx(QQ, ("t",))
        t = t_ring.var("t")
        for g in prim_generators(w, ctx):
            assert len(g.terms) == 2, "relation generators are binomials"
            ((a, ca), (b, cb)) = sorted(g.terms.items())
            assert {QQ.coerce(ca), QQ.coerce(cb)} == {1, -1}
            assert sum(ai * wi for ai, wi in zip(a, w)) == \
                sum(bi * wi for bi, wi in zip(b, w))
            image = g.subs({f"x{i}": t ** wi for i, wi in enumerate(w)})
            assert image.is_zero()


def test_prim_generators_known_family():
    from algebroid.groebner import IdealHandle, ideal_membership
    ctx = RingCtx(QQ, ("x", "y", "z", "u"))
    gens = prim_generators((8, 12, 10, 25), ctx)
    named = [ctx.poly("x^3 - y^2"), ctx.poly("z^2 - x y"),
             ctx.poly("u^2 - x y z^3")]
    ours = IdealHandle(gens, ctx)
    theirs = IdealHandle(named, ctx)
    assert all(ideal_membership(g, theirs) for g in gens)
    assert all(ideal_membership(g, ours) for g in named)


def test_prim_generators_single_weight():
    ctx = RingCtx(QQ, ("x",))
    assert prim_generators((1,), ctx) == []
    assert prim_generators((7,), ctx) == []


def test_prim_generators_respects_field():
    ctx = RingCtx(GF(2), ("x", "y"))
    gens = prim_generators((2, 3), ctx)
    assert len(gens) == 1
    assert gens[0] == ctx.poly("x^3 + y^2")


def test_prim_generators_reuse_the_membership_basis(monkeypatch):
    builds = []

    def counted(gens, order):
        builds.append(order)
        return buchberger(gens, order)

    monkeypatch.setattr(semigroups, "buchberger", counted)
    w = (7, 9, 17)
    membership(40, w)
    before = len(builds)
    for field in (QQ, GF(2), GF(7)):
        ctx = RingCtx(field, ("x", "y", "z"))
        assert prim_generators(w, ctx)
    assert len(builds) == before


def test_gcd_weights():
    assert gcd_weights((4, 6)) == 2
    assert gcd_weights((4, 6, 15)) == 1
    assert gcd_weights((2, INF)) == 2
    with pytest.raises(AllInfinite):
        gcd_weights((INF,))


def test_conductor_examples():
    assert conductor((2, 3)) == 2
    assert conductor((1, 5)) == 0
    assert conductor((4, 6, 13)) == 16


def test_conductor_requires_primitive():
    with pytest.raises(NotPrimitive):
        conductor((4, 6))


def test_conductor_matches_oracle():
    rng = random.Random(21)
    import math
    trials = 0
    while trials < 15:
        gens = sorted({rng.randint(2, 14) for _ in range(rng.randint(2, 4))})
        if len(gens) < 2 or math.gcd(*gens) != 1:
            continue
        trials += 1
        assert conductor(tuple(gens)) == semi_conductor(gens)


def test_conductor_definition_holds():
    for w in [(2, 3), (4, 6, 13), (3, 5, 7), (4, 6, 15)]:
        c = conductor(w)
        assert membership(c, w) is not None
        for n in range(c, c + 25):
            assert membership(n, w) is not None
        if c > 0:
            assert membership(c - 1, w) is None


def test_semigroup_spec_validation():
    with pytest.raises(ValueError):
        SemigroupSpec((0, 3))
    with pytest.raises(AllInfinite):
        SemigroupSpec((INF,))
