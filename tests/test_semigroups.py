"""Semigroup membership, relation ideals, gcd and conductor."""

import random
import time

import pytest

from algebroid import semigroups
from algebroid.errors import AlgebroidError, NotPrimitive
from algebroid.groebner import buchberger
from algebroid.polyring import INF, BlockOrder, DegRevLex, RingCtx
from algebroid.scalars import GF, QQ
from algebroid.semigroups import (
    conductor,
    gcd_weights,
    membership,
    prim_generators,
)

from oracles import (
    s_unit_pow,
    semi_conductor,
    semi_gaps,
    semi_member,
    witness_by_division,
)


def test_membership_examples():
    assert membership(5, (2, 3)) == (1, 1)
    assert membership(1, (2, 3)) is None
    assert membership(13, (4, 6)) is None
    assert membership(0, (2, 3)) == (0, 0)
    assert membership(-4, (2, 3)) is None
    assert membership(0.0, (2, 3)) is None
    assert membership(2.0, (2, 3)) is None


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


def _differential_vectors():
    # The reference takes one division step per generator it moves out of
    # t^N, so its cost grows like N / min(w); five vectors keep it short.
    rng = random.Random(11)
    vectors = [(26, 26), (22, 11, 11), (13, 8)]
    while len(vectors) < 5:
        vectors.append(tuple(rng.randrange(2, 30)
                             for _ in range(rng.randrange(2, 5))))
    return vectors


DIFFERENTIAL_N = sorted(set(range(201)) | {
    2 ** k + d for k in range(8, 13) for d in (-1, 0, 1)})


@pytest.mark.parametrize("w", _differential_vectors(), ids=str)
def test_membership_matches_the_division_reference(w):
    gb, _, _ = semigroups._elimination_data(w)
    basis = [g.terms for g in gb]
    key = BlockOrder(1, DegRevLex(), DegRevLex()).key
    for N in DIFFERENTIAL_N:
        assert membership(N, w) == witness_by_division(
            N, basis, key, QQ, range(len(w)), len(w)), N


@pytest.mark.parametrize("w", [(2, 3), (4, 6, 13), (8, 12, 10, 26)], ids=str)
def test_toric_bases_over_q_have_int_coefficients(w):
    gb = semigroups._elimination_data(w)[0]
    assert all(type(c) is int for g in gb for c in g.terms.values())


def test_membership_for_huge_n():
    start = time.perf_counter()
    c = membership(10 ** 12 + 1, (3, 5))
    assert c is not None and 3 * c[0] + 5 * c[1] == 10 ** 12 + 1
    assert membership(10 ** 12 + 1, (4, 6)) is None
    assert time.perf_counter() - start < 1.0


def test_a_basis_of_non_unit_binomials_is_refused(monkeypatch):
    def doubled(gens, order):
        return [g + g for g in buchberger(gens, order)]

    monkeypatch.setattr(semigroups, "buchberger", doubled)
    semigroups._elimination_data.cache_clear()
    with pytest.raises(AlgebroidError, match="semigroup membership"):
        membership(7, (2, 3))
    monkeypatch.undo()
    assert membership(7, (2, 3)) == (2, 1)


@pytest.mark.parametrize("w", [(2, INF), (INF, INF), (), (0, 3)], ids=str)
def test_weights_other_than_positive_ints_are_refused(w):
    for query in (lambda: membership(4, w), lambda: gcd_weights(w),
                  lambda: conductor(w), lambda: prim_generators(w)):
        with pytest.raises(ValueError):
            query()


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
        for g in prim_generators(w, ctx):
            assert len(g.terms) == 2, "relation generators are binomials"
            ((a, ca), (b, cb)) = sorted(g.terms.items())
            assert {QQ.coerce(ca), QQ.coerce(cb)} == {1, -1}
            assert sum(ai * wi for ai, wi in zip(a, w)) == \
                sum(bi * wi for bi, wi in zip(b, w))


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


def test_conductor_examples():
    assert conductor((2, 3)) == 2
    assert conductor((1, 5)) == 0
    assert conductor((4, 6, 13)) == 16


def test_conductor_requires_primitive():
    with pytest.raises(NotPrimitive):
        conductor((4, 6))


def test_conductor_raises_a_typed_error_on_an_unreached_residue(monkeypatch):
    monkeypatch.setattr(semigroups, "gcd_weights", lambda w: 1)
    with pytest.raises(AlgebroidError, match="conductor"):
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
        membership(3, (0, 3))
    with pytest.raises(ValueError):
        conductor((INF,))


def test_oracle_preconditions_hold_under_python_O():
    # ValueError, not assert: this file also runs under python -O
    with pytest.raises(ValueError, match="gcd 1"):
        semi_gaps((4, 6))
    with pytest.raises(ValueError, match="constant term"):
        s_unit_pow([2, 1, 0], 3)
