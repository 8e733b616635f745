"""Semigroup membership, relation ideals, gcd and conductor."""

import ast
import functools
import inspect
import itertools
import random
import sys
import threading
import time

import pytest

from algebroid import semigroups
from algebroid.errors import AlgebroidError, NotPrimitive, SolverLimitation
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
    fewest_witnesses,
    periodic_onset,
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


def test_a_bool_value_is_not_a_member():
    assert membership(True, (2, 3)) is None
    assert membership(False, (2, 3)) is None
    assert membership(True, (1,)) is None


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
    # t^N, so its cost grows like N / min(w); nine vectors keep it short.
    # They hold repeated weights, a weight of 1 and a single weight.
    rng = random.Random(11)
    vectors = [(26, 26), (22, 11, 11), (13, 8), (7, 29, 28, 28), (1, 5),
               (5,)]
    while len(vectors) < 9:
        vectors.append(tuple(rng.randrange(2, 30)
                             for _ in range(rng.randrange(2, 5))))
    return vectors


def _differential_n(w):
    """N up to 200, every N from B - m to B + 2m, where B is membership's
    table bound and m the largest weight, so each residue meets the lift
    past B, and N near powers of two.  Where 2B + m <= 200 that holds all
    of [0, 2B + m]."""
    m = max(w)
    bound = (m - 1) * sum({g for g in w if g < m})
    return sorted(set(range(201)) | set(range(max(0, bound - m),
                                              bound + 2 * m + 1)) | {
        2 ** k + d for k in range(8, 13) for d in (-1, 0, 1)})


_ELIMINATION = BlockOrder(1, DegRevLex(), DegRevLex())


@functools.lru_cache(maxsize=None)
def _elimination_basis(w):
    """The reduced basis of <g_i - t^(w_i)> with t in a front block.  The
    normal form of t^N is g^c with c membership's witness, and the t-free
    elements form the reduced DegRevLex basis of the relation ideal."""
    ctx = RingCtx(QQ, ("t",) + tuple(f"g{i}" for i in range(len(w))))
    t_free = (0,) * len(w)
    return buchberger([ctx.var(slot) - ctx.mono((g,) + t_free)
                       for slot, g in enumerate(w, 1)], _ELIMINATION)


def _agrees_with_division(w, ns):
    basis = [g.terms for g in _elimination_basis(w)]
    key = _ELIMINATION.key
    for N in ns:
        assert membership(N, w) == witness_by_division(
            N, basis, key, QQ, range(len(w)), len(w)), N


@pytest.mark.parametrize("w", _differential_vectors(), ids=str)
def test_membership_matches_the_division_reference(w):
    _agrees_with_division(w, _differential_n(w))


def test_membership_matches_the_division_reference_on_large_weights():
    # About a thousand division steps; membership lifts N past its table
    # bound 996003 and reads a table of that length.
    _agrees_with_division((997, 1000), [10 ** 6 + 3])


@pytest.mark.parametrize("w", [(2, 3), (4, 6, 13), (8, 12, 10, 26)], ids=str)
def test_toric_bases_over_q_have_int_coefficients(w):
    gb = prim_generators(w)
    assert gb and all(type(c) is int for g in gb for c in g.terms.values())


# The vectors of perfbench's semigroup_queries workload.
_WORKLOAD_VECTORS = [
    (26, 26), (8, 8), (22, 11, 11), (21, 26), (26, 28), (11, 23), (15, 9),
    (28, 16, 16, 8), (24, 11), (6, 26), (22, 7), (24, 7), (23, 6),
    (7, 29, 28, 28), (2, 16, 24), (8, 5), (12, 14, 18), (7, 9),
    (18, 3, 16, 3), (13, 29, 5), (13, 29, 29, 14), (24, 5, 20), (7, 12, 4),
    (14, 19, 20, 4), (13, 27, 16, 18), (15, 11, 13), (28, 8, 22, 17)]


def _relation_vectors():
    """Over 150 seeded vectors of one to five weights in 1..29, with the
    workload's vectors, repeated weights, weights of 1 and single
    weights."""
    rng = random.Random(49)
    vectors = _WORKLOAD_VECTORS + [(1,), (5,), (1, 1), (1, 5), (3, 1, 3),
                                   (9, 9, 9), (2, 3), (8, 12, 10, 25)]
    while len(vectors) < 190:
        vectors.append(tuple(rng.randint(1, 29)
                             for _ in range(rng.randint(1, 5))))
    return vectors


def test_prim_generators_are_the_t_free_elimination_basis():
    for w in _relation_vectors():
        expected = [list((m[1:], c) for m, c in g.terms.items())
                    for g in _elimination_basis(w)
                    if not any(m[0] for m in g.terms)]
        assert [list(g.terms.items()) for g in prim_generators(w)] == \
            expected, w


def test_the_witness_oracle_is_the_least_of_every_fewest_sum():
    # Against every exponent vector of value N, on small N.
    for w in [(2, 3), (3, 1, 3), (4, 6, 5), (2, 2, 7), (5, 3, 4, 3)]:
        least = fewest_witnesses(w, 40)
        for N in range(41):
            sums = [c for c in itertools.product(
                        *(range(N // g + 1) for g in w))
                    if sum(a * g for a, g in zip(c, w)) == N]
            fewest = [c for c in sums
                      if sum(c) == min(map(sum, sums))]
            assert least[N] == max(fewest, key=lambda c: c[::-1],
                                   default=None), (w, N)


def test_membership_is_the_least_fewest_sum_up_to_b_plus_2m():
    # Every N from 0 to B + 2m, B membership's table bound and m the
    # largest weight, so each residue meets the lift past B.
    for w in _relation_vectors():
        m = max(w)
        top = (m - 1) * sum({g for g in w if g < m}) + 2 * m
        assert [membership(N, w) for N in range(top + 1)] == \
            fewest_witnesses(w, top), w


def _bound(w):
    """membership's a-priori bound B = (m - 1) * (sum of the distinct
    weights below the largest weight m)."""
    m = max(w)
    return (m - 1) * sum({g for g in w if g < m})


def test_the_table_stops_at_the_onset_of_the_oracle():
    # The onset bounds every relation's degree, and B bounds the onset.
    for w in _relation_vectors():
        onset, m = periodic_onset(w), max(w)
        relations = prim_generators(w)  # grows the table to its onset
        assert semigroups._fewest_counts(w).onset == onset, w
        assert onset <= _bound(w) + 1, w
        assert all(sum(a * e for a, e in zip(next(iter(g.terms)), w))
                   < onset + m for g in relations), w


def test_cold_tables_grow_only_to_the_onset_window():
    # With the a-priori bound B the tables would hold B + m + 1 = 1250
    # and 21732 entries.
    for w, query in [((13, 27, 16, 18), prim_generators),
                     ((101, 103, 107), lambda w: membership(10 ** 6 + 3, w))]:
        semigroups._fewest_counts.cache_clear()
        semigroups._relations.cache_clear()
        query(w)
        held = len(semigroups._fewest_counts(w).run)
        assert held == periodic_onset(w) + max(w) < _bound(w) + max(w), w


def test_relations_without_an_onset_window_raise_a_typed_error(
        monkeypatch):
    semigroups._fewest_counts.cache_clear()
    monkeypatch.setattr(semigroups._fewest_counts((13, 27, 16, 18)),
                        "bound", 0)
    with pytest.raises(AlgebroidError, match="no onset window"):
        semigroups._relations.__wrapped__((13, 27, 16, 18))


def test_relations_read_off_the_witnesses():
    # Each tail is its degree's witness and each lead is not; a lead with
    # any one generator taken off is the witness of what remains.
    for w in _relation_vectors():
        for g in prim_generators(w):
            (lead, _), (tail, _) = g.terms.items()
            degree = sum(a * e for a, e in zip(lead, w))
            assert membership(degree, w) == tail != lead, (w, g)
            for i, g_i in enumerate(w):
                if lead[i]:
                    below = lead[:i] + (lead[i] - 1,) + lead[i + 1:]
                    assert membership(degree - g_i, w) == below, (w, g, i)


def test_semigroups_imports_nothing_from_groebner():
    tree = ast.parse(inspect.getsource(semigroups))
    assert not any(isinstance(node, ast.ImportFrom)
                   and (node.module or "").endswith("groebner")
                   for node in ast.walk(tree))


def test_count_tables_past_the_cap_are_refused():
    # The tables would hold about 10^9 entries or more, and the conductor's
    # Apery set one for each of 10^8 + 7 residues; each refusal comes
    # before any of them grows.
    for query in (lambda: membership(10 ** 9, (2 ** 40, 3)),
                  lambda: prim_generators((2 ** 62, 3)),
                  lambda: conductor((10 ** 8 + 7, 10 ** 8 + 8))):
        start = time.perf_counter()
        with pytest.raises(SolverLimitation, match="cap of 10000000"):
            query()
        assert time.perf_counter() - start < 1.0


def test_a_refusal_does_not_depend_on_earlier_queries():
    # B is about 10^7 here while the onset is 500, so a table that has
    # found its onset could lift 10^9 below it; a cold one refuses it, and
    # so must the warm one.
    w = tuple(range(1, 201)) + (500,)
    semigroups._fewest_counts.cache_clear()
    for _ in range(2):
        with pytest.raises(SolverLimitation, match="cap of 10000000"):
            membership(10 ** 9, w)
        assert membership(10 ** 4, w) == (0,) * 200 + (20,)


def test_membership_for_huge_n():
    start = time.perf_counter()
    c = membership(10 ** 12 + 1, (3, 5))
    assert c is not None and 3 * c[0] + 5 * c[1] == 10 ** 12 + 1
    assert membership(10 ** 12 + 1, (4, 6)) is None
    assert time.perf_counter() - start < 1.0


def test_membership_of_a_large_n_on_large_weights_is_fast():
    semigroups._fewest_counts.cache_clear()
    start = time.perf_counter()
    assert membership(10 ** 6 + 3, (101, 103, 107)) == (21, 0, 9326)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("w", [(997, 1000), (101, 103, 107)], ids=str)
def test_a_warm_query_costs_the_same_at_any_n(w):
    # The witness of 10^6 + 3 holds about a thousand generators on
    # (997, 1000) and about two hundred below B on (101, 103, 107); read
    # one generator a step, it would cost tens of times a query at 10^3.
    queries = [lambda: membership(10 ** 6 + 3, w),
               lambda: membership(10 ** 3, w)]
    queries[0]()
    best = [float("inf")] * 2
    for _ in range(7):
        for k, query in enumerate(queries):
            start = time.perf_counter()
            for _ in range(200):
                query()
            best[k] = min(best[k], time.perf_counter() - start)
    assert best[0] < 3 * best[1], best


def test_threads_growing_one_table_agree_with_one_thread():
    # Each thread asks for the relations at its own point among the
    # membership queries, so some grow the table to B + m = 2761 first.
    w, ns = (31, 37, 41), list(range(3000)) + ["relations"]
    semigroups._fewest_counts.cache_clear()
    semigroups._relations.cache_clear()
    answers = [None] * 8

    def ask_one(N):
        return prim_generators(w) if N == "relations" else membership(N, w)

    def ask(i):
        order = random.Random(i).sample(ns, len(ns))
        answers[i] = {N: ask_one(N) for N in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    semigroups._fewest_counts.cache_clear()
    semigroups._relations.cache_clear()
    alone = {N: ask_one(N) for N in ns}
    assert all(a == alone for a in answers)


@pytest.mark.parametrize("w", [(2, INF), (INF, INF), (), (0, 3), (True, 3),
                               (2, False), (1.0, 3)], ids=str)
def test_weights_other_than_positive_ints_are_refused(w):
    # (True, 3) and (1.0, 3) hash equal to (1, 3), whose table is cached.
    membership(4, (1, 3))
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


def _count_builds(monkeypatch):
    """Put an empty relation cache in place and record every relation
    table built from now on."""
    builds = []
    build = semigroups._relations.__wrapped__

    def counted(gens):
        builds.append(gens)
        return build(gens)

    monkeypatch.setattr(semigroups, "_relations",
                        functools.lru_cache(maxsize=64)(counted))
    return builds


def test_membership_builds_no_toric_basis(monkeypatch):
    builds = _count_builds(monkeypatch)
    semigroups._fewest_counts.cache_clear()
    for N in range(60):
        membership(N, (7, 9, 17))
    membership(10 ** 9, (7, 9, 17))
    assert builds == []


def test_prim_generators_build_one_basis_per_vector(monkeypatch):
    builds = _count_builds(monkeypatch)
    for w in ((7, 9, 17), (4, 6, 13)):
        for field in (QQ, GF(2), GF(7)):
            ctx = RingCtx(field, tuple(f"x{i}" for i in range(len(w))))
            assert prim_generators(w, ctx)
    assert builds == [(7, 9, 17), (4, 6, 13)]


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
