"""The local order's tie-break and homogenizing grading: InvLex and
HomogenizedLocalOrder are monomial orders, the answers a decide reads
from local standard bases (initial ideals and intersection numbers) are
those of the old DegRevLex tie-break and of the grading by the weights,
and every ordering of the variables of the table curves still decides
as expected."""

import itertools
import operator
import random
from dataclasses import dataclass
from math import prod

import pytest

from algebroid import decide, localalg, parametric
from algebroid.decide import _initial_handle, decide_irreducible
from algebroid.groebner import IdealHandle, buchberger
from algebroid.localalg import (base_weights, initial_ideal,
                                intersection_number, local_colength,
                                local_lead_monomials)
from algebroid.polyring import (
    DegRevLex,
    HomogenizedLocalOrder,
    InvLex,
    RingCtx,
    TermOrder,
    mono_divisible,
    mono_mul,
)
from algebroid.scalars import GF, QQ

from test_decide import (
    F5TH,
    NOT_RADICAL_OVER_F2,
    PRIME_TOWER_CURVES,
    SLICE_FIELDS,
    SLICE_IDS,
    TWO_BRANCH_CURVES,
    _curve,
    _decide_recording_initial_handles,
    _distinct_scalars,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


# ------------------------------------------------------ monomial orders

def _monomials(n, count):
    return st.lists(st.tuples(*[st.integers(0, 6)] * n),
                    min_size=count, max_size=count)


@st.composite
def _invlex_cases(draw):
    n = draw(st.integers(1, 4))
    return InvLex(), draw(_monomials(n, 3))


@st.composite
def _local_cases(draw):
    """Half of the gradings v are the weights w, half are drawn apart.
    Half of the pairs tie on v-degree and h-exponent, as a + v_i*e_j and
    a + v_j*e_i, so the w-degree decides them, or the tie-break when v is
    w."""
    w = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=4)))
    v = w if draw(st.booleans()) else tuple(
        draw(st.lists(st.integers(1, 9), min_size=len(w), max_size=len(w))))
    a, b, c = draw(_monomials(len(w) + 1, 3))
    if len(w) > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, len(w) - 1), min_size=2,
                             max_size=2, unique=True))
        b = tuple(e + (v[j] if k == i else 0) for k, e in enumerate(a))
        a = tuple(e + (v[i] if k == j else 0) for k, e in enumerate(a))
    return HomogenizedLocalOrder(w, v), (a, b, c)


def _check_monomial_order(order, a, b, c):
    """Total on a, b and on every monomial of exponents at most 2,
    compatible with multiplication by c, and with 1 the least."""
    key = order.key
    one = (0,) * len(a)
    if a != b:
        assert key(a) != key(b)
    box = list(itertools.product(range(3), repeat=len(a)))
    assert len({key(m) for m in box}) == len(box)
    if key(a) < key(b):
        assert key(mono_mul(a, c)) < key(mono_mul(b, c))
    if a != one:
        assert key(one) < key(a)


_SEEDED = hypothesis.settings(derandomize=True, database=None,
                              max_examples=300, deadline=None)


@_SEEDED
@hypothesis.given(_invlex_cases())
def test_invlex_is_a_monomial_order(case):
    order, (a, b, c) = case
    _check_monomial_order(order, a, b, c)
    if a != b:
        assert (order.key(a) < order.key(b)) == (a[::-1] < b[::-1])


@_SEEDED
@hypothesis.given(_local_cases())
def test_homogenized_local_order_is_a_monomial_order_refining_the_degrees(
        case):
    order, (a, b, c) = case
    _check_monomial_order(order, a, b, c)
    w, v = order.weights, order.grading

    def degrees(m):
        return (sum(vi * e for vi, e in zip(v, m)) + m[-1],
                -sum(wi * e for wi, e in zip(w, m)))

    if degrees(a) < degrees(b):
        assert order.key(a) < order.key(b)


# ------------------------------------- the old tie-break, for comparison

@dataclass(frozen=True)
class _DegRevLexTieOrder(TermOrder):
    """The homogenized local order with its former DegRevLex tie-break."""

    weights: tuple
    grading: tuple

    def key(self, mono):
        a, c = mono[:-1], mono[-1]
        wa = sum(wi * ai for wi, ai in zip(self.weights, a))
        va = sum(vi * ai for vi, ai in zip(self.grading, a))
        return (va + c, -wa, (sum(a), tuple(-e for e in reversed(a))))


def _under_the_old_tie_break(answer):
    """``answer()`` computed on fresh handles with the old tie-break."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localalg, "HomogenizedLocalOrder", _DegRevLexTieOrder)
        return answer()


def _recording_intersection_numbers(mp):
    """Record (generators, ring, f, value) for every intersection number
    taken, through every module that takes one."""
    seen = []
    inner = localalg.intersection_number

    def record(f, ideal):
        value = inner(f, ideal)
        handle = ideal if isinstance(ideal, IdealHandle) \
            else IdealHandle(tuple(ideal))
        seen.append((handle.generators, handle.ctx, f, value))
        return value

    for module in (localalg, decide, parametric):
        mp.setattr(module, "intersection_number", record)
    return seen


def _check_against_the_old_tie_break(I, expected_verdict=None):
    with pytest.MonkeyPatch.context() as mp:
        numbers = _recording_intersection_numbers(mp)
        rep, built = _decide_recording_initial_handles(I)
    if expected_verdict is not None:
        assert rep.verdict == expected_verdict
    cert = rep.certificate
    visited = {(id(handle), w): (handle, w, K) for handle, w, K in built}
    if cert.kind == "two_tropisms":
        assert all((id(cert.ideal), ray) in visited for ray in cert.data)
    assert numbers
    drl = DegRevLex()
    for handle, w, K in visited.values():
        fresh = IdealHandle(handle.generators, handle.ctx)
        old = _under_the_old_tie_break(lambda: initial_ideal(fresh, w))
        assert buchberger(list(K.generators), drl) == buchberger(old, drl)
    checked = set()
    for gens, ctx, f, value in numbers:
        key = (ctx, tuple(g.key() for g in gens), f.key())
        if key in checked:
            continue
        checked.add(key)
        fresh = IdealHandle(gens, ctx)
        assert _under_the_old_tie_break(
            lambda: intersection_number(f, fresh)) == value


@pytest.mark.parametrize("field", SLICE_FIELDS, ids=SLICE_IDS)
def test_the_table_curves_read_the_old_tie_breaks_answers(field):
    """Over F_2 some two-branch curves are prime, (y^2 + x^3)^2 + x^7
    among them, so the verdict is checked in odd characteristic only."""
    for table, verdict in ((TWO_BRANCH_CURVES, "reducible"),
                           (PRIME_TOWER_CURVES, "irreducible")):
        for cid, (variables, texts) in table.items():
            if field.characteristic == 2 and cid in NOT_RADICAL_OVER_F2:
                continue
            _check_against_the_old_tie_break(
                _curve(variables, texts, field),
                None if field.characteristic == 2 else verdict)


@pytest.mark.parametrize("field", SLICE_FIELDS, ids=SLICE_IDS)
def test_seeded_plane_products_read_the_old_tie_breaks_answers(field):
    """prod_k (y^a - c_k x^b), a and b coprime, distinct nonzero c_k."""
    ctx = RingCtx(field, ("x", "y"))
    x, y = ctx.var("x"), ctx.var("y")
    rng = random.Random(f"tie-break-{field!r}")
    nonzero = [c for c in _distinct_scalars(rng, field, 13)
               if not field.is_zero(field.coerce(c))]
    for _ in range(4):
        a, b = rng.choice([(1, 1), (1, 2), (2, 3), (3, 2), (2, 5), (3, 4)])
        cs = rng.sample(nonzero, min(rng.randint(1, 3), len(nonzero)))
        f = prod((y ** a - ctx.const(c) * x ** b for c in cs), start=ctx.one())
        _check_against_the_old_tie_break(
            IdealHandle([f], ctx),
            "reducible" if len(cs) >= 2 else "irreducible")


# ---------------------------------- the grading, against grading by w

def _graph_ideal(rng, field, k):
    """The curve (y^a - c x^b)^2 - c' x^(2b+1) with k = 1 or 2 adjoined
    coordinates, by graph relations z - fdef_1 and maybe u - fdef_2, where
    fdef_1 = y^a - c x^b and fdef_2 = z^2 - c' x^(2b+1), as a tower of
    approximate roots has them.  One definition ends in a high-degree
    tail, as a bent attachment does."""
    ctx = RingCtx(field, ("x", "y", "z", "u")[:2 + k])
    x, y = ctx.var(0), ctx.var(1)
    c, c2 = (ctx.const(e) for e in rng.sample(
        [e for e in _distinct_scalars(rng, field, 9)
         if not field.is_zero(field.coerce(e))], 2))
    b, a = rng.choice([(2, 3), (3, 2), (3, 4)])
    curve = (y ** a - c * x ** b) ** 2 - c2 * x ** (2 * b + 1)
    defs = [y ** a - c * x ** b]
    if k == 2:
        defs.append(ctx.var(2) ** 2 - c2 * x ** (2 * b + 1))
    bent = rng.randrange(k)
    defs[bent] = defs[bent] + c * x ** rng.randint(2 * b + 2, 3 * b + 1)
    return ([curve] + [ctx.var(2 + j) - fdef for j, fdef in enumerate(defs)],
            ctx)


def _local_answers(gens, ctx, w):
    """Minimal local leads at w, the colengths of the ideal's sums with
    (x) and with (y), and the reduced basis of the initial ideal K at w,
    each on a fresh handle."""
    def fresh(extra=()):
        return IdealHandle(tuple(gens) + extra, ctx)

    leads = set(local_lead_monomials(fresh(), w))
    minimal = sorted(m for m in leads if not any(
        o != m and mono_divisible(m, o) for o in leads))
    return (minimal, local_colength(fresh((ctx.var(0),))),
            local_colength(fresh((ctx.var(1),))),
            _initial_handle(fresh(), w).groebner())


@pytest.mark.parametrize("field", [QQ, GF(7), F5TH], ids=["Q", "F7", "F5th"])
def test_the_grading_reads_the_answers_of_grading_by_the_weights(field):
    """At the base weights, at adjoined weights shifted from them, and at
    all-ones weights, where colengths are taken: the grading lowers some
    adjoined weights to the top degree of their definitions and raises
    others to the lowest.  The all-ones runs of two adjoined coordinates
    under v = w take seconds, so they are left out."""
    rng = random.Random(f"grading-{field!r}")
    lowered = raised = False
    for k in (1, 2) * 2:
        gens, ctx = _graph_ideal(rng, field, k)
        bw = base_weights(IdealHandle(gens, ctx))
        shifted = bw[:2] + tuple(e + rng.randint(-2, 4) for e in bw[2:])
        for w in (bw, shifted) + ((1,) * ctx.nvars,) * (k == 1):
            v = localalg._grading(gens, w)
            lowered |= any(map(operator.lt, v, w))
            raised |= any(map(operator.gt, v, w))
            got = _local_answers(gens, ctx, w)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(localalg, "_grading", lambda gens, w: w)
                assert _local_answers(gens, ctx, w) == got, (gens, w)
    assert lowered and raised


# ------------------------------------------------- variable orderings

ALLOWED_KINDS = {"reducible": {"two_tropisms", "monomial_witness"},
                 "irreducible": {"prime_tropism"}}
ORDERINGS = [(cid, " ".join(perm), texts, verdict)
             for table, verdict in ((TWO_BRANCH_CURVES, "reducible"),
                                    (PRIME_TOWER_CURVES, "irreducible"))
             for cid, (variables, texts) in table.items()
             for perm in itertools.permutations(variables.split())]


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "F101"])
def test_every_variable_order_of_the_table_curves_decides(field):
    assert len(ORDERINGS) == 40
    for cid, variables, texts, verdict in ORDERINGS:
        rep = decide_irreducible(_curve(variables, texts, field))
        assert rep.verdict == verdict, (cid, variables)
        assert rep.certificate.kind in ALLOWED_KINDS[verdict], (cid, variables)
