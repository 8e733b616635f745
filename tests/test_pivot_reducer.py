"""The pivot reducer's free basis: ``parametric.FreeBasis`` takes its
basis and rewrite rules from the global DegRevLex Groebner basis of
I + (pivot).  A copy of the reducer as it was before, whose rules came
from a homogenised local standard basis tried at growing homogenising
powers, monkeypatched in, gives every pencil of a decide the same
determinant, and the decide the same verdict, kind and certificate, on
the table curves in every variable order, seeded plane products and
space curves whose two staircases differ.  The determinant does not
depend on the basis: a change of basis P conjugates M_f - a*M_g."""

import itertools
import json
import random
from math import prod

import pytest

from algebroid import parametric
from algebroid.cli import certificate_json
from algebroid.decide import decide_irreducible
from algebroid.errors import AlgebroidError, TruncationExhausted
from algebroid.groebner import (IdealHandle, _row_nf, buchberger_tagged,
                                monomial_staircase)
from algebroid.localalg import (base_weights, dehomogenize, hom_ring,
                               homogenize)
from algebroid.polyring import HomogenizedLocalOrder, Poly, RingCtx, wdot
from algebroid.scalars import GF, QQ

from test_decide import (
    PRIME_TOWER_CURVES,
    TWO_BRANCH_CURVES,
    _curve,
    _distinct_scalars,
)

FIELDS = {"Q": QQ, "F7": GF(7), "F101": GF(101)}
ORDERINGS = [(cid, " ".join(perm), texts)
             for cid, (variables, texts) in {**TWO_BRANCH_CURVES,
                                             **PRIME_TOWER_CURVES}.items()
             for perm in itertools.permutations(variables.split())]
# space curves whose global and local staircases of I + (x) differ
SPACE_CURVES = {
    "ci": ("x y z", ("y*z - x^5", "y^2 - z^3 + x^4")),
    "prime": ("x y z", ("y*z - x^4 - x^3*y", "y^2 - z^3 - x^5*z")),
}
_CAP = 400


class _HomogenisedReducer(parametric.FreeBasis):
    """The reducer as it was: its basis is the local staircase of I +
    (pivot), and each rule tries homogenising powers s = 0, 1, ... of a
    homogenised standard basis until the remainder lies on that basis."""

    def __init__(self, handle, pivot):
        self.pivot = pivot
        ctx = handle.ctx
        self.ctx = ctx
        self.field = ctx.field
        self.big = hom_ring(ctx)
        w = (1,) * ctx.nvars
        self.order = HomogenizedLocalOrder(w, w)
        rows = [(homogenize(g, w, self.big), self.big.zero())
                for g in handle.generators]
        rows.append((homogenize(ctx.var(pivot), w, self.big), self.big.one()))
        rows = buchberger_tagged(rows, self.order)
        self.gb = [p for p, _ in rows]
        self.cofactors = [t for _, t in rows]
        lt = {p.lead(self.order)[0][:-1] for p in self.gb}
        self.gamma = tuple(sorted(monomial_staircase(lt, ctx.nvars)))
        self.rank = len(self.gamma)
        self.gamma_index = {m: i for i, m in enumerate(self.gamma)}
        self._rules = {}

    def _rule(self, v):
        if v in self.gamma_index:
            return ({self.gamma_index[v]: self.field.one()}, [])
        cached = self._rules.get(v)
        if cached is not None:
            return cached
        big, field = self.big, self.field
        for s in range(_CAP):
            row = (Poly({v + (s,): field.one()}, big), big.zero())
            rem, tag = _row_nf(row, self.gb, self.cofactors, self.order)
            r = dehomogenize(rem, self.ctx)
            if all(m in self.gamma_index for m in r.terms):
                rule = ({self.gamma_index[m]: c for m, c in r.terms.items()},
                        list((-dehomogenize(tag, self.ctx)).terms.items()))
                self._rules[v] = rule
                return rule
        raise TruncationExhausted(f"rewrite of {v} did not stabilize")


def _run(make, homogenised):
    """The outcome of a decide of the fresh handle ``make()`` (verdict,
    kind and sorted-key certificate JSON, or the typed error's name) and
    the determinant of each pencil it ran."""
    pencils = []
    inner = parametric._pencil_determinant

    def record(f, g, basis, N):
        D = inner(f, g, basis, N)
        pencils.append((str(f), str(g), N, D))
        return D

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parametric, "_pencil_determinant", record)
        if homogenised:
            mp.setattr(parametric, "FreeBasis", _HomogenisedReducer)
        try:
            rep = decide_irreducible(make())
            outcome = (rep.verdict, rep.certificate.kind, json.dumps(
                certificate_json(rep.certificate), sort_keys=True))
        except AlgebroidError as exc:
            outcome = (type(exc).__name__,)
    return outcome, pencils


def _check_both_reducers(makers):
    """Both reducers give each input the same outcome and every pencil
    the same determinant."""
    total = 0
    for label, make in makers:
        outcome = _run(make, homogenised=False)
        assert outcome == _run(make, homogenised=True), label
        total += len(outcome[1])
    assert total


@pytest.mark.parametrize("fid", FIELDS)
def test_both_reducers_agree_on_every_variable_order_of_the_table_curves(fid):
    assert len(ORDERINGS) == 40
    field = FIELDS[fid]
    _check_both_reducers([((cid, variables),
                           lambda variables=variables, texts=texts:
                           _curve(variables, texts, field))
                          for cid, variables, texts in ORDERINGS])


@pytest.mark.parametrize("fid", FIELDS)
def test_both_reducers_agree_on_seeded_plane_products(fid):
    """prod_k (y^a - c_k x^b), a and b coprime, distinct nonzero c_k."""
    field = FIELDS[fid]
    ctx = RingCtx(field, ("x", "y"))
    x, y = ctx.var("x"), ctx.var("y")
    rng = random.Random(f"reducer-{fid}")
    nonzero = [c for c in _distinct_scalars(rng, field, 13)
               if not field.is_zero(field.coerce(c))]
    makers = []
    for _ in range(4):
        a, b = rng.choice([(1, 1), (1, 2), (2, 3), (3, 2), (2, 5), (3, 4)])
        cs = rng.sample(nonzero, min(rng.randint(1, 3), len(nonzero)))
        f = prod((y ** a - ctx.const(c) * x ** b for c in cs), start=ctx.one())
        makers.append((str(f), lambda f=f: IdealHandle([f], ctx)))
    _check_both_reducers(makers)


def _equal_value_pencils(handle, degree):
    """The pairs (f, g) of monomials of total degree at most ``degree``,
    f after g, whose values a . w agree."""
    w = base_weights(handle)
    monos = [m for m in itertools.product(range(degree + 1),
                                          repeat=handle.ctx.nvars)
             if 0 < sum(m) <= degree]
    return [(handle.ctx.mono(a), handle.ctx.mono(b))
            for a, b in itertools.combinations(sorted(monos), 2)
            if wdot(w, a) == wdot(w, b)]


@pytest.mark.parametrize("fid", FIELDS)
@pytest.mark.parametrize("cid", SPACE_CURVES)
def test_both_reducers_agree_where_the_two_staircases_differ(cid, fid):
    """Every pencil of two monomials of equal value, at the pencil's own
    truncation, has the same determinant over either basis."""
    handle, ref = (_curve(*SPACE_CURVES[cid], FIELDS[fid]) for _ in "ab")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parametric, "FreeBasis", _HomogenisedReducer)
        ref_gamma = parametric.free_basis(ref).gamma
    assert parametric.free_basis(handle).gamma != ref_gamma
    pencils = _equal_value_pencils(handle, 4)
    assert len(pencils) >= 3
    for f, g in pencils:
        n = parametric._pencil_value(f, handle)
        D = parametric._pencil_determinant(
            f, g, parametric.free_basis(handle), 4 * n + 8)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parametric, "FreeBasis", _HomogenisedReducer)
            ref_D = parametric._pencil_determinant(
                f, g, parametric.free_basis(ref), 4 * n + 8)
        assert D and D == ref_D, (str(f), str(g))


def test_the_global_staircase_of_a_space_curve_is_not_the_local_one():
    handle = _curve(*SPACE_CURVES["ci"], QQ)
    names = handle.ctx.variables

    def words(gamma):
        return [str(handle.ctx.mono(m)) for m in gamma]

    assert names == ("x", "y", "z")
    assert words(parametric.free_basis(handle).gamma) == [
        "1", "z", "z^2", "y", "y^2"]
    assert words(_HomogenisedReducer(handle, 0).gamma) == [
        "1", "z", "z^2", "z^3", "y"]
