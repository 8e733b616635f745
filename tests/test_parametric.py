"""Tests for the multiplication-matrix method."""

import random
from fractions import Fraction
from itertools import product

import pytest

from algebroid import decide
from algebroid.decide import _extend_with, decide_irreducible, value_semigroup
from algebroid.errors import (
    AlgebroidError,
    ContextViolation,
    InfinitePivot,
    UnequalBase,
)
from algebroid import parametric
from algebroid.groebner import IdealHandle
from algebroid.localalg import intersection_number, base_weights
from algebroid.parametric import (
    _det,
    _pencil_value,
    choose_pivot,
    free_basis,
    mult_matrix,
    parametric_intersection,
    parametric_test,
)
from algebroid.polyring import INF, RingCtx, parse_poly, project
from algebroid.scalars import GF, QQ, FieldSpec
from oracles import det_perm, mult_matrix_every_layer
from pencil_attachments import two_attachment_ideal
from test_decide import F5TH, PRIME_TOWER_CURVES, TWO_BRANCH_CURVES, _curve


def double_branch_ideal(field=QQ):
    ctx = RingCtx(field, ("x", "y"))
    return IdealHandle((parse_poly("(y^2-x^3)^2 - x^7", ctx),), ctx), ctx


def space_curve():
    ctx = RingCtx(QQ, ("x", "y", "z"))
    gens = (parse_poly("x^3-y^2", ctx),
            parse_poly("(z^2-x*y)^2 - x^2*y*z^2", ctx))
    return IdealHandle(gens, ctx), ctx


def test_double_branch_pivot_and_basis():
    I, ctx = double_branch_ideal()
    assert choose_pivot(I) == (0, 4)
    B = free_basis(I)
    assert B.pivot == 0
    assert B.gamma == ((0, 0), (0, 1), (0, 2), (0, 3))
    assert B.rank == 4


def test_double_branch_multiplication_matrices():
    I, ctx = double_branch_ideal()
    B = free_basis(I)
    Mx = mult_matrix(ctx.var("x"), B, 16)
    for i in range(4):
        for j in range(4):
            assert Mx[i][j] == ({(0, 1): 1} if i == j else {})
    My = mult_matrix(ctx.var("y"), B, 16)
    expected = [
        [{}, {}, {}, {(0, 6): -1, (0, 7): 1}],
        [{(0, 0): 1}, {}, {}, {}],
        [{}, {(0, 0): 1}, {}, {(0, 3): 2}],
        [{}, {}, {(0, 0): 1}, {}],
    ]
    for i in range(4):
        for j in range(4):
            assert My[i][j] == expected[i][j]


def test_double_branch_parametric_intersection():
    I, ctx = double_branch_ideal()
    f = parse_poly("y^2-x^3", ctx)
    g = parse_poly("x^2*y", ctx)
    po = parametric_intersection(f, g, I)
    assert po.generic_value == 14
    got = sorted((ev.beta, ev.value) for ev in po.exceptional)
    assert got == [(-1, 15), (1, 15)]
    # determinant is (a+1)^2 (a-1)^2 x^14 - a^4 x^15, coefficient by coefficient
    assert po.determinant == {(0, 14): 1, (2, 14): -2, (4, 14): 1, (4, 15): -1}
    assert po.coefficient(14) == [1, 0, -2, 0, 1]
    assert po.coefficient(15) == [0, 0, 0, 0, -1]


def test_double_branch_verdict_two_parameters():
    I, ctx = double_branch_ideal()
    f = parse_poly("y^2-x^3", ctx)
    g = parse_poly("x^2*y", ctx)
    v = parametric_test(f, g, I)
    assert v.result == "false"
    assert v.case == 2
    # the verdict attaches one root; the pencil has both, -1 and 1
    roots = sorted(ev.beta
                   for ev in parametric_intersection(f, g, I).exceptional)
    assert roots == [-1, 1] and v.beta in roots
    assert v.ideal is I and v.attachment == f - g.scale(v.beta)
    J1, name = _extend_with(v.ideal, v.attachment)
    assert name == "z"
    assert J1.ctx.variables == ("x", "y", "z")
    assert base_weights(J1) == (4, 6, 15)
    # both attachments split the weights of the two branches, and the
    # verdict keeps the first
    J = two_attachment_ideal(I, f, g, v)
    assert base_weights(J) == (4, 6, 15, 15)
    assert J1.generators == tuple(
        project(p, J1.ctx, range(3)) for p in J.generators[:-1])


def test_space_curve_basis_and_matrix():
    I, ctx = space_curve()
    B = free_basis(I)
    assert [ctx.mono(m).__str__() for m in B.gamma] == [
        "1", "z", "z^2", "z^3", "y", "y*z", "y*z^2", "y*z^3"]
    Mz = mult_matrix(ctx.var("z"), B, 12)
    col = [Mz[i][7] for i in range(8)]
    assert col[2] == {(0, 4): 2, (0, 5): 1}
    assert col[4] == {(0, 5): -1}
    for i in (0, 1, 3, 5, 6, 7):
        assert col[i] == {}


def test_space_curve_parametric_intersection():
    I, ctx = space_curve()
    f = parse_poly("z^2-x*y", ctx)
    g = parse_poly("y^2", ctx)
    po = parametric_intersection(f, g, I)
    assert po.generic_value == 24
    got = sorted((ev.beta, ev.value) for ev in po.exceptional)
    assert got == [(-1, 26), (1, 26)]
    assert po.determinant == {
        (8, 24): 1, (6, 24): -4, (4, 24): 6, (2, 24): -4, (0, 24): 1,
        (6, 25): -2, (4, 25): 4, (2, 25): -2,
        (4, 26): 1,
    }
    v = parametric_test(f, g, I)
    assert v.result == "false" and v.case == 2
    assert base_weights(_extend_with(v.ideal, v.attachment)[0]) == (
        8, 12, 10, 26)
    assert base_weights(two_attachment_ideal(I, f, g, v)) == (
        8, 12, 10, 26, 26)


def test_equal_inputs_give_infinite_exception():
    ctx = RingCtx(QQ, ("x", "y"))
    I = IdealHandle((parse_poly("y^2-x^3", ctx),), ctx)
    po = parametric_intersection(ctx.var("x"), ctx.var("x"), I)
    assert po.generic_value == 2
    assert [(ev.beta, ev.value) for ev in po.exceptional] == [(1, INF)]


def test_degenerate_direction_is_rejected():
    ctx = RingCtx(QQ, ("x", "y"))
    I = IdealHandle((parse_poly("y^2-x^3", ctx),), ctx)
    with pytest.raises(ContextViolation):
        parametric_test(parse_poly("y^2", ctx), parse_poly("x^3", ctx), I)


def test_unequal_base_values():
    ctx = RingCtx(QQ, ("x", "y"))
    I = IdealHandle((parse_poly("y^2-x^3", ctx),), ctx)
    with pytest.raises(UnequalBase):
        parametric_intersection(ctx.var("x"), ctx.var("y"), I)


def test_a_quotient_that_is_not_free_fails_the_determinant_check():
    # y^2 = x^3 with an embedded point: z is torsion and y*z = 0, so M_y
    # has a zero column while the colength of I + (y) is 4
    ctx = RingCtx(QQ, ("x", "y", "z"))
    I = IdealHandle(tuple(parse_poly(t, ctx) for t in (
        "y^2 - x^3", "z^2", "x*z", "y*z")), ctx)
    assert base_weights(I) == (3, 4, INF)
    with pytest.raises(AlgebroidError, match=r"det\(M_f\) has pivot order "
                       r"None, not the base value 4"):
        parametric_intersection(ctx.var("y"), ctx.var("y"), I)


def test_infinite_pivot():
    ctx = RingCtx(QQ, ("x", "y"))
    I = IdealHandle((parse_poly("x*y", ctx),), ctx)
    with pytest.raises(InfinitePivot):
        choose_pivot(I)
    with pytest.raises(InfinitePivot):
        free_basis(I)


def test_a_pivot_whose_hyperplane_meets_the_curve_elsewhere_is_refused():
    # y = -1 lies on both the conic y - x^2 + y^2 and the hyperplane x = 0
    ctx = RingCtx(QQ, ("x", "y"))
    I = IdealHandle((parse_poly("(y - x^2 + y^2)*(y + x^2)", ctx),), ctx)
    assert base_weights(I) == (2, 4)
    assert parametric.FreeBasis(I, 0).rank == 3
    assert choose_pivot(I) == (1, 4)
    B = free_basis(I)
    assert (B.pivot, B.gamma) == (1, ((0, 0), (1, 0), (2, 0), (3, 0)))


def test_substitution_consistency():
    I, ctx = double_branch_ideal()
    f = parse_poly("y^2-x^3", ctx)
    g = parse_poly("x^2*y", ctx)
    po = parametric_intersection(f, g, I)
    special = {ev.beta: ev.value for ev in po.exceptional}
    for alpha in (-2, -1, 0, 1, 3):
        exact = intersection_number(f - g.scale(alpha), I)
        assert exact == special.get(alpha, po.generic_value)


def test_determinant_order_matches_colength():
    I, ctx = space_curve()
    B = free_basis(I)
    for expr in ("y^2", "z^2-x*y", "x^3", "y^2+z^2", "x*z", "y*z"):
        f = parse_poly(expr, ctx)
        n = intersection_number(f, I)
        Mf = mult_matrix(f, B, 2 * n + 6)
        # lowest pivot order appearing in det(M_f)
        from algebroid.parametric import _det
        D = _det(Mf, B.rank, ctx.field, 2 * n + 6)
        assert min(e for (_, e) in D) == n


def test_case_one_drop():
    I, ctx = double_branch_ideal()
    f = parse_poly("y^2-x^3", ctx)
    g = parse_poly("x^2*y", ctx)
    v = parametric_test(f - g, f + g, I)
    assert v.result == "false"
    assert v.case == 1
    assert v.attachment == f - g
    J1, name = _extend_with(v.ideal, v.attachment)
    assert name == "z"
    assert base_weights(J1) == (4, 6, 15)
    assert base_weights(two_attachment_ideal(I, f - g, f + g, v)) == (
        4, 6, 15, 15)


def test_case_three_false_branch():
    ctx = RingCtx(QQ, ("x", "y"))
    I = IdealHandle((parse_poly("(y-x^2)*(y-x^2-x^3)", ctx),), ctx)
    f = parse_poly("x^3 + x*(y-x^2)", ctx)
    g = parse_poly("x^3", ctx)
    v = parametric_test(f, g, I)
    assert v.result == "false"
    assert v.case == 3
    assert v.beta == 1
    assert v.attachment == f - g
    assert _extend_with(v.ideal, v.attachment)[1] == "z"


def test_not_false_on_irreducible_curve():
    ctx = RingCtx(QQ, ("x", "y"))
    I = IdealHandle((parse_poly("y^2 - x^3 - x^4", ctx),), ctx)
    v = parametric_test(parse_poly("y^2", ctx), parse_poly("x^3", ctx), I)
    assert v.result == "not_false"
    assert v.beta == 1


def test_char_two_curve_is_not_falsified():
    I, ctx = double_branch_ideal(GF(2))
    f = parse_poly("y^2-x^3", ctx)
    g = parse_poly("x^2*y", ctx)
    v = parametric_test(f, g, I)
    assert v.result == "not_false"
    assert v.beta == 1


def test_conjugate_parameters_need_an_extension():
    ctx = RingCtx(QQ, ("x", "y"))
    I = IdealHandle((parse_poly("(y^2-x^3)^2 - 2*x^7", ctx),), ctx)
    f = parse_poly("y^2-x^3", ctx)
    g = parse_poly("x^2*y", ctx)
    po = parametric_intersection(f, g, I)
    assert po.generic_value == 14
    assert len(po.exceptional) == 1
    ev = po.exceptional[0]
    assert ev.beta is None
    assert ev.factor == (-2, 0, 1)
    assert ev.value == 15
    v = parametric_test(f, g, I)
    assert v.result == "false" and v.case == 2
    # beta is a root th of the class, read from the verdict's ring
    field = v.ideal.ctx.field
    assert v.ideal is not I and field.extension + (1,) == (-2, 0, 1)
    th = v.beta
    assert th == field.generator() and field.mul(th, th) == field.from_int(2)
    assert v.value == 15
    assert [other.value for other in v.pencil.exceptional
            if other.factor == (-2, 0, 1)] == [15]
    # the attachment's ring lives over the quadratic extension
    assert v.ideal.ctx.field.extension == (-2, 0)


def test_a_base_field_root_beside_a_conjugate_class_stays_in_the_base_field():
    # branches y^2 = 2x^3 and y^2 = +-i x^3: the pencil of y^2, x^3 has the
    # root 2 over Q and the class a^2 + 1, and the verdict attaches f - 2g
    ctx = RingCtx(QQ, ("x", "y"))
    I = IdealHandle((parse_poly("(y^2 - 2*x^3)*(y^4 + x^6)", ctx),), ctx)
    f, g = parse_poly("y^2", ctx), parse_poly("x^3", ctx)
    po = parametric_intersection(f, g, I)
    assert sorted((str(ev.beta), ev.factor) for ev in po.exceptional) == [
        ("2", None), ("None", (1, 0, 1))]
    v = parametric_test(f, g, I)
    assert v.result == "false" and v.case == 2
    assert v.beta == 2 and v.ideal is I
    assert v.value == INF
    assert [ev.value for ev in v.pencil.exceptional if ev.beta is None] == [INF]
    J, _ = _extend_with(v.ideal, v.attachment)
    assert J.ctx.field == QQ
    assert project(J.ctx.var("z") - J.generators[-1], ctx, range(2)) == (
        f - g.scale(2))


FALSE_VERDICTS = {
    "case-1": ("(y^2-x^3)^2 - x^7", "y^2-x^3 - x^2*y", "y^2-x^3 + x^2*y", 1),
    "case-2": ("(y^2-x^3)^2 - x^7", "y^2-x^3", "x^2*y", 2),
    "case-2-conjugate": ("(y^2-x^3)^2 - 2*x^7", "y^2-x^3", "x^2*y", 2),
    "case-3": ("(y-x^2)*(y-x^2-x^3)", "x^3 + x*(y-x^2)", "x^3", 3),
}


@pytest.mark.parametrize("cid", FALSE_VERDICTS)
def test_a_false_verdict_returns_its_attachment_and_builds_no_ring(
        cid, monkeypatch):
    """The pencil returns h in its ring; ``decide`` alone adjoins it.  The
    only rings extended meanwhile are the local order's homogenisations,
    by the fresh stem h, never by the coordinate z that would carry h."""
    curve, ftext, gtext, case = FALSE_VERDICTS[cid]
    ctx = RingCtx(QQ, ("x", "y"))
    I = IdealHandle((parse_poly(curve, ctx),), ctx)
    f, g = parse_poly(ftext, ctx), parse_poly(gtext, ctx)
    extended = []
    extend = RingCtx.extend

    def record(self, names):
        extended.append(tuple(names))
        return extend(self, names)

    monkeypatch.setattr(RingCtx, "extend", record)
    v = parametric_test(f, g, I)
    assert (v.result, v.case) == ("false", case)
    assert set(extended) <= {("h",)}
    assert v.ideal.ctx.variables == ctx.variables
    assert v.attachment.ctx == v.ideal.ctx
    if cid == "case-2-conjugate":
        assert v.ideal.ctx.field.extension == (-2, 0)
    else:
        assert v.ideal is I


@pytest.mark.parametrize("cid", FALSE_VERDICTS)
def test_each_beta_is_a_payload_of_its_ring_field(cid):
    """Every root the pencil finds is a payload of its field, and the
    verdict's beta one of its ring's field, the extension's for a
    conjugate class."""
    curve, ftext, gtext, _ = FALSE_VERDICTS[cid]
    ctx = RingCtx(QQ, ("x", "y"))
    I = IdealHandle((parse_poly(curve, ctx),), ctx)
    f, g = parse_poly(ftext, ctx), parse_poly(gtext, ctx)
    po = parametric_intersection(f, g, I)
    betas = [ev.beta for ev in po.exceptional if ev.beta is not None]
    assert all(po.field.coerce(beta) == beta for beta in betas)
    v = parametric_test(f, g, I)
    if v.case > 1:
        field = v.ideal.ctx.field
        assert field.coerce(v.beta) == v.beta
        assert (v.beta in betas) == (v.ideal is I)


def test_a_pencil_resolves_its_pivot_and_free_basis_once():
    """The free basis is built once per handle: two pencils on one handle
    read the same basis, and the determinant and both matrices of each
    read it too."""
    I, ctx = double_branch_ideal()
    builds = []

    class Counted(parametric.FreeBasis):
        def __init__(self, handle, pivot):
            builds.append(pivot)
            super().__init__(handle, pivot)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parametric, "FreeBasis", Counted)
        po = parametric_intersection(parse_poly("y^2-x^3", ctx),
                                     parse_poly("x^2*y", ctx), I)
        other = parametric_intersection(parse_poly("y^2", ctx),
                                        parse_poly("x^3", ctx), I)
    assert po.generic_value == 14
    assert other.generic_value == 12
    assert builds == [0]


def test_mult_matrix_rejects_foreign_basis():
    """The basis carries its ring, and a polynomial from another ring is
    refused."""
    _, ctx = double_branch_ideal()
    J, _ = space_curve()
    B = free_basis(J)
    with pytest.raises(ValueError, match="different rings"):
        mult_matrix(ctx.var("x"), B, 8)


BENCHMARK_CASES = ([(cid, fid) for cid in TWO_BRANCH_CURVES
                    for fid in ("Q", "F101")]
                   + [(cid, fid) for cid in PRIME_TOWER_CURVES
                      for fid in ("Q", "F7", "F5th")])


@pytest.mark.parametrize("cid, fid", BENCHMARK_CASES)
def test_mult_matrix_matches_the_every_layer_oracle(cid, fid):
    """On the pivot reducer of every pencil a benchmark curve's decide
    runs, the matrices of f and g are those of coordinates rewritten over
    every layer, at N = 1, I(f) and the pencil's truncation."""
    curve = TWO_BRANCH_CURVES.get(cid) or PRIME_TOWER_CURVES[cid]
    field = {"Q": QQ, "F101": GF(101), "F7": GF(7), "F5th": F5TH}[fid]
    pencils, pencil_test = [], decide.parametric_test

    def record(f, g, handle):
        pencils.append((f, g, handle))
        return pencil_test(f, g, handle)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide, "parametric_test", record)
        decide_irreducible(_curve(*curve, field))
    assert pencils
    for f, g, handle in pencils:
        basis = free_basis(handle)
        nf, ng = _pencil_value(f, handle), _pencil_value(g, handle)
        for N in (1, nf, 2 * (nf + ng) + 8):
            for h in (f, g):
                assert (mult_matrix(h, basis, N)
                        == mult_matrix_every_layer(h, basis, N))


# ------------------------------------------- pencil values from base weights

def _assert_additive(handle):
    """For every monomial of total degree <= 3, the pencil's value (a . w
    from the base weights) is the colength that a fresh handle computes."""
    ctx = handle.ctx
    fresh = IdealHandle(handle.generators, ctx)
    for a in product(range(4), repeat=ctx.nvars):
        if sum(a) <= 3:
            m = ctx.mono(a)
            assert _pencil_value(m, handle) == intersection_number(m, fresh), a


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("cid", [*TWO_BRANCH_CURVES, *PRIME_TOWER_CURVES])
def test_monomial_values_add_up_from_the_base_weights(cid, field):
    curve = TWO_BRANCH_CURVES.get(cid) or PRIME_TOWER_CURVES[cid]
    _assert_additive(_curve(*curve, field))
    if cid in PRIME_TOWER_CURVES:
        tower, w = value_semigroup(_curve(*curve, field))
        assert tower.ctx.nvars > len(curve[0].split())
        _assert_additive(tower)


def test_a_monomial_pencil_builds_no_intersection_number():
    I, ctx = double_branch_ideal()
    assert base_weights(I) == (4, 6)
    before = set(I._memo)
    v = parametric_test(parse_poly("y^2", ctx), parse_poly("x^3", ctx), I)
    assert v.result == "not_false" and v.value == 14
    assert not [k for k in set(I._memo) - before if k[0] == "intersection"]


def test_a_non_monomial_still_asks_for_its_intersection_number():
    I, ctx = double_branch_ideal()
    f = parse_poly("y^2 - x^3", ctx)
    assert _pencil_value(f, I) == 14
    assert ("intersection", f.key()) in I._memo


# ---------------------------------------- the determinant against an oracle

DET_FIELDS = [QQ, GF(2), GF(7), GF(101), FieldSpec(5, extension=(2, 0))]


def _series_ops(field, N):
    """Ring operations on {(parameter exponent, pivot exponent): payload}
    truncated at pivot^N, for ``det_perm``."""

    def add(a, b):
        out = dict(a)
        for k, c in b.items():
            out[k] = field.add(out[k], c) if k in out else c
        return {k: c for k, c in out.items() if not field.is_zero(c)}

    def mul(a, b):
        out = {}
        for (d1, e1), c1 in a.items():
            for (d2, e2), c2 in b.items():
                if e1 + e2 < N:
                    out = add(out, {(d1 + d2, e1 + e2): field.mul(c1, c2)})
        return out

    def neg(a):
        return {k: field.neg(c) for k, c in a.items()}

    return add, mul, neg


def _payload(rng, field):
    if field.extension is not None:
        return tuple(rng.randrange(field.characteristic) for _ in range(2))
    if field.characteristic:
        return rng.randrange(field.characteristic)
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7, 12)))


def _pencil_entry(rng, field, N):
    """A random entry linear in the parameter, with pivot exponents up to
    N (terms at N lie past the truncation)."""
    out = {}
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        c = _payload(rng, field)
        if not field.is_zero(c):
            out[rng.randint(0, 1), rng.choice((0, 1, 2, N - 1, N))] = c
    return out


def _seeded_matrices(field):
    rng = random.Random(f"det:{field}")
    for n in range(1, 7):
        for shape in ("random", "zero row", "equal rows"):
            for _ in range(3 if n < 6 else 1):
                N = rng.randint(2, 6)
                rows = [[_pencil_entry(rng, field, N) for _ in range(n)]
                        for _ in range(n)]
                if shape == "zero row":
                    rows[rng.randrange(n)] = [{} for _ in range(n)]
                elif shape == "equal rows" and n > 1:
                    rows[1] = list(rows[0])
                yield rows, n, N


@pytest.mark.parametrize("field", DET_FIELDS, ids=str)
def test_the_determinant_agrees_with_permutation_expansion(field):
    p = field.characteristic
    empty = 0
    for rows, n, N in _seeded_matrices(field):
        add, mul, neg = _series_ops(field, N)
        # the product with 1 truncates a 1 x 1 determinant too
        want = mul({(0, 0): field.one()}, det_perm(rows, add, mul, neg, {}))
        got = _det(tuple(tuple(r) for r in rows), n, field, N)
        assert got == want, (rows, N)
        assert not any(field.is_zero(c) for c in got.values())
        assert all(e < N and 0 <= d <= n for d, e in got)
        if p and field.extension is None:
            assert all(type(c) is int and 0 <= c < p for c in got.values())
        empty += not got
    assert empty >= 6


def test_the_determinant_over_q_divides_out_the_row_scales():
    half, third = Fraction(1, 2), Fraction(1, 3)
    rows = (({(0, 0): half, (1, 1): -third}, {(0, 2): Fraction(5, 6)}),
            ({(1, 0): Fraction(-3, 4)}, {(0, 0): 2, (1, 3): third}))
    D = _det(rows, 2, QQ, 4)
    # (1/2 - a t/3)(2 + a t^3/3) + (5/6) t^2 (3/4) a
    assert D == {(0, 0): 1, (1, 1): Fraction(-2, 3), (1, 2): Fraction(5, 8),
                 (1, 3): Fraction(1, 6)}
    assert type(D[0, 0]) is int
