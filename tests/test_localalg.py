"""Standard bases, local leading ideals, colengths, intersection numbers,
and the handle memo that keeps them."""

import random
from fractions import Fraction

import pytest

from algebroid import decide, localalg, parametric
from algebroid.decide import (_certified_weights, _initial_handle,
                              _monomial_witness, _screen_round,
                              decide_irreducible, verify_certificate)
from algebroid.errors import ZeroPoly
from algebroid.groebner import (IdealHandle, _as_handle, buchberger,
                                ideal_membership, monomial_staircase,
                                staircase_size)
from algebroid.localalg import (
    base_weights,
    dehomogenize,
    hom_ring,
    homogenize,
    initial_ideal,
    intersection_number,
    local_colength,
    local_lead_monomials,
    standard_basis,
)
from algebroid.parametric import choose_pivot
from algebroid.polyring import (INF, HomogenizedLocalOrder, Poly, RingCtx,
                                in_w, mono_divisible, ord_w)
from algebroid.scalars import GF, QQ

from oracles import (
    intersection_via_branches,
    poly_eval_series,
    s_from_terms,
    s_ord,
    staircase_count,
)
from test_decide import PRIME_TOWER_CURVES, TWO_BRANCH_CURVES, _curve

XY = RingCtx(QQ, ("x", "y"))
XYZ = RingCtx(QQ, ("x", "y", "z"))


def test_homogenize_round_trip():
    big = hom_ring(XY)
    f = XY.poly("y^2 - x^3 + x^4")
    F = homogenize(f, (2, 3), big)
    # weights: y^2 -> 6, x^3 -> 6, x^4 -> 8: top is 8
    assert F.terms == {(0, 2, 2): 1, (3, 0, 2): -1, (4, 0, 0): 1}
    assert dehomogenize(F, XY) == f
    with pytest.raises(ZeroPoly):
        homogenize(XY.zero(), (1, 1), big)


def test_standard_basis_unit_factor_is_local():
    # x - x^2 = x(1 - x): locally the unit 1 - x divides out
    sb = standard_basis([XY.poly("x - x^2"), XY.poly("y")], (1, 1))
    leads = local_lead_monomials([XY.poly("x - x^2"), XY.poly("y")], (1, 1))
    assert (1, 0) in leads and (0, 1) in leads
    assert local_colength([XY.poly("x - x^2"), XY.poly("y")]) == 1


def test_cusp_base_weights():
    handle = IdealHandle([XY.poly("y^2 - x^3")])
    assert intersection_number(XY.var("x"), handle) == 2
    assert intersection_number(XY.var("y"), handle) == 3
    assert base_weights(handle) == (2, 3)


def test_infinite_intersection_number():
    handle = IdealHandle([XY.poly("x*y")])
    assert intersection_number(XY.var("x"), handle) == INF
    assert base_weights(handle) == (INF, INF)
    # a polynomial inside the ideal has infinite intersection number
    cusp = IdealHandle([XY.poly("y^2 - x^3")])
    assert intersection_number(XY.poly("y^2 - x^3"), cusp) == INF


def test_monomial_curve_intersection_numbers():
    # branch (t^4, t^3): x^3 - y^4 vanishes on it
    handle = IdealHandle([XY.poly("x^3 - y^4")])
    assert intersection_number(XY.poly("x*y^2"), handle) == 10
    for text, expect in (("x", 4), ("y", 3), ("x + y", 3), ("x*y", 7)):
        assert intersection_number(XY.poly(text), handle) == expect


def test_intersection_number_matches_branch_oracle():
    # y^2 - x^3 parametrized by (t^2, t^3); compare against series orders
    handle = IdealHandle([XY.poly("y^2 - x^3")])
    N = 40
    comps = [s_from_terms([(2, Fraction(1))], N),
             s_from_terms([(3, Fraction(1))], N)]
    rng = random.Random(31)
    for _ in range(20):
        items = []
        for _ in range(rng.randint(1, 4)):
            m = (rng.randint(0, 3), rng.randint(0, 3))
            items.append((m, QQ.coerce(rng.randint(-3, 3))))
        f = Poly.from_items(items, XY)
        if f.is_zero():
            continue
        expect = intersection_via_branches(
            {m: Fraction(c) for m, c in f.terms.items()}, [comps])
        got = intersection_number(f, handle)
        if expect is None:
            # oracle window exhausted or f vanishes on the branch
            assert got == INF or got >= N
        else:
            assert got == expect


def _coordinates_against_the_joined_ideal(handle):
    """Each coordinate's intersection number, taken in the ring without it,
    beside the colength of the ideal joined with it."""
    ctx = handle.ctx
    got = tuple(intersection_number(ctx.var(i), handle)
                for i in range(ctx.nvars))
    assert got == tuple(
        local_colength(IdealHandle(handle.generators + (ctx.var(i),), ctx))
        for i in range(ctx.nvars))
    return got


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
@pytest.mark.parametrize("cid", {**TWO_BRANCH_CURVES, **PRIME_TOWER_CURVES})
def test_coordinates_are_restricted_on_the_table_curves(cid, field):
    curve = {**TWO_BRANCH_CURVES, **PRIME_TOWER_CURVES}[cid]
    assert INF not in _coordinates_against_the_joined_ideal(
        _curve(*curve, field))


@pytest.mark.parametrize("variables, gens, expect", [
    ("x", ["x^2"], (1,)), ("x", ["1 + x"], (0,)), ("x y", ["x"], (INF, 1))])
def test_coordinates_are_restricted_at_the_edges(variables, gens, expect):
    ctx = RingCtx(QQ, tuple(variables.split()))
    handle = IdealHandle([ctx.poly(g) for g in gens], ctx)
    assert _coordinates_against_the_joined_ideal(handle) == expect


def test_initial_ideal_cusp():
    handle = IdealHandle([XY.poly("y^2 - x^3 + x^4")])
    forms = initial_ideal(handle, (2, 3))
    assert len(forms) == 1
    assert forms[0] in (XY.poly("x^3 - y^2"), XY.poly("y^2 - x^3"))
    assert all(in_w(f, (2, 3)) == f for f in forms)


def test_initial_ideal_two_branches():
    # (y - x^2)(y - x^2 - x^3) expanded; weight (1, 2) sees both branches
    f = (XY.poly("y - x^2") * XY.poly("y - x^2 - x^3"))
    forms = initial_ideal([f], (1, 2))
    assert len(forms) == 1
    assert forms[0] == in_w(f, (1, 2))
    assert forms[0] == XY.poly("(y - x^2)^2")


def test_initial_ideal_generates_all_informs():
    # the initial ideal must contain the in-form of every member tried
    handle = IdealHandle([XYZ.poly("y^2 - x^3"), XYZ.poly("z - x*y")])
    w = (2, 3, 5)
    forms = initial_ideal(handle, w)
    rng = random.Random(41)
    gens = list(handle.generators)
    for _ in range(15):
        c1 = rng.randint(-3, 3)
        c2 = rng.randint(-3, 3)
        m1 = XYZ.mono((rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)))
        m2 = XYZ.mono((rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)))
        f = m1 * gens[0] * c1 + m2 * gens[1] * c2
        if f.is_zero():
            continue
        assert ideal_membership(in_w(f, w), IdealHandle(forms, XYZ))


def test_local_colength_vs_global_difference():
    # globally <x - x^2> + <y> has two points; locally just one
    gens = [XY.poly("x - x^2"), XY.poly("y")]
    assert local_colength(gens) == 1


def test_weights_validation():
    with pytest.raises(ValueError):
        standard_basis([XY.poly("x")], (1,))
    with pytest.raises(ValueError):
        standard_basis([XY.poly("x")], (0, 1))
    with pytest.raises(ValueError):
        standard_basis([XY.poly("x")], (1, INF))
    with pytest.raises(ValueError, match="positive integers"):
        initial_ideal([XY.poly("y - x^2")], (True, 1))


def test_colength_weight_independence():
    rng = random.Random(57)
    gens = [XY.poly("y^2 - x^3"), XY.poly("x^4")]
    base = local_colength(gens)
    assert base == 8  # <y^2 - x^3, x^4>: staircase of <y^2, x^4>
    for _ in range(5):
        w = (rng.randint(1, 5), rng.randint(1, 5))
        leads = local_lead_monomials(IdealHandle(gens), w)
        assert staircase_size(leads, 2) == base


def test_char_p_local():
    ctx = RingCtx(GF(2), ("x", "y"))
    handle = IdealHandle([ctx.poly("y^2 + x^3 + x^2 y")])
    assert base_weights(handle) == (2, 3)


# -------------------------------------------------------------- handle memo

def local_bases(monkeypatch):
    """A list that grows by one for every local standard basis built."""
    built = []
    inner = localalg.buchberger

    def counted(gens, order, **kwargs):
        built.append(order)
        return inner(gens, order, **kwargs)

    monkeypatch.setattr(localalg, "buchberger", counted)
    return built


def test_intersection_number_checks_the_ring_before_the_memo():
    handle = IdealHandle([XY.poly("y^2 - x^3")])
    other = RingCtx(QQ, ("u", "v"))
    assert intersection_number(XY.var("x"), handle) == 2
    # Poly.key() leaves out the ring, so u has the cached x's key
    assert other.var("u").key() == XY.var("x").key()
    with pytest.raises(ValueError):
        intersection_number(other.var("u"), handle)
    with pytest.raises(ValueError):
        intersection_number(other.zero(), handle)


def test_a_second_intersection_number_builds_no_basis(monkeypatch):
    built = local_bases(monkeypatch)
    handle = IdealHandle([XY.poly("(y^2 - x^3)^2 - x^7")])
    f = XY.poly("y^2 - x^3")
    first = intersection_number(f, handle)
    assert built
    built.clear()
    assert intersection_number(f, handle) == first
    assert built == []


def test_a_plane_curves_base_weights_build_no_basis(monkeypatch):
    built = local_bases(monkeypatch)
    handle = IdealHandle([XY.poly("(y^2 - x^3)^2 - x^7")])
    assert base_weights(handle) == (4, 6)
    assert built == []


# ------------------------------- one-variable and weighted colengths

UNIVARIATE_FIELDS = [QQ, GF(7), GF(5, (2, 0))]


def _random_univariate(rng, ctx):
    """Zero, a unit, or up to three terms of degree 1 to 6, with random
    nonzero coefficients."""
    kind = rng.randrange(5)
    if kind == 0:
        return ctx.zero()
    field = ctx.field
    items = []
    for _ in range(rng.randint(1, 3)):
        c = field.coerce(tuple(rng.randint(0, 4) for _ in range(field.degree))
                         if field.extension is not None
                         else rng.randint(-5, 5))
        if not field.is_zero(c):
            items.append(((rng.randint(1, 6),), c))
    if kind == 1:
        items.append(((0,), field.one()))
    return Poly.from_items(items, ctx)


@pytest.mark.parametrize("field", UNIVARIATE_FIELDS, ids=["Q", "F7", "F5th"])
def test_a_one_variable_colength_is_the_lazard_staircase(field):
    """The least order of a generator equals the staircase of the local
    leads from the homogenised basis; INF with no nonzero generator."""
    rng = random.Random(f"univariate:{field}")
    ctx = RingCtx(field, ("t",))
    seen = set()
    for _ in range(60):
        gens = [_random_univariate(rng, ctx) for _ in range(rng.randint(1, 3))]
        got = local_colength(IdealHandle(gens, ctx))
        size = staircase_size(local_lead_monomials(IdealHandle(gens, ctx),
                                                   (1,)), 1)
        assert got == (INF if size is None else size), gens
        seen.add(got if got in (0, INF) else "order")
    assert seen == {0, INF, "order"}


def _recording(run):
    """run(); return its result, the non-coordinate polynomials that
    ``decide`` takes intersection numbers of, with their ideals, and the
    key of the last generator of every ideal whose colength is built."""
    asked, built = [], []
    inner_number, inner_colength = intersection_number, localalg._colength

    def number(f, ideal):
        if len(f.terms) != 1 or f.total_degree() != 1:
            asked.append((f, ideal))
        return inner_number(f, ideal)

    def colength(handle, w):
        built.append(handle.generators[-1].key())
        return inner_colength(handle, w)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide, "intersection_number", number)
        mp.setattr(localalg, "_colength", colength)
        result = run()
    return result, asked, built


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_the_self_check_recomputes_every_adjoined_weight(field):
    """``_descend`` seeds the decide's memo with each pencil value; the
    verifier builds a local colength for every transcript entry anyway."""
    with_transcript = 0
    for variables, texts in PRIME_TOWER_CURVES.values():
        cert = decide_irreducible(_curve(variables, texts, field)).certificate
        result, asked, built = _recording(lambda: verify_certificate(cert))
        assert result == (True, "ok")
        assert len(asked) == len(cert.transcript)
        assert all(f.key() in built for f, _ in asked)
        with_transcript += bool(cert.transcript)
    assert with_transcript


def _direct_colength(f, ideal):
    """The all-ones colength of the ideal together with f, from the
    staircase of its local leads."""
    joined = IdealHandle(ideal.generators + (f,), ideal.ctx)
    n = ideal.ctx.nvars
    size = staircase_size(local_lead_monomials(joined, (1,) * n), n)
    return INF if size is None else size


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_the_base_weights_change_no_intersection_number(field):
    """Every adjoined weight of the table certificates, counted under the
    base weights, is the all-ones colength; so is tangent-pair's INF."""
    entries = 0
    for variables, texts in {**PRIME_TOWER_CURVES,
                             **TWO_BRANCH_CURVES}.values():
        cert = decide_irreducible(_curve(variables, texts, field)).certificate
        _, asked, _ = _recording(lambda: list(_certified_weights(cert)))
        assert len(asked) == len(cert.transcript)
        for f, ideal in asked:
            fresh = IdealHandle(ideal.generators, ideal.ctx)
            assert intersection_number(f, fresh) == _direct_colength(f, fresh)
            entries += 1
    assert entries
    pair = _curve(*TWO_BRANCH_CURVES["tangent-pair"], field)
    f = pair.ctx.poly("y - x^2")
    assert INF not in base_weights(pair)
    assert intersection_number(f, pair) == INF
    assert _direct_colength(f, pair) == INF


def test_choose_pivot_after_base_weights_builds_no_basis(monkeypatch):
    built = local_bases(monkeypatch)
    handle = IdealHandle([XYZ.poly("x^3 - y^2"),
                          XYZ.poly("(z^2 - x*y)^2 - x^2*y*z^2")])
    w = base_weights(handle)
    built.clear()
    assert choose_pivot(handle) == (0, w[0])
    assert built == []


def test_screen_round_after_monomial_witness_builds_no_basis(monkeypatch):
    built = local_bases(monkeypatch)
    handle = IdealHandle([XY.poly("y^2 - x^3")])
    assert _monomial_witness(handle, (2, 3)) is None
    built.clear()
    stats = {"parametric_calls": 0}
    assert _screen_round(handle, (2, 3), stats=stats) == ("radical",)
    assert built == [] and stats["parametric_calls"] == 0


def test_one_initial_handle_per_weight_vector():
    handle = IdealHandle([XY.poly("(y^2 - x^3)^2 - x^7")])
    assert _initial_handle(handle, (4, 6)) is _initial_handle(handle, (4, 6))
    assert _initial_handle(handle, (4, 6)) is _initial_handle(handle, [4, 6])
    other = _initial_handle(handle, (2, 3))
    assert other is not _initial_handle(handle, (4, 6))


# ---------------------------------------- minimal against reduced bases

def _reduced_hom_groebner(handle, w):
    """The local basis as the reduced Groebner basis of the same
    homogenised generators, kept under a key of its own."""
    def build():
        big = hom_ring(handle.ctx)
        gens = [g for g in handle.generators if not g.is_zero()]
        v = localalg._grading(gens, w)
        order = HomogenizedLocalOrder(w, v)
        hom = [homogenize(g, v, big) for g in gens]
        return buchberger(hom, order), big, order
    return handle.cached(("reduced hom", w), build)


def _staircase_length(leads, nvars):
    stairs = monomial_staircase(leads, nvars)
    return None if stairs is None else len(stairs)


def _minimal_generators(monomials):
    monomials = set(monomials)
    return sorted(m for m in monomials if not any(
        o != m and mono_divisible(m, o) for o in monomials))


def _decide_recording_local_work(I):
    """Decide I, certificate check included; return the report, every
    (handle, w) whose local basis was asked for, and every intersection
    number as (ideal, f, value)."""
    bases, numbers = {}, {}
    inner_hom, inner_number = localalg._hom_groebner, intersection_number

    def hom(handle, w):
        bases[id(handle), w] = (handle, w)
        return inner_hom(handle, w)

    def number(f, ideal):
        value = inner_number(f, ideal)
        numbers[id(ideal), f.key()] = (ideal, f, value)
        return value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localalg, "_hom_groebner", hom)
        for module in (localalg, decide, parametric):
            mp.setattr(module, "intersection_number", number)
        rep = decide_irreducible(I)
    return rep, list(bases.values()), list(numbers.values())


def _check_against_reduced_bases(rep, bases, numbers):
    """At every weight the decide visited and at each certified ray, the
    minimal bases give the local lead ideal, initial ideal and
    intersection numbers that the reduced bases give."""
    seen = {w for _, w in bases}
    rays = (rep.certificate.data if rep.certificate.kind == "two_tropisms"
            else ())
    assert set(rep.stats["weight_history"]) | set(rays) <= seen
    got = [(_minimal_generators(local_lead_monomials(handle, w)),
            initial_ideal(handle, w)) for handle, w in bases]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localalg, "_hom_groebner", _reduced_hom_groebner)
        mp.setattr(localalg, "staircase_size", _staircase_length)
        for (handle, w), (leads, forms) in zip(bases, got):
            fresh = IdealHandle(handle.generators, handle.ctx)
            assert leads == _minimal_generators(
                local_lead_monomials(fresh, w)), w
            ref = IdealHandle(initial_ideal(fresh, w), handle.ctx)
            assert all(ideal_membership(f, ref) for f in forms), w
            mine = IdealHandle(forms, handle.ctx)
            assert all(ideal_membership(f, mine) for f in ref.generators), w
        for ideal, f, value in numbers:
            handle = _as_handle(ideal)
            fresh = IdealHandle(handle.generators, handle.ctx)
            assert intersection_number(f, fresh) == value, f


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
@pytest.mark.parametrize("cid", {**TWO_BRANCH_CURVES, **PRIME_TOWER_CURVES})
def test_minimal_local_bases_agree_with_reduced_ones(cid, field):
    curve = {**TWO_BRANCH_CURVES, **PRIME_TOWER_CURVES}[cid]
    rep, bases, numbers = _decide_recording_local_work(_curve(*curve, field))
    assert bases and numbers
    _check_against_reduced_bases(rep, bases, numbers)
