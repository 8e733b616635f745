"""Polynomial ring arithmetic, orders, initial forms and parsing."""

import hashlib
import random
import time
from fractions import Fraction

import pytest

from algebroid.errors import ParseError, ZeroPoly
from algebroid.polyring import (
    _EXPONENT_CAP,
    _TERM_CAP,
    _checked_names,
    _scaled_division,
    INF,
    BlockOrder,
    DegRevLex,
    HomogenizedLocalOrder,
    Poly,
    InvLex,
    RingCtx,
    embed,
    in_w,
    mono_divisible,
    mono_lcm,
    normal_form,
    ord_w,
    wdot,
)
from algebroid.scalars import GF, QQ, FieldSpec
from oracles import Lex, WeightedOrder, division_maxscan


CTX = RingCtx(QQ, ("x", "y", "z"))


def test_parse_and_format_round_trip():
    f = CTX.poly("y^2 - x^3")
    assert f.terms == {(0, 2, 0): 1, (3, 0, 0): -1}
    g = CTX.poly(str(f))
    assert f == g


def test_parse_implicit_multiplication():
    assert CTX.poly("2x y") == CTX.poly("2*x*y")
    assert CTX.poly("3(x + y)") == CTX.poly("3*x + 3*y")
    # names with digits are single identifiers, not implicit products
    ctx = RingCtx(QQ, ("x", "z1", "z2"))
    assert ctx.poly("z1 z2").terms == {(0, 1, 1): 1}


def test_parse_fractions_and_unary_minus():
    f = CTX.poly("-x/2 + 1/3")
    assert f.coeff((1, 0, 0)) == Fraction(-1, 2)
    assert f.constant_coeff() == Fraction(1, 3)


def test_parse_rejects_unknown_variable():
    with pytest.raises(ParseError):
        CTX.poly("x + w")
    # th names an extension's generator, and nothing over a base field
    for field in (QQ, GF(5)):
        with pytest.raises(ParseError, match="unknown variable 'th'"):
            RingCtx(field, ("x", "y")).poly("y^2 - th*x^3")


F5TH = GF(5, (2, 0))                    # F_5[th]/(th^2 + 2)
F4 = GF(2, (1, 1))                      # F_2[th]/(th^2 + th + 1)
QTH = FieldSpec(0, (-2, 0))             # Q[th]/(th^2 - 2)


@pytest.mark.parametrize("field", [F5TH, F4, QTH], ids=str)
def test_printed_extension_polynomials_parse_back(field):
    """``th`` parses as the generator, so what ``str`` prints for a
    polynomial over an extension reads back to the same polynomial."""
    ctx = RingCtx(field, ("x", "y"))
    rng = random.Random(44)
    for _ in range(60):
        p = Poly.from_items(
            (((rng.randrange(4), rng.randrange(4)), _random_coeff(rng, field))
             for _ in range(rng.randrange(1, 6))), ctx)
        assert ctx.poly(str(p)) == p, str(p)
        if field.characteristic == 0:
            # each coordinate prints with its own sign, a unit one bare
            assert "+ -" not in str(p) and "1*th" not in str(p), str(p)
    g = field.generator()
    assert ctx.poly("th") == ctx.const(g)
    assert ctx.poly("th^2*x - x/th") == \
        ctx.var("x").scale(field.sub(field.mul(g, g), field.inv(g)))


def test_signed_fractional_coefficients_over_q_th_read_back():
    ctx = RingCtx(QTH, ("x", "y"))
    p = ctx.poly("-1/2*th*x - 3/7*y^2 + (2 - th)/5")
    assert p.coeff((1, 0)) == (0, Fraction(-1, 2))
    assert p.constant_coeff() == (Fraction(2, 5), Fraction(-1, 5))
    assert ctx.poly(str(p)) == p


def test_q_th_coordinates_print_with_their_own_signs():
    ctx = RingCtx(QTH, ("x", "y"))
    p = ctx.poly("(2 - th)/5*x - th*y - 1 - th")
    assert str(p) == "(2/5 - 1/5*th)*x - th*y + (-1 - th)"
    assert ctx.poly(str(p)) == p


def test_a_variable_named_th_shadows_the_generator():
    ctx = RingCtx(F5TH, ("th", "y"))
    assert ctx.poly("th*y") == ctx.var("th") * ctx.var("y")
    assert ctx.poly("th*y").terms == {(1, 1): F5TH.one()}


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        CTX.poly("x + ")
    with pytest.raises(ParseError):
        CTX.poly("x ^ y")
    with pytest.raises(ParseError):
        CTX.poly("(x + y")


def test_parse_refuses_exponents_above_the_cap():
    assert _EXPONENT_CAP == 1000
    assert CTX.poly("x^1000*y").terms == {(1000, 1, 0): 1}
    assert CTX.poly("(x^10)^100 - x^500 x^500").is_zero()
    for text in ("y^2 - x^3000000", "x^1001", "x^1000*x", "x^1000 x",
                 "(x^40)^30", "(x + y^2)^501", "2^1001", "x^" + "9" * 5000):
        with pytest.raises(ParseError, match="_EXPONENT_CAP = 1000"):
            CTX.poly(text)


def test_parse_refuses_terms_above_the_cap_before_expanding():
    assert _TERM_CAP == 1000
    # bounds at the cap: C(44, 2) = 946, 1000 = 10 * 100, 1000 = 10^3
    assert len(CTX.poly("(x + y + z)^42")) == 946
    assert len(CTX.poly("(1 + x + x^2 + x^3 + x^4 + x^5 + x^6 + x^7 + x^8"
                        " + x^9)*(1 + y)^99")) == 1000
    assert len(CTX.poly("(1 + x)^9 (1 + y)^9 (1 + z)^9")) == 1000
    assert CTX.poly("(x - x)^5 + (0)^0 + (x + y)^0") == CTX.const(2)
    for text in ("(x + y + z)^100", "(x + y + z)^44", "(1 + x)^1000",
                 "((x + y + z)^10)^5", "(1 + x)^10 (1 + y)^10 (1 + z)^10",
                 "(1 + x + y)^40 * (1 + x + y)^40"):
        with pytest.raises(ParseError, match="_TERM_CAP = 1000"):
            CTX.poly(text)


def test_a_sum_of_ten_large_powers_parses_within_three_seconds():
    """Each (x + y + k*z)^42 takes five squarings and three products; a
    sixth squaring, p^32 * p^32, once took most of the parse.  The hash
    pins the polynomial the earlier loop gave."""
    text = " + ".join(f"(x + y + {k}*z)^42" for k in range(1, 11))
    start = time.perf_counter()
    p = CTX.poly(text)
    elapsed = time.perf_counter() - start
    assert hashlib.sha256(str(p).encode()).hexdigest() == (
        "867f3a5b4e98d76eb36f61496b54b2ca783c54fb22ad93b7252dc7ceacfec420")
    assert elapsed < 3.0, f"{elapsed:.2f} s"


def test_parse_refuses_an_integer_literal_python_cannot_convert():
    assert CTX.poly("7" * 4000 + "*x").terms == {(1, 0, 0): int("7" * 4000)}
    with pytest.raises(ParseError, match="5000-digit literal is too long"):
        CTX.poly("y^2 - " + "7" * 5000 + "*x^3")


def test_arithmetic_basics():
    x, y = CTX.var("x"), CTX.var("y")
    assert (x + y) * (x - y) == x ** 2 - y ** 2
    assert (x + 1) ** 3 == CTX.poly("x^3 + 3x^2 + 3x + 1")
    assert x - x == CTX.zero()
    assert (x * 0).is_zero()


def test_char_p_arithmetic():
    ctx2 = RingCtx(GF(2), ("x", "y"))
    x, y = ctx2.var("x"), ctx2.var("y")
    assert (x + y) ** 2 == x ** 2 + y ** 2
    assert x + x == ctx2.zero()


def test_lex_and_degrevlex_leads():
    f = CTX.poly("x*y^2 + x^2 + y^3")
    assert f.lead(Lex())[0] == (2, 0, 0)
    # degrevlex: all degree 3 except x^2; among x*y^2 and y^3,
    # x*y^2 wins (smaller last-variable share)
    assert f.lead(DegRevLex())[0] == (1, 2, 0)


def test_degrevlex_classic_tie():
    # classic: x*z vs y^2 in degrevlex with x > y > z: y^2 > x*z
    f = CTX.poly("x*z - y^2")
    assert f.lead(DegRevLex())[0] == (0, 2, 0)


def test_weighted_order_and_block_order():
    w = (2, 3, 0)
    ow = WeightedOrder(w)
    f = CTX.poly("y^2 + x^3 + x*y")
    assert f.lead(ow)[0] == (3, 0, 0)  # weight 6 beats 6? no: x^3 w=6, y^2 w=6, xy w=5
    b = BlockOrder(1)
    g = CTX.poly("x + y^5")
    assert g.lead(b)[0] == (1, 0, 0)


def test_weighted_tie_goes_to_degrevlex():
    ow = WeightedOrder((2, 3, 100))
    f = CTX.poly("y^2 + x^3")
    m, _ = f.lead(ow)
    assert m == (3, 0, 0)  # same weight 6; degrevlex prefers x^3


def test_wdot_with_inf():
    assert wdot((2, INF, 1), (3, 0, 1)) == 7
    assert wdot((2, INF, 1), (0, 1, 0)) == INF


def test_ord_and_in_w():
    f = CTX.poly("y^2 - x^3 + x^4")
    w = (2, 3, 1)
    assert ord_w(f, w) == 6
    assert in_w(f, w) == CTX.poly("y^2 - x^3")
    assert ord_w(CTX.zero(), w) == INF
    assert in_w(CTX.zero(), w).is_zero()


def test_in_w_multiplicative_random():
    rng = random.Random(5)
    for _ in range(30):
        f = random_poly(rng)
        g = random_poly(rng)
        if f.is_zero() or g.is_zero():
            continue
        w = (rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5))
        assert ord_w(f * g, w) == ord_w(f, w) + ord_w(g, w)
        assert in_w(f * g, w) == in_w(f, w) * in_w(g, w)


def random_poly(rng, nterms=4):
    items = []
    for _ in range(rng.randint(1, nterms)):
        m = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
        items.append((m, QQ.coerce(rng.randint(-4, 4))))
    return Poly.from_items(items, CTX)


def test_division_properties():
    order = DegRevLex()
    f = CTX.poly("x^2*y + x*y^2 + y^2")
    g1 = CTX.poly("x*y - 1")
    g2 = CTX.poly("y^2 - 1")
    quots, rem = _division(f, [g1, g2], order)
    assert quots[0] * g1 + quots[1] * g2 + rem == f
    for m in rem.terms:
        assert not mono_divisible(m, g1.lead(order)[0])
        assert not mono_divisible(m, g2.lead(order)[0])
    assert rem == CTX.poly("x + y + 1")


def test_homogenized_local_order_prefers_small_weight():
    ctx = RingCtx(QQ, ("x", "y", "h"))
    order = HomogenizedLocalOrder((2, 3), (2, 3))
    # homogenized y^2 - x^3 + x^4 at D = 8: y^2 h^2 - x^3 h^2 + x^4
    f = ctx.poly("y^2 h^2 - x^3 h^2 + x^4")
    m, _ = f.lead(order)
    assert m in ((0, 2, 2), (3, 0, 2))  # weight-6 part leads
    assert m == (0, 2, 2)  # inverse lex tie break prefers y^2


def test_embed_and_subs():
    big = CTX.extend(("w",))
    f = CTX.poly("y^2 - x^3")
    g = embed(f, big)
    assert g.ctx == big and g.terms == {(0, 2, 0, 0): 1, (3, 0, 0, 0): -1}
    # y^2 - x^3 vanishes at (t^2, t^3): under InvLex in (t, x, y) the
    # relations lead with x and y, so its remainder is its image in t
    ring = RingCtx(QQ, ("t", "x", "y"))
    relations = [ring.poly("x - t^2"), ring.poly("y - t^3")]
    assert normal_form(ring.poly("y^2 - x^3"), relations, InvLex()).is_zero()
    assert normal_form(ring.poly("y^2 - x^2"), relations, InvLex()) == \
        ring.poly("t^6 - t^4")


def test_embed_lifts_into_a_simple_extension_only():
    base = RingCtx(GF(5), ("x", "y"))
    ext = FieldSpec(5, extension=(2, 0))  # th^2 + 2
    f = base.poly("y^2 - 3*x^3")
    g = embed(f, RingCtx(ext, ("x", "y", "z")))
    assert g.terms == {(0, 2, 0): (1, 0), (3, 0, 0): (2, 0)}
    for target in (RingCtx(GF(7), ("x", "y")), RingCtx(QQ, ("x", "y")),
                   RingCtx(ext, ("y", "x"))):
        with pytest.raises(ValueError):
            embed(f, target)
    with pytest.raises(ValueError):
        embed(g, RingCtx(GF(5), ("x", "y", "z")))


class _Name(str):
    """A variable name that is a str subclass."""


def test_ring_names_are_checked_on_every_construction():
    """A tuple of names is validated once, through a bounded cache; a
    duplicate or bad name raises on every construction and leaves nothing
    in the cache, and names are stored as plain str."""
    info = _checked_names.cache_info
    assert info().maxsize is not None
    for names in (("x", "x"), ("x", "1y"), ("x", "y z"), ("",)):
        before = info().currsize
        for _ in range(2):
            with pytest.raises(ValueError):
                RingCtx(QQ, names)
        assert info().currsize == before
    ring = RingCtx(GF(7), [_Name("x"), _Name("y")])
    assert ring.variables == ("x", "y")
    assert all(type(v) is str for v in ring.variables)
    assert ring == RingCtx(GF(7), ("x", "y"))
    assert RingCtx(QQ, ("u", "v")).variables is RingCtx(QQ, ("u", "v")).variables


def test_lead_of_zero_raises():
    with pytest.raises(ZeroPoly):
        CTX.zero().lead(DegRevLex())


def test_normal_form_idempotent():
    order = DegRevLex()
    gens = [CTX.poly("x^2 - y"), CTX.poly("y^2 - z")]
    rng = random.Random(9)
    for _ in range(20):
        f = random_poly(rng, 5)
        r = normal_form(f, gens, order)
        assert normal_form(r, gens, order) == r


# the orders a division can run under, each on three variables (the
# homogenized local order reads the last one as the homogenizing variable)
DIVISION_ORDERS = (
    Lex(),
    DegRevLex(),
    WeightedOrder((2, 3, 1)),
    WeightedOrder((INF, 2, 1), BlockOrder(1, Lex(), WeightedOrder((2, 1)))),
    WeightedOrder((1, 1, 2), Lex()),
    BlockOrder(1),
    BlockOrder(2, Lex(), DegRevLex()),
    HomogenizedLocalOrder((2, 3), (2, 3)),
)

# Q, F_7 and F_5(th) with th^2 + 2 = 0
DIVISION_FIELDS = (QQ, GF(7), GF(5, (2, 0)))


def _random_coeff(rng, field):
    if field.extension is not None:
        return tuple(_random_coeff(rng, field.base())
                     for _ in range(field.degree))
    if field.characteristic:
        return rng.randint(0, field.characteristic - 1)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def _random_field_poly(rng, ctx, nterms):
    items = [((rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)),
              ctx.field.coerce(_random_coeff(rng, ctx.field)))
             for _ in range(rng.randint(1, nterms))]
    return Poly.from_items(items, ctx)


@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=str)
def test_division_matches_the_max_scan_reference(field):
    ctx = RingCtx(field, ("x", "y", "h"))
    rng = random.Random(31)
    for order in DIVISION_ORDERS:
        for _ in range(12):
            f = _random_field_poly(rng, ctx, 8)
            divisors = [g for g in (_random_field_poly(rng, ctx, 4)
                                    for _ in range(rng.randint(1, 3))) if g]
            quots, rem = _division(f, divisors, order)
            ref_quots, ref_rem = division_maxscan(
                f.terms, [g.terms for g in divisors], order.key, field)
            # same terms, reached in the same order
            assert list(rem.terms.items()) == list(ref_rem.items())
            assert [list(q.terms.items()) for q in quots] == \
                [list(q.items()) for q in ref_quots]
            assert normal_form(f, divisors, order) == rem
            assert _combination(quots, divisors, rem) == f


def _division(f, divisors, order):
    """(quotients, remainder) with f = sum(q_k * g_k) + r: the one
    division loop with its scale s divided out."""
    s, quots, rem = _scaled_division(f, divisors, order, True)
    if s != 1:
        inv = f.ctx.field.inv(s)
        quots, rem = [q.scale(inv) for q in quots], rem.scale(inv)
    return quots, rem


def _combination(quots, divisors, rem):
    """sum(q_k * g_k) + r, which a division must give back as f."""
    total = rem
    for q, g in zip(quots, divisors):
        total = total + q * g
    return total


@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=str)
def test_division_gives_back_its_dividend_under_every_order(field):
    """An INF weight with a DegRevLex tie is not a monomial order: under
    (2, INF, 1) this division let a remainder monomial recur and lost a
    term.  Every order the tests divide by must give f back."""
    ctx = RingCtx(field, ("x", "y", "h"))
    f = ctx.poly("8*x^3*y^3*h^2 - 11*x^2*y*h^3 - 5*x*y^2*h^2 - 4*x^2*h^2"
                 " + 12*x*y*h")
    divisors = [ctx.poly("-2*x*h^2 + 2*x*y - 3*x*h - 6*y^2"),
                ctx.poly("-8*x^2*y^3*h^3 - 8*x^3*y - 11*x*y^2*h")]
    for order in DIVISION_ORDERS:
        quots, rem = _division(f, divisors, order)
        assert _combination(quots, divisors, rem) == f, order


def _random_integer_poly(rng, ctx, nterms):
    """An integer polynomial over Q, its coefficients ints with leads of
    any size, so division takes fraction-free steps."""
    items = [((rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)),
              rng.choice((-1, 1)) * rng.randint(1, 12))
             for _ in range(rng.randint(1, nterms))]
    return Poly.from_items(items, ctx)


def test_integer_division_matches_the_max_scan_reference():
    """Over Q with integer coefficients each step is a multiple of the
    field step: ``_scaled_division`` returns s*f = sum(q*g) + r with s
    times the reference remainder, and dividing s out gives the
    reference itself, term order included, as ``normal_form`` does."""
    ctx = RingCtx(QQ, ("x", "y", "h"))
    rng = random.Random(37)
    scaled = 0
    for order in DIVISION_ORDERS:
        for _ in range(12):
            f = _random_integer_poly(rng, ctx, 8)
            divisors = [_random_integer_poly(rng, ctx, 4)
                        for _ in range(rng.randint(1, 3))]
            ref_quots, ref_rem = division_maxscan(
                f.terms, [g.terms for g in divisors], order.key, QQ)
            s, quots, rem = _scaled_division(f, divisors, order,
                                             with_quotients=True)
            scaled += s != 1
            assert isinstance(s, int) and s != 0
            assert all(type(c) is int for c in rem.terms.values())
            assert list(rem.terms.items()) == \
                [(m, s * c) for m, c in ref_rem.items()]
            assert _combination(quots, divisors, rem) == f.scale(s)
            quots, rem = _division(f, divisors, order)
            assert list(rem.terms.items()) == list(ref_rem.items())
            assert [list(q.terms.items()) for q in quots] == \
                [list(q.items()) for q in ref_quots]
    assert scaled > 20


def test_order_keys_match_their_reference_formulas():
    rng = random.Random(59)
    for _ in range(300):
        n = rng.randint(1, 5)
        mono = tuple(rng.randint(0, 9) for _ in range(n + 1))
        assert DegRevLex().key(mono) == \
            (sum(mono), tuple(-e for e in reversed(mono)))
        w = tuple(rng.randint(1, 9) for _ in range(n))
        v = tuple(rng.randint(1, 9) for _ in range(n))
        wa = va = 0
        for wi, vi, ai in zip(w, v, mono[:-1]):
            wa += wi * ai
            va += vi * ai
        assert HomogenizedLocalOrder(w, v).key(mono) == \
            (va + mono[-1], -wa, mono[:-1][::-1])


def test_lead_follows_the_order_asked_for():
    f = CTX.poly("x*y^2 + x^2 + y^3 + z^4")
    a, b = Lex(), DegRevLex()
    for _ in range(2):
        assert f.lead(a) == ((2, 0, 0), 1)
        assert f.lead(b) == ((0, 0, 4), 1)
    # an equal but distinct order instance gives the same answer
    w1 = WeightedOrder((1, 1, INF))
    w2 = WeightedOrder((1, 1, INF))
    assert w1 is not w2
    assert f.lead(w1) == f.lead(w2) == ((0, 0, 4), 1)
    assert f.lead(WeightedOrder((1, 1, 0))) == ((1, 2, 0), 1)
    assert f.lead(a) == ((2, 0, 0), 1)
