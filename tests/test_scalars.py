"""Field arithmetic and univariate root extraction."""

import copy
import hashlib
import itertools
import json
import operator
import pickle
import random
import time
from fractions import Fraction

import pytest

from algebroid import (assert_preconditions, cli, decide_irreducible, polyring,
                       sagbi, scalars)
from algebroid.errors import (AlgebroidError, DivisionByZero,
                              SolverLimitation, ZeroPoly)
from algebroid.scalars import (
    GF,
    QQ,
    FieldSpec,
    univariate_roots,
    uv_deriv,
    uv_divmod,
    uv_eval,
    uv_gcd,
    uv_mul,
    uv_monic,
    uv_radical,
    _is_prime,
    _pth_root_payload,
)
from algebroid.polyring import RingCtx
from algebroid.sagbi import TruncSeries


def test_rational_arithmetic():
    a, b = QQ.coerce(Fraction(1, 3)), QQ.coerce(Fraction(1, 6))
    assert QQ.add(a, b) == Fraction(1, 2)
    assert QQ.eq(QQ.mul(a, QQ.coerce(3)), QQ.one())
    assert QQ.eq(QQ.sub(a, a), QQ.zero())
    assert QQ.is_zero(QQ.sub(a, a))


def test_unit_fraction_inverses_over_q_are_ints():
    for a, inverse in ((1, 1), (-1, -1), (Fraction(1), 1),
                       (Fraction(1, 3), 3), (Fraction(-1, 3), -3)):
        assert type(QQ.inv(a)) is int and QQ.inv(a) == inverse
    assert QQ.inv(2) == Fraction(1, 2)
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(DivisionByZero):
        QQ.inv(Fraction(0))


def test_prime_field_inverse():
    f5 = GF(5)
    two = f5.coerce(2)
    assert f5.inv(two) == f5.coerce(3)
    assert f5.mul(two, f5.inv(two)) == f5.one()
    with pytest.raises(DivisionByZero):
        f5.inv(f5.coerce(0))


def test_characteristic_must_be_prime():
    with pytest.raises(ValueError):
        FieldSpec(6)


def test_large_prime_characteristic_is_accepted_quickly():
    start = time.perf_counter()
    field = FieldSpec(2 ** 61 - 1)
    assert time.perf_counter() - start < 1.0
    assert field.characteristic == 2 ** 61 - 1


def test_carmichael_characteristic_is_rejected():
    with pytest.raises(ValueError):
        FieldSpec(561)  # 3 * 11 * 17, a Fermat pseudoprime to every base
    with pytest.raises(ValueError):
        FieldSpec((2 ** 61 - 1) * (2 ** 31 - 1))


def test_is_prime_agrees_with_trial_division():
    def slow(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(3000) if _is_prime(n)] == \
        [n for n in range(3000) if slow(n)]
    # strong pseudoprimes to the bases 2, to 2..7 and to 2..37
    for n in (2047, 3215031751, 318665857834031151167461):
        assert not _is_prime(n)


def test_extension_base_is_built_once():
    ext = GF(5, (2, 0))
    assert ext.base() is ext.base()
    assert ext.base() == GF(5) and hash(ext.base()) == hash(GF(5))
    f5 = GF(5)
    assert f5.base() is f5
    # the stored base is not a dataclass field
    assert ext == GF(5, (2, 0)) and hash(ext) == hash(GF(5, (2, 0)))
    assert repr(ext) == "FieldSpec(characteristic=5, extension=(2, 0))"


def test_quadratic_extension_of_q():
    # Q[th]/(th^2 - 2)
    k = FieldSpec(0, extension=(-2, 0))
    th, one = k.generator(), k.one()
    assert k.mul(th, th) == k.coerce(2)
    assert k.mul(k.add(one, th), k.sub(one, th)) == k.coerce(-1)
    assert k.mul(k.inv(th), th) == one
    # 1/(1+th) = th - 1 since (1+th)(th-1) = th^2 - 1 = 1
    assert k.div(one, k.add(one, th)) == k.sub(th, one)


def test_an_extension_prints_its_definition_as_a_polynomial_does():
    assert str(FieldSpec(0, (-2, 0))) == "Q[th]/(th^2 - 2)"
    assert str(FieldSpec(0, (1, -1))) == "Q[th]/(th^2 - th + 1)"
    assert str(GF(5, (2, 0))) == "F5[th]/(th^2 + 2)"
    assert str(GF(2, (1, 1))) == "F2[th]/(th^2 + th + 1)"
    assert (str(QQ), str(GF(7))) == ("Q", "F7")


def test_extension_requires_irreducible_minpoly():
    with pytest.raises(ValueError):
        FieldSpec(0, extension=(-1, 0))  # th^2 - 1 splits
    with pytest.raises(ValueError):
        FieldSpec(5, extension=(-4, 0))  # th^2 - 4 splits mod 5


def test_an_extension_definition_is_checked_once(monkeypatch):
    """Two constructions of one field check its definition once; a
    reducible definition is refused on every construction."""
    calls = []
    inner = scalars._is_irreducible

    def counted(f, field):
        calls.append(tuple(f))
        return inner(f, field)

    monkeypatch.setattr(scalars, "_is_irreducible", counted)
    scalars._defines_extension.cache_clear()
    assert FieldSpec(5, (2, 0)) == FieldSpec(5, (2, 0))
    assert len(calls) == 1
    for _ in range(2):
        with pytest.raises(ValueError, match="reducible"):
            FieldSpec(5, (1, 0))  # th^2 + 1 = (th - 2)(th + 2) mod 5
    assert len(calls) == 2


def test_finite_extension_field():
    # F_2[th]/(th^2 + th + 1) = F_4
    f4 = GF(2, extension=(1, 1))
    th = f4.generator()
    assert f4.mul(th, th) == f4.add(th, f4.one())
    assert f4.pow(th, 3) == f4.one()
    elems = list(f4.elements())
    assert len(elems) == 4
    for e in elems:
        if not f4.is_zero(e):
            assert f4.mul(e, f4.inv(e)) == f4.one()


def test_fraction_coercion_mod_p():
    f7 = GF(7)
    assert f7.coerce(Fraction(1, 2)) == 4  # inverse of 2 mod 7


def random_poly(rng, field, deg):
    coeffs = [field.from_int(rng.randint(-6, 6)) for _ in range(deg)]
    coeffs.append(field.one())
    return coeffs


def test_uv_division_property():
    rng = random.Random(7)
    for _ in range(40):
        field = QQ if rng.random() < 0.5 else GF(rng.choice([2, 3, 5, 7]))
        f = random_poly(rng, field, rng.randint(1, 6))
        g = random_poly(rng, field, rng.randint(1, 4))
        q, r = uv_divmod(f, g, field)
        back = [field.add(a, b) for a, b in
                zip(uv_mul(q, g, field) + [field.zero()] * 10,
                    r + [field.zero()] * 10)]
        trimmed = f + [field.zero()] * (len(back) - len(f))
        assert all(field.eq(a, b) for a, b in zip(back, trimmed))
        assert len(r) < len(g) or not r


def test_uv_gcd_divides_both():
    rng = random.Random(11)
    for _ in range(30):
        field = QQ if rng.random() < 0.5 else GF(5)
        f = random_poly(rng, field, rng.randint(1, 4))
        g = random_poly(rng, field, rng.randint(1, 4))
        h = random_poly(rng, field, rng.randint(0, 3))
        fh = uv_mul(f, h, field)
        gh = uv_mul(g, h, field)
        d = uv_gcd(fh, gh, field)
        _, r1 = uv_divmod(fh, d, field)
        _, r2 = uv_divmod(gh, d, field)
        assert not r1 and not r2
        assert len(d) >= len(h) or len(h) == 0


def test_radical_strips_multiplicity():
    # (a - 1)^3 (a + 2)^2 over Q
    f = uv_mul(uv_mul([-1, 1], uv_mul([-1, 1], [-1, 1], QQ), QQ),
               uv_mul([2, 1], [2, 1], QQ), QQ)
    rad = uv_radical(f, QQ)
    expect = uv_mul([-1, 1], [2, 1], QQ)
    assert rad == expect


def _radical_by_stripping(f, field):
    """uv_radical as it ran in every characteristic: f / gcd(f, f'), times
    the radical of what is left of gcd(f, f') once the factors of
    f / gcd(f, f') are stripped out of it.  Returns that radical and
    whether anything was left."""
    f = uv_monic(f, field)
    if len(f) <= 1:
        return [field.one()], False
    common = uv_gcd(f, uv_deriv(f, field), field)
    w, r = uv_divmod(f, common, field)
    assert not r
    rest = common
    while True:
        shared = uv_gcd(rest, w, field)
        if len(shared) == 1:
            break
        rest, r = uv_divmod(rest, shared, field)
        assert not r
    if len(rest) == 1:
        return w, False
    return uv_mul(w, _radical_by_stripping(rest, field)[0], field), True


def test_the_radical_in_characteristic_zero_needs_no_stripping():
    """Seeded products of powers of small integer polynomials over Q."""
    rng = random.Random(61)
    for _ in range(60):
        f = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))]
        for _ in range(rng.randint(1, 4)):
            g = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 3))]
            g.append(Fraction(1))
            for _ in range(rng.randint(1, 4)):
                f = uv_mul(f, g, QQ)
        want, left = _radical_by_stripping(f, QQ)
        assert not left
        assert uv_radical(f, QQ) == want


def test_radical_inseparable_char_p():
    # a^2 + 1 = (a + 1)^2 over F_2
    f2 = GF(2)
    assert uv_radical([1, 0, 1], f2) == [1, 1]
    # a^4 + a^2 = (a (a+1))^2 over F_2
    rad = uv_radical([0, 0, 1, 0, 1], f2)
    assert rad == uv_mul([0, 1], [1, 1], f2)


def test_roots_acceptance_shapes():
    # (a+1)^2 (a-1)^2 -> roots {-1, 1}, nothing left over
    f = uv_mul(uv_mul([1, 1], [1, 1], QQ), uv_mul([-1, 1], [-1, 1], QQ), QQ)
    roots, residual = univariate_roots(f, QQ)
    assert roots == [-1, 1]
    assert residual == []


def test_roots_rational_and_residual():
    # (2a - 1)(a^2 + 1): one rational root, one irreducible quadratic
    f = uv_mul([-1, 2], [1, 0, 1], QQ)
    roots, residual = univariate_roots(f, QQ)
    assert roots == [Fraction(1, 2)]
    assert residual == [(Fraction(1), Fraction(0), Fraction(1))]


def test_roots_zero_at_origin():
    roots, residual = univariate_roots([0, 0, -1, 1], QQ)  # a^2 (a - 1)
    assert roots == [0, 1]
    assert residual == []


def test_roots_over_f3():
    # a^2 - a has roots 0 and 1 over F_3
    roots, residual = univariate_roots([0, -1, 1], GF(3))
    assert roots == [0, 1]
    assert residual == []
    # a^2 + 1 is irreducible over F_3
    roots, residual = univariate_roots([1, 0, 1], GF(3))
    assert roots == []
    assert len(residual) == 1


def test_roots_zero_poly_rejected():
    with pytest.raises(ZeroPoly):
        univariate_roots([0, 0], QQ)


def test_quartic_splits_into_quadratics():
    # (a^2 + 1)(a^2 + 2) has no rational roots; both factors must be found
    f = uv_mul([1, 0, 1], [2, 0, 1], QQ)
    roots, residual = univariate_roots(f, QQ)
    assert roots == []
    assert sorted(residual) == [(Fraction(1), Fraction(0), Fraction(1)),
                                (Fraction(2), Fraction(0), Fraction(1))]


def test_irreducible_quartic_stays_whole():
    # a^4 + a + 1 is irreducible over Q
    roots, residual = univariate_roots([1, 1, 0, 0, 1], QQ)
    assert roots == []
    assert residual == [(Fraction(1), Fraction(1), Fraction(0), Fraction(0),
                         Fraction(1))]


def test_roots_inside_quadratic_extension():
    # over Q[th]/(th^2 - 2): a^2 - 2 picks up both th and -th
    k = FieldSpec(0, extension=(-2, 0))
    roots, residual = univariate_roots([k.coerce(-2), k.zero(), k.one()], k)
    th = k.generator()
    assert set(roots) == {th, k.neg(th)}
    assert residual == []
    # a^2 - 3 has no roots there and the limitation is honest
    roots, residual = univariate_roots([k.coerce(-3), k.zero(), k.one()], k)
    assert roots == []
    assert len(residual) == 1


def test_a_rootless_octic_stays_whole():
    # a^8 + 1 is irreducible over Q and splits modulo every prime
    f = [QQ.one()] + [QQ.zero()] * 7 + [QQ.one()]
    assert univariate_roots(f, QQ) == ([], [tuple(f)])


def _seeded_root_products(rng, count):
    """Products of distinct linear factors q*a - p with 1- to 12-digit p
    and q, times rootless quadratics a^2 + b*a + b^2 + c (c > 0), as
    ascending int lists, with the roots p/q."""
    for _ in range(count):
        roots = set()
        for _ in range(rng.randint(0, 4)):
            p = rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(1, 12))
            roots.add(Fraction(p, rng.randint(1, 10 ** rng.randint(1, 12))))
        f = [1]
        for r in roots:
            f = uv_mul(f, [-r.numerator, r.denominator], QQ)
        quads = {(b * b + rng.randint(1, 99), b)
                 for b in (rng.randint(-50, 50)
                           for _ in range(rng.randint(0 if roots else 1, 2)))}
        for c0, b in quads:
            f = uv_mul(f, [c0, b, 1], QQ)
        yield f, roots


def _rational_roots(f):
    """The rational roots of f, read from its linear factors over Q."""
    return sorted(-h[0] for h in scalars._rational_factors(f) if len(h) == 2)


def test_rational_roots_agree_with_sympy_on_seeded_products():
    sympy = pytest.importorskip("sympy")
    a = sympy.Symbol("a")
    for f, roots in _seeded_root_products(random.Random(18), 60):
        theirs = sympy.Poly(list(reversed(f)), a).ground_roots()
        want = sorted(Fraction(int(r.p), int(r.q)) for r in theirs)
        assert want == sorted(roots)
        assert _rational_roots(f) == want
        assert _rational_roots([Fraction(c, 7) for c in f]) == want


def test_rational_roots_of_large_coefficients_come_fast():
    # the divisors of a0 and an were searched up to their square roots
    f = uv_mul([-(10 ** 12 + 39), 10 ** 12 - 11], [-(2 ** 61 - 1), 3], QQ)
    start = time.perf_counter()
    assert _rational_roots(f) == sorted(
        [Fraction(10 ** 12 + 39, 10 ** 12 - 11), Fraction(2 ** 61 - 1, 3)])
    assert time.perf_counter() - start < 0.5


def test_rational_roots_include_zero_and_refuse_a_square():
    assert _rational_roots([0, 1, 1]) == [-1, 0]
    with pytest.raises(AlgebroidError, match="not squarefree"):
        _rational_roots([1, 2, 1])


def _monic_fractions(poly):
    """A sympy Poly's coefficients, ascending and divided by its leading
    one, as Fractions."""
    coeffs = [Fraction(int(c.p), int(c.q))
              for c in reversed(poly.all_coeffs())]
    return tuple(c / coeffs[-1] for c in coeffs)


def _seeded_squarefree_products(rng, count, field):
    """Squarefree products of 1-4 random polynomials of degree 1-4 with
    coefficients in [-9, 9] (reduced into ``field``), as payload lists."""
    made = 0
    while made < count:
        f = [1]
        for _ in range(rng.randint(1, 4)):
            deg = rng.randint(1, 4)
            f = uv_mul(f, [field.coerce(rng.randint(-9, 9))
                           for _ in range(deg)]
                       + [field.coerce(rng.randint(1, 9))], field)
        if len(f) > 1 and len(uv_gcd(f, uv_deriv(f, field), field)) == 1:
            made += 1
            yield f


def test_rational_factors_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    a = sympy.Symbol("a")
    inputs = [f for f, _ in _seeded_root_products(random.Random(18), 60)]
    inputs += list(_seeded_squarefree_products(random.Random(25), 120, QQ))
    for f in inputs:
        _, theirs = sympy.Poly(list(reversed(f)), a).factor_list()
        want = sorted((len(h), h) for h in (
            _monic_fractions(h) for h, _ in theirs))
        got = scalars._irreducible_factors(uv_monic(f, QQ), QQ)
        assert [(len(h), tuple(h)) for h in got] == want
        roots, residual = univariate_roots(f, QQ)
        assert roots == sorted(-h[1][0] for h in want if h[0] == 2)
        assert residual == [h[1] for h in want if h[0] > 2]


@pytest.mark.parametrize("p", [2, 3, 101, 1000003])
def test_finite_factors_agree_with_sympy(p):
    sympy = pytest.importorskip("sympy")
    a, field = sympy.Symbol("a"), GF(p)
    for f in _seeded_squarefree_products(random.Random(p), 60, field):
        f = uv_monic(f, field)
        _, theirs = sympy.Poly(list(reversed(f)), a, modulus=p).factor_list()
        want = sorted((len(h), h) for h in (
            tuple(int(c) % p for c in reversed(h.all_coeffs()))
            for h, _ in theirs))
        got = scalars._irreducible_factors(f, field)
        assert [(len(h), tuple(h)) for h in got] == want


@pytest.mark.parametrize("field", [GF(2, (1, 1)), GF(3, (1, 0)),
                                   GF(5, (2, 0))], ids=["F4", "F9", "F25"])
def test_extension_factors_agree_with_enumeration(field):
    # over F_4 = F_2[th]/(th^2 + th + 1), F_9 = F_3[th]/(th^2 + 1) and
    # F_25 = F_5[th]/(th^2 + 2)
    rng, elements = random.Random(field.size()), list(field.elements())
    for _ in range(80):
        f = [tuple(rng.randrange(field.characteristic) for _ in range(2))
             for _ in range(rng.randint(1, 5))] + [field.one()]
        rad = uv_radical(f, field)
        roots, residual = univariate_roots(f, field)
        assert roots == sorted(
            (x for x in elements if field.is_zero(uv_eval(f, x, field))),
            key=field.sort_key)
        product = [field.one()]
        for h in [[field.neg(r), field.one()] for r in roots] + residual:
            product = uv_mul(product, h, field)
        assert product == rad
        for h in residual:  # irreducible: no monic divisor of low degree
            assert all(uv_divmod(h, [*low, field.one()], field)[1]
                       for k in range(1, (len(h) - 1) // 2 + 1)
                       for low in itertools.product(elements, repeat=k))


def test_the_swinnerton_dyer_polynomial_of_four_roots_stays_whole():
    # the minimal polynomial of sqrt(2) + sqrt(3) + sqrt(5) + sqrt(7) has
    # degree 16 and splits into factors of degree at most 2 modulo every
    # prime
    sympy = pytest.importorskip("sympy")
    a = sympy.Symbol("a")
    poly = sympy.minimal_polynomial(
        sum(sympy.sqrt(q) for q in (2, 3, 5, 7)), a, polys=True)
    f = [int(c) for c in reversed(poly.all_coeffs())]
    assert len(f) == 17
    start = time.perf_counter()
    assert univariate_roots(f, QQ) == ([], [tuple(f)])
    assert time.perf_counter() - start < 5


def test_the_swinnerton_dyer_polynomial_of_five_roots_is_a_typed_limit():
    # degree 32, 16 quadratic factors modulo 19: recombination would try
    # 39,202 subsets before the polynomial came back whole
    sympy = pytest.importorskip("sympy")
    a = sympy.Symbol("a")
    poly = sympy.minimal_polynomial(
        sum(sympy.sqrt(q) for q in (2, 3, 5, 7, 11)), a, polys=True)
    f = [int(c) for c in reversed(poly.all_coeffs())]
    assert len(f) == 33
    cap = scalars._SUBSET_CAP
    # f(3a) has leading coefficient 3^32, so its recombined products are
    # not monic either
    for g in (f, [c * 3 ** i for i, c in enumerate(f)]):
        start = time.perf_counter()
        with pytest.raises(SolverLimitation,
                           match=f"more than {cap} subsets"):
            univariate_roots(g, QQ)
        assert time.perf_counter() - start < 2


def test_an_extension_by_a_polynomial_with_root_zero_is_refused():
    # th^2 + th = th (th + 1) passed as irreducible over Q
    with pytest.raises(ValueError, match="reducible"):
        FieldSpec(0, extension=(0, 1))


def test_a_quartic_with_large_values_splits_into_its_quadratics():
    # (a^2 + 10^7)(a^2 + 10^7 + 1) is rootless; its value at 0 is about 10^14
    f = uv_mul([10 ** 7, 0, 1], [10 ** 7 + 1, 0, 1], QQ)
    assert univariate_roots(f, QQ) == (
        [], [(10 ** 7, 0, 1), (10 ** 7 + 1, 0, 1)])


def test_scalar_hash_consistent():
    a, b = QQ.coerce(Fraction(2, 1)), QQ.coerce(2)
    assert QQ.eq(a, b) and QQ.sort_key(a) == QQ.sort_key(b)
    assert hash(a) == hash(b)


def test_property_inverse_round_trip():
    rng = random.Random(3)
    fields = [QQ, GF(5), GF(2, extension=(1, 1)), FieldSpec(0, extension=(-2, 0))]
    for field in fields:
        for _ in range(25):
            n = rng.randint(-20, 20)
            d = rng.randint(1, 9)
            try:
                a = field.coerce(Fraction(n, d))
            except ZeroDivisionError:
                continue
            if field.is_zero(a):
                continue
            assert field.eq(field.mul(a, field.inv(a)), field.one())


def test_a_pth_root_over_q_raises_a_typed_error():
    with pytest.raises(AlgebroidError, match="squarefree part"):
        _pth_root_payload(Fraction(2), QQ)


def test_an_inexact_division_in_the_squarefree_part_raises(monkeypatch):
    # x + 1 does not divide x^2 + x + 1
    monkeypatch.setattr(scalars, "uv_gcd", lambda f, g, field: [1, 1])
    with pytest.raises(AlgebroidError, match="squarefree part"):
        uv_radical([1, 1, 1], QQ)


# ------------------------------------------ quadratics by their discriminant

def _pencil_quadratics(rng, count):
    """Squarefree quadratics a*(x - r1)*(x - r2) or rootless ones, with
    pencil-sized Fraction coefficients: roots integral or fractional,
    discriminants positive squares, positive non-squares and negative."""
    for i in range(count):
        a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 60),
                     rng.randint(1, 40))
        if i % 3 == 2:          # disc = b^2 - 4c, c > b^2/4 or non-square
            b = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            c = b * b / 4 + Fraction(rng.choice((-1, 1)) * rng.randint(1, 50),
                                     rng.randint(1, 9))
            f = [a * c, a * b, a]
        else:
            r1, r2 = (Fraction(rng.randint(-99, 99),
                               1 if i % 3 == 0 else rng.randint(1, 12))
                      for _ in range(2))
            if r1 == r2:
                r2 += 1
            f = [a * r1 * r2, -a * (r1 + r2), a]
        yield f


def _sympy_factors(f, a, modulus=None):
    """sympy's monic irreducible factors of f, ascending lists."""
    sympy = pytest.importorskip("sympy")
    if modulus is None:
        poly = sympy.Poly(list(reversed(f)), a, domain="QQ")
        return sorted(list(_monic_fractions(h)) for h, _ in
                      poly.factor_list()[1])
    poly = sympy.Poly(list(reversed(f)), a, modulus=modulus)
    return sorted([int(c) % modulus for c in reversed(h.all_coeffs())]
                  for h, _ in poly.factor_list()[1])


def _typed(h):
    return [(type(c), c) for c in h]


def test_rational_quadratics_agree_with_sympy_and_keep_payload_types():
    sympy = pytest.importorskip("sympy")
    a, seen = sympy.Symbol("a"), set()
    for f in _pencil_quadratics(random.Random(50), 300):
        want = _sympy_factors(f, a)
        got = scalars._irreducible_factors(uv_monic(f, QQ), QQ)
        assert sorted(got) == want
        # the payloads of the modular path: the primitive factor made monic
        assert [_typed(h) for h in got] == [
            _typed(uv_monic(scalars._primitive_ints(h), QQ)) for h in got]
        roots, residual = univariate_roots(f, QQ)
        assert roots == sorted(-h[0] for h in want if len(h) == 2)
        assert residual == [tuple(h) for h in want if len(h) == 3]
        for r in roots:
            assert type(r) is (int if r.denominator == 1 else Fraction)
        disc = f[1] * f[1] - 4 * f[0] * f[2]
        seen.add("negative" if disc < 0 else "root" if roots
                 else "non-square")
        seen |= {"integral" if r.denominator == 1 else "fractional"
                 for r in roots}
    assert seen == {"negative", "root", "non-square", "integral",
                    "fractional"}


@pytest.mark.parametrize("p", [3, 5, 7, 13, 101, 2 ** 31 - 1, 2 ** 61 - 1])
def test_prime_field_quadratics_agree_with_sympy(p):
    sympy = pytest.importorskip("sympy")
    a, field, rng, split = sympy.Symbol("a"), GF(p), random.Random(p), set()
    made = 0
    while made < 60:
        f = [rng.randrange(p), rng.randrange(p), 1]
        if not (f[1] * f[1] - 4 * f[0]) % p:
            continue
        made += 1
        got = scalars._irreducible_factors(f, field)
        assert got == _sympy_factors(f, a, p)
        assert all(type(c) is int and 0 <= c < p for h in got for c in h)
        split.add(len(got))
    assert split == {1, 2}


def test_quadratics_need_no_prime_search_or_random_draw(monkeypatch):
    def refuse(*args):
        raise AssertionError("the modular path ran")

    for name in ("_hensel_lift", "_equal_degree_split", "_uv_powmod"):
        monkeypatch.setattr(scalars, name, refuse)
    assert univariate_roots([Fraction(-3, 4), 1, 1], QQ) == (
        [Fraction(-3, 2), Fraction(1, 2)], [])
    assert univariate_roots([2, 0, 1], QQ) == ([], [(2, 0, 1)])
    assert univariate_roots([2, 2, 1], GF(13)) == ([4, 7], [])
    assert univariate_roots([2, 0, 1], GF(2 ** 61 - 1)) == ([], [(2, 0, 1)])


@pytest.mark.parametrize("field", [QQ, GF(3), GF(101), GF(2 ** 61 - 1)],
                         ids=str)
def test_a_zero_discriminant_is_not_squarefree(field):
    factorise = (scalars._rational_factors if field is QQ else
                 lambda f: scalars._finite_factors(f, field))
    for r in (1, 5, -7, Fraction(3, 2)):
        f = [field.coerce(r * r), field.coerce(-2 * r), field.one()]
        with pytest.raises(AlgebroidError, match="not squarefree"):
            factorise(f)


@pytest.mark.parametrize("p", [q for q in range(3, 200) if _is_prime(q)])
def test_the_square_root_mod_p_agrees_with_brute_force(p):
    squares = {x * x % p: x for x in range(p)}
    for n in range(p):
        r = scalars._sqrt_mod(n, p)
        if n in squares:
            assert r is not None and 0 <= r < p and r * r % p == n
        else:
            assert r is None


def test_a_false_root_raises_a_typed_error(monkeypatch):
    # 5 is not a root of x^2 - 2
    monkeypatch.setattr(scalars, "_rational_factors", lambda f: [[-5, 1]])
    with pytest.raises(AlgebroidError, match="root extraction"):
        univariate_roots([-2, 0, 1], QQ)


# ------------------------------------------------- kernels bound per field

F5TH = GF(5, (2, 0))  # F_5[th]/(th^2 + 2)
ONE_FIELD_PER_KIND = pytest.mark.parametrize(
    "field", [QQ, GF(7), F5TH], ids=["Q", "F7", "F5th"])


@pytest.mark.parametrize(
    "field", [QQ, GF(7), F5TH, FieldSpec(0, (2, 0))],
    ids=["Q", "F7", "F5th", "Q(sqrt-2)"])
def test_roots_are_plain_payloads_sorted_by_the_field(field):
    # a (a - 1) (a^2 + 2): a^2 + 2 splits as (a - th)(a + th) over the two
    # extensions by th^2 + 2 and is irreducible over Q and F_7
    f = uv_mul(uv_mul([0, 1], [-1, 1], QQ), [2, 0, 1], QQ)
    roots, residual = univariate_roots([field.coerce(c) for c in f], field)
    payload = tuple if field.extension else (int, Fraction)
    assert all(isinstance(r, payload) and field.coerce(r) == r
               for r in roots)
    assert roots == sorted(roots, key=field.sort_key)
    want = {field.zero(), field.one()}
    if field.extension:
        want |= {field.generator(), field.neg(field.generator())}
    assert set(roots) == want and len(roots) == len(want)
    assert residual == ([] if field.extension else [(2, 0, 1)])


@ONE_FIELD_PER_KIND
def test_coerce_rejects_what_is_not_an_int_or_fraction(field):
    for bad in (2.5, 2.0, "3"):
        with pytest.raises(TypeError, match="cannot coerce"):
            field.coerce(bad)
    assert field.coerce(True) == field.one()


@ONE_FIELD_PER_KIND
def test_fields_rings_and_polys_survive_pickle_and_deepcopy(field):
    ctx = RingCtx(field, ("x", "y"))
    f = ctx.poly("x^2 + 3*y - 1")
    for obj in (field, ctx, f):
        for copy_of in (lambda o: pickle.loads(pickle.dumps(o)),
                        copy.deepcopy):
            other = copy_of(obj)
            assert other == obj and hash(other) == hash(obj)
            assert repr(other) == repr(obj)
    twin = pickle.loads(pickle.dumps(field))
    assert repr(twin) == (f"FieldSpec(characteristic={field.characteristic}, "
                          f"extension={field.extension!r})")
    two = twin.from_int(2)
    assert twin.eq(twin.mul(two, twin.inv(two)), twin.one())
    g = copy.deepcopy(f)
    assert g * g - f * f == ctx.zero()


def _reference_pow(field, a, n):
    """a^n by square-and-multiply on the convolution kernel alone."""
    if n < 0:
        a, n = field._ext_inv(a), -n
    out = field.one()
    while n:
        if n & 1:
            out = field._ext_mul(out, a)
        a = field._ext_mul(a, a)
        n >>= 1
    return out


def _check_against_reference(field, pairs, elements):
    """mul, div, inv and pow of the bound kernels equal those built from
    _ext_mul and _ext_inv alone."""
    inverse = {a: field._ext_inv(a) for a in elements if any(a)}
    for a, b in pairs:
        assert field.mul(a, b) == field._ext_mul(a, b)
        if any(b):
            assert field.div(a, b) == field._ext_mul(a, inverse[b])
    q = field.size()
    for a in elements:
        if any(a):
            assert field.inv(a) == inverse[a]
            for n in (-q, -5, -2, -1, 1, 2, 3, q - 2, q - 1, q, 2 * q + 1):
                assert field.pow(a, n) == _reference_pow(field, a, n)
        assert field.pow(a, 0) == field.one()
    zero = field.zero()
    assert field.pow(zero, 3) == zero
    for inv in (field.inv, field._ext_inv, lambda a: field.pow(a, -1)):
        with pytest.raises(DivisionByZero):
            inv(zero)


@pytest.mark.parametrize("p, ext", [(5, (2, 0)), (3, (1, 0)), (2, (1, 1, 0)),
                                    (7, (-2, 0, 0))])
def test_tables_agree_with_the_reference_kernels_on_every_pair(p, ext):
    field = GF(p, ext)
    elements = list(field.elements())
    _check_against_reference(field, itertools.product(elements, repeat=2),
                             elements)


@pytest.mark.parametrize("p, ext, tabled", [
    (2, (1, 0, 0, 1) + (0,) * 8, True),    # th^12 + th^3 + 1, q = 4096
    (3, (2, 0, 0, 1, 0, 0, 0, 0), False),  # th^8 + th^3 + 2, q = 6561
])
def test_kernels_at_the_table_size_boundary(p, ext, tabled):
    field = GF(p, ext)
    rng = random.Random(f"{p}:{len(ext)}")
    elements = [tuple(rng.randrange(p) for _ in ext) for _ in range(60)]
    elements.append(field.zero())
    pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(300)]
    _check_against_reference(field, pairs, elements)
    assert (field.size() <= scalars._ENUM_CAP) == tabled
    assert (vars(field)["mul"] == field._ext_mul) != tabled


def test_kernels_are_bound_once_per_field():
    for field in (QQ, GF(7), F5TH, FieldSpec(0, (-2, 0))):
        for name in ("add", "sub", "neg", "mul", "inv", "is_zero"):
            assert name in vars(field)
            assert getattr(field, name) is getattr(field, name)
    assert QQ.add is operator.add and QQ.is_zero is operator.not_


def test_equal_prime_fields_share_their_kernels():
    first, second = GF(101), GF(101)
    assert first is not second
    for name in ("add", "sub", "neg", "mul", "inv"):
        assert getattr(first, name) is getattr(second, name)
    assert first.mul(3, 34) == 1 and GF(7).mul(3, 5) == 1


def test_equal_fields_share_one_table(monkeypatch):
    """The first of two equal fields builds the log tables when it is
    constructed; the second, and every multiply and inverse, reuse them."""
    calls = []
    ext_mul = FieldSpec._ext_mul

    def counted(self, a, b):
        calls.append(self)
        return ext_mul(self, a, b)

    scalars._log_tables.cache_clear()
    monkeypatch.setattr(FieldSpec, "_ext_mul", counted)
    try:
        first = GF(5, (2, 0))
        built = len(calls)
        assert built > 0 and all(f is first for f in calls)
        second = GF(5, (2, 0))
        assert first is not second and len(calls) == built
        th = first.generator()
        assert first.mul(th, th) == (3, 0)
        assert second.inv(th) == (0, 2) and second.mul(th, th) == (3, 0)
        assert len(calls) == built
        assert scalars._log_tables.cache_info().misses == 1
        assert scalars._log_tables(first) is scalars._log_tables(second)
    finally:
        scalars._log_tables.cache_clear()


SPACE_2_F5TH = """char 5
ext th^2 + 2
vars x y z
ideal:
x^3 - y^2
(z^2 - x*y)^2 - x*y*z^3
"""


def test_the_space_curve_over_f5th_keeps_its_certificate():
    handle = assert_preconditions(cli.parse_ideal_text(SPACE_2_F5TH))
    report = decide_irreducible(handle)
    doc = cli.certificate_json(report.certificate)
    assert (report.verdict, doc["kind"], doc["data"]) == \
        ("irreducible", "prime_tropism", [8, 12, 10, 25])
    assert doc["transcript"][0]["poly"]["text"] == "x*y + 4*z^2"
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "8af9e67776062c02aba909f0d3c46e931c1605b10453b4cbf4ab4dab55c785a6"


# ----------------------------------------------------------------- powers

def _repeated(mul, one, a, n):
    """a^n as n products, the reference for every power."""
    out = one
    for _ in range(n):
        out = mul(out, a)
    return out


def _random_element(field, rng):
    if field.extension is not None:
        return tuple(_random_element(field.base(), rng)
                     for _ in range(field.degree))
    if field.characteristic:
        return rng.randrange(field.characteristic)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def test_power_squares_only_below_the_top_bit():
    """Each element is a fresh one-entry list holding its exponent, so a
    squaring is the one product of an element with itself."""
    for n in range(71):
        squares, products = [], []

        def mul(a, b):
            (squares if a is b else products).append(b[0])
            return [a[0] + b[0]]

        assert scalars._power([1], n, mul, [0]) == [n]
        assert len(squares) == max(n.bit_length() - 1, 0)
        assert len(products) == bin(n).count("1")


POWER_FIELDS = {"Q": QQ, "F7": GF(7), "F25": F5TH,
                "F3^8": GF(3, (2, 0, 0, 1, 0, 0, 0, 0)),
                "Q(sqrt-2)": FieldSpec(0, (2, 0))}


@pytest.mark.parametrize("fid", POWER_FIELDS)
def test_field_powers_equal_repeated_products(fid):
    field = POWER_FIELDS[fid]
    rng = random.Random(fid)
    for _ in range(6):
        a = _random_element(field, rng)
        for n in range(-4, 20):
            if n < 0 and field.is_zero(a):
                continue
            base = field.inv(a) if n < 0 else a
            assert field.pow(a, n) == _repeated(field.mul, field.one(),
                                                base, abs(n))


@pytest.mark.parametrize("p, ext", [(5, (2, 0)), (3, (1, 0)), (2, (1, 1, 0))],
                         ids=["F25", "F9", "F8"])
def test_the_log_tables_start_from_the_first_primitive_element(p, ext):
    field = GF(p, ext)
    n = field.size() - 1

    def order(a):
        k, b = 1, a
        while b != field.one():
            b, k = field._ext_mul(b, a), k + 1
        return k

    g = next(a for a in field.elements() if any(a) and order(a) == n)
    exp, log = scalars._log_tables.__wrapped__(field)
    assert exp[:n] == [_repeated(field._ext_mul, field.one(), g, i)
                       for i in range(n)]


@pytest.mark.parametrize("fid", ["Q", "F7", "F25"])
def test_powers_modulo_a_polynomial_equal_repeated_products(fid):
    field = POWER_FIELDS[fid]
    rng = random.Random(fid)
    for _ in range(3):
        m = [_random_element(field, rng) for _ in range(4)] + [field.one()]
        g = [_random_element(field, rng) for _ in range(7)]

        def mulmod(a, b):
            return uv_divmod(uv_mul(a, b, field), m, field)[1]

        reduced = uv_divmod(g, m, field)[1]
        for e in range(20):
            assert scalars._uv_powmod(g, e, m, field) == _repeated(
                mulmod, [field.one()], reduced, e)


@pytest.mark.parametrize("field", (QQ, GF(101)), ids=str)
def test_polynomial_powers_equal_repeated_products(field):
    ctx = RingCtx(field, ("x", "y"))
    rng = random.Random(str(field))
    for _ in range(4):
        p = ctx.poly(" + ".join(
            f"{rng.randint(-5, 5)}*x^{rng.randrange(3)}*y^{rng.randrange(3)}"
            for _ in range(3)))
        for n in range(12):
            assert p ** n == _repeated(operator.mul, ctx.one(), p, n)
    with pytest.raises(ValueError, match="negative polynomial power"):
        ctx.var(0) ** -1


def test_series_powers_equal_repeated_products():
    rng = random.Random(3)
    for N in (4, 9):
        one = TruncSeries.from_terms([(0, 1)], N, QQ)
        for _ in range(4):
            s = TruncSeries.from_terms(
                [(rng.randrange(N), rng.randint(-3, 3)) for _ in range(3)],
                N, QQ)
            for n in range(10):
                got, want = s ** n, _repeated(operator.mul, one, s, n)
                assert (got.coeffs, got.exact) == (want.coeffs, want.exact)
    with pytest.raises(ValueError, match="negative series power"):
        one ** -1


def test_every_power_runs_the_one_loop(monkeypatch):
    """FieldSpec.pow, the log tables, _uv_powmod and the powers of Poly
    and TruncSeries each reach ``_power``."""
    power, calls = scalars._power, []

    def spy(a, n, mul, one):
        calls.append(n)
        return power(a, n, mul, one)

    for module in (scalars, polyring, sagbi):
        monkeypatch.setattr(module, "_power", spy)
    f9 = GF(3, (1, 0))
    runs = [(lambda: GF(7).pow(3, 5), {5}),
            (lambda: scalars._log_tables.__wrapped__(f9), {4}),
            (lambda: scalars._uv_powmod([0, 1], 7, [1, 0, 1], GF(7)), {7}),
            (lambda: RingCtx(QQ, ("x",)).poly("x + 1") ** 3, {3}),
            (lambda: TruncSeries.from_terms([(1, 1)], 5, QQ) ** 2, {2})]
    for run, exponents in runs:
        calls.clear()
        run()
        assert calls and set(calls) == exponents
