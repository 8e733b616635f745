"""Sparse multivariate polynomials over a FieldSpec, term orders, weighted
degrees and initial forms.

Monomials are exponent tuples, polynomials are dicts from monomial to
coefficient payload.  Weight vectors may contain ``INF`` entries; a term
with a positive exponent in an INF slot has weighted degree INF.
"""

from __future__ import annotations

import functools
import heapq
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, prod
from typing import Iterable, Sequence, Union

from .errors import ParseError, ZeroPoly
from .scalars import _EXT_NAME, FieldSpec, _power

INF = float("inf")

Monomial = tuple
WeightVec = tuple


# ---------------------------------------------------------------- monomials

def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divisible(a: Monomial, b: Monomial) -> bool:
    """Whether b divides a."""
    return all(map(operator.ge, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def wdot(w: WeightVec, a: Monomial):
    """Weighted degree of a monomial; INF entries count only on positive
    exponents."""
    total = 0
    for wi, ai in zip(w, a):
        if ai == 0:
            continue
        if wi is INF or wi == INF:
            return INF
        total += wi * ai
    return total


# -------------------------------------------------------------- term orders

class TermOrder:
    """A monomial order given by a sort key: larger key = larger monomial."""

    def key(self, mono: Monomial):
        raise NotImplementedError


@dataclass(frozen=True)
class DegRevLex(TermOrder):
    def key(self, mono):
        return (sum(mono), tuple(map(operator.neg, mono[::-1])))


@dataclass(frozen=True)
class InvLex(TermOrder):
    """Lex in which the last variable compares first: later variables
    are larger."""

    def key(self, mono):
        return mono[::-1]


@dataclass(frozen=True)
class BlockOrder(TermOrder):
    """First ``split`` variables are compared with ``front`` and dominate;
    the rest are compared with ``back``."""

    split: int
    front: TermOrder = DegRevLex()
    back: TermOrder = DegRevLex()

    def key(self, mono):
        return (self.front.key(mono[: self.split]),
                self.back.key(mono[self.split:]))


@dataclass(frozen=True)
class HomogenizedLocalOrder(TermOrder):
    """Global order on K[x_1..x_n, h] (h last) whose leading terms, after
    setting h = 1 on a polynomial homogeneous for (grading, 1), realize
    the local order 'smallest w-degree first, inverse lex among equals'
    with w = ``weights``.  The first key entry is constant on such a
    polynomial, so the other two pick its lead.  Any positive grading
    serves (``localalg._hom_groebner``).  Inverse lex makes the last
    variable the largest, so an adjoined coordinate, always last, leads
    its own relation."""

    weights: tuple  # the local order's positive weights, x-variables only
    grading: tuple  # positive homogenising weights, x-variables only

    def key(self, mono):
        a = mono[:-1]
        return (sum(map(operator.mul, self.grading, a)) + mono[-1],
                -sum(map(operator.mul, self.weights, a)), a[::-1])


# ------------------------------------------------------------------- ring

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@functools.lru_cache(maxsize=64)
def _checked_names(names: tuple) -> tuple:
    """The variable names, once they are distinct identifiers; a
    ValueError otherwise.  Cached per tuple, as decoding a certificate and
    verifying it build many rings on few tuples; an error is raised
    afresh on every call, never cached."""
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    for n in names:
        if not _NAME.fullmatch(n):
            raise ValueError(f"bad variable name {n!r}")
    return names


@dataclass(frozen=True)
class RingCtx:
    """A polynomial ring: a coefficient field and named variables."""

    field: FieldSpec
    variables: tuple

    def __post_init__(self):
        names = _checked_names(tuple(map(str, self.variables)))
        object.__setattr__(self, "variables", names)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ParseError(f"unknown variable {name!r}") from None

    def zero(self) -> "Poly":
        return Poly({}, self)

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c) -> "Poly":
        c = self.field.coerce(c)
        if self.field.is_zero(c):
            return Poly({}, self)
        return Poly({(0,) * self.nvars: c}, self)

    def var(self, which: Union[int, str]) -> "Poly":
        i = which if isinstance(which, int) else self.index(which)
        e = [0] * self.nvars
        e[i] = 1
        return Poly({tuple(e): self.field.one()}, self)

    def mono(self, exps: Sequence[int], coeff=1) -> "Poly":
        c = self.field.coerce(coeff)
        if self.field.is_zero(c):
            return Poly({}, self)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError("bad exponent vector")
        return Poly({tuple(int(e) for e in exps): c}, self)

    def poly(self, text: str) -> "Poly":
        return parse_poly(text, self)

    def extend(self, names: Iterable[str]) -> "RingCtx":
        return RingCtx(self.field, self.variables + tuple(names))

    def __str__(self):
        return f"{self.field}[{', '.join(self.variables)}]"


class Poly:
    """Immutable-in-spirit sparse polynomial; do not mutate ``terms``.

    The leading term under the last order asked for is cached; it is not
    part of equality, hashing or ``key()``.
    """

    __slots__ = ("terms", "ctx", "_lead_order", "_lead")

    def __init__(self, terms: dict, ctx: RingCtx):
        self.terms = terms
        self.ctx = ctx
        self._lead_order = None
        self._lead = None

    # construction helpers -------------------------------------------------

    @staticmethod
    def from_items(items, ctx: RingCtx) -> "Poly":
        field = ctx.field
        acc = {}
        for mono, c in items:
            if mono in acc:
                c = field.add(acc[mono], c)
            if field.is_zero(c):
                acc.pop(mono, None)
            else:
                acc[mono] = c
        return Poly(acc, ctx)

    # queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            raise ZeroPoly("degree of the zero polynomial")
        return max(sum(m) for m in self.terms)

    def lead(self, order: TermOrder):
        """(monomial, coefficient) of the order-largest term."""
        cached = self._lead_order
        if cached is order or cached == order:
            return self._lead
        if not self.terms:
            raise ZeroPoly("leading term of the zero polynomial")
        m = max(self.terms, key=order.key)
        self._lead_order = order
        self._lead = (m, self.terms[m])
        return self._lead

    def coeff(self, mono: Monomial):
        return self.terms.get(tuple(mono), self.ctx.field.zero())

    def constant_coeff(self):
        return self.coeff((0,) * self.ctx.nvars)

    def key(self):
        """Canonical hashable form, for caching and set membership."""
        fld = self.ctx.field
        return tuple(sorted((m, fld.sort_key(c)) for m, c in self.terms.items()))

    def variables_used(self):
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return used

    # arithmetic ------------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ctx != other.ctx:
            raise ValueError("polynomials from different rings")

    def __add__(self, other):
        other = self._coerce_operand(other)
        self._check(other)
        field = self.ctx.field
        big, small = (self.terms, other.terms)
        out = dict(big)
        for m, c in small.items():
            if m in out:
                s = field.add(out[m], c)
                if field.is_zero(s):
                    del out[m]
                else:
                    out[m] = s
            else:
                out[m] = c
        return Poly(out, self.ctx)

    def __neg__(self):
        field = self.ctx.field
        return Poly({m: field.neg(c) for m, c in self.terms.items()}, self.ctx)

    def __sub__(self, other):
        other = self._coerce_operand(other)
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce_operand(other) - self

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce_operand(other)
        self._check(other)
        field = self.ctx.field
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                c = field.mul(c1, c2)
                if m in out:
                    c = field.add(out[m], c)
                if field.is_zero(c):
                    out.pop(m, None)
                else:
                    out[m] = c
        return Poly(out, self.ctx)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        return _power(self, n, Poly.__mul__, self.ctx.one())

    def scale(self, c) -> "Poly":
        field = self.ctx.field
        c = field.coerce(c)
        if field.is_zero(c):
            return self.ctx.zero()
        return Poly({m: field.mul(c, v) for m, v in self.terms.items()}, self.ctx)

    def term_mul(self, mono: Monomial, coeff) -> "Poly":
        """Multiply by coeff * x^mono."""
        field = self.ctx.field
        coeff = field.coerce(coeff)
        if field.is_zero(coeff):
            return self.ctx.zero()
        return Poly({mono_mul(m, mono): field.mul(c, coeff)
                     for m, c in self.terms.items()}, self.ctx)

    def _coerce_operand(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction, tuple)):
            return self.ctx.const(other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.ctx != other.ctx:
            return False
        if set(self.terms) != set(other.terms):
            return False
        fld = self.ctx.field
        return all(fld.eq(c, other.terms[m]) for m, c in self.terms.items())

    def __hash__(self):
        return hash((self.ctx, self.key()))

    # display ---------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        field = self.ctx.field
        names = self.ctx.variables
        order = sorted(self.terms, key=lambda m: (sum(m), m), reverse=True)
        parts = []
        for m in order:
            c = self.terms[m]
            factors = []
            for n, e in zip(names, m):
                if e == 1:
                    factors.append(n)
                elif e > 1:
                    factors.append(f"{n}^{e}")
            cs = field.payload_str(c)
            neg = cs.startswith("-")
            if neg and not cs.startswith("-("):
                cs = cs[1:]
                sign = "-"
            else:
                sign = "+"
            if not factors:
                body = cs
            elif cs == "1":
                body = "*".join(factors)
            else:
                body = "*".join([cs] + factors)
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


# --------------------------------------------------------- ring morphisms

def embed(f: Poly, target: RingCtx) -> Poly:
    """Reinterpret f inside a ring whose leading variables extend f's ring,
    over f's field or a simple extension of it."""
    src, field = f.ctx, target.field
    if target.variables[: src.nvars] != src.variables or (
            field != src.field and field.base() != src.field):
        raise ValueError("target ring does not extend the source ring")
    lift = (lambda c: c) if field == src.field else field.embed
    pad = (0,) * (target.nvars - src.nvars)
    return Poly({m + pad: lift(c) for m, c in f.terms.items()}, target)


def project(f: Poly, target: RingCtx, keep) -> Poly:
    """Keep only the listed variable positions (which must carry every
    exponent of f) and reinterpret in the smaller ring."""
    keep = list(keep)
    out = {}
    for m, c in f.terms.items():
        for i, e in enumerate(m):
            if e and i not in keep:
                raise ValueError("polynomial uses a dropped variable")
        out[tuple(m[i] for i in keep)] = c
    return Poly(out, target)


# ------------------------------------------------- weighted initial forms

def ord_w(f: Poly, w: WeightVec):
    """Smallest weighted degree of a term of f; INF for the zero polynomial."""
    if not f.terms:
        return INF
    return min(wdot(w, m) for m in f.terms)


def in_w(f: Poly, w: WeightVec) -> Poly:
    """Sum of the terms of minimal weighted degree."""
    if not f.terms:
        return f
    o = ord_w(f, w)
    return Poly({m: c for m, c in f.terms.items() if wdot(w, m) == o}, f.ctx)


# ------------------------------------------------------ division algorithm

class _Desc:
    """Heap entry ordered so that heapq pops the largest order key first.
    Keys are nested tuples that may hold INF, so they cannot be negated."""

    __slots__ = ("key", "mono")

    def __init__(self, key, mono):
        self.key = key
        self.mono = mono

    def __lt__(self, other):
        return other.key < self.key


def _integral(field: FieldSpec) -> bool:
    """Whether division keeps integer polynomials integral: over Q."""
    return field.characteristic == 0 and field.extension is None


def _scaled_division(f: Poly, divisors: Sequence[Poly], order: TermOrder,
                     with_quotients: bool = False):
    """The one division loop under a global order: returns (s, quotients,
    remainder) with s*f == sum(q_k * divisors[k]) + remainder for a
    nonzero integer s; quotients is None unless requested.  No remainder
    term is divisible by any divisor's leading monomial.

    Each step p <- a*p - b*x^q*g cancels p's largest divisible term c*x^m
    with the first divisor g whose lead lc*x^lm divides it, q = m - lm.
    Over Q, when c and lc are both integers, (a, b) = (lc/d, c/d) with
    d = gcd(c, lc), so integer polynomials stay integral; otherwise, and
    over every other field, (a, b) = (1, c/lc), the field step.  Each step
    is a nonzero multiple of the field step by the same divisor, so the
    remainder is s times the field remainder term for term, and s is 1
    when every lead is 1.

    Terms are taken largest first from a heap keyed once per monomial as
    it enters the work set.  A monomial that cancelled leaves a stale heap
    entry, skipped when popped.  Every order key is injective on
    monomials, so the pop sequence is that of a plain scan for the maximum.
    A popped monomial is tested against each lead by comparing exponents,
    building no tuple; the quotient monomial is built only for the first
    lead that divides, and shifts that divisor's tail.
    """
    field = f.ctx.field
    sub, mul, div, is_zero = field.sub, field.mul, field.div, field.is_zero
    zero, ge, isub, iadd = field.zero(), operator.ge, operator.sub, operator.add
    integral = _integral(field)
    key = order.key
    leads = [g.lead(order) for g in divisors]
    quots = [dict() for _ in divisors] if with_quotients else None
    scale = 1
    rem = {}
    work = dict(f.terms)
    heap = [_Desc(key(m), m) for m in work]
    heapq.heapify(heap)
    while work:
        m = heapq.heappop(heap).mono
        c = work.pop(m, None)
        if c is None:
            continue
        for i, (lm, lc) in enumerate(leads):
            if not all(map(ge, m, lm)):
                continue
            q = tuple(map(isub, m, lm))
            if integral and type(c) is int and type(lc) is int:
                d = gcd(c, lc)
                a, factor = lc // d, c // d
                if a != 1:
                    scale *= a
                    for part in (work, rem, *(quots or ())):
                        for t, v in part.items():
                            part[t] = v * a
            else:
                factor = div(c, lc)
            if with_quotients:
                s = field.add(quots[i].get(q, zero), factor)
                if is_zero(s):
                    quots[i].pop(q, None)
                else:
                    quots[i][q] = s
            for gm, gc in divisors[i].terms.items():
                if gm == lm:
                    continue
                t = tuple(map(iadd, gm, q))
                old = work.get(t)
                if old is None:  # a product of nonzero elements
                    work[t] = sub(zero, mul(factor, gc))
                    heapq.heappush(heap, _Desc(key(t), t))
                else:
                    v = sub(old, mul(factor, gc))
                    if is_zero(v):
                        del work[t]
                    else:
                        work[t] = v
            break
        else:
            rem[m] = c
    remainder = Poly(rem, f.ctx)
    if with_quotients:
        quots = [Poly(q, f.ctx) for q in quots]
    return scale, quots, remainder


def normal_form(f: Poly, divisors: Sequence[Poly], order: TermOrder) -> Poly:
    """The remainder of f on division by an ordered list under a global
    order: no term is divisible by any divisor's leading monomial.  The
    loop is ``_scaled_division``'s, its scale divided out once."""
    scale, _, rem = _scaled_division(f, divisors, order)
    return rem if scale == 1 else rem.scale(f.ctx.field.inv(scale))


# ------------------------------------------------------------------ parser

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|\*\*|[-+*/^()])")
# Largest exponent of a variable that parsed input may carry.  The decider's
# cost grows with it: the intersection number of y on y^2 - x^N counts a
# staircase of N monomials one by one.
_EXPONENT_CAP = 1000
# Largest number of terms a product or power in parsed input may have, as
# bounded from its operands before it is expanded: (x + y + z)^100 has
# 5151 terms and took seconds to expand.
_TERM_CAP = 1000


def _tokenize(text: str):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad character at {text[pos:pos + 8]!r}")
        tok = m.group(1)
        toks.append("^" if tok == "**" else tok)
        pos = m.end()
    return toks


def _top_exponents(p: Poly) -> tuple:
    """The largest exponent of each variable among the terms of p."""
    return tuple(map(max, zip(*p.terms, (0,) * p.ctx.nvars)))


def _refuse_above_cap(top: int) -> None:
    if top > _EXPONENT_CAP:
        raise ParseError(
            f"an exponent exceeds _EXPONENT_CAP = {_EXPONENT_CAP}")


def _refuse_above_term_cap(bound: int) -> None:
    if bound > _TERM_CAP:
        raise ParseError(
            f"a product or power could have more than _TERM_CAP = "
            f"{_TERM_CAP} terms")


def parse_poly(text: str, ctx: RingCtx) -> Poly:
    """Parse '+ - * / ^' arithmetic with implicit multiplication, integer
    and fractional coefficients, and parentheses.  Over an extension field
    the name ``th`` is the field's generator, unless a variable of the
    ring is named ``th`` and shadows it; over a base field ``th`` is an
    unknown variable like any other.  So, with no variable named ``th``,
    what ``str`` prints for a polynomial of ``ctx`` parses back to it.
    A power or product whose exponents could pass ``_EXPONENT_CAP``, or
    whose terms could pass ``_TERM_CAP``, raises ParseError before it is
    computed.  The term bound of A*B is the smaller of len(A)*len(B) and
    the number of monomials under the sum of their top exponents; that of
    A^e, of the C(len(A) + e - 1, e) products of e terms and the
    monomials under e times A's top exponents."""
    toks = _tokenize(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        return tok

    def parse_expr() -> Poly:
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        acc = parse_term()
        if sign < 0:
            acc = -acc
        while peek() in ("+", "-"):
            op = take()
            t = parse_term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def times(acc: Poly) -> Poly:
        rhs = parse_factor()
        top = tuple(map(operator.add, _top_exponents(acc),
                        _top_exponents(rhs)))
        _refuse_above_cap(max(top, default=0))
        _refuse_above_term_cap(min(len(acc) * len(rhs),
                                   prod(t + 1 for t in top)))
        return acc * rhs

    def parse_term() -> Poly:
        acc = parse_factor()
        while True:
            nxt = peek()
            if nxt == "*":
                take()
                acc = times(acc)
            elif nxt == "/":
                take()
                d = parse_factor()
                if not d.is_constant():
                    raise ParseError("division only by constants")
                if d.is_zero():
                    raise ParseError("division by zero")
                acc = acc.scale(ctx.field.inv(d.constant_coeff()))
            elif nxt is not None and (nxt.isdigit() or nxt == "("
                                      or re.fullmatch(r"[A-Za-z_]\w*", nxt)):
                acc = times(acc)
            else:
                return acc

    def parse_factor() -> Poly:
        base = parse_base()
        if peek() == "^":
            take()
            neg = False
            while peek() in ("+", "-"):
                if take() == "-":
                    neg = not neg
            e = peek()
            if e is None or not e.isdigit():
                raise ParseError("exponent must be an integer")
            take()
            if neg:
                raise ParseError("negative exponents are not allowed")
            _refuse_above_cap(_EXPONENT_CAP + 1 if len(e) > 9 else
                              int(e) * max((1, *_top_exponents(base))))
            e = int(e)
            _refuse_above_term_cap(min(
                comb(max(len(base) + e - 1, 0), e),
                prod(e * t + 1 for t in _top_exponents(base))))
            return base ** e
        return base

    def parse_base() -> Poly:
        tok = peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok == "(":
            take()
            inner = parse_expr()
            if peek() != ")":
                raise ParseError("missing closing parenthesis")
            take()
            return inner
        if tok == "-":
            take()
            return -parse_base()
        if tok.isdigit():
            take()
            try:
                return ctx.const(int(tok))
            except ValueError:  # past Python's int-string digit limit
                raise ParseError(f"a {len(tok)}-digit literal is too long")
        if re.fullmatch(r"[A-Za-z_]\w*", tok):
            take()
            if tok == _EXT_NAME and ctx.field.extension is not None \
                    and tok not in ctx.variables:
                return ctx.const(ctx.field.generator())
            return ctx.var(ctx.index(tok))
        raise ParseError(f"unexpected token {tok!r}")

    result = parse_expr()
    if pos != len(toks):
        raise ParseError(f"trailing input near {toks[pos]!r}")
    return result
