"""Buchberger's algorithm over exact fields and the ideal-level queries
built on it: membership, radical membership, monomial content, staircases,
Krull dimension of the leading-term ideal, elimination and saturation.

There is one Buchberger loop.  It runs on rows (p, tag), where the tag
is one polynomial that every row operation applied to p is applied to as
well, or None when the caller tracks nothing.  The pivot reducer
(``buchberger_tagged``) starts each generator at tag 0 and the pivot at
tag 1, so a row's tag is its cofactor of the pivot: projecting a vector
of cofactors onto one coordinate commutes with every row operation.
The loop drops useless pairs as each row enters, by the Gebauer-Moller
criteria M, F and B and the product criterion, and divides each
S-polynomial only by the current minimal basis: the elements whose leads
no later lead divides.  Each S-polynomial is built in one dict, without
the two leads or any tail term that cancels.  Its tag is built lazily:
an S-pair is divided with quotients first, and the combination of its
two rows' tags, less the quotients, is formed only when the remainder is
nonzero, since half or more of the S-pairs commonly reduce to zero.

Over Q the rows are fraction-free: each row's polynomial is a primitive
integer polynomial.  S-polynomials are (lc(g)/d)*x^uf*f - (lc(f)/d)*x^ug*g
with d = gcd(lc(f), lc(g)), reductions take the integer steps of
``polyring._scaled_division``, and a remainder's content is removed
once, as it enters.  Each row is a nonzero multiple of the row field
arithmetic would hold, so the leads, pairs and reductions agree, and the
rows, made monic where they leave the loop, give the same bases, term
order included.  Tags follow every scaling.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import SolverLimitation, UnitIdeal
from .naming import next_single
from .polyring import (
    BlockOrder,
    DegRevLex,
    Poly,
    RingCtx,
    TermOrder,
    _integral,
    _scaled_division,
    mono_divisible,
    mono_lcm,
    normal_form,
    project,
)

_WITNESS_POWER_CAP = 256
_WITNESS_ENUM_CAP = 20000
# krull_dimension tries all 2^n variable subsets
_KRULL_VARIABLE_CAP = 16


# ------------------------------------------------------------- buchberger

# A row (p, tag) carries one tracked polynomial, or None when nobody tracks
# one: with input tags t_k, p == sum(c_k * original_k) gives
# tag == sum(c_k * t_k).  An S-pair's row carries a function that builds
# its tag (see ``_spoly``).
Row = Tuple[Poly, Optional[Poly]]


def buchberger(gens: Sequence[Poly], order: TermOrder, *,
               reduced: bool = True) -> List[Poly]:
    """Reduced Groebner basis under a global order, deterministically
    sorted by ascending leading monomial.  With ``reduced=False`` it is
    a minimal monic basis instead: the reduced basis's leads, with the
    tails the loop left, not reduced by the other elements."""
    rows = _buchberger_rows([(g, None) for g in gens], order)
    if reduced:
        return [p for p, _ in _reduce_basis(rows, order)]
    return [p.scale(p.ctx.field.inv(p.lead(order)[1]))
            for p, _ in _minimal_rows(rows, order)]


def buchberger_tagged(rows: Sequence[Row], order: TermOrder) -> List[Row]:
    """Buchberger on rows (p, tag), each operation on p applied to the
    tag too: an output row p == sum(c_k * p_k) of the input rows (p_k, t_k)
    has tag == sum(c_k * t_k).  With one-hot input tags an output tag is
    one coefficient c_k.  The output polynomials form the reduced Groebner
    basis."""
    return _reduce_basis(_buchberger_rows(rows, order), order)


def _primitive_row(row: Row) -> Row:
    """Over Q, the row divided by the content of its polynomial, so the
    polynomial is a primitive integer one; over other fields, the row
    itself."""
    p, tag = row
    field = p.ctx.field
    if not _integral(field):
        return row
    values = p.terms.values()
    den = math.lcm(*(v.denominator for v in values))
    num = math.gcd(*(v.numerator for v in values))
    if den == num == 1:
        return row
    p = Poly({m: v.numerator * (den // v.denominator) // num
              for m, v in p.terms.items()}, p.ctx)
    return (p, None if tag is None else tag.scale(field.div(den, num)))


def _spoly(a: Row, b: Row, order: TermOrder) -> Row:
    """A nonzero multiple of the S-polynomial x^uf*f/lc(f) - x^ug*g/lc(g)
    of two rows: (lc(g)/d)*x^uf*f - (lc(f)/d)*x^ug*g with d the gcd of
    the leads when both are integers over Q, the S-polynomial itself
    otherwise.  Tagged rows give it a tag as a function that builds it."""
    (f, ftag), (g, gtag) = a, b
    (mf, cf), (mg, cg) = f.lead(order), g.lead(order)
    lcm = mono_lcm(mf, mg)
    field = f.ctx.field
    sub, mul, is_zero, zero = field.sub, field.mul, field.is_zero, field.zero()
    if _integral(field) and type(cf) is int and type(cg) is int:
        d = math.gcd(cf, cg)
        cf, cg = cg // d, cf // d
    else:
        cf, cg = field.inv(cf), field.inv(cg)
    uf = tuple(map(operator.sub, lcm, mf))
    ug = tuple(map(operator.sub, lcm, mg))
    out = {tuple(map(operator.add, m, uf)): mul(c, cf)
           for m, c in f.terms.items() if m != mf}
    for m, c in g.terms.items():
        if m != mg:
            t = tuple(map(operator.add, m, ug))
            v = sub(out.get(t, zero), mul(c, cg))
            if is_zero(v):
                del out[t]
            else:
                out[t] = v
    tag = None if ftag is None else (
        lambda: ftag.term_mul(uf, cf) - gtag.term_mul(ug, cg))
    return (Poly(out, f.ctx), tag)


def _row_nf(row: Row, basis: Sequence[Poly], tags: Sequence[Optional[Poly]],
            order: TermOrder) -> Row:
    """s times the normal form of a row against the rows (basis[k],
    tags[k]), the quotients carried into the tag, for the nonzero integer
    s of ``polyring._scaled_division``; s is 1 when every lead is 1.  A
    tag given as a function (an S-pair's) is called only when the
    remainder is nonzero."""
    p, ptag = row
    scale, quots, rem = _scaled_division(p, basis, order, ptag is not None)
    if ptag is None:
        return (rem, None)
    if callable(ptag):
        if rem.is_zero():
            return (rem, ptag)
        ptag = ptag()
    if scale != 1:
        ptag = ptag.scale(scale)
    for q, btag in zip(quots, tags):
        if not q.is_zero():
            ptag = ptag - q * btag
    return (rem, ptag)


def _buchberger_rows(rows: Sequence[Row], order: TermOrder) -> List[Row]:
    """The Buchberger loop, on rows; returns a Groebner basis, which the
    callers make minimal or reduced.

    Pairs are kept by the Gebauer-Moller update (Becker-Weispfenning,
    Alg. UPDATE).  When a row h enters, a new pair (g, h) is dropped when
    the lcm of another new pair divides its own (criterion M, which keeps
    one pair per equal lcm, F) or when the leads of g and h are coprime
    (product criterion); a pending pair (g1, g2) is dropped when lm(h)
    divides its lcm and that lcm differs from lcm(g1, h) and lcm(g2, h)
    (criterion B).  Every element whose lead lm(h) divides then leaves the
    active basis, which alone reduces the S-polynomials; its pending pairs
    stay.  Pairs are taken lowest lcm first.
    """
    work: List[Row] = []
    leads: list = []
    active: List[int] = []
    reducers: List[Poly] = []
    reducer_tags: List[Optional[Poly]] = []
    heap: list = []   # pending pairs as (order key of lcm, i, j, lcm)

    def update(h: Row) -> None:
        nonlocal heap, active, reducers, reducer_tags
        new = len(work)
        lh = h[0].lead(order)[0]
        work.append(h)
        leads.append(lh)
        # New pairs (g, h) as (lcm degree, leads not coprime, index of g,
        # lcm), sorted so that an lcm's proper divisors come before it, and
        # so does an equal lcm kept in its place, a coprime one first.  The
        # leads are coprime exactly when the lcm has the degree of their
        # product.  A coprime pair drops the pairs above it but is not pushed.
        new_pairs = []
        dh = sum(lh)
        for k in active:
            lcm = mono_lcm(leads[k], lh)
            d = sum(lcm)
            new_pairs.append((d, d != sum(leads[k]) + dh, k, lcm))
        new_pairs.sort()
        kept = []
        for pair in new_pairs:
            _, useful, _, lcm = pair
            if not useful or not any(mono_divisible(lcm, q[3]) for q in kept):
                kept.append(pair)
        # criterion B on the pending pairs (key, i, j, lcm)
        pending = [p for p in heap
                   if not mono_divisible(p[3], lh)
                   or mono_lcm(leads[p[1]], lh) == p[3]
                   or mono_lcm(leads[p[2]], lh) == p[3]]
        if len(pending) < len(heap):
            heap = pending
            heapq.heapify(heap)
        for _, useful, k, lcm in kept:
            if useful:
                heapq.heappush(heap, (order.key(lcm), k, new, lcm))
        active = [k for k in active if not mono_divisible(leads[k], lh)]
        active.append(new)
        reducers = [work[k][0] for k in active]
        reducer_tags = [work[k][1] for k in active]

    for row in rows:
        if not row[0].is_zero():
            update(_primitive_row(row))
    while heap:
        _, i, j, _ = heapq.heappop(heap)
        r = _row_nf(_spoly(work[i], work[j], order), reducers, reducer_tags,
                    order)
        if not r[0].is_zero():
            update(_primitive_row(r))
    return [work[k] for k in active]


def _minimal_rows(rows: List[Row], order: TermOrder) -> List[Row]:
    """The rows of a Groebner basis whose lead no other kept lead divides,
    the first of equal leads kept, sorted by ascending leading monomial."""
    rows = sorted(rows, key=lambda r: order.key(r[0].lead(order)[0]))
    kept: List[Row] = []
    for r in rows:
        lm = r[0].lead(order)[0]
        if not any(mono_divisible(lm, k[0].lead(order)[0]) for k in kept):
            kept.append(r)
    return kept


def _reduce_basis(rows: List[Row], order: TermOrder) -> List[Row]:
    """The reduced basis from a Groebner basis: keep the minimal rows,
    reduce them by each other, make them monic.  Sorted by ascending
    leading monomial: no kept lead divides another, so each reduction
    keeps its row's lead."""
    kept = _minimal_rows(rows, order)
    out = []
    for i, row in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        p, tag = _row_nf(row, [o[0] for o in others], [o[1] for o in others],
                         order) if others else row
        c = p.ctx.field.inv(p.lead(order)[1])
        out.append((p.scale(c), None if tag is None else tag.scale(c)))
    return out


# ------------------------------------------------------------ ideal handle

class IdealHandle:
    """An ideal given by generators, with one memo of the results that
    depend on those generators alone.

    ``order`` is the global order of the handle's Groebner basis and of
    every query read from it (membership, monomial content, colength,
    Krull dimension): DegRevLex, except on the initial ideals of
    ``decide._initial_handle``, whose basis is the reduced InvLex one.

    ``cached(key, build)`` returns the value stored under ``key``, calling
    ``build()`` to make it on first use.  The keys in use are
    ("groebner",) for the reduced basis under ``order``, ("hom", w) for
    the local standard basis, ("pivot",) for the pivot reducer's free
    basis (``parametric.free_basis``), ("intersection", f.key()),
    ("initial", w) for the initial ideal's handle and ("free", w) for the
    monomial witness of that initial ideal, or None when it holds no
    monomial (``decide._monomial_witness``).  An initial handle is
    built with its ("groebner",) entry already filled, by interreduction
    alone.  Some ("intersection", f.key()) entries are seeded, not
    computed: ``decide._descend`` stores the value of each polynomial it
    descends, read from the pencil that made it and checked only by the
    next pencil on f.  So ``decide.verify_certificate`` takes its weights
    on fresh handles, never on the decide's.  The memo has no size bound:
    every entry answers a call made on this handle, and the entries go
    with it.  A handle's generators must not change after it is built.
    """

    order: TermOrder = DegRevLex()

    def __init__(self, generators: Iterable[Poly], ctx: Optional[RingCtx] = None):
        gens = tuple(generators)
        if ctx is None:
            if not gens:
                raise ValueError("empty generator list needs an explicit ring")
            ctx = gens[0].ctx
        for g in gens:
            if g.ctx != ctx:
                raise ValueError("generators from different rings")
        self.generators = gens
        self.ctx = ctx
        self._memo = {}

    def cached(self, key, build):
        memo = self._memo
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def groebner(self) -> List[Poly]:
        """The reduced Groebner basis under ``order``, built once."""
        return self.cached(("groebner",),
                           lambda: buchberger(self.generators, self.order))

    def __str__(self):
        return "ideal(" + ", ".join(str(g) for g in self.generators) + ")"


def _as_handle(ideal) -> IdealHandle:
    if isinstance(ideal, IdealHandle):
        return ideal
    return IdealHandle(tuple(ideal))


def is_unit_ideal(ideal) -> bool:
    gb = _as_handle(ideal).groebner()
    return any(g.is_constant() and not g.is_zero() for g in gb)


def ideal_membership(f: Poly, ideal) -> bool:
    handle = _as_handle(ideal)
    gb = handle.groebner()
    if not gb:
        return f.is_zero()
    return normal_form(f, gb, handle.order).is_zero()


def _inverted(handle: IdealHandle, h: Poly) -> IdealHandle:
    """The ideal plus (1 - t*h), in the ring with a fresh variable t put
    first: its zero set is that of the ideal where h does not vanish."""
    ctx = handle.ctx
    name = next_single(ctx.variables, ("inv_t",))
    big = RingCtx(ctx.field, (name,) + ctx.variables)

    def up(p: Poly) -> Poly:
        return Poly({(0,) + m: c for m, c in p.terms.items()}, big)

    gens = [up(g) for g in handle.generators]
    gens.append(big.one() - big.var(0) * up(h))
    return IdealHandle(gens, big)


def radical_membership(f: Poly, ideal) -> bool:
    """Whether f vanishes on the zero set of the ideal (f in its radical),
    by the inverted-variable trick."""
    if f.is_zero():
        return True
    return is_unit_ideal(_inverted(_as_handle(ideal), f))


def contains_monomial(ideal) -> Optional[tuple]:
    """A monomial lying in the ideal, or None when the ideal contains no
    monomial.

    The answer is the smallest member by total degree, then exponent tuple,
    unless more than ``_WITNESS_ENUM_CAP`` candidates would have to be
    tried; then it is the power (k, ..., k) of the product of all
    variables with the least such k, which need not be the smallest.
    Raises SolverLimitation when that k exceeds ``_WITNESS_POWER_CAP``."""
    handle = _as_handle(ideal)
    ctx = handle.ctx
    n = ctx.nvars
    allvars = ctx.mono((1,) * n)
    if not radical_membership(allvars, handle):
        return None
    gb = handle.groebner()
    power = None
    for k in range(1, _WITNESS_POWER_CAP + 1):
        cand = tuple(k for _ in range(n))
        if normal_form(ctx.mono(cand), gb, handle.order).is_zero():
            power = cand
            break
    if power is None:
        raise SolverLimitation(
            "the ideal contains a power of the product of all variables, "
            f"but none up to _WITNESS_POWER_CAP = {_WITNESS_POWER_CAP}")
    bound = sum(power)
    seen = 0
    for deg in range(1, bound + 1):
        for m in _monos_of_degree(n, deg):
            seen += 1
            if seen > _WITNESS_ENUM_CAP:
                return power
            if normal_form(ctx.mono(m), gb, handle.order).is_zero():
                return m
    return power


def _monos_of_degree(n: int, deg: int):
    """Exponent tuples of the given total degree, ascending lexicographic."""
    if n == 1:
        yield (deg,)
        return
    for first in range(deg + 1):
        for rest in _monos_of_degree(n - 1, deg - first):
            yield (first,) + rest


# --------------------------------------------------------- staircase sizes

def _staircase_boxes(leads: Sequence[tuple], nvars: int) -> Optional[list]:
    """The monomials outside the monomial ideal generated by the leads as
    disjoint boxes, each a tuple of one exponent range per variable: None
    when there are infinitely many, no box when 1 is among them.

    Below the least pure power x_1^top, the monomials with first exponent
    e are those whose other exponents lie in the staircase of the leads
    with first exponent at most e; that slice changes only where e
    reaches some lead's first exponent.  Without a pure power of x_1, or
    of a later variable (which then has none in the slice at e = 0), the
    staircase is infinite."""
    gens = [tuple(m) for m in leads]
    if any(not any(m) for m in gens):
        return []
    if not nvars:
        return [()]
    pure = [m[0] for m in gens if not any(m[1:])]
    if not pure:
        return None
    top = min(pure)
    boxes, start = [], 0
    for stop in sorted({m[0] for m in gens if m[0] < top} | {top}):
        if stop > start:
            inner = _staircase_boxes([m[1:] for m in gens if m[0] <= start],
                                     nvars - 1)
            if inner is None:
                return None
            boxes += [(range(start, stop),) + box for box in inner]
        start = stop
    return boxes


def monomial_staircase(leads: Sequence[tuple], nvars: int) -> Optional[set]:
    """The set of monomials outside the monomial ideal generated by the
    given leading monomials; None when there are infinitely many, empty
    when 1 is among them."""
    boxes = _staircase_boxes(leads, nvars)
    return None if boxes is None else {
        m for box in boxes for m in itertools.product(*box)}


def staircase_size(leads: Sequence[tuple], nvars: int) -> Optional[int]:
    """``len(monomial_staircase(...))`` without building the set: None
    when there are infinitely many monomials, 0 when 1 is among them."""
    boxes = _staircase_boxes(leads, nvars)
    return None if boxes is None else sum(math.prod(map(len, box))
                                          for box in boxes)


def krull_dimension(ideal) -> int:
    """Dimension of the leading-term ideal's zero set: the largest number
    of variables meeting no generator's support.  Raises SolverLimitation
    on more than ``_KRULL_VARIABLE_CAP`` variables."""
    handle = _as_handle(ideal)
    n = handle.ctx.nvars
    if n > _KRULL_VARIABLE_CAP:
        raise SolverLimitation(
            f"krull_dimension supports at most _KRULL_VARIABLE_CAP = "
            f"{_KRULL_VARIABLE_CAP} variables, got {n}")
    gens = [g.lead(handle.order)[0] for g in handle.groebner()]
    if any(not any(m) for m in gens):
        raise UnitIdeal("dimension of the unit ideal")
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in gens]
    best = 0
    for mask in range(1 << n):
        subset = {i for i in range(n) if mask >> i & 1}
        if len(subset) <= best:
            continue
        if all(not s <= subset for s in supports):
            best = len(subset)
    return best


def eliminate(ideal, front: int) -> List[Poly]:
    """Groebner generators of the intersection with the subring omitting
    the first ``front`` variables (still expressed in the full ring)."""
    handle = _as_handle(ideal)
    order = BlockOrder(front, DegRevLex(), DegRevLex())
    gb = buchberger(handle.generators, order)
    out = []
    for g in gb:
        if all(all(e == 0 for e in m[:front]) for m in g.terms):
            out.append(g)
    return out


def saturate(ideal, h: Poly) -> IdealHandle:
    """The saturation of the ideal by h: the components on which h does
    not vanish, computed by inverting h and eliminating the inverse."""
    handle = _as_handle(ideal)
    ctx = handle.ctx
    kept = eliminate(_inverted(handle, h), 1)
    return IdealHandle([project(g, ctx, range(1, ctx.nvars + 1))
                        for g in kept], ctx)
