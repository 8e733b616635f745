"""Buchberger's algorithm over exact fields and the ideal-level queries
built on it: membership, radical membership, monomial content, staircases,
colength, Krull dimension of the leading-term ideal and elimination.

There is one Buchberger loop.  It runs on rows (p, cofactors), where the
cofactors express p in the input generators and are an empty tuple unless
the caller tracks them (``buchberger_tagged``, used by the pivot reducer).
It drops useless pairs as each row enters, by the Gebauer-Moller criteria
M, F and B and the product criterion, and divides each S-polynomial only
by the current minimal basis: the elements whose leads no later lead
divides.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import SolverLimitation, UnitIdeal
from .polyring import (
    INF,
    BlockOrder,
    DegRevLex,
    Poly,
    RingCtx,
    TermOrder,
    division,
    embed,
    mono_div,
    mono_divisible,
    mono_lcm,
    normal_form,
)

_WITNESS_POWER_CAP = 256
_WITNESS_ENUM_CAP = 20000
# krull_dimension tries all 2^n variable subsets
_KRULL_VARIABLE_CAP = 16


# ------------------------------------------------------------- buchberger

# A row (p, cofactors) records p == sum(cofactor_k * original_k); the
# cofactor tuple is empty when nobody tracks the combination.
Row = Tuple[Poly, Tuple[Poly, ...]]


def buchberger(gens: Sequence[Poly], order: TermOrder) -> List[Poly]:
    """Reduced Groebner basis under a global order, deterministically
    sorted by ascending leading monomial."""
    return [p for p, _ in _buchberger_rows([(g, ()) for g in gens], order)]


def buchberger_tagged(rows: Sequence[Row], order: TermOrder) -> List[Row]:
    """Buchberger on rows (p, cofactors): every output row satisfies
    p == sum(cofactor_k * original_k) whenever the inputs do.  The output
    polynomials form the reduced Groebner basis."""
    return _buchberger_rows(rows, order)


def _spoly(a: Row, b: Row, order: TermOrder) -> Row:
    (f, ftags), (g, gtags) = a, b
    (mf, cf) = f.lead(order)
    (mg, cg) = g.lead(order)
    lcm = mono_lcm(mf, mg)
    field = f.ctx.field
    uf, cf = mono_div(lcm, mf), field.inv(cf)
    ug, cg = mono_div(lcm, mg), field.inv(cg)
    return (f.term_mul(uf, cf) - g.term_mul(ug, cg),
            tuple(s.term_mul(uf, cf) - t.term_mul(ug, cg)
                  for s, t in zip(ftags, gtags)))


def _row_nf(row: Row, basis: Sequence[Poly], tags: Sequence[tuple],
            order: TermOrder) -> Row:
    """Normal form of a row against the rows (basis[k], tags[k]), the
    quotients carried into the cofactors."""
    p, ptags = row
    if not ptags:
        return (normal_form(p, basis, order), ptags)
    quots, rem = division(p, basis, order, with_quotients=True)
    for q, btags in zip(quots, tags):
        if not q.is_zero():
            ptags = tuple(t - q * bt for t, bt in zip(ptags, btags))
    return (rem, ptags)


def _buchberger_rows(rows: Sequence[Row], order: TermOrder) -> List[Row]:
    """The Buchberger loop, on rows.

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
    reducer_tags: List[tuple] = []
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
            update(row)
    while heap:
        _, i, j, _ = heapq.heappop(heap)
        r = _row_nf(_spoly(work[i], work[j], order), reducers, reducer_tags,
                    order)
        if not r[0].is_zero():
            update(r)
    return _reduce_basis([work[k] for k in active], order)


def _reduce_basis(rows: List[Row], order: TermOrder) -> List[Row]:
    """The reduced basis from a Groebner basis: drop each row whose lead
    another kept lead divides, reduce the rest by each other, make them
    monic.  Sorted by ascending leading monomial: no kept lead divides
    another, so each reduction keeps its row's lead."""
    rows = sorted(rows, key=lambda r: order.key(r[0].lead(order)[0]))
    kept: List[Row] = []
    for r in rows:
        lm = r[0].lead(order)[0]
        if not any(mono_divisible(lm, k[0].lead(order)[0]) for k in kept):
            kept.append(r)
    out = []
    for i, row in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        p, tags = _row_nf(row, [o[0] for o in others], [o[1] for o in others],
                          order) if others else row
        c = p.ctx.field.inv(p.lead(order)[1])
        out.append((p.scale(c), tuple(t.scale(c) for t in tags)))
    return out


# ------------------------------------------------------------ ideal handle

class IdealHandle:
    """An ideal given by generators, with Groebner bases cached per order."""

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
        self._gb_cache = {}

    def groebner(self, order: TermOrder = DegRevLex()) -> List[Poly]:
        if order not in self._gb_cache:
            self._gb_cache[order] = buchberger(self.generators, order)
        return self._gb_cache[order]

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
    return normal_form(f, gb, DegRevLex()).is_zero()


def fresh_names(existing: Sequence[str], stem: str, count: int = 1) -> List[str]:
    """``count`` names starting with ``stem`` that avoid the existing ones."""
    taken = set(existing)
    out = []
    i = 0
    while len(out) < count:
        cand = stem if i == 0 else f"{stem}{i}"
        if cand not in taken:
            out.append(cand)
            taken.add(cand)
        i += 1
    return out


def radical_membership(f: Poly, ideal) -> bool:
    """Whether f vanishes on the zero set of the ideal (f in its radical),
    by the inverted-variable trick."""
    handle = _as_handle(ideal)
    ctx = handle.ctx
    if f.is_zero():
        return True
    name = fresh_names(ctx.variables, "rab_t")[0]
    big = ctx.extend([name])
    gens = [embed(g, big) for g in handle.generators]
    gens.append(big.one() - big.var(name) * embed(f, big))
    return is_unit_ideal(IdealHandle(gens, big))


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
        if normal_form(ctx.mono(cand), gb, DegRevLex()).is_zero():
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
            if normal_form(ctx.mono(m), gb, DegRevLex()).is_zero():
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

def monomial_staircase(lt_monomials: Sequence[tuple], nvars: int) -> Optional[set]:
    """The set of monomials outside the monomial ideal generated by the
    given leading monomials; None when there are infinitely many, empty
    when 1 is among them."""
    gens = [tuple(m) for m in lt_monomials]
    if any(not any(m) for m in gens):
        return set()
    for i in range(nvars):
        if not any(all(e == 0 for k, e in enumerate(m) if k != i) and m[i] > 0
                   for m in gens):
            return None
    seen = {(0,) * nvars}
    frontier = [(0,) * nvars]
    while frontier:
        cur = frontier.pop()
        for i in range(nvars):
            nxt = cur[:i] + (cur[i] + 1,) + cur[i + 1:]
            if nxt in seen:
                continue
            if any(mono_divisible(nxt, g) for g in gens):
                continue
            seen.add(nxt)
            frontier.append(nxt)
    return seen


def colength(ideal) -> object:
    """Dimension of the quotient as a vector space (INF when infinite),
    measured by the degrevlex staircase."""
    handle = _as_handle(ideal)
    gb = handle.groebner()
    if not gb:
        return INF if handle.ctx.nvars else 1
    stairs = monomial_staircase([g.lead(DegRevLex())[0] for g in gb],
                                handle.ctx.nvars)
    return INF if stairs is None else len(stairs)


def krull_dimension(ideal, lt_monomials: Optional[Sequence[tuple]] = None) -> int:
    """Dimension of the leading-term ideal's zero set: the largest number
    of variables meeting no generator's support.  Raises SolverLimitation
    on more than ``_KRULL_VARIABLE_CAP`` variables."""
    handle = _as_handle(ideal)
    n = handle.ctx.nvars
    if n > _KRULL_VARIABLE_CAP:
        raise SolverLimitation(
            f"krull_dimension supports at most _KRULL_VARIABLE_CAP = "
            f"{_KRULL_VARIABLE_CAP} variables, got {n}")
    if lt_monomials is None:
        gb = handle.groebner()
        lt_monomials = [g.lead(DegRevLex())[0] for g in gb]
    gens = [tuple(m) for m in lt_monomials]
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
