"""Buchberger's algorithm over exact fields, a certificate-tracked variant
that carries cofactor rows, and the ideal-level queries built on top:
membership, radical membership, monomial content, staircase counting and
Krull dimension of the leading-term ideal.

``buchberger`` drops useless pairs as each polynomial enters, by the
Gebauer-Moller criteria M, F and B and the product criterion, and divides
each S-polynomial only by the current minimal basis: the elements whose
leads no later lead divides.
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
    mono_coprime,
    mono_div,
    mono_divisible,
    mono_lcm,
    mono_mul,
    normal_form,
    project,
)

_WITNESS_POWER_CAP = 256
_WITNESS_ENUM_CAP = 20000
# krull_dimension tries all 2^n variable subsets
_KRULL_VARIABLE_CAP = 16


# ------------------------------------------------------------- buchberger

def _spoly(f: Poly, g: Poly, order: TermOrder) -> Poly:
    (mf, cf) = f.lead(order)
    (mg, cg) = g.lead(order)
    lcm = mono_lcm(mf, mg)
    field = f.ctx.field
    uf = mono_div(lcm, mf)
    ug = mono_div(lcm, mg)
    return f.term_mul(uf, field.inv(cf)) - g.term_mul(ug, field.inv(cg))


def buchberger(gens: Sequence[Poly], order: TermOrder) -> List[Poly]:
    """Reduced Groebner basis under a global order, deterministically
    sorted by ascending leading monomial.

    Pairs are kept by the Gebauer-Moller update (Becker-Weispfenning,
    Alg. UPDATE).  When a polynomial h enters, a new pair (g, h) is
    dropped when the lcm of another new pair divides its own (criterion M,
    which keeps one pair per equal lcm, F) or when the leads of g and h
    are coprime (product criterion); a pending pair (g1, g2) is dropped
    when lm(h) divides its lcm and that lcm differs from lcm(g1, h) and
    lcm(g2, h) (criterion B).  Every element whose lead lm(h) divides then
    leaves the active basis, which alone reduces the S-polynomials; its
    pending pairs stay.  Pairs are taken lowest lcm first.
    """
    polys: List[Poly] = []
    leads: list = []
    active: List[int] = []
    reducers: List[Poly] = []
    heap: list = []   # pending pairs as (order key of lcm, i, j, lcm)

    def update(h: Poly) -> None:
        nonlocal heap, active, reducers
        new = len(polys)
        lh = h.lead(order)[0]
        polys.append(h)
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
        reducers = [polys[k] for k in active]

    for g in gens:
        if not g.is_zero():
            update(g)
    while heap:
        _, i, j, _ = heapq.heappop(heap)
        r = normal_form(_spoly(polys[i], polys[j], order), reducers, order)
        if not r.is_zero():
            update(r)
    return _reduce_basis(reducers, order)


def _reduce_basis(basis: List[Poly], order: TermOrder) -> List[Poly]:
    basis = sorted((g for g in basis if not g.is_zero()),
                   key=lambda g: order.key(g.lead(order)[0]))
    kept: List[Poly] = []
    for g in basis:
        lm = g.lead(order)[0]
        if any(mono_div(lm, h.lead(order)[0]) is not None for h in kept):
            continue
        kept.append(g)
    out = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        r = normal_form(g, others, order) if others else g
        out.append(r.monic(order))
    return sorted(out, key=lambda g: order.key(g.lead(order)[0]))


# --------------------------------------------------- tagged variant

Row = Tuple[Poly, Tuple[Poly, ...]]


def _row_combine(row: Row, mono, coeff) -> Row:
    p, tags = row
    return (p.term_mul(mono, coeff), tuple(t.term_mul(mono, coeff) for t in tags))


def _row_sub(a: Row, b: Row) -> Row:
    return (a[0] - b[0], tuple(x - y for x, y in zip(a[1], b[1])))


def _row_nf(row: Row, rows: Sequence[Row], order: TermOrder) -> Row:
    """Normal form of a row against a list of rows, cofactors mirrored."""
    p, tags = row
    basis = [r[0] for r in rows]
    if not basis:
        return row
    quots, rem = division(p, basis, order, with_quotients=True)
    for q, (bp, btags) in zip(quots, rows):
        if q.is_zero():
            continue
        tags = tuple(t - q * bt for t, bt in zip(tags, btags))
    return (rem, tags)


def buchberger_tagged(rows: Sequence[Row], order: TermOrder) -> List[Row]:
    """Buchberger on rows (p, cofactors): every output row satisfies
    p == sum(cofactor_k * original_k) whenever the inputs do.  The output
    polynomials form the reduced Groebner basis."""
    work: List[Row] = [r for r in rows if not r[0].is_zero()]
    if not work:
        return []
    leads = [r[0].lead(order)[0] for r in work]
    pairs = {(i, j) for i in range(len(work)) for j in range(i + 1, len(work))}
    while pairs:
        i, j = min(pairs, key=lambda p: (order.key(mono_lcm(leads[p[0]], leads[p[1]])),
                                         p[0], p[1]))
        pairs.discard((i, j))
        if mono_coprime(leads[i], leads[j]):
            continue
        field = work[0][0].ctx.field
        lcm = mono_lcm(leads[i], leads[j])
        (mi, ci) = work[i][0].lead(order)
        (mj, cj) = work[j][0].lead(order)
        left = _row_combine(work[i], mono_div(lcm, mi), field.inv(ci))
        right = _row_combine(work[j], mono_div(lcm, mj), field.inv(cj))
        r = _row_nf(_row_sub(left, right), work, order)
        if r[0].is_zero():
            continue
        work.append(r)
        leads.append(r[0].lead(order)[0])
        new = len(work) - 1
        for k in range(new):
            pairs.add((k, new))
    return _reduce_rows(work, order)


def _reduce_rows(rows: List[Row], order: TermOrder) -> List[Row]:
    rows = sorted((r for r in rows if not r[0].is_zero()),
                  key=lambda r: order.key(r[0].lead(order)[0]))
    kept: List[Row] = []
    for r in rows:
        lm = r[0].lead(order)[0]
        if any(mono_div(lm, k[0].lead(order)[0]) is not None for k in kept):
            continue
        kept.append(r)
    out = []
    for i, r in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        rem, tags = _row_nf(r, others, order) if others else r
        field = rem.ctx.field
        if rem.is_zero():
            continue
        c = field.inv(rem.lead(order)[1])
        out.append((rem.scale(c), tuple(t.scale(c) for t in tags)))
    return sorted(out, key=lambda r: order.key(r[0].lead(order)[0]))


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

def monomial_staircase_count(lt_monomials: Sequence[tuple], nvars: int):
    """Number of monomials outside the monomial ideal generated by the
    given leading monomials; INF when infinite, 0 when 1 is among them."""
    gens = [tuple(m) for m in lt_monomials]
    if any(not any(m) for m in gens):
        return 0
    for i in range(nvars):
        if not any(all(e == 0 for k, e in enumerate(m) if k != i) and m[i] > 0
                   for m in gens):
            return INF
    seen = {(0,) * nvars}
    frontier = [(0,) * nvars]
    while frontier:
        cur = frontier.pop()
        for i in range(nvars):
            nxt = cur[:i] + (cur[i] + 1,) + cur[i + 1:]
            if nxt in seen:
                continue
            if any(mono_div(nxt, g) is not None for g in gens):
                continue
            seen.add(nxt)
            frontier.append(nxt)
    return len(seen)


def colength(ideal) -> object:
    """Dimension of the quotient as a vector space (INF when infinite),
    measured by the degrevlex staircase."""
    handle = _as_handle(ideal)
    gb = handle.groebner()
    if not gb:
        return INF if handle.ctx.nvars else 1
    lt = [g.lead(DegRevLex())[0] for g in gb]
    return monomial_staircase_count(lt, handle.ctx.nvars)


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
