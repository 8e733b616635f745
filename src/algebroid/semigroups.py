"""Numerical semigroups generated by weight vectors: membership with a
deterministic witness exponent, gcd and conductor, and the toric ideal of
relations among the weights.

Membership and the relation ideal both come from the reduced basis of
<g_i - t^(w_i)> under a block order with t in front.  Its elements are
unit binomials x^a - x^b, so membership rewrites exponent tuples a -> b
(the Conti-Traverso reduction): NF(t^N), one monomial, is free of t
exactly when N lies in the semigroup.  As normal forms are unique, it is
reached through a per-vector power table NF(t^(2^k)) in O(log N) short
rewrites.  The t-free elements of the basis generate the relation ideal.
"""

from __future__ import annotations

import functools
import heapq
import math
import threading
from operator import add, ge, sub
from typing import List, Optional

from .errors import AlgebroidError, AllInfinite, NotPrimitive
from .groebner import buchberger
from .polyring import INF, BlockOrder, DegRevLex, Poly, RingCtx
from .scalars import QQ


def _is_inf(x) -> bool:
    return x is INF or x == INF


def _generators(w) -> tuple:
    """The weight vector w as a tuple of generators of the additive
    semigroup of their nonnegative combinations; INF entries are carried
    but contribute nothing.  Raises AllInfinite when no entry is finite,
    ValueError when a finite entry is not a positive int."""
    gens = tuple(w)
    finite = [g for g in gens if not _is_inf(g)]
    if not finite:
        raise AllInfinite("no finite generator")
    for g in finite:
        if not isinstance(g, int) or g <= 0:
            raise ValueError("generators must be positive integers or INF")
    return gens


@functools.lru_cache(maxsize=64)
def _elimination_data(generators: tuple):
    """For the finite entries of a weight vector: the elimination basis,
    the positions of those entries, the basis as rewrite rules (lead
    exponent, tail exponent), and the power table [NF(t^(2^k))] that
    membership grows."""
    positions = [i for i, g in enumerate(generators) if not _is_inf(g)]
    ctx = RingCtx(QQ, ("t",) + tuple(f"g{i}" for i in positions))
    order = BlockOrder(1, DegRevLex(), DegRevLex())
    t_free = (0,) * len(positions)
    gb = buchberger([ctx.var(slot) - ctx.mono((generators[i],) + t_free)
                     for slot, i in enumerate(positions, 1)], order)
    rules = []
    for g in gb:
        lead, lc = g.lead(order)
        tail = min(g.terms, key=order.key)
        if len(g.terms) != 2 or lc != 1 or g.terms[tail] != -1:
            raise AlgebroidError(
                f"semigroup membership: the toric basis of {generators} "
                f"has {g}, which is not a unit binomial x^a - x^b")
        rules.append((lead, tail))
    return gb, positions, rules, [_rewrite((1,) + t_free, rules)]


def _rewrite(mono: tuple, rules) -> tuple:
    """The normal form of a monomial: while a rule's lead divides it,
    replace that lead by the rule's tail."""
    while True:
        for lead, tail in rules:
            if all(map(ge, mono, lead)):
                mono = tuple(map(add, map(sub, mono, lead), tail))
                break
        else:
            return mono


_GROWING = threading.Lock()  # callers share the power tables via the cache


def membership(N: int, w) -> Optional[tuple]:
    """A witness exponent c with N = c . w when N lies in the semigroup,
    None otherwise.  The witness is the exponent of NF(t^N) under the
    elimination basis, so repeated runs agree."""
    gens = _generators(w)
    if not isinstance(N, int) or N < 0:
        return None
    _, positions, rules, powers = _elimination_data(gens)
    with _GROWING:
        while len(powers) < N.bit_length():
            powers.append(_rewrite(tuple(2 * e for e in powers[-1]), rules))
    mono = (0,) * (len(positions) + 1)
    for k in range(N.bit_length()):
        if N >> k & 1:
            mono = _rewrite(tuple(map(add, mono, powers[k])), rules)
    if mono[0]:
        return None
    witness = [0] * len(gens)
    for pos, e in zip(positions, mono[1:]):
        witness[pos] = e
    return tuple(witness)


def prim_generators(w, ctx: Optional[RingCtx] = None) -> List[Poly]:
    """Binomial generators (a reduced basis) of the ideal of relations
    x^a - x^b with a . w = b . w, in the given ring."""
    w = tuple(w)
    if any(_is_inf(e) for e in w):
        raise ValueError("relation ideal needs all weights finite")
    gens = _generators(w)  # ValueError unless each weight is a positive int
    if ctx is None:
        ctx = RingCtx(QQ, tuple(f"x{i + 1}" for i in range(len(w))))
    if ctx.nvars != len(w):
        raise ValueError("weight length does not match the ring")
    # every weight is finite, so the elimination ring is t, g0, ..., g(n-1)
    gb = _elimination_data(gens)[0]
    coerce = ctx.field.coerce
    return [Poly({m[1:]: coerce(c) for m, c in g.terms.items()}, ctx)
            for g in gb if all(m[0] == 0 for m in g.terms)]


def gcd_weights(w) -> int:
    finite = [e for e in tuple(w) if not _is_inf(e)]
    if not finite:
        raise AllInfinite("gcd of an all-infinite weight vector")
    return math.gcd(*finite) if len(finite) > 1 else finite[0]


def conductor(w) -> int:
    """Least c such that every integer >= c lies in the semigroup."""
    gens = _generators(w)
    if gcd_weights(gens) != 1:
        raise NotPrimitive("conductor needs coprime generators")
    gens = sorted({g for g in gens if not _is_inf(g)})
    # Dijkstra over the residues mod m: the first element of S popped in
    # each class is its least one, the class's Apery element.
    m, apery, heap = gens[0], {}, [0]
    while heap:
        a = heapq.heappop(heap)
        if a % m not in apery:
            apery[a % m] = a
            for g in gens[1:]:
                heapq.heappush(heap, a + g)
    if len(apery) < m:
        raise AlgebroidError("conductor: a residue class modulo the least "
                             "generator was never reached")
    return max(apery.values()) - m + 1
