"""Numerical semigroups generated by weight vectors, nonempty tuples of
positive ints: membership with a deterministic witness exponent, gcd and
conductor, and the toric ideal of relations among the weights.  Any other
vector raises ValueError.

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

from .errors import AlgebroidError, NotPrimitive
from .groebner import buchberger
from .polyring import BlockOrder, DegRevLex, Poly, RingCtx
from .scalars import QQ


def _generators(w) -> tuple:
    """w as a tuple of semigroup generators; ValueError unless w is a
    nonempty vector of positive ints."""
    gens = tuple(w)
    if not gens or not all(isinstance(g, int) and g > 0 for g in gens):
        raise ValueError("weights must be a nonempty vector of positive "
                         "integers")
    return gens


@functools.lru_cache(maxsize=64)
def _elimination_data(generators: tuple):
    """For a weight vector: the elimination basis, the basis as rewrite
    rules (lead exponent, tail exponent), and the power table
    [NF(t^(2^k))] that membership grows."""
    ctx = RingCtx(QQ, ("t",) + tuple(f"g{i}"
                                     for i in range(len(generators))))
    order = BlockOrder(1, DegRevLex(), DegRevLex())
    t_free = (0,) * len(generators)
    gb = buchberger([ctx.var(slot) - ctx.mono((g,) + t_free)
                     for slot, g in enumerate(generators, 1)], order)
    rules = []
    for g in gb:
        lead, lc = g.lead(order)
        tail = min(g.terms, key=order.key)
        if len(g.terms) != 2 or lc != 1 or g.terms[tail] != -1:
            raise AlgebroidError(
                f"semigroup membership: the toric basis of {generators} "
                f"has {g}, which is not a unit binomial x^a - x^b")
        rules.append((lead, tail))
    return gb, rules, [_rewrite((1,) + t_free, rules)]


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
    _, rules, powers = _elimination_data(gens)
    with _GROWING:
        while len(powers) < N.bit_length():
            powers.append(_rewrite(tuple(2 * e for e in powers[-1]), rules))
    mono = (0,) * (len(gens) + 1)
    for k in range(N.bit_length()):
        if N >> k & 1:
            mono = _rewrite(tuple(map(add, mono, powers[k])), rules)
    return None if mono[0] else mono[1:]


def prim_generators(w, ctx: Optional[RingCtx] = None) -> List[Poly]:
    """Binomial generators (a reduced basis) of the ideal of relations
    x^a - x^b with a . w = b . w, in the given ring."""
    gens = _generators(w)
    if ctx is None:
        ctx = RingCtx(QQ, tuple(f"x{i + 1}" for i in range(len(gens))))
    if ctx.nvars != len(gens):
        raise ValueError("weight length does not match the ring")
    gb = _elimination_data(gens)[0]
    coerce = ctx.field.coerce
    return [Poly({m[1:]: coerce(c) for m, c in g.terms.items()}, ctx)
            for g in gb if all(m[0] == 0 for m in g.terms)]


def gcd_weights(w) -> int:
    """The gcd of the weights."""
    return math.gcd(*_generators(w))


def conductor(w) -> int:
    """Least c such that every integer >= c lies in the semigroup."""
    gens = _generators(w)
    if gcd_weights(gens) != 1:
        raise NotPrimitive("conductor needs coprime generators")
    gens = sorted(set(gens))
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
