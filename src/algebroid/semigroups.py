"""Numerical semigroups of weight vectors, nonempty tuples of positive ints
(any other vector, bools included, raises ValueError): membership with a
deterministic witness exponent, gcd, conductor and the relation ideal.

The witness of N is the exponent of NF(t^N) under the reduced basis of
<g_i - t^(w_i)> with t in a front block.  The basis is of unit binomials, so
a monomial's normal form is the least monomial of its fibre (a smaller one
would make it a lead), and the fibre of t^N holds g^c, below any monomial
with t, exactly when c . w = N.  So membership returns the DegRevLex-least
such c, read off a table of fewest-generator counts; the t-free elements of
the basis, built only by ``prim_generators``, generate the relation ideal.
"""

from __future__ import annotations

import functools
import heapq
import math
import threading
from array import array
from bisect import bisect_left
from itertools import repeat
from typing import List, Optional

from .errors import AlgebroidError, NotPrimitive
from .groebner import buchberger
from .polyring import BlockOrder, DegRevLex, Poly, RingCtx
from .scalars import QQ


def _generators(w) -> tuple:
    """w as a tuple of semigroup generators; ValueError unless w is a
    nonempty vector of positive ints."""
    gens = tuple(w)
    if not gens or not all(type(g) is int and g > 0 for g in gens):
        raise ValueError("weights must be a nonempty vector of positive "
                         "integers")
    return gens


@functools.lru_cache(maxsize=64)
def _elimination_data(generators: tuple) -> List[Poly]:
    """The elimination basis of a weight vector, checked to consist of unit
    binomials x^a - x^b."""
    ctx = RingCtx(QQ, ("t",) + tuple(f"g{i}"
                                     for i in range(len(generators))))
    order = BlockOrder(1, DegRevLex(), DegRevLex())
    t_free = (0,) * len(generators)
    gb = buchberger([ctx.var(slot) - ctx.mono((g,) + t_free)
                     for slot, g in enumerate(generators, 1)], order)
    for g in gb:
        if sorted(g.terms.values()) != [-1, 1] or g.lead(order)[1] != 1:
            raise AlgebroidError(
                f"semigroup relations: the toric basis of {generators} "
                f"has {g}, which is not a unit binomial x^a - x^b")
    return gb


_NONE = 1 << 62  # the count of a value outside the semigroup
_GROWING = threading.Lock()  # callers share the count tables via the cache


@functools.lru_cache(maxsize=64)
def _fewest_counts(generators: tuple) -> tuple:
    """The fewest-generator counts that membership grows, with its j and B."""
    m = max(generators)
    return (array("q", [0]), len(generators) - 1 - generators[::-1].index(m),
            (m - 1) * sum({g for g in generators if g < m}))


def membership(N: int, w) -> Optional[tuple]:
    """A witness exponent c with N = c . w when N lies in the semigroup,
    None otherwise: NF(t^N), the DegRevLex-least such c (module docstring).

    Some fewest sum for n has c_j >= k exactly when counts[n - k w_j] =
    counts[n] - k, which is monotone in k: each c_j, last to first, is the
    largest k passing, and then no fewest sum of the rest uses w_j.  A
    fewest sum without the largest weight m holds under m copies of each
    smaller w_i, or trading m of them for w_i copies of m would save
    generators.  So past B = (m - 1) * (sum of the distinct w_i < m) every
    fewest sum uses m, the least one at its last index j only, and
    c(N) = c(N - m) + e_j."""
    gens = _generators(w)
    if type(N) is not int or N < 0:
        return None
    counts, j, bound = _fewest_counts(gens)
    lift = max(0, -((bound - N) // gens[j]))
    N -= lift * gens[j]
    with _GROWING:
        start = len(counts)
        if N >= start:
            counts.extend(repeat(_NONE, N + 1 - start))
            for n in range(max(0, start - gens[j]), N):
                c = counts[n] + 1
                for g in gens if c <= _NONE else ():  # members only
                    if n + g <= N and c < counts[n + g]:
                        counts[n + g] = c
    if N < 0 or counts[N] == _NONE:
        return None
    witness = [lift * (i == j) for i in range(len(gens))]
    for i, g in reversed(list(enumerate(gens))):
        k = bisect_left(range(N // g + 1), True,
                        key=lambda q: counts[N - q * g] != counts[N] - q) - 1
        witness[i] += k
        N -= k * g
    return tuple(witness)


def prim_generators(w, ctx: Optional[RingCtx] = None) -> List[Poly]:
    """Binomial generators (a reduced basis) of the ideal of relations
    x^a - x^b with a . w = b . w, in the given ring."""
    gens = _generators(w)
    if ctx is None:
        ctx = RingCtx(QQ, tuple(f"x{i + 1}" for i in range(len(gens))))
    if ctx.nvars != len(gens):
        raise ValueError("weight length does not match the ring")
    coerce = ctx.field.coerce
    return [Poly({m[1:]: coerce(c) for m, c in g.terms.items()}, ctx)
            for g in _elimination_data(gens) if not any(m[0] for m in g.terms)]


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
