"""Numerical semigroups of weight vectors, nonempty tuples of positive ints
(any other vector, bools included, raises ValueError): membership with a
deterministic witness exponent, gcd, conductor and the relation ideal.

The witness of N is the DegRevLex-least c with c . w = N: of the fewest-
generator sums of N, the one using the last generator most, then the one
before it, and so on.  Each fibre of c -> c . w is a coset of a toric ideal,
so its witness is its standard monomial under the reduced DegRevLex basis,
which ``prim_generators`` reads off membership's table of counts.
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

from .errors import AlgebroidError, NotPrimitive, SolverLimitation
from .polyring import DegRevLex, Poly, RingCtx
from .scalars import QQ


def _generators(w) -> tuple:
    """w as a tuple of semigroup generators; ValueError unless w is a
    nonempty vector of positive ints."""
    gens = tuple(w)
    if not gens or not all(type(g) is int and g > 0 for g in gens):
        raise ValueError("weights must be a nonempty vector of positive "
                         "integers")
    return gens


_NONE = 1 << 62  # the count of a value outside the semigroup
_TABLE_CAP = 10 ** 7  # entries of one count table, 80 MB
_GROWING = threading.Lock()  # callers share the count tables via the cache


@functools.lru_cache(maxsize=64)
def _fewest_counts(generators: tuple) -> tuple:
    """The fewest-generator counts that membership grows, with its j and B."""
    m = max(generators)
    return (array("q", [0]), len(generators) - 1 - generators[::-1].index(m),
            (m - 1) * sum({g for g in generators if g < m}))


def _grow(counts: array, gens: tuple, N: int) -> None:
    """Grow the counts of gens to hold N; entries held are final."""
    if N >= _TABLE_CAP:
        raise SolverLimitation(f"semigroup of {gens}: a count table to {N} "
                               f"is past the cap of {_TABLE_CAP} entries")
    with _GROWING:
        start = len(counts)
        if N >= start:
            counts.extend(repeat(_NONE, N + 1 - start))
            for n in range(max(0, start - max(gens)), N):
                c = counts[n] + 1
                for g in gens if c <= _NONE else ():  # members only
                    if n + g <= N and c < counts[n + g]:
                        counts[n + g] = c


def membership(N: int, w) -> Optional[tuple]:
    """A witness exponent c with N = c . w when N lies in the semigroup,
    None otherwise: the DegRevLex-least such c (module docstring).

    Some fewest sum for n has c_j >= k exactly when counts[n - k w_j] =
    counts[n] - k, which is monotone in k: each c_j, last to first, is the
    largest k passing, and then no fewest sum of the rest uses w_j.  A
    fewest sum without the largest weight m holds under m copies of each
    smaller w_i, or trading m of them for w_i copies of m would save
    generators.  So past B = (m - 1) * (sum of the distinct w_i < m) every
    fewest sum uses m, the least one at its last index j only, and
    c(N) = c(N - m) + e_j.  SolverLimitation past _TABLE_CAP."""
    gens = _generators(w)
    if type(N) is not int or N < 0:
        return None
    counts, j, bound = _fewest_counts(gens)
    lift = max(0, -((bound - N) // gens[j]))
    N -= lift * gens[j]
    _grow(counts, gens, N)
    if N < 0 or counts[N] == _NONE:
        return None
    witness = [lift * (i == j) for i in range(len(gens))]
    for i, g in reversed(list(enumerate(gens))):
        k = bisect_left(range(N // g + 1), True,
                        key=lambda q: counts[N - q * g] != counts[N] - q) - 1
        witness[i] += k
        N -= k * g
    return tuple(witness)


@functools.lru_cache(maxsize=64)
def _relations(gens: tuple) -> tuple:
    """The reduced DegRevLex basis of the relation ideal, as pairs
    (c, std(c . w)) by ascending c, std(N) the witness of N, for each
    minimal non-standard c: each c - e_i with c_i > 0 is standard.

    std(N) = std(N - w_i) + e_i with i = last(N), the last index with
    counts[N - w_i] = counts[N] - 1.  With k the last index of c, s =
    c - e_k = std(N - w_k), so last(N - w_k) <= k; c is non-standard iff
    last(N) != k; and for i < k with s_i > 0, c - e_i is standard iff
    last(N - w_i) = k, as then std(N - w_i) = (s - e_i) + e_k.  Degree
    bound, with m, j, B as in membership: c_j > 0 makes c = std(N - m) +
    e_j, which is std(N) past B; with c_j = 0, c - e_i = std(N - w_i) lacks
    the x_j it needs past B.  So the walk stops at B + m, after O(n^2 (B +
    m)) steps for n weights, and keeps std and last of m + 1 values."""
    counts, j, bound = _fewest_counts(gens)
    span, pairs = gens[j] + 1, tuple(enumerate(gens))
    _grow(counts, gens, bound + span - 1)
    std, last, found = [(0,) * len(gens)] * span, [-1] * span, []
    for N in range(1, bound + span):
        if counts[N] == _NONE:
            continue
        i = next(i for i, g in reversed(pairs)
                 if g <= N and counts[N - g] == counts[N] - 1)
        s = std[(N - gens[i]) % span]
        std[N % span], last[N % span] = s[:i] + (s[i] + 1,) + s[i + 1:], i
        for k, g in pairs:
            s = std[(N - g) % span]
            if (k != i and g <= N and counts[N - g] != _NONE
                    and last[(N - g) % span] <= k
                    and all(last[(N - gens[h]) % span] == k
                            for h in range(k) if s[h])):
                found.append((s[:k] + (s[k] + 1,) + s[k + 1:], std[N % span]))
    return tuple(sorted(found, key=lambda pair: DegRevLex().key(pair[0])))


def prim_generators(w, ctx: Optional[RingCtx] = None) -> List[Poly]:
    """Binomial generators (a reduced basis) of the ideal of relations
    x^a - x^b with a . w = b . w, in the given ring, by ascending lead."""
    gens = _generators(w)
    if ctx is None:
        ctx = RingCtx(QQ, tuple(f"x{i + 1}" for i in range(len(gens))))
    if ctx.nvars != len(gens):
        raise ValueError("weight length does not match the ring")
    return [Poly({lead: ctx.field.coerce(1), tail: ctx.field.coerce(-1)},
                 ctx) for lead, tail in _relations(gens)]


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
