"""Numerical semigroups of weight vectors, nonempty tuples of positive ints
(any other vector, bools included, raises ValueError): membership with a
deterministic witness exponent, gcd, conductor and the relation ideal.

The witness std(N) of N is the DegRevLex-least c with c . w = N: of the
fewest-generator sums of N, the one using the last generator most, then
the one before it, and so on.  One table per vector, grown on demand,
holds for each N its fewest count, last(N), the last index of std(N),
run(N), the exponent std(N) has there, and avoid(N), whether some fewest
sum of N uses no weight equal to the largest weight m.  Membership reads
a witness off it in at most len(w) steps.  The table stops at its onset
N1, the start of the first m values in a row without avoid: from N1 on
every fewest sum uses m, and std(N) = std(N - m) + e_j, j the last index
of m.  Each fibre of c -> c . w is a coset of a toric ideal, so its
witness is its standard monomial under the reduced DegRevLex basis, which
``prim_generators`` reads off the same table below N1 + m.
"""

from __future__ import annotations

import functools
import heapq
import math
import threading
from array import array
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


_NONE = (1 << 31) - 1  # the count of a non-member, the largest 4-byte int
# Entries of one table.  Counts and runs are at most N < _TABLE_CAP, 4
# bytes each; last indices take 8, to index any vector, and avoid 1 until
# the onset: 17 bytes an entry while growing, 170 MB at the cap.
_TABLE_CAP = 10 ** 7
_GROWING = threading.Lock()  # callers share the tables via the cache


class _Table:
    """membership's table of one vector: its rows by N, m's last index j,
    the distinct weights below m, the a-priori bound B, and the onset N1
    once the rows reach N1 + m - 1 (0 before, and the avoid column None
    after)."""

    __slots__ = ("gens", "j", "below", "bound", "counts", "last", "avoid",
                 "run", "onset")

    def __init__(self, gens: tuple):
        m = max(gens)
        self.gens, self.j = gens, len(gens) - 1 - gens[::-1].index(m)
        self.below = tuple({g for g in gens if g < m})
        self.bound = (m - 1) * sum(self.below)
        self.counts, self.last = array("i", [0]), array("q", [0])
        self.avoid, self.run = bytearray([1]), array("i", [0])
        self.onset = 0


_fewest_counts = functools.lru_cache(maxsize=64)(_Table)  # one per vector


def _grow(table: _Table, N: int) -> None:
    """Grow the table to hold N, or only to N1 + m - 1 when its onset
    comes first.  Rows are appended whole, run last, so a reader that
    finds N < len(run) reads a finished row without the lock: in CPython
    one array read or append is atomic under the GIL.  A non-member's row
    is count _NONE, last 0, avoid 0 and run 0.  Only this loop reads the
    avoid column, so it is released once the onset is published."""
    gens = table.gens
    if N >= _TABLE_CAP:
        raise SolverLimitation(f"semigroup of {gens}: a count table to {N} "
                               f"is past the cap of {_TABLE_CAP} entries")
    counts, last, run = table.counts, table.last, table.run
    if N < len(run) or table.onset:
        return
    m = gens[table.j]
    pairs = tuple(enumerate(gens))[::-1]
    with _GROWING:
        if table.onset:
            return
        avoid = table.avoid
        since = avoid.rfind(1) + 1  # the last m rows hold an avoid
        for n in range(len(run), N + 1):
            fewest, k, free, r = _NONE, 0, 0, 0
            for i, g in pairs:  # strict <: the last index of a tie
                if g <= n and (c := counts[n - g]) < fewest:
                    fewest, k = c, i
            if fewest < _NONE:
                for g in table.below:
                    if g <= n and avoid[n - g] and counts[n - g] == fewest:
                        free = 1
                        break
                p = n - gens[k]
                fewest, r = fewest + 1, run[p] + 1 if last[p] == k else 1
            counts.append(fewest)
            last.append(k)
            avoid.append(free)
            run.append(r)
            if free:
                since = n + 1
            elif n + 1 - since == m:
                table.onset, table.avoid = since, None
                break


def _std(table: _Table, N: int) -> list:
    """std(N) for a member N the table holds, in at most len(gens) steps."""
    gens, last, run = table.gens, table.last, table.run
    witness = [0] * len(gens)
    while N:
        i, k = last[N], run[N]
        witness[i] += k
        N -= k * gens[i]
    return witness


def membership(N: int, w) -> Optional[tuple]:
    """A witness exponent c with N = c . w when N lies in the semigroup,
    None otherwise: the DegRevLex-least such c (module docstring).

    Some fewest sum for n has c_i >= k exactly when counts[n - k w_i] =
    counts[n] - k, which is monotone in k: each c_i of std(n), last to
    first, is the largest k passing, and then no fewest sum of the rest
    uses w_i.  So std(n) is 0 after last(n), the last i with counts[n -
    w_i] = counts[n] - 1, and positive at it: last(n) is the last index of
    std(n).  On n - w_i, i = last(n), the same steps fail after i (a pass
    at h there is one at h on n) and give i one fewer, so std(n) = std(n -
    w_i) + e_i, which is 0 after i.  So run(n), the c_i of std(n), is
    run(n - w_i) + 1 when last(n - w_i) = i, and 1 otherwise, as std(n -
    w_i) is then 0 at i too (the table's run(0) is 0).  Repeating the step
    run(n) times, std(n) = std(n - run(n) w_i) + run(n) e_i, whose first
    part ends before i: the walk reads a witness in at most len(w) steps.

    A fewest sum of n avoids m exactly when one w_i < m has a fewest sum
    of n - w_i that avoids m, one generator fewer: avoid(n) is true when
    some w_i < m has counts[n - w_i] = counts[n] - 1 and avoid(n - w_i).
    The onset N1 starts the first m values in a row without avoid, and no
    n past them has avoid: the first such n would extend an avoiding sum
    of some n - w_i in [n - m, n), inside the window or past it.  So from
    N1 on every fewest sum uses m, the least one at m's last index j only,
    and std(N) = std(N - m) + e_j, as adding e_j keeps the order:
    membership lifts N by m to below N1.  A fewest sum without m holds
    under m copies of each smaller w_i, or trading m of them for w_i
    copies of m would save generators, so past B = (m - 1) * (sum of the
    distinct w_i < m) every fewest sum uses m and N1 <= B + 1.  A first
    lift to at most B bounds the table a priori, with SolverLimitation
    when the lifted N is past _TABLE_CAP; once N1 is known, it runs only
    for B past the cap, so the same queries are refused."""
    gens = _generators(w)
    if type(N) is not int or N < 0:
        return None
    table = _fewest_counts(gens)
    lift, m = 0, gens[table.j]
    if N >= len(table.run):
        if not table.onset or table.bound >= _TABLE_CAP:
            lift = max(0, -((table.bound - N) // m))
            N -= lift * m
            _grow(table, N)
        if N >= len(table.run):  # the rows stop at N1 + m - 1
            more = -((table.onset - 1 - N) // m)
            lift, N = lift + more, N - more * m
    if N < 0 or table.counts[N] == _NONE:
        return None
    witness = _std(table, N)
    witness[table.j] += lift
    return tuple(witness)


@functools.lru_cache(maxsize=64)
def _relations(gens: tuple) -> tuple:
    """The reduced DegRevLex basis of the relation ideal, as pairs
    (c, std(c . w)) by ascending c, for each minimal non-standard c: each
    c - e_i with c_i > 0 is standard.

    Read off membership's table, whose last(N) is the last index of
    std(N), with std(N) = std(N - w_i) + e_i for i = last(N).  With k the
    last index of c, s = c - e_k = std(N - w_k), so last(N - w_k) <= k; c
    is non-standard iff last(N) != k; and for i < k with s_i > 0, c - e_i
    is standard iff last(N - w_i) = k, as then std(N - w_i) = (s - e_i) +
    e_k.  The indices i of s are those the witness walk of N - w_k visits.
    Degree bound, with m, j and the onset N1 as in membership, for N >=
    N1 + m: c_j > 0 makes c = std(N - m) + e_j, which is std(N); with c_j
    = 0, c - e_i = std(N - w_i) lacks the x_j it needs, as N - w_i >= N1.
    So the walk stops at N1 + m - 1, the table's last row, after O(n^2
    (N1 + m)) steps for n weights; the table refuses when B + m is past
    its cap."""
    table = _fewest_counts(gens)
    counts, last, run = table.counts, table.last, table.run
    top = table.bound + gens[table.j]
    _grow(table, top)
    if not table.onset:
        raise AlgebroidError(f"semigroup of {gens}: no onset window of "
                             f"{gens[table.j]} values by B + m = {top}")
    found = []
    for N in range(1, len(run)):
        if counts[N] == _NONE:
            continue
        for k, g in enumerate(gens):
            if (k == last[N] or g > N or counts[N - g] == _NONE
                    or last[N - g] > k):
                continue
            rest = N - g
            while rest:  # the witness walk of N - w_k
                i = last[rest]
                if i != k and last[N - gens[i]] != k:
                    break
                rest -= run[rest] * gens[i]
            else:
                lead = _std(table, N - g)
                lead[k] += 1
                found.append((tuple(lead), tuple(_std(table, N))))
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
    m = min(gens)
    if m > _TABLE_CAP:
        raise SolverLimitation(f"semigroup of {gens}: an Apery set of {m} "
                               f"residues is past the cap of {_TABLE_CAP} "
                               f"entries")
    gens = sorted(set(gens))
    # Dijkstra over the residues mod m: the first element of S popped in
    # each class is its least one, the class's Apery element.
    apery, heap = {}, [0]
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
