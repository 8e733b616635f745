"""Independent reference implementations used to pin expected values.

Nothing in here imports the package under test.  Each oracle is written
directly from first principles so that agreement with the library is
meaningful:

* numerical semigroups via dynamic programming over residues, their
  least fewest-generator witnesses compared whole, exponent by exponent,
  and the onset past which every fewest sum uses the largest weight,
* exact truncated power series over Fraction, with binomial-series and
  fixed-point solvers good enough to parametrize the pool curves,
* determinants by permutation expansion,
* staircase (standard monomial) counting by breadth-first search,
* multivariate division that scans for the largest remaining term,
* semigroup witnesses read off the remainder of t^N under that division,
* Buchberger's algorithm with the product and chain criteria, every
  S-polynomial divided by all polynomials found so far,
* the S-polynomial of two polynomial objects from their own term products
  and subtraction,
* the term orders Lex and WeightedOrder, which the library does not use;
  each gives the library's ``key`` (larger key = larger monomial), so
  the library divides and builds bases under them,
* the pencil's Newton polygon read from every order of its determinant,
  each parameter polynomial shifted by Horner's rule on the field's
  kernels,
* free-basis coordinates rewritten layer by layer over every pivot
  exponent below the truncation, and the multiplication matrices built
  from them.

Preconditions raise ValueError rather than assert, so they hold under
``python -O`` too.
"""

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import gcd, inf


# ---------------------------------------------------------------- semigroups

def semi_member(n, gens):
    """Is n a nonnegative integer combination of gens?  Plain DP."""
    if n < 0:
        return False
    reachable = [False] * (n + 1)
    reachable[0] = True
    for k in range(1, n + 1):
        for g in gens:
            if g <= k and reachable[k - g]:
                reachable[k] = True
                break
    return reachable[n]


def semi_gaps(gens):
    """All positive integers missing from the semigroup (gcd must be 1)."""
    import math
    g = 0
    for w in gens:
        g = math.gcd(g, w)
    if g != 1:
        raise ValueError("gaps are only finite for gcd 1")
    bound = max(gens) ** 2 + 1  # crude but safe upper bound for the conductor
    reachable = [False] * (bound + 1)
    reachable[0] = True
    for k in range(1, bound + 1):
        for w in gens:
            if w <= k and reachable[k - w]:
                reachable[k] = True
                break
    return [k for k in range(1, bound + 1) if not reachable[k]]


def semi_conductor(gens):
    gaps = semi_gaps(gens)
    return 0 if not gaps else max(gaps) + 1


def fewest_witnesses(gens, top):
    """For each N in 0..top, the DegRevLex-least exponent c with
    c . gens = N among those with the fewest generators, or None off the
    semigroup.

    Exponents are compared whole: the smaller sum first, then the larger
    last entry, then the larger entry before it, and so on.  A fewest sum
    c of N with c_i > 0 is a fewest sum c - e_i of N - gens[i] plus e_i,
    and adding e_i keeps the order, so the least for N is the least of the
    one-step extensions of the least for each N - gens[i].
    """
    def key(c):
        return sum(c), [-e for e in reversed(c)]

    least = [(0,) * len(gens)] + [None] * top
    for N in range(1, top + 1):
        steps = []
        for i, g in enumerate(gens):
            s = least[N - g] if g <= N else None
            if s is not None:
                steps.append(s[:i] + (s[i] + 1,) + s[i + 1:])
        least[N] = min(steps, key=key, default=None)
    return least


def periodic_onset(gens):
    """The least N1 such that, for each N in N1..N1 + m - 1, no fewest-
    generator sum of N avoids every weight equal to the largest weight m.

    A fewest sum of N avoids m when the fewest count from the weights
    below m alone equals the fewest count from all of them: two plain
    dynamic programs, searched up to B + m, B = (m - 1) * (sum of the
    distinct weights below m).
    """
    m = max(gens)
    below_m = sorted({g for g in gens if g < m})
    top = (m - 1) * sum(below_m) + m
    every, below, run = [0], [0], 0
    for N in range(1, top + 1):
        every.append(min((every[N - g] + 1 for g in gens if g <= N),
                         default=inf))
        below.append(min((below[N - g] + 1 for g in below_m if g <= N),
                         default=inf))
        run = 0 if below[N] == every[N] < inf else run + 1
        if run == m:
            return N - m + 1
    raise ValueError(f"no window of {m} values by B + m = {top}")


# ------------------------------------------------- truncated power series

# A series is a list of Fractions of fixed length N; index = t-exponent.

def s_zero(n):
    return [Fraction(0)] * n


def s_from_terms(terms, n):
    """terms: iterable of (exponent, coefficient)."""
    out = s_zero(n)
    for e, c in terms:
        if 0 <= e < n:
            out[e] += Fraction(c)
    return out


def s_add(a, b):
    return [x + y for x, y in zip(a, b)]


def s_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def s_scale(c, a):
    c = Fraction(c)
    return [c * x for x in a]


def s_mul(a, b):
    n = len(a)
    out = s_zero(n)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y and i + j < n:
                    out[i + j] += x * y
    return out


def s_pow(a, k):
    n = len(a)
    out = s_from_terms([(0, 1)], n)
    for _ in range(k):
        out = s_mul(out, a)
    return out


def s_ord(a):
    for i, x in enumerate(a):
        if x:
            return i
    return None  # all shown coefficients vanish


def binom_frac(alpha, j):
    """Generalized binomial coefficient alpha over j, alpha rational."""
    alpha = Fraction(alpha)
    out = Fraction(1)
    for i in range(j):
        out *= (alpha - i) / (i + 1)
    return out


def s_unit_pow(a, alpha):
    """(1 + w)^alpha for a = 1 + w with ord(w) >= 1, alpha rational."""
    n = len(a)
    if a[0] != 1:
        raise ValueError("the constant term must be 1")
    w = list(a)
    w[0] = Fraction(0)
    out = s_zero(n)
    term = s_from_terms([(0, 1)], n)
    for j in range(n):
        out = s_add(out, s_scale(binom_frac(alpha, j), term))
        term = s_mul(term, w)
        if s_ord(term) is None:
            break
    return out


def poly_eval_series(poly, components):
    """Evaluate a sparse polynomial at a tuple of series.

    poly: dict mapping exponent tuples to coefficients.
    components: list of series, one per variable.
    """
    n = len(components[0]) if components else 1
    out = s_zero(n)
    for expo, coeff in poly.items():
        term = s_from_terms([(0, coeff)], n)
        for var, e in enumerate(expo):
            for _ in range(e):
                term = s_mul(term, components[var])
        out = s_add(out, term)
    return out


def branch_order(poly, components):
    """t-order of poly evaluated along one parametrized branch."""
    return s_ord(poly_eval_series(poly, components))


def intersection_via_branches(poly, branches):
    """Sum of t-orders over all branches; None when some branch kills poly."""
    total = 0
    for components in branches:
        o = branch_order(poly, components)
        if o is None:
            return None
        total += o
    return total


def fixed_point_series(update, start, n, max_iter=None):
    """Solve s = update(s) by iteration; update must raise the order of the
    correction each round.  start is a series of length n."""
    s = list(start)
    for _ in range(max_iter or (n + 2)):
        s2 = update(s)
        if s2 == s:
            return s
        s = s2
    return s


# ----------------------------------------------------------- determinants

def det_perm(rows, add, mul, neg, zero):
    """Determinant by permutation expansion with caller-supplied ring ops."""
    n = len(rows)
    total = zero
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = None
        for i in range(n):
            prod = rows[i][perm[i]] if prod is None else mul(prod, rows[i][perm[i]])
        total = add(total, prod if sign > 0 else neg(prod))
    return total


# ------------------------------------------------------------- staircases

def staircase_count(generators, nvars):
    """Number of monomials outside the monomial ideal, None when infinite.

    generators: exponent tuples of the monomial ideal.  The count is finite
    exactly when each variable has a pure power among the generators.
    """
    gens = [g for g in generators if any(g)]
    if any(not any(g) for g in generators):
        return 0  # the ideal contains 1
    for i in range(nvars):
        if not any(all(e == 0 for j, e in enumerate(g) if j != i) and g[i] > 0
                   for g in gens):
            return None
    def divisible(m, g):
        return all(x >= y for x, y in zip(m, g))
    seen = set()
    stack = [(0,) * nvars]
    while stack:
        m = stack.pop()
        if m in seen or any(divisible(m, g) for g in gens):
            continue
        seen.add(m)
        for i in range(nvars):
            m2 = list(m)
            m2[i] += 1
            stack.append(tuple(m2))
    return len(seen)


# -------------------------------------------------------------- term orders

@dataclass(frozen=True)
class Lex:
    def key(self, mono):
        return mono


@dataclass(frozen=True)
class _DegRevLex:
    def key(self, mono):
        return (sum(mono), tuple(-e for e in reversed(mono)))


def _wdot(w, a):
    """Weighted degree of a monomial; infinite entries count only on
    positive exponents."""
    total = 0
    for wi, ai in zip(w, a):
        if ai == 0:
            continue
        if wi == float("inf"):
            return wi
        total += wi * ai
    return total


@dataclass(frozen=True)
class WeightedOrder:
    """Compare by weighted degree first, break ties with another order.
    With an infinite weight this is a monomial order only when the tie
    ranks that variable first and agrees with the finite weights on the
    others."""

    weights: tuple
    tie: object = _DegRevLex()

    def key(self, mono):
        return (_wdot(self.weights, mono), self.tie.key(mono))


# ----------------------------------------------------------------- division

def division_maxscan(terms, divisors, key, field):
    """Multivariate division by an ordered list of divisors, taking the
    largest remaining term by a full scan at every step.

    terms and each divisor are dicts from exponent tuple to coefficient;
    key is the order's sort key (larger key = larger monomial) and field
    supplies zero, is_zero, add, sub, mul and div on coefficients.
    Returns (quotient dicts, remainder dict), each filled in the order
    the terms were reached.
    """
    leads = []
    for g in divisors:
        lm = max(g, key=key)
        leads.append((lm, g[lm]))
    quots = [{} for _ in divisors]
    rem = {}
    work = dict(terms)
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for i, (lm, lc) in enumerate(leads):
            if any(x < y for x, y in zip(m, lm)):
                continue
            q = tuple(x - y for x, y in zip(m, lm))
            factor = field.div(c, lc)
            s = field.add(quots[i].get(q, field.zero()), factor)
            if field.is_zero(s):
                quots[i].pop(q, None)
            else:
                quots[i][q] = s
            for gm, gc in divisors[i].items():
                if gm == lm:
                    continue
                t = tuple(x + y for x, y in zip(gm, q))
                v = field.sub(work.get(t, field.zero()), field.mul(factor, gc))
                if field.is_zero(v):
                    work.pop(t, None)
                else:
                    work[t] = v
            break
        else:
            rem[m] = c
    return quots, rem


def witness_by_division(N, basis, key, field, positions, size):
    """The semigroup witness for N, read off the remainder of t^N divided
    by an elimination basis of <g_i - t^(w_i)> with division_maxscan, or
    None when that remainder is not one t-free monomial.

    The ring is t, g_1, ..., g_k (t first); basis, key and field are as
    for division_maxscan.  The exponent of g_j goes to index positions[j]
    of a witness of length size, and the other entries are zero.
    """
    t_pow = (N,) + (0,) * len(positions)
    _, rem = division_maxscan({t_pow: field.one()}, basis, key, field)
    if len(rem) != 1:
        return None
    (mono,) = rem
    if mono[0]:
        return None
    witness = [0] * size
    for pos, e in zip(positions, mono[1:]):
        witness[pos] = e
    return tuple(witness)


# ---------------------------------------------------------------- groebner

def spoly_reference(f, g, key):
    """S(f, g) = f.term_mul(uf, 1/cf) - g.term_mul(ug, 1/cg), with leads
    cf*x^mf and cg*x^mg under the sort key and x^uf*x^mf = x^ug*x^mg their
    lcm.  f and g are polynomial objects with ``terms``, ``ctx.field``,
    ``term_mul`` and subtraction."""
    field = f.ctx.field
    mf, mg = max(f.terms, key=key), max(g.terms, key=key)
    m = tuple(max(x, y) for x, y in zip(mf, mg))
    uf = tuple(x - y for x, y in zip(m, mf))
    ug = tuple(x - y for x, y in zip(m, mg))
    return (f.term_mul(uf, field.inv(f.terms[mf]))
            - g.term_mul(ug, field.inv(g.terms[mg])))


def buchberger_chain(gens, key, field):
    """Reduced Groebner basis by Buchberger's algorithm: pairs taken lowest
    lcm first (ties by index), skipped by the product criterion or when a
    third lead divides their lcm and neither of its pairs with them is
    pending (the chain criterion), each S-polynomial divided by every
    polynomial found so far with division_maxscan.

    gens are dicts from exponent tuple to coefficient, key and field as for
    division_maxscan.  Returns monic dicts sorted by ascending leading
    monomial; each is the remainder of its division by the other minimal
    elements, or the element itself when it is the only one.
    """
    def lead(g):
        return max(g, key=key)

    def lcm(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    def divides(b, a):
        return all(x >= y for x, y in zip(a, b))

    def spoly(f, g):
        mf, mg = lead(f), lead(g)
        m = lcm(mf, mg)
        out = {}
        for p, lm, factor in ((f, mf, field.inv(f[mf])),
                              (g, mg, field.neg(field.inv(g[mg])))):
            u = tuple(x - y for x, y in zip(m, lm))
            for t, c in p.items():
                t = tuple(x + y for x, y in zip(t, u))
                v = field.add(out.get(t, field.zero()), field.mul(factor, c))
                if field.is_zero(v):
                    out.pop(t, None)
                else:
                    out[t] = v
        return out

    basis = [dict(g) for g in gens if g]
    if not basis:
        return []
    leads = [lead(g) for g in basis]
    pairs = set()
    heap = []

    def push(i, j):
        pairs.add((i, j))
        heapq.heappush(heap, (key(lcm(leads[i], leads[j])), i, j))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            push(i, j)

    def chain_skippable(i, j):
        m = lcm(leads[i], leads[j])
        for k in range(len(basis)):
            if k in (i, j) or not divides(leads[k], m):
                continue
            if (min(i, k), max(i, k)) not in pairs and \
                    (min(j, k), max(j, k)) not in pairs:
                return True
        return False

    while heap:
        _, i, j = heapq.heappop(heap)
        if (i, j) not in pairs:
            continue
        pairs.discard((i, j))
        if all(x == 0 or y == 0 for x, y in zip(leads[i], leads[j])):
            continue
        if chain_skippable(i, j):
            continue
        _, r = division_maxscan(spoly(basis[i], basis[j]), basis, key, field)
        if not r:
            continue
        basis.append(r)
        leads.append(lead(r))
        for k in range(len(basis) - 1):
            push(k, len(basis) - 1)

    basis.sort(key=lambda g: key(lead(g)))
    kept = []
    for g in basis:
        if not any(divides(lead(h), lead(g)) for h in kept):
            kept.append(g)
    out = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        r = division_maxscan(g, others, key, field)[1] if others else g
        inv = field.inv(r[lead(r)])
        out.append({m: field.mul(inv, c) for m, c in r.items()})
    return sorted(out, key=lambda g: key(lead(g)))


# ------------------------------------------------------------ pencil read-out

def polygon_rays(D, beta, field, wb, vbar, pivot):
    """The primitive rays, left to right, of the segments of the lower
    convex hull of the points (k, pivot order of the a^k coefficient of
    D(a + beta)), D a determinant {(a exponent, pivot exponent): payload}
    over ``field``: ((k2 - k1)*wb, (k2 - k1)*vbar + (e1 - e2)*wb[pivot])
    from (k1, e1) to (k2, e2).  Every pivot order of D is read, and each
    parameter polynomial is shifted by Horner's rule on ``field``."""
    by_order = {}
    for (d, e), c in D.items():
        by_order.setdefault(e, {})[d] = c
    orders = {}
    for e in sorted(by_order):
        slot = by_order[e]
        zero, shifted = field.zero(), []
        for d in range(max(slot), -1, -1):
            # shifted <- shifted * (a + beta) + c_d
            shifted = [field.add(field.mul(beta, x), y)
                       for x, y in zip(shifted + [zero], [zero] + shifted)]
            shifted[0] = field.add(shifted[0], slot.get(d, zero))
        for k, c in enumerate(shifted):
            if not field.is_zero(c):
                orders.setdefault(k, e)
    hull = []
    for k, e in sorted(orders.items()):
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (e - hull[-2][1])
                                 <= (hull[-1][1] - hull[-2][1])
                                 * (k - hull[-2][0])):
            hull.pop()
        hull.append((k, e))
    rays = []
    for (k1, e1), (k2, e2) in zip(hull, hull[1:]):
        ray = tuple((k2 - k1) * b for b in wb) + (
            (k2 - k1) * vbar + (e1 - e2) * wb[pivot],)
        g = gcd(*ray)
        rays.append(tuple(x // g for x in ray))
    return rays


def coordinates_every_layer(basis, f, N):
    """The coordinates of f on a free basis (``basis.gamma``, rewrite
    rules ``basis._rule``) as {pivot exponent: payload} per element: terms
    wait in layers by pivot exponent and layers k = 0, ..., N - 1 are
    rewritten in turn, each rule sending its pivot multiple to layer k + 1
    and what lies at or past N dropped."""
    field, p = basis.field, basis.pivot
    out = [dict() for _ in basis.gamma]
    layers = [dict() for _ in range(N)]

    def push(layer, mono, c):
        layer += mono[p]
        if layer < N and not field.is_zero(c):
            mono = mono[:p] + (0,) + mono[p + 1:]
            slot = layers[layer]
            slot[mono] = field.add(slot.get(mono, field.zero()), c)

    for m, c in f.terms.items():
        push(0, m, c)
    for k in range(N):
        for v, c in layers[k].items():
            if field.is_zero(c):
                continue
            coords, rest = basis._rule(v)
            for idx, rc in coords.items():
                col = out[idx]
                col[k] = field.add(col.get(k, field.zero()), field.mul(c, rc))
            for bm, bc in rest:
                push(k + 1, bm, field.mul(c, bc))
    return [{k: c for k, c in col.items() if not field.is_zero(c)}
            for col in out]


def mult_matrix_every_layer(g, basis, N):
    """The multiplication matrix of g on the free basis, in the library's
    row layout {(0, pivot exponent): payload}, its columns the
    coordinates of g times each basis monomial."""
    one = basis.field.one()
    cols = [coordinates_every_layer(basis, g.term_mul(m, one), N)
            for m in basis.gamma]
    return [[{(0, e): c for e, c in col[i].items()} for col in cols]
            for i in range(len(basis.gamma))]
