"""Numerical semigroups generated by weight vectors: membership with a
deterministic witness exponent, gcd and conductor, and the toric ideal of
relations among the weights.

Membership and the relation ideal both come from one elimination
computation: the basis of <x_i - t^(w_i)> under a block order with t in
front rewrites t^N to a pure x-monomial exactly when N lies in the
semigroup, and its x-only elements generate the relation ideal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from .errors import AllInfinite, NotPrimitive
from .groebner import buchberger
from .polyring import (
    INF,
    BlockOrder,
    DegRevLex,
    Poly,
    RingCtx,
    normal_form,
)
from .scalars import QQ


def _is_inf(x) -> bool:
    return x is INF or x == INF


@dataclass(frozen=True)
class SemigroupSpec:
    """Additive semigroup of nonnegative combinations of the finite
    generators; INF entries are carried but contribute nothing."""

    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        finite = [g for g in gens if not _is_inf(g)]
        if not finite:
            raise AllInfinite("no finite generator")
        for g in finite:
            if not isinstance(g, int) or g <= 0:
                raise ValueError("generators must be positive integers or INF")

    def finite_entries(self):
        return [(i, g) for i, g in enumerate(self.generators) if not _is_inf(g)]


def _as_spec(w) -> SemigroupSpec:
    if isinstance(w, SemigroupSpec):
        return w
    return SemigroupSpec(tuple(w))


_ELIM_CACHE: dict = {}


def _elimination_data(spec: SemigroupSpec):
    key = spec.generators
    if key not in _ELIM_CACHE:
        finite = spec.finite_entries()
        names = ["t"] + [f"g{i}" for i, _ in finite]
        ctx = RingCtx(QQ, tuple(names))
        order = BlockOrder(1, DegRevLex(), DegRevLex())
        gens = []
        for slot, (_, w) in enumerate(finite):
            t_pow = [0] * ctx.nvars
            t_pow[0] = w
            var = [0] * ctx.nvars
            var[slot + 1] = 1
            gens.append(ctx.mono(var) - ctx.mono(t_pow))
        gb = buchberger(gens, order)
        _ELIM_CACHE[key] = (ctx, order, gb, [i for i, _ in finite])
    return _ELIM_CACHE[key]


def membership(N: int, w) -> Optional[tuple]:
    """A witness exponent c with N = c . w when N lies in the semigroup,
    None otherwise.  The witness is the remainder exponent of t^N under
    the elimination basis, so repeated runs agree."""
    spec = _as_spec(w)
    r = len(spec.generators)
    if N == 0:
        return (0,) * r
    if not isinstance(N, int) or N < 0:
        return None
    ctx, order, gb, positions = _elimination_data(spec)
    t_pow = [0] * ctx.nvars
    t_pow[0] = N
    rem = normal_form(ctx.mono(t_pow), gb, order)
    if len(rem.terms) != 1:
        return None
    (mono,) = rem.terms
    if mono[0] != 0:
        return None
    witness = [0] * r
    for slot, pos in enumerate(positions):
        witness[pos] = mono[slot + 1]
    return tuple(witness)


def prim_generators(w, ctx: Optional[RingCtx] = None) -> List[Poly]:
    """Binomial generators (a reduced basis) of the ideal of relations
    x^a - x^b with a . w = b . w, in the given ring."""
    w = tuple(w)
    if any(_is_inf(e) for e in w):
        raise ValueError("relation ideal needs all weights finite")
    for e in w:
        if not isinstance(e, int) or e <= 0:
            raise ValueError("weights must be positive integers")
    if ctx is None:
        ctx = RingCtx(QQ, tuple(f"x{i + 1}" for i in range(len(w))))
    if ctx.nvars != len(w):
        raise ValueError("weight length does not match the ring")
    # every weight is finite, so the elimination ring is t, g0, ..., g(n-1)
    _, _, gb, _ = _elimination_data(_as_spec(w))
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
    spec = _as_spec(w)
    gens = sorted({g for _, g in spec.finite_entries()})
    if gcd_weights(spec.generators) != 1:
        raise NotPrimitive("conductor needs coprime generators")
    m = gens[0]
    apery = [None] * m
    apery[0] = 0
    changed = True
    while changed:
        changed = False
        for r in range(m):
            if apery[r] is None:
                continue
            for g in gens:
                nr = (r + g) % m
                cand = apery[r] + g
                if apery[nr] is None or cand < apery[nr]:
                    apery[nr] = cand
                    changed = True
    assert all(a is not None for a in apery)
    return max(apery) - m + 1
