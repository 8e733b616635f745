"""Local (power-series) algebra through weighted homogenization.

A standard basis of an ideal with respect to the local order 'smallest
w-degree first' is computed by homogenizing the generators with an extra
variable, running Buchberger under a compatible global order, and setting
the homogenizing variable back to 1.  Everything downstream (initial
ideals, colengths, intersection numbers, base weights) reads off the local
leading monomials of such a basis.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from .errors import ZeroPoly
from .groebner import (
    IdealHandle,
    _as_handle,
    buchberger,
    fresh_names,
    monomial_staircase,
)
from .polyring import (
    INF,
    HomogenizedLocalOrder,
    Poly,
    RingCtx,
    in_w,
    wdot,
)

IdealLike = Union[IdealHandle, Sequence[Poly]]


def _check_weights(w, nvars: int) -> tuple:
    w = tuple(w)
    if len(w) != nvars:
        raise ValueError("weight vector length does not match the ring")
    for wi in w:
        if wi is INF or wi == INF:
            raise ValueError("homogenization needs finite weights")
        if not isinstance(wi, int) or wi <= 0:
            raise ValueError("weights must be positive integers")
    return w


def hom_ring(ctx: RingCtx) -> RingCtx:
    """The ring extended by the homogenizing variable (always last)."""
    return ctx.extend(fresh_names(ctx.variables, "h"))


def homogenize(f: Poly, w: tuple, big: RingCtx) -> Poly:
    """Pad each term with a power of the last variable of ``big`` so the
    result is w-homogeneous of degree max_t(w . t)."""
    if f.is_zero():
        raise ZeroPoly("cannot homogenize the zero polynomial")
    top = max(wdot(w, m) for m in f.terms)
    return Poly({m + (top - wdot(w, m),): c for m, c in f.terms.items()}, big)


def dehomogenize(F: Poly, ctx: RingCtx) -> Poly:
    """Set the trailing homogenizing variable to 1."""
    field = ctx.field
    out = {}
    for m, c in F.terms.items():
        key = m[:-1]
        if key in out:
            s = field.add(out[key], c)
            if field.is_zero(s):
                del out[key]
            else:
                out[key] = s
        else:
            out[key] = c
    return Poly(out, ctx)


def _hom_groebner(handle: IdealHandle, w: tuple):
    """Cached homogenized Groebner basis for the weighted local order."""
    cache = getattr(handle, "_local_cache", None)
    if cache is None:
        cache = {}
        handle._local_cache = cache
    if w not in cache:
        ctx = handle.ctx
        big = hom_ring(ctx)
        order = HomogenizedLocalOrder(w)
        hom = [homogenize(g, w, big) for g in handle.generators if not g.is_zero()]
        cache[w] = (buchberger(hom, order), big, order)
    return cache[w]


def standard_basis(ideal: IdealLike, w: Optional[Sequence[int]] = None) -> List[Poly]:
    """Standard basis for the local order 'smallest w-degree first,
    degrevlex among equals' (w defaults to all ones)."""
    handle = _as_handle(ideal)
    w = _check_weights(w if w is not None else (1,) * handle.ctx.nvars,
                       handle.ctx.nvars)
    gb, _, _ = _hom_groebner(handle, w)
    return [dehomogenize(g, handle.ctx) for g in gb]


def local_lead_monomials(ideal: IdealLike,
                         w: Optional[Sequence[int]] = None) -> List[tuple]:
    """Monomial generators of the local leading-term ideal."""
    handle = _as_handle(ideal)
    w = _check_weights(w if w is not None else (1,) * handle.ctx.nvars,
                       handle.ctx.nvars)
    gb, _, order = _hom_groebner(handle, w)
    leads = {g.lead(order)[0][:-1] for g in gb}
    return sorted(leads)


def initial_ideal(ideal: IdealLike, w: Sequence[int]) -> List[Poly]:
    """Generators of the ideal of lowest-w-degree forms: the initial forms
    of a standard basis, deduplicated."""
    handle = _as_handle(ideal)
    w = _check_weights(w, handle.ctx.nvars)
    seen = set()
    out = []
    for s in standard_basis(handle, w):
        if s.is_zero():
            continue
        form = in_w(s, w)
        k = form.key()
        if k not in seen:
            seen.add(k)
            out.append(form)
    return out


def local_colength(ideal: IdealLike, w: Optional[Sequence[int]] = None):
    """Vector-space dimension of the power-series quotient, INF when the
    quotient is not finite dimensional."""
    handle = _as_handle(ideal)
    leads = local_lead_monomials(handle, w)
    if not leads:
        return INF if handle.ctx.nvars else 1
    stairs = monomial_staircase(leads, handle.ctx.nvars)
    return INF if stairs is None else len(stairs)


def intersection_number(f: Poly, ideal: IdealLike,
                        w: Optional[Sequence[int]] = None):
    """Colength of the ideal together with f; INF when f is a zero divisor
    direction (or lies in the ideal)."""
    handle = _as_handle(ideal)
    if f.is_zero():
        return local_colength(handle, w)
    gens = tuple(handle.generators) + (f,)
    return local_colength(IdealHandle(gens, handle.ctx), w)


def base_weights(ideal: IdealLike) -> tuple:
    """Intersection numbers of the coordinate functions, as a weight vector
    (entries may be INF)."""
    handle = _as_handle(ideal)
    ctx = handle.ctx
    return tuple(intersection_number(ctx.var(i), handle)
                 for i in range(ctx.nvars))
