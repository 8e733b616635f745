"""Local (power-series) algebra through weighted homogenization.

A standard basis of an ideal with respect to the local order 'smallest
w-degree first, inverse lex among equals' is computed by homogenizing
the generators with an extra variable, running Buchberger under a
compatible global order (``polyring.HomogenizedLocalOrder``), and
setting the homogenizing variable back to 1 (Lazard).  The homogenizing
grading v need not be w: each adjoined coordinate z with a graph
relation z - fdef is graded within fdef's own degrees, every other
variable by w (``_grading``).  Graded by its weight, an intersection
number above fdef's degrees, z would pad its relation with h and fill
the basis with rows that are redundant at h = 1.  Inverse lex makes the
last variable the largest, so an adjoined coordinate, always last, leads
its own relation and is eliminated by it.
Everything downstream (initial ideals, colengths, intersection numbers,
base weights) reads off the local leading monomials of such a basis or
its initial forms.  Neither depends on the tails, so the basis is the
Buchberger loop's minimal monic one, never tail-reduced: the leads are
those of the reduced basis, and any standard basis's initial forms
generate the initial ideal, whose reduced InvLex basis
``decide._initial_handle`` finds by interreducing them.  Colengths
count the staircase of the leads without building it
(``groebner.staircase_size``).  An intersection number is taken in
the smallest ring that carries it: K[[x]]/(I + (x_i)) is K[[x without
x_i]]/I|_{x_i=0}, and a certificate's base weights are taken in its base
ring (see ``decide.Certificate``).

A colength does not depend on the local order it is counted under, so
each is counted where it costs least.  In one variable K[[t]] is a
discrete valuation ring and the colength is the least order of a
generator, read off with no basis at all; so every I(x_i) of a plane
curve is an order.  Any other intersection number I(f) is counted under
the curve's own weights, the base weights I(x_i) kept in the handle's
memo (all ones when one is 0 or INF).  For a branch they are the
orders of the coordinates on it, its tropism.  On the benchmark
corpus's prime certificates counting under them takes about 40% less
time than under all-ones weights, and on its two-branch ones as much
(README).  A colength asked for directly (``local_colength``) is
counted under all-ones weights.

The homogenized basis for each w and the intersection number of each
f are kept in the memo of the ideal's handle, so asking a handle
again, directly or through ``base_weights``, builds no second basis.
Sequences of generators get a fresh handle, and so a cold memo, per call.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from .errors import ZeroPoly
from .groebner import (
    IdealHandle,
    _as_handle,
    buchberger,
    staircase_size,
)
from .naming import next_single
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
        if type(wi) is not int or wi <= 0:
            raise ValueError("weights must be positive integers")
    return w


def hom_ring(ctx: RingCtx) -> RingCtx:
    """The ring extended by the homogenizing variable (always last)."""
    return ctx.extend((next_single(ctx.variables, ("h",)),))


def homogenize(f: Poly, v: tuple, big: RingCtx) -> Poly:
    """Pad each term with a power of the last variable of ``big`` so the
    result is (v, 1)-homogeneous of degree max_t(v . t)."""
    if f.is_zero():
        raise ZeroPoly("cannot homogenize the zero polynomial")
    top = max(wdot(v, m) for m in f.terms)
    return Poly({m + (top - wdot(v, m),): c for m, c in f.terms.items()}, big)


def dehomogenize(F: Poly, ctx: RingCtx) -> Poly:
    """Set the trailing homogenizing variable to 1.  F must be homogeneous
    for a grading with the last variable's weight 1, as ``homogenize``
    and the homogenized basis give it: then two terms never share their
    other exponents, and no terms merge."""
    return Poly({m[:-1]: c for m, c in F.terms.items()}, ctx)


def _grading(generators: Sequence[Poly], w: tuple) -> tuple:
    """The homogenizing grading v for the local order at w.  Variables are
    taken in order, starting from v = w.  A variable x_i that a generator
    holds as a lone linear term c*x_i, its other terms in earlier
    variables only and none of them constant, has a graph relation
    c*x_i - fdef; then v_i is w_i clamped into [ord_v(fdef), deg_v(fdef)].
    Every other variable keeps w_i."""
    v = list(w)
    for i in range(len(v)):
        unit = tuple(int(j == i) for j in range(len(v)))
        for g in generators:
            fdef = [m for m in g.terms if m != unit]
            if unit in g.terms and fdef and all(
                    any(m[:i]) and not any(m[i:]) for m in fdef):
                degrees = [wdot(v, m) for m in fdef]
                v[i] = min(max(w[i], min(degrees)), max(degrees))
                break
    return tuple(v)


def _hom_groebner(handle: IdealHandle, w: tuple):
    """The homogenized minimal Groebner basis for the weighted local order,
    with its ring and order, from the handle's memo.  The generators are
    homogenized by the grading v of ``_grading``, a function of them and
    w, so the memo key holds w alone.

    Any positive grading v gives a standard basis (Lazard, EUROCAL 1983;
    Greuel & Pfister, section 1.7).  Homogenize f by (v, 1) to f^h, and let
    the F_i^h be the homogenized generators of I.
    - For a (v, 1)-homogeneous F the first entry of the order's key is
      constant, so LM(F) = x^a * h^e, where x^a is the local lead of
      F(x, 1).  The basis elements are (v, 1)-homogeneous, so each sets
      h = 1 to an element of I with the local lead of its own lead.
    - For f in I, h^m * f^h lies in the ideal of the F_i^h for some m.
      Multiplying by h keeps leads, so some basis lead x^b * h^c divides
      h^m * LM(f^h), and x^b divides LM_loc(f).
    - Units change no local lead, so this covers I * K[[x]].
    Nothing in the argument ties v to w: v decides only how many rows
    Buchberger builds on the way."""
    def build():
        big = hom_ring(handle.ctx)
        gens = [g for g in handle.generators if not g.is_zero()]
        v = _grading(gens, w)
        order = HomogenizedLocalOrder(w, v)
        hom = [homogenize(g, v, big) for g in gens]
        return buchberger(hom, order, reduced=False), big, order
    return handle.cached(("hom", w), build)


def standard_basis(ideal: IdealLike, w: Sequence[int]) -> List[Poly]:
    """Standard basis for the local order 'smallest w-degree first,
    inverse lex among equals': minimal and monic, its tails not reduced."""
    handle = _as_handle(ideal)
    w = _check_weights(w, handle.ctx.nvars)
    gb, _, _ = _hom_groebner(handle, w)
    return [dehomogenize(g, handle.ctx) for g in gb]


def local_lead_monomials(ideal: IdealLike, w: Sequence[int]) -> List[tuple]:
    """Monomial generators of the local leading-term ideal."""
    handle = _as_handle(ideal)
    w = _check_weights(w, handle.ctx.nvars)
    gb, _, order = _hom_groebner(handle, w)
    leads = {g.lead(order)[0][:-1] for g in gb}
    return sorted(leads)


def initial_ideal(ideal: IdealLike, w: Sequence[int]) -> List[Poly]:
    """Generators of the ideal of lowest-w-degree forms: the initial forms
    of a standard basis.  Their InvLex leads are the local leads of that
    basis, so they form an InvLex Groebner basis of the initial ideal (see
    ``decide._initial_handle``).  The basis is minimal, so its local leads
    are distinct and non-zero, and so no form is zero and no two are
    equal."""
    handle = _as_handle(ideal)
    w = _check_weights(w, handle.ctx.nvars)
    return [in_w(s, w) for s in standard_basis(handle, w)]


def _colength(handle: IdealHandle, w: tuple):
    """The colength of the handle's ideal, counted under the local order
    at w when there is more than one variable.  In one variable it is the
    least order of a nonzero generator, the least exponent of any term:
    0 for a unit, INF with none."""
    n = handle.ctx.nvars
    if n == 1:
        return min((m[0] for g in handle.generators for m in g.terms),
                   default=INF)
    leads = local_lead_monomials(handle, w)
    if not leads:
        return INF if n else 1
    size = staircase_size(leads, n)
    return INF if size is None else size


def local_colength(ideal: IdealLike):
    """Vector-space dimension of the power-series quotient, INF when the
    quotient is not finite dimensional.  It does not depend on the local
    order: in one variable it is the least order of a generator, in more
    it is counted under all-ones weights."""
    handle = _as_handle(ideal)
    return _colength(handle, (1,) * handle.ctx.nvars)


def restrict(generators: Sequence[Poly], ctx: RingCtx, drop) -> IdealHandle:
    """The generators' ideal with the variables at positions ``drop`` set
    to zero, in the ring without them (zero images left out)."""
    keep = [i for i in range(ctx.nvars) if i not in drop]
    small = RingCtx(ctx.field, tuple(ctx.variables[i] for i in keep))
    gens = (Poly({tuple(m[i] for i in keep): c for m, c in g.terms.items()
                  if not any(m[i] for i in drop)}, small)
            for g in generators)
    return IdealHandle([g for g in gens if not g.is_zero()], small)


def intersection_number(f: Poly, ideal: IdealLike):
    """Colength of the ideal together with f; INF when f is a zero divisor
    direction (or lies in the ideal).  A local colength does not depend
    on the local order, so each is counted where it is cheapest.  For f a
    multiple of x_i it is the colength of the ideal restricted to x_i = 0,
    in the ring without x_i: an order when one variable is left.  For any
    other f it is counted under the ideal's base weights, themselves
    intersection numbers kept in the memo, or under all-ones weights when
    one of them is 0 or INF."""
    handle = _as_handle(ideal)
    ctx = handle.ctx
    if f.ctx != ctx:
        raise ValueError("f and the ideal are in different rings")

    def build():
        if f.is_zero():
            return local_colength(handle)
        if len(f.terms) == 1 and f.total_degree() == 1:
            return local_colength(restrict(handle.generators, ctx,
                                           f.variables_used()))
        w = base_weights(handle)
        if 0 in w or INF in w:
            w = (1,) * ctx.nvars
        return _colength(IdealHandle(handle.generators + (f,), ctx), w)
    return handle.cached(("intersection", f.key()), build)


def base_weights(ideal: IdealLike) -> tuple:
    """Intersection numbers of the coordinate functions, as a weight vector
    (entries may be INF)."""
    handle = _as_handle(ideal)
    ctx = handle.ctx
    return tuple(intersection_number(ctx.var(i), handle)
                 for i in range(ctx.nvars))
