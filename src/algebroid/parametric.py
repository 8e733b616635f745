"""The multiplication-matrix method: free bases over the pivot-variable
series ring, multiplication matrices, parametric determinants
det(M_f - a M_g), and the three-way test built on them.

The quotient by a one-dimensional ideal is a free module of finite rank
over power series in a cheapest variable (the pivot) t.  One object,
``FreeBasis``, is that basis and the engine that writes elements on it.
Its basis is the staircase of the DegRevLex Groebner basis of I + (t),
whose rows track t's cofactor, so every monomial gets a rewrite rule
"monomial = span-of-basis + t * rest" (mod I); rules are applied layer
by layer in the t exponent, lowest first and only to the layers that
hold terms, so truncation at t^N is exact.  The
staircase is a basis of K[x]/(I + (t)); when it has I(t) elements, the
local colength, the hyperplane t = 0 meets the curve only at the origin,
so it lifts a basis of A/tA and, by Nakayama, generates A.  The pivot
is never the caller's choice: ``free_basis`` keeps the cheapest
coordinate that passes this check.  The basis is free only when t is a
nonzerodivisor on A, as when I, like every radical input, has no
embedded component at the origin: on (y^2, x*y), I + (x) has I(x) = 2
staircase elements, yet ``parametric_intersection(x^2, x^2, I)`` returns
4, not the colength 3 of I + (x^2).

The method requires A = O/I to be a free module of rank I(t) over k[[t]],
t the pivot.  Then multiplication by a nonzerodivisor h is injective on A
and I(h) = dim A/hA = ord_t det(M_h).  Determinants are multiplicative,
so a monomial's value is a . w from the base weights w: the pencil reads
the values of its monomial f and g from the handle's memo and builds no
standard basis of I + (x^a).  The determinant det(M_f - a M_g) is taken
over integer minors: over Q each row is scaled to integers, over F_p each
minor is reduced once per row step, so no Fraction enters its products.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import (
    AlgebroidError,
    CertificateSearchFailed,
    ContextViolation,
    InfinitePivot,
    SolverLimitation,
    TruncationExhausted,
    UnequalBase,
)
from .groebner import (
    IdealHandle,
    _row_nf,
    buchberger_tagged,
    monomial_staircase,
    radical_membership,
)
from .localalg import base_weights, intersection_number
from .polyring import INF, DegRevLex, Poly, RingCtx, embed
from .scalars import FieldSpec, univariate_roots, uv_divmod, uv_eval


# --------------------------------------------------------------- free basis

def choose_pivot(ideal: IdealHandle) -> Tuple[int, int]:
    """The pivot ``free_basis`` keeps, with its intersection number."""
    basis = free_basis(ideal)
    return basis.pivot, basis.rank


class FreeBasis:
    """The monomial basis ``gamma`` of the quotient over series in the
    pivot variable, of ``rank`` elements (INF when it is infinite), and
    its rewrite engine: memoized rules v = r_v + pivot * b_v (mod I) with
    r_v supported on ``gamma`` (module docstring).

    The rules come from the DegRevLex Groebner basis of I + (pivot), whose
    rows track one polynomial, the pivot's cofactor: every generator of I
    enters with tag 0 and the pivot with tag 1.  Reducing v leaves its
    normal form r_v with tag -c, where v = r_v + c * pivot modulo I, so
    b_v is c; the cofactors of I's own generators multiply members of I,
    and nothing reads them.  ``gamma`` is the staircase of that basis, in
    the non-pivot variables; it is a free basis when its rank is I(pivot),
    which ``free_basis`` checks and a direct caller must."""

    def __init__(self, handle: IdealHandle, pivot: int):
        self.pivot = pivot
        ctx = handle.ctx
        self.ctx = ctx
        self.field = ctx.field
        self.order = DegRevLex()
        rows = [(g, ctx.zero()) for g in handle.generators]
        rows.append((ctx.var(pivot), ctx.one()))
        rows = buchberger_tagged(rows, self.order)
        self.gb = [p for p, _ in rows]
        self.cofactors = [t for _, t in rows]
        members = monomial_staircase(
            [p.lead(self.order)[0] for p in self.gb], ctx.nvars)
        self.rank = INF if members is None else len(members)
        self.gamma = tuple(sorted(members or ()))
        self.gamma_index = {m: i for i, m in enumerate(self.gamma)}
        self._rules: Dict[tuple, tuple] = {}

    def _rule(self, v: tuple):
        """v (pivot exponent zero) = r + pivot*b (mod I): returns
        (r: {gamma_index: payload}, b: list of (monomial, payload))."""
        rule = self._rules.get(v)
        if rule is None:
            # the basis is monic, so the row comes back unscaled
            rem, tag = _row_nf((self.ctx.mono(v), self.ctx.zero()), self.gb,
                               self.cofactors, self.order)
            rule = ({self.gamma_index[m]: c for m, c in rem.terms.items()},
                    list((-tag).terms.items()))
            self._rules[v] = rule
        return rule

    def coordinates(self, f: Poly, N: int) -> List[Dict[int, object]]:
        """Basis coordinates of f mod I as truncated series in the pivot:
        a dict {pivot_exponent: payload} per basis element.  Only layers
        that hold terms are rewritten, lowest first."""
        field = self.field
        p = self.pivot
        out: List[Dict[int, object]] = [dict() for _ in self.gamma]
        layers: Dict[int, Dict[tuple, object]] = {}

        def push(layer: int, mono: tuple, c):
            if layer >= N or field.is_zero(c):
                return
            e = mono[p]
            if e:
                layer += e
                if layer >= N:
                    return
                mono = mono[:p] + (0,) + mono[p + 1:]
            slot = layers.setdefault(layer, {})
            prev = slot.get(mono)
            c = c if prev is None else field.add(prev, c)
            if field.is_zero(c):
                slot.pop(mono, None)
            else:
                slot[mono] = c

        for m, c in f.terms.items():
            push(0, m, c)
        while layers:
            k = min(layers)
            for v, c in layers.pop(k).items():
                coords, b = self._rule(v)
                for idx, rc in coords.items():
                    col = out[idx]
                    prev = col.get(k)
                    val = field.mul(c, rc) if prev is None else \
                        field.add(prev, field.mul(c, rc))
                    if field.is_zero(val):
                        col.pop(k, None)
                    else:
                        col[k] = val
                for bm, bc in b:
                    push(k + 1, bm, field.mul(c, bc))
        return out


def free_basis(ideal: IdealHandle) -> FreeBasis:
    """The free basis over series in the cheapest pivot: the first
    coordinate, in order of (finite I(x_i), index), whose staircase has
    I(x_i) elements, kept in the handle's memo under ("pivot",).
    ``InfinitePivot`` when no I(x_i) is finite; ``TruncationExhausted``,
    with each coordinate's global and local colength of I + (x_i), when
    every hyperplane meets the curve away from the origin."""
    def build() -> FreeBasis:
        finite = [(n, i) for i, n in enumerate(base_weights(ideal))
                  if n is not INF]
        if not finite:
            raise InfinitePivot(
                "every coordinate has infinite intersection number")
        ranks = {}
        for n, i in sorted(finite):
            basis = FreeBasis(ideal, i)
            if basis.rank == n:
                return basis
            ranks[i] = basis.rank
        names = ideal.ctx.variables
        raise TruncationExhausted(
            "every coordinate hyperplane meets the curve away from the "
            "origin: " + ", ".join(f"I + ({names[i]}) has colength "
                                   f"{ranks[i]} globally, {n} at the origin"
                                   for n, i in finite))
    return ideal.cached(("pivot",), build)


# ------------------------------------------------------------ matrices

def mult_matrix(g: Poly, basis: FreeBasis, N: int) -> List[list]:
    """Matrix of multiplication by g on the free basis, coefficients
    truncated at pivot^N: rows of ``_det`` entries {(0, pivot_exponent):
    payload}, constant in the parameter."""
    if g.ctx != basis.ctx:
        raise ValueError("g and the basis are in different rings")
    one = basis.field.one()
    cols = [basis.coordinates(g.term_mul(m, one), N) for m in basis.gamma]
    return [[{(0, e): c for e, c in col[i].items()} for col in cols]
            for i in range(basis.rank)]


# --------------------------------------- bivariate (parameter, pivot) dicts

def _det(entries, n: int, field: FieldSpec, N: int) -> dict:
    """Determinant by memoized expansion over column subsets (only ring
    operations, valid with truncated-series zero divisors).

    Inside, the term (d, e) is the int key e*(n+1) + d.  Entries are at
    most linear in the parameter, so a minor's degree in it is at most n,
    keys add as terms multiply, and ``key < N*(n+1)`` is the truncation at
    pivot^N.  Over Q and F_p the minors hold plain ints.  Over Q each row
    is scaled by the lcm of its denominators, and the result is divided by
    the product of the scales.  Over F_p products accumulate unreduced,
    and each minor is reduced once per row step.  Extension fields run the
    same expansion on their field kernels."""
    m, p, ints = n + 1, field.characteristic, field.extension is None
    cap = N * m
    mul, add, neg = ((operator.mul, operator.add, operator.neg) if ints
                     else (field.mul, field.add, field.neg))
    scale, rows = 1, []
    for row in entries:
        if ints and not p:
            s = math.lcm(*(c.denominator for a in row for c in a.values()))
            scale *= s
            row = [{k: c.numerator * (s // c.denominator)
                    for k, c in a.items()} for a in row]
        rows.append([sorted((e * m + d, c) for (d, e), c in a.items())
                     for a in row])
    cur = {0: {0: 1 if ints else field.one()}}
    for i, row in enumerate(rows):
        nxt: dict = {}
        for mask, minor in cur.items():
            for j, a in enumerate(row):
                bit = 1 << j
                if mask & bit or not a:
                    continue
                acc = nxt.setdefault(mask | bit, {})
                items = minor.items()
                if (i + (mask & (bit - 1)).bit_count()) & 1:
                    items = [(k, neg(c)) for k, c in items]
                for k1, c1 in items:
                    lim = cap - k1
                    for k2, c2 in a:
                        if k2 >= lim:
                            break
                        k = k1 + k2
                        c = mul(c1, c2)
                        acc[k] = add(acc[k], c) if k in acc else c
        cur = {}
        for mask, acc in nxt.items():
            if p and ints:
                acc = {k: c % p for k, c in acc.items()}
            acc = {k: c for k, c in acc.items() if not field.is_zero(c)}
            if acc:
                cur[mask] = acc
        if not cur:
            return {}
    out = {}
    for k, c in cur[(1 << n) - 1].items():
        if scale != 1:
            c = c // scale if c % scale == 0 else Fraction(c, scale)
        out[k % m, k // m] = c
    return out


# ------------------------------------------------------- parametric orders

@dataclass(frozen=True)
class ExceptionalValue:
    """One exceptional parameter: either a root beta, a payload of the
    pencil's ``ParametricOrder.field``, or the monic minimal polynomial
    (coefficient tuple, ascending, leading 1 included) of a conjugate
    class, with the intersection value there."""

    value: object  # int or INF
    beta: object = None
    factor: Optional[tuple] = None


@dataclass(frozen=True)
class ParametricOrder:
    """Orders of det(M_f - a M_g): the generic pivot-order and the finitely
    many exceptional parameter values where it jumps."""

    generic_value: int
    exceptional: tuple
    determinant: dict
    pivot: int
    truncation: int
    field: FieldSpec

    def coefficient(self, k: int) -> list:
        """Parameter polynomial c_k (ascending payload list)."""
        return _coefficients(self.determinant, self.field).get(k, [])


def _coefficients(D: dict, field: FieldSpec) -> Dict[int, list]:
    """The parameter polynomials c_k of a determinant {(parameter exponent,
    pivot exponent k): payload}, as ascending payload lists keyed by k."""
    by_x: Dict[int, dict] = {}
    for (d, e), c in D.items():
        by_x.setdefault(e, {})[d] = c
    out = {}
    for k, slot in by_x.items():
        ck = [field.zero()] * (max(slot) + 1)
        for d, c in slot.items():
            ck[d] = c
        out[k] = ck
    return out


def _lift(ideal: IdealHandle, fac: tuple, f: Poly, g: Poly) -> tuple:
    """The ideal, f and g lifted to the extension of the base field by a
    root th of the monic ``fac`` (ascending, leading 1 included)."""
    ext = FieldSpec(ideal.ctx.field.characteristic, extension=tuple(fac[:-1]))
    ectx = RingCtx(ext, ideal.ctx.variables)
    return (IdealHandle([embed(p, ectx) for p in ideal.generators], ectx),
            embed(f, ectx), embed(g, ectx))


def _pencil_value(f: Poly, ideal: IdealHandle):
    """I(f) for the pencil: a . w for a one-term f = c x^a, w the base
    weights, INF when some a_i > 0 meets an INF weight; any other f asks
    ``intersection_number``.

    With A = O/I free over k[[t]], I(h) = ord_t det(M_h) for every
    nonzerodivisor h.  M_{x^a} is the product of the M_{x_i}^{a_i}, so
    I(x^a) = sum a_i I(x_i).  A coordinate of infinite value is a zero
    divisor, and so is every multiple of it.  ``parametric_intersection``
    checks the value it gets against the determinant it computes."""
    if len(f.terms) != 1:
        return intersection_number(f, ideal)
    (a,) = f.terms
    total = 0
    for ai, wi in zip(a, base_weights(ideal)):
        if ai:
            if wi is INF:
                return INF
            total += ai * wi
    return total


def _order_at(D: dict, d: int) -> Optional[int]:
    """The pivot order of the coefficient of a^d in a determinant D, None
    when that coefficient is zero (to the truncation)."""
    return min((e for (k, e) in D if k == d), default=None)


def _pencil_determinant(f: Poly, g: Poly, basis: FreeBasis,
                        N: int) -> dict:
    """det(M_f - a M_g) on the free basis, truncated at pivot^N."""
    neg = basis.field.neg
    # M_f - a M_g: the entries of M_f and M_g are constant in a
    entries = [[{**fe, **{(1, e): neg(c) for (_, e), c in ge.items()}}
                for fe, ge in zip(frow, grow)]
               for frow, grow in zip(mult_matrix(f, basis, N),
                                     mult_matrix(g, basis, N))]
    return _det(entries, basis.rank, basis.field, N)


def parametric_intersection(f: Poly, g: Poly,
                            ideal: IdealHandle) -> ParametricOrder:
    """Compute det(M_f - a M_g) over the cheapest pivot and read off the
    generic intersection value and every exceptional parameter with its
    value; infinite values come from the exact staircase computation,
    never from truncation.  The quotient must be free over the pivot's
    series ring (module docstring); a determinant whose a^0 or a^n
    coefficient disagrees with the values of f or g raises
    ``AlgebroidError``.

    The truncation N = 2*(nf + ng) + 8 lies past the generic value,
    which is at most nf, the order of the a^0 coefficient.  A fixed N
    hides no jump: a root at which no coefficient below N is seen to be
    nonzero takes its value from the exact ``intersection_number``, INF
    included."""
    field = ideal.ctx.field
    nf = _pencil_value(f, ideal)
    ng = _pencil_value(g, ideal)
    if nf is INF or ng is INF or nf != ng:
        raise UnequalBase(f"intersection numbers differ: {nf} vs {ng}")
    basis = free_basis(ideal)
    N = 2 * (nf + ng) + 8
    n = basis.rank
    D = _pencil_determinant(f, g, basis, N)
    # det(M_f) and det(-M_g) are the coefficients of a^0 and a^n
    for d, name, value in ((0, "f", nf), (n, "g", ng)):
        order = _order_at(D, d)
        if order != value:
            raise AlgebroidError(
                f"parametric intersection: det(M_{name}) has pivot order "
                f"{order}, not the base value {value}; the quotient is not "
                "a free module over the pivot series ring")
    coeffs = _coefficients(D, field)
    k0 = min(coeffs)
    # normalize the sign so the leading parameter coefficient at the
    # generic order is positive (when the field orders payloads)
    if field.characteristic == 0 and field.extension is None \
            and coeffs[k0][-1] < 0:
        D = {k: field.neg(c) for k, c in D.items()}
        coeffs = _coefficients(D, field)
    roots, residual = univariate_roots(coeffs[k0], field)
    # the jump at a root or residual factor is the first higher c_k that
    # does not vanish there
    higher = [(k, coeffs[k]) for k in sorted(coeffs) if k > k0]
    exceptional = []
    for r in roots:
        val = next((k for k, ck in higher
                    if not field.is_zero(uv_eval(ck, r, field))), None)
        if val is None:
            val = intersection_number(f - g.scale(r), ideal)
        exceptional.append(ExceptionalValue(value=val, beta=r))
    for fac in residual:
        val = next((k for k, ck in higher
                    if uv_divmod(ck, list(fac), field)[1]), None)
        if val is None:
            if field.extension is not None:
                raise SolverLimitation(
                    "resolving a conjugate class over an extension field "
                    "would need a tower of extensions")
            eideal, ef, eg = _lift(ideal, fac, f, g)
            val = intersection_number(
                ef - eg.scale(eideal.ctx.field.generator()), eideal)
        exceptional.append(ExceptionalValue(value=val, factor=tuple(fac)))
    if any(ev.value is not INF and ev.value <= k0 for ev in exceptional):
        raise AlgebroidError("parametric intersection: an exceptional "
                             "value is not above the generic value")
    return ParametricOrder(generic_value=k0, exceptional=tuple(exceptional),
                           determinant=D, pivot=basis.pivot, truncation=N,
                           field=field)


# --------------------------------------------------------------- verdicts

@dataclass(frozen=True)
class Verdict:
    """Outcome of the three-way test: 'false' with an attachment, or
    'not_false' with the unique exceptional parameter ``beta``, a payload
    of the tested handle's field.

    A 'false' verdict's ``attachment`` is the h that a certificate adjoins
    as a new coordinate v - h (``decide._extend_with``): f in case 1,
    f - beta*g in cases 2 and 3.  ``ideal`` is the ring h lives in, and
    beta a payload of its field: the tested handle, or, when beta is a
    root theta of the pencil's smallest conjugate class because case 2
    found no base-field root, that handle lifted to the extension k(theta),
    f and g with it.  A verdict lifts only over a base field, so its
    class is ``ideal.ctx.field.extension + (1,)`` exactly when ``ideal``
    is not the tested handle.

    ``value`` is the exceptional value at beta, the intersection number
    of f - beta*g, INF when it vanishes on a branch; a case-1 verdict has
    none.  ``pencil`` is the ParametricOrder the verdict was read from:
    its determinant carries every branch's ray (``decide._rays_for_false``),
    and its exceptional values those of the other parameters."""

    result: str
    ideal: Optional[IdealHandle] = None
    beta: object = None
    case: int = 0
    attachment: Optional[Poly] = None
    value: object = None
    pencil: Optional[ParametricOrder] = None


def parametric_test(f: Poly, g: Poly, ideal: IdealHandle) -> Verdict:
    """Decide whether f, g certify reducibility: 'false' when the generic
    value drops or two exceptional parameters exist, or when the unique
    exceptional direction degenerates, each with the attachment whose
    adjoined coordinate carries two weight rays; 'not_false' with the
    unique parameter otherwise.  No ring is extended here."""
    field = ideal.ctx.field
    po = parametric_intersection(f, g, ideal)
    # the a^0 coefficient is det(M_f), of order I(f)
    if po.generic_value < _order_at(po.determinant, 0):
        return Verdict("false", ideal=ideal, case=1, attachment=f, pencil=po)
    rational = [ev for ev in po.exceptional if ev.beta is not None]
    factors = [ev for ev in po.exceptional if ev.factor is not None]
    total = len(rational) + sum(len(ev.factor) - 1 for ev in factors)
    if total < 1:
        raise AlgebroidError("pencil test: no degenerate direction found")
    if total >= 2:
        if rational:
            ev = rational[0]
            return Verdict("false", ideal=ideal, case=2, beta=ev.beta,
                           attachment=f - g.scale(ev.beta),
                           value=ev.value, pencil=po)
        if field.extension is not None:
            raise CertificateSearchFailed(
                "two exceptional parameters need a field extension, but the "
                "base field is already an extension")
        # conjugate branches share their value, so one root theta of the
        # smallest class stands for all of them
        conj = min(factors, key=lambda ev: len(ev.factor))
        eideal, ef, eg = _lift(ideal, conj.factor, f, g)
        theta = eideal.ctx.field.generator()
        return Verdict("false", ideal=eideal, case=2, beta=theta,
                       attachment=ef - eg.scale(theta),
                       value=conj.value, pencil=po)
    # a residual class has degree >= 2, so total == 1 is one base-field root
    ev = rational[0]
    beta = ev.beta
    if ev.value is not INF:
        return Verdict("not_false", beta=beta, case=3, value=ev.value,
                       pencil=po)
    h = f - g.scale(beta)
    if radical_membership(h, ideal):
        raise ContextViolation(
            "the degenerate combination vanishes on the curve; the test "
            "requires directions outside the radical")
    return Verdict("false", ideal=ideal, case=3, beta=beta, attachment=h,
                   value=INF, pencil=po)
