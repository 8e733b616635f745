"""The multiplication-matrix method: free bases over the pivot-variable
series ring, multiplication matrices, parametric determinants
det(M_f - a M_g), and the three-way test built on them.

The quotient by a one-dimensional ideal is a free module of finite rank
over power series in a cheapest variable (the pivot).  Coordinates in that
module are computed through a certificate-tracked division: every monomial
gets a rewrite rule "monomial = span-of-basis + pivot * rest" extracted
from a homogenized basis with its cofactors, and rules are applied layer
by layer in the pivot exponent, so truncation at pivot^N is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .errors import (
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
from .localalg import (
    hom_ring,
    homogenize,
    dehomogenize,
    intersection_number,
)
from .naming import next_pair, next_single
from .polyring import (
    INF,
    HomogenizedLocalOrder,
    Poly,
    RingCtx,
    embed,
)
from .scalars import FieldSpec, Scalar, univariate_roots, uv_divmod, uv_eval

_STABILIZE_CAP = 400


# --------------------------------------------------------------- free basis

@dataclass(frozen=True)
class FreeBasis:
    """Monomial basis of the quotient as a module over series in the
    pivot variable: the staircase complement of the leading ideal of
    I + <pivot>, in the non-pivot variables."""

    pivot: int
    gamma: tuple

    @property
    def rank(self) -> int:
        return len(self.gamma)


def choose_pivot(ideal: IdealHandle) -> Tuple[int, int]:
    """The variable with the smallest finite intersection number (ties to
    the earlier variable), together with that number."""
    ctx = ideal.ctx
    best = None
    for i in range(ctx.nvars):
        n = intersection_number(ctx.var(i), ideal)
        if n is INF:
            continue
        if best is None or n < best[1]:
            best = (i, n)
    if best is None:
        raise InfinitePivot("every coordinate has infinite intersection number")
    return best


class _PivotReducer:
    """Rewrite engine for one (ideal, pivot) pair: memoized rules
    v = r_v + pivot * b_v (mod I) with r_v supported on the free basis."""

    def __init__(self, handle: IdealHandle, pivot: int):
        self.handle = handle
        self.pivot = pivot
        ctx = handle.ctx
        self.ctx = ctx
        self.field = ctx.field
        self.big = hom_ring(ctx)
        w = (1,) * ctx.nvars
        self.order = HomogenizedLocalOrder(w)
        originals = list(handle.generators) + [ctx.var(pivot)]
        rows = []
        for k, g in enumerate(originals):
            tags = [self.big.zero()] * len(originals)
            tags[k] = self.big.one()
            rows.append((homogenize(g, w, self.big), tuple(tags)))
        rows = buchberger_tagged(rows, self.order)
        self.gb = [p for p, _ in rows]
        self.cofactors = [t for _, t in rows]
        lt = {p.lead(self.order)[0][:-1] for p in self.gb}
        members = monomial_staircase(lt, ctx.nvars)
        if members is None:
            raise InfinitePivot(
                f"pivot {ctx.variables[pivot]} has infinite intersection number")
        self.gamma = tuple(sorted(members))
        self.gamma_index = {m: i for i, m in enumerate(self.gamma)}
        self._rules: Dict[tuple, tuple] = {}

    def basis(self) -> FreeBasis:
        return FreeBasis(self.pivot, self.gamma)

    def _rule(self, v: tuple):
        """v (pivot exponent zero) = r + pivot*b (mod I): returns
        (r: {gamma_index: payload}, b: list of (monomial, payload))."""
        if v in self.gamma_index:
            return ({self.gamma_index[v]: self.field.one()}, [])
        cached = self._rules.get(v)
        if cached is not None:
            return cached
        big, field = self.big, self.field
        zero_tags = tuple(big.zero() for _ in range(len(self.handle.generators) + 1))
        for s in range(_STABILIZE_CAP):
            hom_mono = v + (s,)
            row = (Poly({hom_mono: field.one()}, big), zero_tags)
            rem, tags = _row_nf(row, self.gb, self.cofactors, self.order)
            r = dehomogenize(rem, self.ctx)
            coords = {}
            ok = True
            for m, c in r.terms.items():
                idx = self.gamma_index.get(m)
                if idx is None:
                    ok = False
                    break
                coords[idx] = c
            if not ok:
                continue
            b = -dehomogenize(tags[-1], self.ctx)
            rule = (coords, list(b.terms.items()))
            self._rules[v] = rule
            return rule
        raise TruncationExhausted(
            f"rewrite of {v} did not stabilize within {_STABILIZE_CAP} steps")

    def coordinates(self, f: Poly, N: int) -> List[Dict[int, object]]:
        """Basis coordinates of f mod I as truncated series in the pivot:
        a dict {pivot_exponent: payload} per basis element."""
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
        k = 0
        while k < N:
            slot = layers.pop(k, None)
            if slot:
                for v, c in slot.items():
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
            k += 1
        return out


def _reducer(handle: IdealHandle, pivot: int) -> _PivotReducer:
    cache = getattr(handle, "_pivot_cache", None)
    if cache is None:
        cache = {}
        handle._pivot_cache = cache
    if pivot not in cache:
        cache[pivot] = _PivotReducer(handle, pivot)
    return cache[pivot]


def free_basis(ideal: IdealHandle, pivot: Union[int, str, None] = None) -> FreeBasis:
    """Free-module basis over series in the pivot variable; the pivot
    defaults to the cheapest variable."""
    if pivot is None:
        pivot, _ = choose_pivot(ideal)
    elif isinstance(pivot, str):
        pivot = ideal.ctx.index(pivot)
    return _reducer(ideal, pivot).basis()


# ------------------------------------------------------------ matrices

@dataclass(frozen=True)
class SeriesMatrix:
    """Square matrix whose entries are polynomials in the parameter with
    truncated-series coefficients in the pivot variable: dicts mapping
    (parameter_exponent, pivot_exponent) to field payloads."""

    entries: tuple
    truncation: int
    pivot: int
    field: FieldSpec

    @property
    def size(self) -> int:
        return len(self.entries)


def mult_matrix(g: Poly, basis: FreeBasis, ideal: IdealHandle,
                N: int) -> SeriesMatrix:
    """Matrix of multiplication by g on the free basis, coefficients
    truncated at pivot^N."""
    red = _reducer(ideal, basis.pivot)
    if red.gamma != basis.gamma:
        raise ValueError("basis does not belong to this ideal and pivot")
    ctx = ideal.ctx
    cols = []
    for gm in basis.gamma:
        prod = g.term_mul(gm, ctx.field.one())
        cols.append(red.coordinates(prod, N))
    entries = []
    for i in range(len(basis.gamma)):
        row = []
        for j in range(len(basis.gamma)):
            row.append({(0, e): c for e, c in cols[j][i].items()})
        entries.append(tuple(row))
    return SeriesMatrix(tuple(entries), N, basis.pivot, ctx.field)


# --------------------------------------- bivariate (parameter, pivot) dicts

def _badd(a: dict, b: dict, field: FieldSpec) -> dict:
    out = dict(a)
    for k, c in b.items():
        prev = out.get(k)
        val = c if prev is None else field.add(prev, c)
        if field.is_zero(val):
            out.pop(k, None)
        else:
            out[k] = val
    return out


def _bneg(a: dict, field: FieldSpec) -> dict:
    return {k: field.neg(c) for k, c in a.items()}


def _bmul(a: dict, b: dict, field: FieldSpec, N: int) -> dict:
    out: dict = {}
    for (d1, e1), c1 in a.items():
        for (d2, e2), c2 in b.items():
            e = e1 + e2
            if e >= N:
                continue
            key = (d1 + d2, e)
            c = field.mul(c1, c2)
            prev = out.get(key)
            val = c if prev is None else field.add(prev, c)
            if field.is_zero(val):
                out.pop(key, None)
            else:
                out[key] = val
    return out


def _det(entries, n: int, field: FieldSpec, N: int) -> dict:
    """Determinant by memoized expansion over column subsets (only ring
    operations, valid with truncated-series zero divisors)."""
    cur = {0: {(0, 0): field.one()}}
    for i in range(n):
        nxt: dict = {}
        for mask, minor in cur.items():
            k = bin(mask).count("1")
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                a = entries[i][j]
                if not a:
                    continue
                term = _bmul(minor, a, field, N)
                if not term:
                    continue
                if (k + bin(mask & (bit - 1)).count("1")) % 2:
                    term = _bneg(term, field)
                prev = nxt.get(mask | bit)
                nxt[mask | bit] = term if prev is None else _badd(prev, term, field)
        cur = {m: v for m, v in nxt.items() if v}
        if not cur:
            return {}
    return cur.get((1 << n) - 1, {})


# ------------------------------------------------------- parametric orders

@dataclass(frozen=True)
class ExceptionalValue:
    """One exceptional parameter: either a field element beta or the
    monic minimal polynomial (coefficient tuple, ascending, leading 1
    included) of a conjugate class, with the intersection value there."""

    value: object  # int or INF
    beta: Optional[Scalar] = None
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


def _lift_poly(f: Poly, target_ctx: RingCtx) -> Poly:
    """Reinterpret a polynomial over the base field inside an extension
    of it (same variables)."""
    fld = target_ctx.field
    return Poly({m: fld.embed(c) for m, c in f.terms.items()}, target_ctx)


def parametric_intersection(f: Poly, g: Poly, ideal: IdealHandle,
                            pivot: Union[int, str, None] = None,
                            trunc_cap: Optional[int] = None) -> ParametricOrder:
    """Compute det(M_f - a M_g) and read off the generic intersection
    value and every exceptional parameter with its value; infinite values
    come from the exact staircase computation, never from truncation."""
    ctx = ideal.ctx
    field = ctx.field
    nf = intersection_number(f, ideal)
    ng = intersection_number(g, ideal)
    if nf is INF or ng is INF or nf != ng:
        raise UnequalBase(f"intersection numbers differ: {nf} vs {ng}")
    if pivot is None:
        pivot, _ = choose_pivot(ideal)
    elif isinstance(pivot, str):
        pivot = ctx.index(pivot)
    N = 2 * (nf + ng) + 8
    if trunc_cap is not None:
        if trunc_cap < nf + 2:
            raise TruncationExhausted(
                f"truncation cap {trunc_cap} is below the base value "
                f"{nf} plus slack; no jump could be observed")
        N = min(N, trunc_cap)
    basis = free_basis(ideal, pivot)
    Mf = mult_matrix(f, basis, ideal, N)
    Mg = mult_matrix(g, basis, ideal, N)
    n = basis.rank
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            e = dict(Mf.entries[i][j])
            for (d, xe), c in Mg.entries[i][j].items():
                key = (1, xe)
                prev = e.get(key)
                val = field.neg(c) if prev is None else field.sub(prev, c)
                if field.is_zero(val):
                    e.pop(key, None)
                else:
                    e[key] = val
            row.append(e)
        entries.append(tuple(row))
    D = _det(entries, n, field, N)
    coeffs = _coefficients(D, field)
    k0 = min(coeffs, default=None)
    assert k0 is not None and k0 <= nf, \
        "determinant order must appear at or below the base value"
    # normalize the sign so the leading parameter coefficient at the
    # generic order is positive (when the field orders payloads)
    if field.characteristic == 0 and field.extension is None \
            and coeffs[k0][-1] < 0:
        D = _bneg(D, field)
        coeffs = _coefficients(D, field)
    roots, residual = univariate_roots(coeffs[k0], field)
    # the jump at a root or residual factor is the first higher c_k that
    # does not vanish there
    higher = [(k, coeffs[k]) for k in sorted(coeffs) if k > k0]
    exceptional = []
    for r in roots:
        val = next((k for k, ck in higher
                    if not field.is_zero(uv_eval(ck, r.value, field))), None)
        if val is None:
            val = intersection_number(f - g.scale(r.value), ideal)
        exceptional.append(ExceptionalValue(value=val, beta=r))
    for fac in residual:
        val = next((k for k, ck in higher
                    if uv_divmod(ck, list(fac), field)[1]), None)
        if val is None:
            if field.extension is not None:
                raise SolverLimitation(
                    "resolving a conjugate class over an extension field "
                    "would need a tower of extensions")
            ext = FieldSpec(field.characteristic, extension=tuple(fac[:-1]))
            ectx = RingCtx(ext, ctx.variables)
            egens = [_lift_poly(p, ectx) for p in ideal.generators]
            theta = ectx.const(ext.generator())
            h = _lift_poly(f, ectx) - _lift_poly(g, ectx) * theta
            val = intersection_number(h, IdealHandle(egens, ectx))
        exceptional.append(ExceptionalValue(value=val, factor=tuple(fac)))
    for ev in exceptional:
        assert ev.value is INF or ev.value > k0
    return ParametricOrder(generic_value=k0, exceptional=tuple(exceptional),
                           determinant=D, pivot=pivot, truncation=N,
                           field=field)


# --------------------------------------------------------------- verdicts

@dataclass(frozen=True)
class Verdict:
    """Outcome of the three-way test: 'false' with an enlarged ideal, or
    'not_false' with the unique exceptional parameter."""

    result: str
    ideal: Optional[IdealHandle] = None
    beta: Optional[Scalar] = None
    case: int = 0
    betas: tuple = ()
    minimal_poly: Optional[tuple] = None
    adjoined: tuple = ()
    value: object = None
    truncation: int = 0


def _extend_with(ideal: IdealHandle, attachments) -> Tuple[IdealHandle, tuple]:
    """Adjoin one fresh variable per attached polynomial, returning the
    enlarged ideal <I, v_k - p_k> and the new names."""
    ctx = ideal.ctx
    if len(attachments) == 2:
        names = next_pair(ctx.variables)
    else:
        names = (next_single(ctx.variables),)
    big = ctx.extend(names)
    gens = [embed(p, big) for p in ideal.generators]
    for name, p in zip(names, attachments):
        gens.append(big.var(name) - embed(p, big))
    return IdealHandle(gens, big), tuple(names)


def parametric_test(f: Poly, g: Poly, ideal: IdealHandle,
                    pivot: Union[int, str, None] = None,
                    trunc_cap: Optional[int] = None) -> Verdict:
    """Decide whether f, g certify reducibility: 'false' when the generic
    value drops or two exceptional parameters exist (the enlarged ideal
    then carries two weight rays), or when the unique exceptional
    direction degenerates; 'not_false' with the unique parameter
    otherwise."""
    ctx = ideal.ctx
    field = ctx.field
    po = parametric_intersection(f, g, ideal, pivot, trunc_cap=trunc_cap)
    nf = intersection_number(f, ideal)
    if po.generic_value < nf:
        J, names = _extend_with(ideal, (f, g))
        return Verdict("false", ideal=J, case=1, adjoined=names,
                       truncation=po.truncation)
    rational = [ev for ev in po.exceptional if ev.beta is not None]
    factors = [ev for ev in po.exceptional if ev.factor is not None]
    total = len(rational) + sum(len(ev.factor) - 1 for ev in factors)
    assert total >= 1, "a degenerate direction always exists at the base value"
    if total >= 2:
        if len(rational) >= 2:
            b1, b2 = rational[0].beta, rational[1].beta
            J, names = _extend_with(ideal, (f - g.scale(b1.value),
                                            f - g.scale(b2.value)))
            return Verdict("false", ideal=J, case=2, betas=(b1, b2),
                           adjoined=names, truncation=po.truncation)
        if field.extension is not None:
            raise CertificateSearchFailed(
                "two exceptional parameters need a field extension, but the "
                "base field is already an extension")
        fac = min((ev.factor for ev in factors), key=len)
        ext = FieldSpec(field.characteristic, extension=tuple(fac[:-1]))
        ectx = RingCtx(ext, ctx.variables)
        egens = [_lift_poly(p, ectx) for p in ideal.generators]
        eideal = IdealHandle(egens, ectx)
        ef = _lift_poly(f, ectx)
        eg = _lift_poly(g, ectx)
        theta = Scalar(ext.generator(), ext)
        if rational:
            b1 = Scalar(ext.embed(rational[0].beta.value), ext)
            b2 = theta
        elif len(fac) == 3:
            b1 = theta
            # the other root of a quadratic a^2 + m1 a + m0 is -m1 - theta
            b2 = Scalar(ext.neg(ext.add(ext.embed(fac[1]), theta.value)), ext)
        else:
            raise CertificateSearchFailed(
                "conjugate parameters beyond a quadratic class are not "
                "materializable")
        J, names = _extend_with(eideal, (ef - eg.scale(b1.value),
                                         ef - eg.scale(b2.value)))
        return Verdict("false", ideal=J, case=2, betas=(b1, b2),
                       minimal_poly=tuple(fac), adjoined=names,
                       truncation=po.truncation)
    ev = rational[0] if rational else None
    if ev is None:
        raise CertificateSearchFailed(
            "the unique exceptional parameter is not materializable in the "
            "base field")
    beta = ev.beta
    if ev.value is not INF:
        return Verdict("not_false", beta=beta, case=3, value=ev.value,
                       truncation=po.truncation)
    h = f - g.scale(beta.value)
    if radical_membership(h, ideal):
        raise ContextViolation(
            "the degenerate combination vanishes on the curve; the test "
            "requires directions outside the radical")
    J, names = _extend_with(ideal, (h,))
    return Verdict("false", ideal=J, case=3, betas=(beta,), adjoined=names,
                   truncation=po.truncation)
