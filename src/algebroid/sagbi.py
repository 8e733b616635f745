"""Subalgebra bases for parametrized branches with truncated power-series
components: local reduction against the parametrization, the completion
loop that adjoins irreducible remainders, and the zero-remainder check.

The t-order vector of the components generates a numerical semigroup;
reduction subtracts monomials in the components as long as the remainder's
order stays inside it.  A remainder whose order escapes the semigroup is a
new branch function and strictly enlarges the semigroup when adjoined.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .errors import TruncationExhausted, ZeroPoly
from .naming import next_single
from .polyring import INF, Poly, RingCtx, ord_w
from .scalars import FieldSpec, _power
from .semigroups import conductor, gcd_weights, membership, prim_generators

_DEFAULT_TRUNC_CAP = 4096
_DEFAULT_NAMES = ("x", "y", "z", "u", "v", "w")


class TruncSeries:
    """A power series in t known through t^(N-1); ``exact`` marks windows
    that show the whole (polynomial) series."""

    __slots__ = ("coeffs", "field", "exact")

    def __init__(self, coeffs: Sequence, field: FieldSpec, exact: bool = False):
        self.coeffs = tuple(field.coerce(c) for c in coeffs)
        self.field = field
        self.exact = exact

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    @staticmethod
    def zero(N: int, field: FieldSpec, exact: bool = False) -> "TruncSeries":
        return TruncSeries([field.zero()] * N, field, exact)

    @staticmethod
    def from_terms(terms, N: int, field: FieldSpec) -> "TruncSeries":
        """Exact series from (t-exponent, coefficient) pairs; exponents at
        or beyond N are rejected so exactness is honest."""
        coeffs = [field.zero()] * N
        for e, c in terms:
            if e >= N:
                raise ValueError("term beyond the truncation window")
            coeffs[e] = field.add(coeffs[e], field.coerce(c))
        return TruncSeries(coeffs, field, exact=True)

    @staticmethod
    def from_polynomial(p: Poly, N: int) -> "TruncSeries":
        """Exact series from a univariate polynomial in t."""
        if p.ctx.nvars != 1:
            raise ValueError("expected a one-variable polynomial")
        return TruncSeries.from_terms(
            [(m[0], c) for m, c in p.terms.items()], N, p.ctx.field)

    def order(self):
        """t-order: smallest index with nonzero coefficient; INF for an
        exact zero; None when the window is clear but the tail unknown."""
        for i, c in enumerate(self.coeffs):
            if not self.field.is_zero(c):
                return i
        return INF if self.exact else None

    def coefficient(self, i: int):
        return self.coeffs[i]

    def degree_shown(self) -> Optional[int]:
        for i in range(len(self.coeffs) - 1, -1, -1):
            if not self.field.is_zero(self.coeffs[i]):
                return i
        return None

    def _align(self, other: "TruncSeries"):
        if self.field != other.field:
            raise ValueError("series over different fields")
        if self.precision != other.precision:
            raise ValueError("series at different truncation orders")

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._align(other)
        f = self.field
        return TruncSeries([f.add(a, b) for a, b in zip(self.coeffs, other.coeffs)],
                           f, self.exact and other.exact)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._align(other)
        f = self.field
        return TruncSeries([f.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)],
                           f, self.exact and other.exact)

    def scale(self, c) -> "TruncSeries":
        f = self.field
        c = f.coerce(c)
        return TruncSeries([f.mul(c, a) for a in self.coeffs], f, self.exact)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._align(other)
        f = self.field
        N = self.precision
        out = [f.zero()] * N
        for i, a in enumerate(self.coeffs):
            if f.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= N:
                    break
                if not f.is_zero(b):
                    out[i + j] = f.add(out[i + j], f.mul(a, b))
        exact = False
        if self.exact and other.exact:
            da, db = self.degree_shown(), other.degree_shown()
            if da is None or db is None or da + db < N:
                exact = True
        return TruncSeries(out, f, exact)

    def __pow__(self, n: int) -> "TruncSeries":
        if n < 0:
            raise ValueError("negative series power")
        one = TruncSeries.from_terms([(0, self.field.one())],
                                     self.precision, self.field)
        return _power(self, n, TruncSeries.__mul__, one)

    def as_polynomial(self, ctx: RingCtx) -> Poly:
        """The shown terms as a polynomial in the single variable of ctx;
        only meaningful for exact series."""
        if ctx.nvars != 1:
            raise ValueError("expected a one-variable ring")
        items = [((i,), c) for i, c in enumerate(self.coeffs)
                 if not self.field.is_zero(c)]
        return Poly.from_items(items, ctx)

    def __str__(self):
        items = [f"{self.field.payload_str(c)}*t^{i}"
                 for i, c in enumerate(self.coeffs)
                 if not self.field.is_zero(c)]
        body = " + ".join(items) if items else "0"
        return f"{body} (mod t^{self.precision})" + ("" if self.exact else " ~")


class Parametrization:
    """Branch components as truncated series with positive t-orders."""

    def __init__(self, components: Sequence[TruncSeries],
                 ctx: Optional[RingCtx] = None):
        comps = list(components)
        if not comps:
            raise ValueError("empty parametrization")
        field = comps[0].field
        N = comps[0].precision
        orders = []
        for s in comps:
            if s.field != field or s.precision != N:
                raise ValueError("components must share field and precision")
            d = s.order()
            if d is None:
                raise ValueError("component order not visible at this precision")
            if d is INF or d <= 0:
                raise ValueError("components must be nonzero with positive order")
            orders.append(d)
        if ctx is None:
            r = len(comps)
            if r <= len(_DEFAULT_NAMES):
                names = _DEFAULT_NAMES[:r]
            else:
                names = tuple(f"x{i + 1}" for i in range(r))
            ctx = RingCtx(field, names)
        if ctx.nvars != len(comps) or ctx.field != field:
            raise ValueError("ring does not match the components")
        self.components = comps
        self.ctx = ctx
        self.field = field
        self.precision = N
        self.orders = tuple(orders)

    @staticmethod
    def from_polynomials(polys: Sequence[Poly], N: Optional[int] = None,
                         ctx: Optional[RingCtx] = None) -> "Parametrization":
        """Exact components from univariate polynomials in t."""
        degs = []
        orders = []
        for p in polys:
            if p.is_zero():
                raise ZeroPoly("zero component")
            degs.append(p.total_degree())
            orders.append(min(m[0] for m in p.terms))
        if N is None:
            N = max(64, 4 * sum(orders), max(degs) + 1)
        return Parametrization([TruncSeries.from_polynomial(p, N) for p in polys],
                               ctx)

    def evaluate(self, f: Poly) -> TruncSeries:
        """f(components) as a truncated series; f lives in self.ctx."""
        if f.ctx != self.ctx:
            raise ValueError("polynomial not over the parametrization ring")
        acc = TruncSeries.zero(self.precision, self.field, exact=True)
        for m, c in f.terms.items():
            acc = acc + self._term(m, c)
        return acc

    def _term(self, m, c) -> TruncSeries:
        """The series of the term c*x^m at the components."""
        piece = TruncSeries.from_terms([(0, c)], self.precision, self.field)
        for comp, e in zip(self.components, m):
            if e:
                piece = piece * comp ** e
        return piece

    def _lead_product(self, m):
        """The leading coefficient of the series of x^m: the product of
        the components' leading coefficients to the exponents of m."""
        field = self.field
        out = field.one()
        for s, d, e in zip(self.components, self.orders, m):
            if e:
                out = field.mul(out, field.pow(s.coefficient(d), e))
        return out

    def __str__(self):
        return "(" + ", ".join(str(s) for s in self.components) + ")"


def local_reduce(eta: TruncSeries, xi: Parametrization) -> Tuple[Poly, TruncSeries]:
    """Write eta = q(xi) + remainder (mod t^N) where q collects monomials
    in the components and the remainder's t-order lies outside the order
    semigroup (or the remainder is zero).

    A cleared window counts as zero only past the conductor of a primitive
    order semigroup; otherwise the truncation cannot decide and
    TruncationExhausted is raised.
    """
    if eta.field != xi.field or eta.precision != xi.precision:
        raise ValueError("series does not match the parametrization window")
    field = xi.field
    w = xi.orders
    q = xi.ctx.zero()
    zeta = eta
    while True:
        d = zeta.order()
        if d is INF:
            return q, zeta
        if d is None:
            if gcd_weights(w) == 1 and xi.precision >= conductor(w):
                return q, zeta
            raise TruncationExhausted(
                f"window t^{xi.precision} cleared but the tail is undecided")
        witness = membership(d, w)
        if witness is None:
            return q, zeta
        coeff = field.div(zeta.coefficient(d), xi._lead_product(witness))
        q = q + xi.ctx.mono(witness, coeff)
        zeta = zeta - xi._term(witness, coeff)


def _kernel_binomials(xi: Parametrization) -> List[Poly]:
    """Binomials vanishing on the initial terms of the components: the
    weight relations rescaled by leading coefficients, ascending by
    weighted degree."""
    ctx = xi.ctx
    field = xi.field
    w = xi.orders
    out = []
    for g in prim_generators(w, ctx):
        ((a, ca), (b, _)) = sorted(g.terms.items())
        # normalize to x^a - lam x^b with lam = lead^a / lead^b
        if not field.eq(ca, field.one()):
            a, b = b, a
        lam = field.div(xi._lead_product(a), xi._lead_product(b))
        out.append(ctx.mono(a) - ctx.mono(b, lam))
    out.sort(key=lambda p: (ord_w(p, w), sorted(p.terms)))
    return out


def sagbi_check(xi: Parametrization) -> bool:
    """True when every kernel binomial of the initial parametrization
    reduces to zero against the components."""
    for f in _kernel_binomials(xi):
        _, zeta = local_reduce(xi.evaluate(f), xi)
        if zeta.order() is not None and zeta.order() is not INF:
            return False
    return True


def sagbi_complete(xi: Parametrization) -> Parametrization:
    """Adjoin irreducible remainders until the check passes.  Components
    must be exact polynomials so precision can be raised when a window is
    exhausted (doubling up to _DEFAULT_TRUNC_CAP)."""
    for s in xi.components:
        if not s.exact:
            raise ValueError("completion needs exact polynomial components")
    t_ring = RingCtx(xi.field, ("t",))
    polys = [s.as_polynomial(t_ring) for s in xi.components]
    names = list(xi.ctx.variables)
    N = xi.precision
    while True:
        N = max(N, max(p.total_degree() for p in polys) + 1)
        ctx = RingCtx(xi.field, tuple(names))
        try:
            cur = Parametrization(
                [TruncSeries.from_polynomial(p, N) for p in polys], ctx)
            new_poly = None
            for f in _kernel_binomials(cur):
                _, zeta = local_reduce(cur.evaluate(f), cur)
                d = zeta.order()
                if d is INF or d is None:
                    # local_reduce returns a cleared window only when the
                    # tail is provably reducible, i.e. the remainder is zero
                    continue
                if not zeta.exact:
                    raise TruncationExhausted("remainder exactness lost")
                new_poly = zeta.as_polynomial(t_ring)
                break
            if new_poly is None:
                return cur
            polys.append(new_poly)
            names.append(next_single(names))
        except TruncationExhausted:
            if 2 * N > _DEFAULT_TRUNC_CAP:
                raise
            N *= 2
