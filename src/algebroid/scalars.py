"""Exact field arithmetic: Q, prime fields F_p, and one-step simple
extensions of either, plus univariate root extraction.

Field elements are carried as light *payloads* rather than wrapped objects
so the polynomial kernels stay fast:

* characteristic 0: ``int`` or ``Fraction`` (they compare and hash equal,
  so the mix is harmless and keeps integer arithmetic on the fast path),
* characteristic p: ``int`` reduced into ``[0, p)``,
* simple extension of degree d: a length-d ``tuple`` of base payloads,
  the coordinates with respect to 1, th, ..., th^(d-1).

:class:`FieldSpec` owns the arithmetic on payloads.  Each field binds its
kernels once, at construction, by field kind, so ``add``, ``sub``,
``neg``, ``mul``, ``inv`` and ``is_zero`` do not branch on the field per
call:

* Q: the ``operator`` functions on ``int``/``Fraction``,
* F_p: the same operations followed by ``% p``,
* extensions: coordinate-wise tuple operations, ``is_zero`` as
  ``not any(a)``, and ``mul``/``inv`` by polynomial arithmetic modulo the
  defining polynomial (``_ext_mul``, ``_ext_inv``),
* finite extensions with ``size() <= _ENUM_CAP``: ``mul`` and ``inv``
  (and so ``div`` and ``pow``) are lookups in an exp list and a log dict
  over a primitive element.  The tables are built by ``_ext_mul`` on the
  first multiply or inverse and shared by equal fields.

:class:`Scalar` is a thin immutable wrapper used at API boundaries and in
tests.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (AlgebroidError, DivisionByZero, FieldMismatch,
                     SolverLimitation, ZeroPoly)

_ENUM_CAP = 4096        # largest finite field we will enumerate exhaustively
_KRONECKER_CAP = 500000  # candidate cap for integer factor search
_KRONECKER_VALUE_CAP = 10 ** 12  # largest |value| split by trial division


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Trial division by the primes up to 41, then Miller-Rabin with those
    thirteen primes as bases.  The answer is proven for n < 3.3e24; above
    that, n passes as a strong probable prime to the thirteen bases."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _SMALL_PRIMES[-1] ** 2:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ------------------------------------------------------------- kernels
# The arithmetic of each field kind as {method name: function}, which
# FieldSpec.__post_init__ binds as instance attributes.

def _q_inv(a):
    """1/a, an ``int`` when a is a unit fraction (+-1/k, +-1 included), so
    monic bases over Q stay integral where they can."""
    if not a:
        raise DivisionByZero("inverse of zero")
    num, den = a.numerator, a.denominator
    if num == 1 or num == -1:
        return num * den
    return Fraction(den, num)


_Q_KERNELS = {"add": operator.add, "sub": operator.sub, "neg": operator.neg,
              "mul": operator.mul, "inv": _q_inv, "is_zero": operator.not_}


def _prime_kernels(p: int) -> dict:
    def inv(a):
        if not a:
            raise DivisionByZero("inverse of zero")
        return pow(a, -1, p)

    return {"add": lambda a, b: (a + b) % p, "sub": lambda a, b: (a - b) % p,
            "neg": lambda a: -a % p, "mul": lambda a, b: a * b % p,
            "inv": inv, "is_zero": operator.not_}


def _extension_kernels(field: "FieldSpec") -> dict:
    base = field.base()
    badd, bsub, bneg = base.add, base.sub, base.neg
    kernels = {"add": lambda a, b: tuple(map(badd, a, b)),
               "sub": lambda a, b: tuple(map(bsub, a, b)),
               "neg": lambda a: tuple(map(bneg, a)),
               "is_zero": lambda a: not any(a),
               "mul": field._ext_mul, "inv": field._ext_inv}
    size = field.size()
    if size is not None and size <= _ENUM_CAP:
        # the first multiply or inverse swaps in the table kernels
        def mul(a, b):
            field._bind(_table_kernels(field))
            return field.mul(a, b)

        def inv(a):
            field._bind(_table_kernels(field))
            return field.inv(a)

        kernels.update(mul=mul, inv=inv)
    return kernels


@functools.lru_cache(maxsize=8)
def _log_tables(field: "FieldSpec"):
    """(exp, log) over the first primitive element g of a finite extension
    field, in ``elements()`` order, with n = size() - 1:

    * ``exp[i] = g^i`` for ``0 <= i < 2n`` and zero for ``2n <= i <= 4n``,
    * ``log[g^i] = i`` for ``0 <= i < n`` and ``log[0] = 2n``,

    so ``exp[log[a] + log[b]]`` is a*b for every a and b, zero included.
    Cached per field: every decide parses a fresh but equal FieldSpec."""
    n = field.size() - 1
    one, zero, mul = field.one(), field.zero(), field._ext_mul

    def power(a, e):
        out = one
        while e:
            if e & 1:
                out = mul(out, a)
            a = mul(a, a)
            e >>= 1
        return out

    primes = [r for r in _int_divisors(n) if _is_prime(r)]
    g = next(a for a in field.elements() if any(a)
             and all(power(a, n // r) != one for r in primes))
    exp = [one]
    for _ in range(n - 1):
        exp.append(mul(exp[-1], g))
    log = {a: i for i, a in enumerate(exp)}
    log[zero] = 2 * n
    return exp * 2 + [zero] * (2 * n + 1), log


def _table_kernels(field: "FieldSpec") -> dict:
    exp, log = _log_tables(field)
    n = field.size() - 1
    zero_log = 2 * n

    def inv(a):
        k = log[a]
        if k == zero_log:
            raise DivisionByZero("inverse of zero")
        return exp[n - k]

    return {"mul": lambda a, b: exp[log[a] + log[b]], "inv": inv}


@dataclass(frozen=True)
class FieldSpec:
    """A base field (Q or F_p) or a simple extension of one.

    ``extension`` stores the non-leading coefficients (c0, ..., c_{d-1}) of
    the monic defining polynomial th^d + c_{d-1} th^{d-1} + ... + c0, whose
    irreducibility over the base is verified at construction.

    Construction also binds ``add``, ``sub``, ``neg``, ``mul``, ``inv`` and
    ``is_zero`` as instance attributes, chosen once by field kind (see the
    module docstring); finite extensions with ``size() <= _ENUM_CAP``
    multiply and invert through shared log tables.  Only the three
    dataclass fields take part in equality, hashing, ``repr`` and
    pickling, which rebuilds the field through its constructor.
    """

    characteristic: int = 0
    extension: Optional[tuple] = None
    ext_var: str = "th"

    def __post_init__(self):
        p = self.characteristic
        if p != 0 and not _is_prime(p):
            raise ValueError("characteristic must be 0 or a prime")
        if self.extension is None:
            object.__setattr__(self, "_base", self)
            self._bind(_prime_kernels(p) if p else _Q_KERNELS)
        else:
            base = FieldSpec(p)
            object.__setattr__(self, "_base", base)
            coeffs = tuple(base.coerce(c) for c in self.extension)
            if len(coeffs) < 2:
                raise ValueError("extension degree must be at least 2")
            object.__setattr__(self, "extension", coeffs)
            minpoly = list(coeffs) + [base.one()]
            if not _is_irreducible(minpoly, base):
                raise ValueError("defining polynomial is reducible")
            self._bind(_extension_kernels(self))

    def _bind(self, kernels: dict):
        for name, fn in kernels.items():
            object.__setattr__(self, name, fn)

    def __reduce__(self):
        return (FieldSpec, (self.characteristic, self.extension, self.ext_var))

    # -------------------------------------------------------- structure

    def base(self) -> "FieldSpec":
        return self._base

    @property
    def degree(self) -> int:
        return len(self.extension) if self.extension else 1

    def size(self) -> Optional[int]:
        """Number of elements, None for infinite fields."""
        if self.characteristic == 0:
            return None
        return self.characteristic ** self.degree

    # ------------------------------------------------------- conversion

    def coerce(self, x):
        if isinstance(x, Scalar):
            if x.field != self:
                if x.field == self.base():
                    return self.embed(x.value)
                raise FieldMismatch(f"scalar over {x.field} used over {self}")
            return x.value
        if self.extension is not None:
            base = self.base()
            if isinstance(x, tuple):
                if len(x) > self.degree:
                    raise ValueError("coordinate vector too long")
                vec = [base.coerce(c) for c in x]
                vec += [base.zero()] * (self.degree - len(vec))
                return tuple(vec)
            return self.embed(base.coerce(x))
        p = self.characteristic
        if isinstance(x, Fraction) and p:
            if x.denominator % p == 0:
                raise ZeroDivisionError("denominator vanishes mod p")
            return x.numerator * pow(x.denominator, -1, p) % p
        if isinstance(x, (int, Fraction)):
            return x % p if p else x
        raise TypeError(f"cannot coerce {x!r} into {self}")

    def embed(self, base_value):
        """Lift a base-field payload into this field."""
        if self.extension is None:
            return self.coerce(base_value)
        vec = [self.base().coerce(base_value)]
        vec += [self.base().zero()] * (self.degree - 1)
        return tuple(vec)

    def generator(self):
        """The class of th in an extension field."""
        if self.extension is None:
            raise ValueError("base fields have no extension generator")
        base = self.base()
        vec = [base.zero()] * self.degree
        vec[1] = base.one()
        return tuple(vec)

    def from_int(self, n: int):
        if self.extension is not None:
            return self.embed(self.base().from_int(n))
        return n % self.characteristic if self.characteristic else n

    # ------------------------------------------------------- arithmetic
    # add, sub, neg, mul, inv and is_zero are bound in __post_init__.

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def eq(self, a, b) -> bool:
        return self.is_zero(self.sub(a, b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = self.one()
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def _ext_mul(self, a, b):
        """Product by convolution and reduction modulo the defining
        polynomial; the kernel of fields without tables, and what builds
        the tables."""
        base = self.base()
        d = self.degree
        conv = [base.zero()] * (2 * d - 1)
        for i, x in enumerate(a):
            if base.is_zero(x):
                continue
            for j, y in enumerate(b):
                if not base.is_zero(y):
                    conv[i + j] = base.add(conv[i + j], base.mul(x, y))
        # reduce modulo th^d + c_{d-1} th^{d-1} + ... + c0
        for k in range(2 * d - 2, d - 1, -1):
            c = conv[k]
            if base.is_zero(c):
                continue
            conv[k] = base.zero()
            for j, m in enumerate(self.extension):
                conv[k - d + j] = base.sub(conv[k - d + j], base.mul(c, m))
        return tuple(conv[:d])

    def _ext_inv(self, a):
        """Inverse by the extended Euclidean algorithm against the defining
        polynomial."""
        if not any(a):
            raise DivisionByZero("inverse of zero")
        base = self.base()
        minpoly = list(self.extension) + [base.one()]
        g, s, _ = _uv_ext_gcd(list(a), minpoly, base)
        if _uv_deg(g) != 0:
            # cannot happen with a verified-irreducible defining polynomial
            raise DivisionByZero("zero divisor in extension field")
        c = base.inv(g[0])
        s = [base.mul(c, x) for x in s]
        s += [base.zero()] * (self.degree - len(s))
        return tuple(s[: self.degree])

    # ---------------------------------------------------------- display

    def payload_str(self, a) -> str:
        if self.extension is None:
            return str(a)
        base = self.base()
        parts = []
        for i, c in enumerate(a):
            if base.is_zero(c):
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = self.ext_var if i == 1 else f"{self.ext_var}^{i}"
                parts.append(head if base.eq(c, base.one()) else f"{c}*{head}")
        if not parts:
            return "0"
        body = " + ".join(parts)
        return body if len(parts) == 1 else f"({body})"

    def sort_key(self, a):
        """A total order on payloads, used only for deterministic output."""
        if self.extension is not None:
            return tuple(self.base().sort_key(c) for c in a)
        if self.characteristic:
            return a
        return Fraction(a)

    def elements(self):
        """Iterate all elements of a finite field (small ones only)."""
        n = self.size()
        if n is None or n > _ENUM_CAP:
            raise SolverLimitation("field too large to enumerate")
        p = self.characteristic
        if self.extension is None:
            yield from range(p)
            return
        d = self.degree
        for code in range(n):
            vec = []
            for _ in range(d):
                vec.append(code % p)
                code //= p
            yield tuple(vec)

    def __str__(self):
        if self.characteristic == 0 and self.extension is None:
            return "Q"
        if self.extension is None:
            return f"F{self.characteristic}"
        body = uv_str(list(self.extension) + [self.base().one()], self.base(), self.ext_var)
        return f"{self.base()}[{self.ext_var}]/({body})"


@dataclass(frozen=True)
class Scalar:
    """An exact field element tied to its field."""

    value: object
    field: FieldSpec

    def __post_init__(self):
        object.__setattr__(self, "value", self.field.coerce(self.value))

    def _peer(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other
        return Scalar(other, self.field)

    def __add__(self, other):
        other = self._peer(other)
        return Scalar(self.field.add(self.value, other.value), self.field)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field.neg(self.value), self.field)

    def __sub__(self, other):
        other = self._peer(other)
        return Scalar(self.field.sub(self.value, other.value), self.field)

    def __rsub__(self, other):
        return self._peer(other) - self

    def __mul__(self, other):
        other = self._peer(other)
        return Scalar(self.field.mul(self.value, other.value), self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._peer(other)
        return Scalar(self.field.div(self.value, other.value), self.field)

    def __rtruediv__(self, other):
        return self._peer(other) / self

    def __pow__(self, n: int):
        return Scalar(self.field.pow(self.value, n), self.field)

    def inv(self) -> "Scalar":
        return Scalar(self.field.inv(self.value), self.field)

    def __bool__(self):
        return not self.field.is_zero(self.value)

    def __eq__(self, other):
        if isinstance(other, Scalar) and other.field != self.field:
            return False
        other = self._peer(other)
        return self.field.eq(self.value, other.value)

    def __hash__(self):
        return hash((self.field, self.field.sort_key(self.value)))

    def __str__(self):
        return self.field.payload_str(self.value)

    def __repr__(self):
        return f"Scalar({self}, {self.field})"


QQ = FieldSpec(0)


def GF(p: int, extension: Optional[tuple] = None) -> FieldSpec:
    return FieldSpec(p, extension)


# ======================================================================
# univariate polynomials over a FieldSpec, as payload coefficient lists
# (index = degree).  Used for root extraction, extension arithmetic and
# the parameter polynomials of the matrix method.
# ======================================================================

def _uv_trim(f: Sequence, field: FieldSpec) -> list:
    f = list(f)
    while f and field.is_zero(f[-1]):
        f.pop()
    return f


def _uv_deg(f: Sequence) -> int:
    return len(f) - 1


def uv_add(f, g, field: FieldSpec) -> list:
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else field.zero()
        b = g[i] if i < len(g) else field.zero()
        out.append(field.add(a, b))
    return _uv_trim(out, field)


def uv_sub(f, g, field: FieldSpec) -> list:
    return uv_add(f, [field.neg(c) for c in g], field)


def uv_scale(c, f, field: FieldSpec) -> list:
    return _uv_trim([field.mul(c, x) for x in f], field)


def uv_mul(f, g, field: FieldSpec) -> list:
    f = _uv_trim(f, field)
    g = _uv_trim(g, field)
    if not f or not g:
        return []
    out = [field.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if field.is_zero(a):
            continue
        for j, b in enumerate(g):
            if not field.is_zero(b):
                out[i + j] = field.add(out[i + j], field.mul(a, b))
    return _uv_trim(out, field)


def uv_divmod(f, g, field: FieldSpec):
    f = _uv_trim(f, field)
    g = _uv_trim(g, field)
    if not g:
        raise DivisionByZero("polynomial division by zero")
    inv_lead = field.inv(g[-1])
    quot = [field.zero()] * max(0, len(f) - len(g) + 1)
    rem = list(f)
    while len(rem) >= len(g) and any(not field.is_zero(c) for c in rem):
        rem = _uv_trim(rem, field)
        if len(rem) < len(g):
            break
        shift = len(rem) - len(g)
        c = field.mul(rem[-1], inv_lead)
        quot[shift] = field.add(quot[shift], c)
        for i, b in enumerate(g):
            rem[shift + i] = field.sub(rem[shift + i], field.mul(c, b))
    return _uv_trim(quot, field), _uv_trim(rem, field)


def _uv_exact_div(f, g, field: FieldSpec, phase: str) -> list:
    """f / g for g known to divide f; AlgebroidError naming the phase if not."""
    q, r = uv_divmod(f, g, field)
    if r:
        raise AlgebroidError(f"{phase}: an exact division left a remainder")
    return q


def uv_monic(f, field: FieldSpec) -> list:
    f = _uv_trim(f, field)
    if not f:
        return f
    return uv_scale(field.inv(f[-1]), f, field)


def uv_gcd(f, g, field: FieldSpec) -> list:
    f = _uv_trim(f, field)
    g = _uv_trim(g, field)
    while g:
        _, r = uv_divmod(f, g, field)
        f, g = g, r
    return uv_monic(f, field)


def _uv_ext_gcd(f, g, field: FieldSpec):
    """Returns (gcd, s, t) with s*f + t*g = gcd."""
    r0, r1 = _uv_trim(f, field), _uv_trim(g, field)
    s0, s1 = [field.one()], []
    t0, t1 = [], [field.one()]
    while r1:
        q, r = uv_divmod(r0, r1, field)
        r0, r1 = r1, r
        s0, s1 = s1, uv_sub(s0, uv_mul(q, s1, field), field)
        t0, t1 = t1, uv_sub(t0, uv_mul(q, t1, field), field)
    return r0, s0, t0


def uv_deriv(f, field: FieldSpec) -> list:
    out = []
    for i in range(1, len(f)):
        out.append(field.mul(field.from_int(i), f[i]))
    return _uv_trim(out, field)


def uv_eval(f, x, field: FieldSpec):
    out = field.zero()
    for c in reversed(list(f)):
        out = field.add(field.mul(out, x), c)
    return out


def uv_str(f, field: FieldSpec, var: str = "a") -> str:
    f = _uv_trim(f, field)
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if field.is_zero(c):
            continue
        cs = field.payload_str(c)
        if i == 0:
            parts.append(cs)
        else:
            head = var if i == 1 else f"{var}^{i}"
            parts.append(head if cs == "1" else f"{cs}*{head}")
    return " + ".join(parts)


def _pth_root_payload(a, field: FieldSpec):
    """p-th root in a perfect field of characteristic p."""
    p = field.characteristic
    if not p:
        raise AlgebroidError("squarefree part: p-th root in characteristic 0")
    if field.extension is None:
        return a  # Frobenius is the identity on F_p
    # Frobenius has order d on F_{p^d}; its inverse is x -> x^(p^(d-1))
    return field.pow(a, p ** (field.degree - 1))


def uv_radical(f, field: FieldSpec) -> list:
    """Monic product of the distinct irreducible factors of f."""
    f = uv_monic(f, field)
    if _uv_deg(f) <= 0:
        return [field.one()]
    d = uv_deriv(f, field)
    if not d:
        p = field.characteristic
        g = [f[i] for i in range(0, len(f), p)]
        rad_g = uv_radical(g, field)
        return _uv_trim([_pth_root_payload(c, field) for c in rad_g], field)
    common = uv_gcd(f, d, field)
    w = _uv_exact_div(f, common, field, "squarefree part")
    # strip the factors already in w out of the leftover part
    rest = common
    while True:
        shared = uv_gcd(rest, w, field)
        if _uv_deg(shared) == 0:
            break
        rest = _uv_exact_div(rest, shared, field, "squarefree part")
    if _uv_deg(rest) == 0:
        return w
    return uv_mul(w, uv_radical(rest, field), field)


# ---------------------------------------------------------------- roots

def _int_divisors(n: int) -> list:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _primitive_ints(f: list) -> list:
    """The primitive integer polynomial that is a positive rational
    multiple of the nonzero f with Fraction/int coefficients."""
    f = [Fraction(c) for c in f]
    den = math.lcm(*(c.denominator for c in f))
    ints = [int(c * den) for c in f]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _rational_roots(f: list) -> list:
    """Distinct rational roots of a squarefree nonzero polynomial with
    Fraction/int coefficients, by p-adic lifting (Loos 1983) and rational
    reconstruction (Wang 1981).

    Let g = a0 + ... + an a^n be f's primitive integer multiple, a root 0
    split off.  A root p/q in lowest terms has p | a0 and q | an.  Let l be
    the first prime not dividing an with g squarefree mod l; only primes
    dividing an*disc(g) fail, and disc(g) != 0.  As q is a unit mod l,
    p/q mod l is a simple root of g mod l.  Newton's step lifts each
    simple root mod l to the unique root mod M = l^(2^k) above it, so p/q
    mod M is one of the lifts.  With M > 2|a0||an|, a lift r is congruent
    to at most one fraction p/q with |p| <= |a0| and 0 < q <= |an|: two,
    p/q and p'/q', would give M | pq' - p'q with |pq' - p'q| < M.  The
    extended Euclidean algorithm on (M, r), stopped at the first remainder
    <= |a0|, finds that fraction (von zur Gathen and Gerhard, Modern
    Computer Algebra, Sect. 5.10).  So every rational root is a candidate;
    a candidate is kept only when it vanishes exactly."""
    ints, roots = _primitive_ints(f), []
    while not ints[0]:
        ints, roots = ints[1:], [Fraction(0)]
    n, a0, an = len(ints) - 1, abs(ints[0]), abs(ints[-1])
    if not n:
        return roots
    deriv = [i * c for i, c in enumerate(ints)][1:]

    def at(h, x, mod):
        return functools.reduce(lambda acc, c: (acc * x + c) % mod,
                                reversed(h), 0)

    # a nonzero disc(g) is at most bound, so its primes multiply to that
    bound, l = n ** n * sum(map(abs, ints)) ** (2 * n), 2
    while an % l == 0 or _uv_deg(uv_gcd(
            [c % l for c in ints], [c % l for c in deriv], FieldSpec(l))):
        bound //= l if an % l else 1
        if not bound:
            raise AlgebroidError("rational roots: not squarefree")
        l = next(q for q in itertools.count(l + 1) if _is_prime(q))
    lifts, M = [r for r in range(l) if not at(ints, r, l)], l
    while M <= 2 * a0 * an:
        M *= M
        lifts = [(r - at(ints, r, M) * pow(at(deriv, r, M), -1, M)) % M
                 for r in lifts]
    for r in lifts:
        r0, r1, t0, t1 = M, r, 0, 1
        while r1 > a0:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        cand = Fraction(r1, t1)
        if r1 and abs(cand.numerator) <= a0 and cand.denominator <= an \
                and not uv_eval(ints, cand, QQ):
            roots.append(cand)
    return sorted(set(roots))


def _is_rational_square(q: Fraction):
    """Returns sqrt(q) as a Fraction when q is a square in Q, else None."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _roots_in_field(f: list, field: FieldSpec) -> list:
    """Distinct roots of a squarefree f in the given field (complete: every
    root in the field is found, or SolverLimitation is raised)."""
    if field.characteristic == 0:
        if field.extension is None:
            return [field.coerce(r) for r in _rational_roots(f)]
        return sorted(_roots_in_quadratic_extension(f, field),
                      key=field.sort_key)
    size = field.size()
    if size is None or size > _ENUM_CAP:
        raise SolverLimitation("finite field too large for exhaustive roots")
    roots = [x for x in field.elements()
             if field.is_zero(uv_eval(f, x, field))]
    return sorted(roots, key=field.sort_key)


def _roots_in_quadratic_extension(f: list, field: FieldSpec) -> list:
    """Roots inside an extension of Q.  Exact and complete for rational
    coefficients over a degree-2 extension; linear polynomials always work;
    everything else raises SolverLimitation rather than return a partial
    answer."""
    base = field.base()
    d = field.degree
    base_coeffs = []
    for c in f:
        if any(not base.is_zero(x) for x in c[1:]):
            base_coeffs = None
            break
        base_coeffs.append(c[0])
    if base_coeffs is None:
        if _uv_deg(f) == 1:
            return [field.neg(field.div(f[0], f[1]))]
        raise SolverLimitation(
            "root search with genuine extension coefficients over Q "
            "is only supported for linear polynomials")
    rr = _rational_roots(base_coeffs)
    roots = [field.embed(r) for r in rr]
    rest = uv_monic([Fraction(c) for c in base_coeffs], base)
    for r in rr:
        rest = _uv_exact_div(rest, [-Fraction(r), Fraction(1)], base,
                             "root extraction")
    if _uv_deg(rest) < 2:
        return roots
    for g in _factor_rootless(rest, base):
        k = _uv_deg(g)
        if d % k:
            continue  # an irreducible factor of that degree has no root here
        if k == 2 and d == 2:
            # g = a^2 + p a + q has a root in Q[th]/(th^2 + m th + c)
            # exactly when disc(g)/disc(minpoly) is a rational square.
            p, q = Fraction(g[1]), Fraction(g[0])
            c0, c1 = Fraction(field.extension[0]), Fraction(field.extension[1])
            disc_g = p * p - 4 * q
            disc_m = c1 * c1 - 4 * c0
            s = _is_rational_square(disc_g / disc_m)
            if s is None:
                continue
            w = (c1 * s, 2 * s)  # payload with w^2 = disc_g
            half = Fraction(1, 2)
            minus_p = field.embed(-p)
            for sign in (1, -1):
                signed = w if sign == 1 else field.neg(w)
                roots.append(field.mul(field.embed(half),
                                       field.add(minus_p, signed)))
        else:
            raise SolverLimitation(
                "root search inside extensions of Q beyond quadratic "
                "factors over quadratic extensions is not supported")
    return roots


def _kronecker_factor(ints: list, k: int):
    """Search for a degree <= k integer polynomial factor of the primitive
    integer polynomial ints (no rational roots).  Returns coefficients or
    None."""
    pts = [0, 1, -1, 2, -2, 3, -3][: k + 1]
    vals = []
    for x in pts:
        acc = 0
        for c in reversed(ints):
            acc = acc * x + c
        if acc == 0:
            return None  # would be a rational root; caller excluded those
        vals.append(acc)
    div_lists = []
    total = 1
    for v in vals:
        if abs(v) > _KRONECKER_VALUE_CAP:
            raise SolverLimitation(
                "factor search: a value exceeds _KRONECKER_VALUE_CAP")
        ds = _int_divisors(v)
        signed = []
        for d in ds:
            signed.extend((d, -d))
        div_lists.append(signed)
        total *= len(signed)
        if total > _KRONECKER_CAP:
            raise SolverLimitation("factor search space too large")

    def interp(choices):
        # Lagrange interpolation through (pts[i], choices[i])
        coeffs = [Fraction(0)] * (k + 1)
        for i, (xi, yi) in enumerate(zip(pts, choices)):
            basis = [Fraction(1)]
            denom = Fraction(1)
            for j, xj in enumerate(pts):
                if j == i:
                    continue
                denom *= xi - xj
                nxt = [Fraction(0)] * (len(basis) + 1)
                for t, b in enumerate(basis):
                    nxt[t + 1] += b
                    nxt[t] -= xj * b
                basis = nxt
            scale = Fraction(yi) / denom
            for t, b in enumerate(basis):
                coeffs[t] += scale * b
        return coeffs

    for choices in itertools.product(*div_lists):
        coeffs = interp(choices)
        if any(c.denominator != 1 for c in coeffs):
            continue
        g = [int(c) for c in coeffs]
        while g and g[-1] == 0:
            g.pop()
        if len(g) < 2:
            continue
        q, r = _int_poly_divmod(ints, g)
        if r is not None and not any(r):
            return g
    return None


def _int_poly_divmod(f: list, g: list):
    """Division of integer polynomials; returns (q, r) with integer q when
    it exists, else (None, None)."""
    f = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    while len(f) >= len(g) and any(f):
        while f and f[-1] == 0:
            f.pop()
        if len(f) < len(g):
            break
        if f[-1] % g[-1] != 0:
            return None, None
        c = f[-1] // g[-1]
        shift = len(f) - len(g)
        q[shift] = c
        for i, b in enumerate(g):
            f[shift + i] -= c * b
    return q, f


def _factor_rootless(f: list, field: FieldSpec) -> list:
    """Split a monic squarefree polynomial with no roots in the field into
    irreducible factors.  Raises SolverLimitation beyond the supported
    degree range."""
    deg = _uv_deg(f)
    if deg <= 3:
        return [f]
    if field.characteristic == 0 and field.extension is None:
        if deg > 7:
            raise SolverLimitation(
                "rootless factorization over Q supported up to degree 7")
        ints = _primitive_ints(f)
        for k in range(2, min(3, deg // 2) + 1):
            g = _kronecker_factor(ints, k)
            if g is not None:
                gq = uv_monic([field.coerce(Fraction(c)) for c in g], field)
                q = _uv_exact_div(f, gq, field, "rootless factorization")
                return sorted(_factor_rootless(gq, field) + _factor_rootless(q, field),
                              key=lambda h: (len(h), [field.sort_key(c) for c in h]))
        return [f]
    size = field.size()
    if size is None:
        raise SolverLimitation(
            "rootless factorization over a characteristic-0 extension "
            "is not supported")
    # finite field: trial division by monic polynomials of low degree
    for k in range(2, deg // 2 + 1):
        if size ** k > _ENUM_CAP * 8:
            raise SolverLimitation("trial-division space too large")
        for g in _monic_polys(field, k):
            _, r = uv_divmod(f, g, field)
            if not r:
                q, _ = uv_divmod(f, g, field)
                return sorted(_factor_rootless(g, field) + _factor_rootless(q, field),
                              key=lambda h: (len(h), [field.sort_key(c) for c in h]))
    return [f]


def _monic_polys(field: FieldSpec, deg: int):
    """All monic polynomials of exact degree deg over a small finite field."""
    elems = list(field.elements())
    def rec(i, acc):
        if i == deg:
            yield acc + [field.one()]
            return
        for e in elems:
            yield from rec(i + 1, acc + [e])
    yield from rec(0, [])


def _is_irreducible(f: list, field: FieldSpec) -> bool:
    f = uv_monic(f, field)
    deg = _uv_deg(f)
    if deg <= 0:
        return False
    if deg == 1:
        return True
    rad = uv_radical(f, field)
    if _uv_deg(rad) != deg:
        return False
    if _roots_in_field(f, field):
        return False
    if deg <= 3:
        return True
    return len(_factor_rootless(f, field)) == 1


def univariate_roots(coeffs, field: Optional[FieldSpec] = None):
    """All roots of a nonzero univariate polynomial in its own field, plus
    the rootless irreducible factors of degree >= 2 of its squarefree part.

    ``coeffs`` may be Scalars or raw payloads (index = degree).  Returns
    ``(roots, residual)`` where roots is a sorted list of Scalars and
    residual a list of monic coefficient tuples (leading 1 included).
    """
    coeffs = list(coeffs)
    if field is None:
        for c in coeffs:
            if isinstance(c, Scalar):
                field = c.field
                break
        else:
            raise ValueError("field must be given for raw payloads")
    f = _uv_trim([field.coerce(c) for c in coeffs], field)
    if not f:
        raise ZeroPoly("root extraction of the zero polynomial")
    # pull out the root at 0 first
    shift = 0
    while field.is_zero(f[0]):
        f = f[1:]
        shift += 1
    rad = uv_radical(f, field) if _uv_deg(f) >= 1 else [field.one()]
    roots = list(_roots_in_field(rad, field)) if _uv_deg(rad) >= 1 else []
    rest = rad
    for r in roots:
        rest = _uv_exact_div(rest, [field.neg(r), field.one()], field,
                             "root extraction")
    if shift:
        roots.insert(0, field.zero())
    residual = []
    if _uv_deg(rest) >= 2:
        residual = [tuple(h) for h in _factor_rootless(uv_monic(rest, field), field)]
    scalar_roots = sorted((Scalar(r, field) for r in roots),
                          key=lambda s: field.sort_key(s.value))
    return scalar_roots, residual
