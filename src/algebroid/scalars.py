"""Exact field arithmetic: Q, prime fields F_p, and one-step simple
extensions of either, plus univariate factorisation, whose linear factors
are the roots: distinct-degree and Cantor-Zassenhaus factorisation over
every finite field, Berlekamp-Zassenhaus with Hensel lifting over Q, and
over an extension of Q the rational factors that the degrees allow to
split (``_extension_factors``).

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

``_power`` is the library's one square-and-multiply loop: field powers,
the primitive-element test of the log tables, ``a^(q^d)`` mod f in
finite-field factoring, and the powers of ``Poly`` and ``TruncSeries``
all call it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import types
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import AlgebroidError, DivisionByZero, SolverLimitation, ZeroPoly

_ENUM_CAP = 4096        # largest finite field given log tables or enumerated
_SUBSET_CAP = 1024      # most factor subsets recombined over Q
_EXT_NAME = "th"        # the extension generator's name in payloads and ideal files


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


def _power(a, n: int, mul, one):
    """a^n for n >= 0 by right-to-left binary powering (Knuth, TAOCP
    vol. 2, 4.6.3), with ``mul`` the product and ``one`` its identity.
    It squares only while a higher bit of n is left: n.bit_length() - 1
    squarings and popcount(n) products ``out = mul(out, a)``."""
    out = one
    while True:
        if n & 1:
            out = mul(out, a)
        n >>= 1
        if not n:
            return out
        a = mul(a, a)


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
    primes = [r for r in _int_divisors(n) if _is_prime(r)]
    g = next(a for a in field.elements() if any(a)
             and all(_power(a, n // r, mul, one) != one for r in primes))
    exp = [one]
    for _ in range(n - 1):
        exp.append(mul(exp[-1], g))
    log = {a: i for i, a in enumerate(exp)}
    log[zero] = 2 * n
    return exp * 2 + [zero] * (2 * n + 1), log


@functools.lru_cache(maxsize=8)
def _defines_extension(p: int, coeffs: tuple) -> bool:
    """Whether th^d + c_{d-1} th^{d-1} + ... + c0, coefficients given
    ascending without the leading 1, is irreducible over Q or F_p.
    Cached per definition: every parse of an ideal file or certificate
    over an extension builds a fresh but equal FieldSpec."""
    base = FieldSpec(p)
    return _is_irreducible(list(coeffs) + [base.one()], base)


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
    multiply and invert through shared log tables.  Only the two
    dataclass fields take part in equality, hashing, ``repr`` and
    pickling, which rebuilds the field through its constructor.
    """

    characteristic: int = 0
    extension: Optional[tuple] = None

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
            if not _defines_extension(p, coeffs):
                raise ValueError("defining polynomial is reducible")
            self._bind(_extension_kernels(self))

    def _bind(self, kernels: dict):
        for name, fn in kernels.items():
            object.__setattr__(self, name, fn)

    def __reduce__(self):
        return (FieldSpec, (self.characteristic, self.extension))

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
        return _power(a, n, self.mul, self.one())

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
                head = _EXT_NAME if i == 1 else f"{_EXT_NAME}^{i}"
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
        body = uv_str(list(self.extension) + [self.base().one()], self.base(), _EXT_NAME)
        return f"{self.base()}[{_EXT_NAME}]/({body})"


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
    inv_lead, top = field.inv(g[-1]), len(g) - 1
    quot = [field.zero()] * max(0, len(f) - top)
    for shift in range(len(f) - len(g), -1, -1):
        c = f[shift + top]
        if field.is_zero(c):
            continue
        quot[shift] = c = field.mul(c, inv_lead)
        for i, b in enumerate(g):
            f[shift + i] = field.sub(f[shift + i], field.mul(c, b))
    return _uv_trim(quot, field), _uv_trim(f[:top], field)


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
    if not field.characteristic:
        return w        # f / gcd(f, f') is the radical in characteristic 0
    # strip the factors already in w out of the leftover part; what stays
    # is a p-th power
    rest = common
    while True:
        shared = uv_gcd(rest, w, field)
        if _uv_deg(shared) == 0:
            break
        rest = _uv_exact_div(rest, shared, field, "squarefree part")
    if _uv_deg(rest) == 0:
        return w
    return uv_mul(w, uv_radical(rest, field), field)


# ------------------------------------------------------------ factoring

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


def _is_rational_square(q: Fraction):
    """Returns sqrt(q) as a Fraction when q is a square in Q, else None."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _uv_powmod(g, e: int, m, field: FieldSpec) -> list:
    """g^e mod m, by squaring."""
    return _power(uv_divmod(g, m, field)[1], e,
                  lambda a, b: uv_divmod(uv_mul(a, b, field), m, field)[1],
                  [field.one()])


def _finite_factors(f: list, field: FieldSpec) -> list:
    """Monic irreducible factors of a monic squarefree f over F_q.

    Distinct-degree factorisation: gcd(f, a^(q^d) - a) collects the
    factors of degree d, taken for d = 1, 2, ... until what is left, with
    no factor of degree d or less, has degree below 2(d + 1), and so is
    irreducible.  Cantor-Zassenhaus then splits each collection (von zur
    Gathen and Gerhard, Modern Computer Algebra, Alg. 14.3 and 14.8).  The
    draws come from a generator seeded here, and the set of factors does
    not depend on them."""
    q, rng = field.size(), random.Random(0)
    a = [field.zero(), field.one()]
    out, power, d = [], a, 0
    while 2 * (d + 1) <= _uv_deg(f):
        d += 1
        power = _uv_powmod(power, q, f, field)
        g = uv_gcd(f, uv_sub(power, a, field), field)
        if _uv_deg(g) > 0:
            out += _equal_degree_split(g, d, field, rng)
            f = _uv_exact_div(f, g, field, "root extraction")
            power = uv_divmod(power, f, field)[1]
    return out + [f] if _uv_deg(f) > 0 else out


def _equal_degree_split(g: list, d: int, field: FieldSpec, rng) -> list:
    """The factors of a monic squarefree g over F_q whose irreducible
    factors all have degree d.  A random r splits g through gcd(g,
    r^((q^d - 1)/2) - 1) for odd q, and through gcd(g, T(r)) with the
    trace T(r) = r + r^2 + ... + r^(2^(kd - 1)) for q = 2^k; each draw
    splits with probability at least 1/2 (Cantor and Zassenhaus 1981)."""
    n = _uv_deg(g)
    if n == d:
        return [g]
    p, q, k = field.characteristic, field.size(), field.degree
    while True:
        r = _uv_trim([tuple(rng.randrange(p) for _ in range(k))
                      if field.extension else rng.randrange(p)
                      for _ in range(n)], field)
        if _uv_deg(r) < 1:
            continue
        if p == 2:
            probe, t = r, r
            for _ in range(k * d - 1):
                t = uv_divmod(uv_mul(t, t, field), g, field)[1]
                probe = uv_add(probe, t, field)
        else:
            probe = uv_sub(_uv_powmod(r, (q ** d - 1) // 2, g, field),
                           [field.one()], field)
        h = uv_gcd(g, probe, field)
        if 0 < _uv_deg(h) < n:
            return (_equal_degree_split(h, d, field, rng)
                    + _equal_degree_split(_uv_exact_div(
                        g, h, field, "root extraction"), d, field, rng))


def _mod_ring(m: int):
    """Z/m under FieldSpec's kernel names, for the uv_* helpers on
    polynomials whose leading coefficients are units mod m."""
    return types.SimpleNamespace(**_prime_kernels(m), zero=lambda: 0,
                                 one=lambda: 1)


def _hensel_lift(g: list, factors: list, l: int, M: int) -> list:
    """Monic lifts mod M = l^(2^k) of the monic factors mod l of the
    integer polynomial g, where g = lc(g) * prod(factors) mod l and the
    factors are coprime mod l.  The factors are split in two halves, u
    (times lc(g)) and w, lifted together by quadratic Hensel steps (von zur
    Gathen and Gerhard, Alg. 15.10), then each half in turn."""
    if len(factors) == 1:
        return [uv_monic(g, _mod_ring(M))]
    field, half = FieldSpec(l), len(factors) // 2
    u = functools.reduce(functools.partial(uv_mul, field=field),
                         factors[:half], [g[-1] % l])
    w = functools.reduce(functools.partial(uv_mul, field=field),
                         factors[half:], [1])
    unit, s, t = _uv_ext_gcd(u, w, field)
    s, t = (uv_scale(field.inv(unit[0]), h, field) for h in (s, t))
    m = l
    while m < M:
        m *= m
        ring = _mod_ring(m)
        mul, add, sub = (functools.partial(op, field=ring)
                         for op in (uv_mul, uv_add, uv_sub))
        e = sub(g, mul(u, w))
        q, r = uv_divmod(mul(s, e), w, ring)
        u, w = add(u, add(mul(t, e), mul(q, u))), add(w, r)
        b = sub(add(mul(s, u), mul(t, w)), [1])
        c, d = uv_divmod(mul(s, b), w, ring)
        s, t = sub(s, d), sub(t, add(mul(t, b), mul(c, u)))
    return (_hensel_lift(u, factors[:half], l, M)
            + _hensel_lift(w, factors[half:], l, M))


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


def _rational_factors(f: list) -> list:
    """Monic irreducible factors over Q of a squarefree nonzero polynomial
    with Fraction/int coefficients, by Berlekamp-Zassenhaus (von zur
    Gathen and Gerhard, Modern Computer Algebra, Alg. 15.19).

    Let g be f's primitive integer multiple, a factor a split off, and n
    its degree.  Let l be the first prime not dividing lc(g) with g
    squarefree mod l; only primes dividing lc(g)*disc(g) fail, and
    disc(g) != 0.  The factors of g mod l are lifted to M = l^(2^k) >
    2*|lc(g)|*2^n*||g||_2.  By Mignotte's bound every integer factor h of
    g has lc(g)/lc(h)*h below M/2 in each coefficient, so it is the
    symmetric residue of lc(g) times the product of h's lifts.  Products
    of the lifts are tried fewest first as exact divisors; a factor found
    with the fewest lifts is irreducible, and what is left when no
    product of at most half the remaining lifts divides is irreducible.
    The subsets grow exponentially with the number of lifts, so past
    _SUBSET_CAP of them SolverLimitation is raised."""
    g, out = _primitive_ints(f), []
    if not g[0]:
        g, out = g[1:], [[0, 1]]
    n, lc = _uv_deg(g), abs(g[-1])
    if n <= 1:
        return out + [uv_monic(g, QQ)] if n else out
    deriv = [i * c for i, c in enumerate(g)][1:]
    # a nonzero disc(g) is at most bound, so its primes multiply to that
    bound, l = n ** n * sum(map(abs, g)) ** (2 * n), 2
    while lc % l == 0 or _uv_deg(uv_gcd(
            [c % l for c in g], [c % l for c in deriv], FieldSpec(l))):
        bound //= l if lc % l else 1
        if not bound:
            raise AlgebroidError("rational factors: not squarefree")
        l = next(q for q in itertools.count(l + 1) if _is_prime(q))
    field = FieldSpec(l)
    modular = _finite_factors(uv_monic([c % l for c in g], field), field)
    if len(modular) == 1:
        return out + [uv_monic(g, QQ)]
    M = l
    while M * M <= 4 * lc * lc * 4 ** n * sum(c * c for c in g):
        M *= M
    lifts, ring = _hensel_lift(g, modular, l, M), _mod_ring(M)
    factors, s, tried = [], 1, 0
    while 2 * s <= len(lifts):
        for chosen in itertools.combinations(range(len(lifts)), s):
            tried += 1
            if tried > _SUBSET_CAP:
                raise SolverLimitation(
                    f"rational factors: recombining {len(modular)} modular "
                    f"factors tried more than {_SUBSET_CAP} subsets")
            v = functools.reduce(functools.partial(uv_mul, field=ring),
                                 (lifts[i] for i in chosen), [g[-1] % M])
            v = _primitive_ints([c - M if 2 * c > M else c for c in v])
            q, r = _int_poly_divmod(g, v)
            if r is not None and not any(r):
                factors.append(v)
                g = q
                lifts = [u for i, u in enumerate(lifts) if i not in chosen]
                break
        else:
            s += 1
    return out + [uv_monic(h, QQ) for h in factors + [g]]


def _extension_factors(f: list, field: FieldSpec) -> list:
    """Monic irreducible factors of a monic squarefree f over an extension
    K of Q of degree d.  Exact and complete where it answers: a linear f,
    and an f with rational coefficients, whose factors over Q of degree k
    stay whole over K when gcd(k, d) = 1, and split by the discriminant
    rule when k = d = 2.  Everything else raises SolverLimitation rather
    than return a partial answer."""
    if _uv_deg(f) == 1:
        return [f]
    if any(any(c[1:]) for c in f):
        raise SolverLimitation(
            "factoring with genuine extension coefficients over Q "
            "is only supported for linear polynomials")
    d, out = field.degree, []
    for g in _rational_factors([c[0] for c in f]):
        k = _uv_deg(g)
        s = None
        if k == 2 and d == 2:
            # g = a^2 + p a + q has a root in Q[th]/(th^2 + m th + c)
            # exactly when disc(g)/disc(minpoly) is a rational square.
            p, q = Fraction(g[1]), Fraction(g[0])
            c0, c1 = Fraction(field.extension[0]), Fraction(field.extension[1])
            s = _is_rational_square((p * p - 4 * q) / (c1 * c1 - 4 * c0))
        elif math.gcd(k, d) != 1:
            raise SolverLimitation(
                "factoring inside extensions of Q beyond quadratic "
                "factors over quadratic extensions is not supported")
        if s is None:
            out.append([field.embed(c) for c in g])
            continue
        w = (c1 * s, 2 * s)  # payload with w^2 = disc_g
        half, minus_p = field.embed(Fraction(1, 2)), field.embed(-p)
        for signed in (w, field.neg(w)):
            root = field.mul(half, field.add(minus_p, signed))
            out.append([field.neg(root), field.one()])
    return out


def _irreducible_factors(f: list, field: FieldSpec) -> list:
    """Monic irreducible factors of a monic squarefree f of positive
    degree, sorted by (degree, coefficients), by one factoriser per field
    kind.  Their product is checked against f."""
    if field.characteristic:
        factors = _finite_factors(f, field)
    elif field.extension is None:
        factors = _rational_factors(f)
    else:
        factors = _extension_factors(f, field)
    product = functools.reduce(functools.partial(uv_mul, field=field),
                               factors, [field.one()])
    if uv_sub(product, f, field):
        raise AlgebroidError(
            "root extraction: the factors do not multiply back to the "
            "polynomial")
    return sorted(factors,
                  key=lambda h: (len(h), [field.sort_key(c) for c in h]))


def _is_irreducible(f: list, field: FieldSpec) -> bool:
    f = uv_monic(f, field)
    return (_uv_deg(f) > 0 and _uv_deg(uv_radical(f, field)) == _uv_deg(f)
            and len(_irreducible_factors(f, field)) == 1)


def univariate_roots(coeffs, field: FieldSpec):
    """All roots of a nonzero univariate polynomial over ``field``, plus
    the rootless irreducible factors of degree >= 2 of its squarefree part.

    ``coeffs`` (index = degree) are values that ``field.coerce`` takes.
    Returns ``(roots, residual)`` where roots is a list of payloads sorted
    by ``field.sort_key`` and residual a list of monic coefficient tuples
    (leading 1 included), sorted by degree and then by coefficients.
    """
    f = _uv_trim([field.coerce(c) for c in coeffs], field)
    if not f:
        raise ZeroPoly("root extraction of the zero polynomial")
    # pull out the root at 0 first
    shift = 0
    while field.is_zero(f[0]):
        f = f[1:]
        shift += 1
    factors = _irreducible_factors(uv_radical(f, field), field) \
        if _uv_deg(f) >= 1 else []
    roots = [field.neg(h[0]) for h in factors if len(h) == 2]
    if shift:
        roots.append(field.zero())
    return (sorted(roots, key=field.sort_key),
            [tuple(h) for h in factors if len(h) > 2])
