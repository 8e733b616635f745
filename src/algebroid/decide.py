"""Top-level decision procedures for algebroid curves.

Three entry points: ``assert_preconditions`` normalizes an input ideal
(dimension check, removal of variables lying in the ideal, finiteness of
the base weights); ``value_semigroup`` turns a prime curve ideal into an
isomorphic presentation whose weight vector generates the value
semigroup; ``decide_irreducible`` answers prime/not-prime and always
ships a certificate that ``verify_certificate`` can replay from scratch,
without re-running the decision.

Both entry points run one loop: compute the weight vector, screen the
binomial relations of the weight semigroup through the three-way pencil
test, descend the surviving combination until its value escapes the
semigroup, adjoin a new variable recording it, and repeat.  The screen
walks the binomials by w-degree and stops before the first one above
the lowest degree d with an escape.  The kept candidate is the least
escape of degree d either way; a higher pencil that would have answered
"false" goes untested, which is sound because ``_certified`` verifies
every certificate.  The decide stops at primitive weights; the value
semigroup runs until every binomial resolves.  Reducibility surfaces
either as a monomial in a weighted initial ideal or as a pencil verdict,
whose determinant's Newton polygon gives a pair of weight rays that the
certificate check proves monomial-free exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .errors import (
    AlgebroidError,
    CertificateSearchFailed,
    ContextViolation,
    InfiniteWeight,
    NonRadicalSuspected,
    NotPrime,
    UnitIdeal,
    WrongDimension,
)
from .groebner import (
    IdealHandle,
    _as_handle,
    _reduce_basis,
    ideal_membership,
    krull_dimension,
    radical_membership,
    saturate,
    staircase_size,
)
from .localalg import (base_weights, initial_ideal, intersection_number,
                       restrict)
from .naming import next_single
from .parametric import (Verdict, _coefficients, _pencil_determinant,
                         free_basis, parametric_test)
from .polyring import (
    INF,
    InvLex,
    Poly,
    RingCtx,
    embed,
    in_w,
    normal_form,
    ord_w,
    project,
    wdot,
)
from .scalars import FieldSpec, uv_add, uv_mul
from .semigroups import gcd_weights, membership, prim_generators


class _InitialHandle(IdealHandle):
    """The handle of a weighted initial ideal, whose basis and queries
    are under InvLex (see ``_initial_handle``)."""

    order = InvLex()


def _initial_handle(handle: IdealHandle, w: Sequence[int]) -> IdealHandle:
    """The handle of the initial ideal K at w, one per weight vector, with
    its reduced InvLex basis already in its memo, found by interreducing
    its generators alone.

    Those generators are the initial forms in_w(s) of a standard basis of
    J under the local order (lowest w-degree first, InvLex among equals),
    so LM_local(s) = LM_T(in_w(s)) with T = InvLex.  Let h in K be
    nonzero and h_d its w-homogeneous component holding LM_T(h).  K is
    w-homogeneous, so h_d lies in K and h_d = in_w(f) for some f in J;
    then LM_T(h) = LM_T(h_d) = LM_local(f) lies in <LM_local(s)> =
    <LM_T(in_w(s))>.  The forms are thus a T-Groebner basis of K, and
    the reduced basis, being unique, is the one Buchberger gives.  Any
    global order T breaking the local order's ties would do; InvLex lets
    each adjoined coordinate lead its own relation, and makes x_0 the
    smallest variable, so K's basis slices at x_0 = 1 without S-pairs
    (see ``_monomial_witness``)."""
    w = tuple(w)

    def build() -> IdealHandle:
        K = _InitialHandle(initial_ideal(handle, w), handle.ctx)
        K.cached(("groebner",), lambda: [p for p, _ in _reduce_basis(
            [(g, None) for g in K.generators], K.order)])
        return K
    return handle.cached(("initial", w), build)


def _form_monomial(gens: Sequence[Poly], w: Sequence[int]) -> Optional[tuple]:
    """The exponent of the first one-term initial form at w of a nonzero
    element of gens that is not a constant, or None."""
    for g in gens:
        if not g.is_zero():
            form = in_w(g, w)
            if len(form.terms) == 1:
                m = next(iter(form.terms))
                if any(m):
                    return m
    return None


def _monomial_witness(handle: IdealHandle, w: Sequence[int]) -> Optional[Poly]:
    """A monic monomial inside the initial ideal K of the handle at w, or
    None when K contains none, that is, when w is a tropism.  The answer
    is kept in the handle's memo under ("free", w).  The witness is the
    first of:
    1. a nonconstant monomial that is the initial form at w of a
       generator; K is then not built at all;
    2. else a monomial of K's reduced InvLex basis;
    3. else x_0^a * (x_1...x_{n-1})^s with the s of the sliced test
       below and the least a, found by normal forms in K.
    So it depends on the generators and K, not on the standard basis
    whose initial forms generate K.  Raises WrongDimension when the
    third tier's slice is not finite.

    K is w-homogeneous and every w_j is positive, so its zero set is
    stable under t.p = (t^w_1 p_1, ...) and meets the torus exactly when
    any of its slices x_i = 1 does, over the algebraic closure and in any
    characteristic.  The slice is taken at x_0 = 1; for a curve it is
    zero-dimensional, of some length D.  K contains a monomial exactly
    when the product m = x_1...x_{n-1} is nilpotent modulo the slice, the
    unit ideal included, that is, when m^s reduces to zero for a power of
    two s, the first s >= D at the latest; s is the least such power.
    Then m^s = H(1, x') for some H in K, and m^s is its own h_r below, so
    x_0^a * m^s lies in K for some a >= 0.

    The slice's basis is K's reduced InvLex basis, which
    ``_initial_handle`` found without S-pairs, at x_0 = 1, under InvLex
    in x' = x_1..x_{n-1} (Cox, Little & O'Shea, ch. 8 section 4):
    - InvLex compares x_0 last.  Each basis element is w-homogeneous and
      w_0 > 0, so two of its terms never share their x' part: x_0 = 1
      merges no terms and keeps the lead.
    - Let h = H(1, x') with H in K, and h_r its terms of w'-degree r mod
      w_0.  Then h_r = G(1, x') for G = sum x_0^((e - d)/w_0) H_d over
      the w-homogeneous components H_d of H with d = r mod w_0, e the
      largest such d.  G is w-homogeneous and in K, and LT(G) =
      x_0^a LT(h_r).  So LT(h), the lead of one h_r, is divisible by the
      lead of a basis element at x_0 = 1: the basis at x_0 = 1 is an
      InvLex Groebner basis of the slice.
    - Only the WrongDimension refusal depends on which slice is taken,
      and only when K is not a curve: each slice misses the components
      of K that lie inside its own hyperplane."""
    w = tuple(w)

    def build() -> Optional[Poly]:
        ctx = handle.ctx
        m = _form_monomial(handle.generators, w)
        if m is None:
            K = _initial_handle(handle, w)
            gb, order = K.groebner(), K.order
            m = _form_monomial(gb, w)
        if m is not None:
            return ctx.mono(m)
        n, x0 = ctx.nvars, ctx.var(0)
        small = RingCtx(ctx.field, ctx.variables[1:])
        sliced = [Poly({m[1:]: c for m, c in g.terms.items()}, small)
                  for g in gb]
        length = staircase_size([g.lead(order)[0] for g in sliced], n - 1)
        if length is None:
            raise WrongDimension(
                f"the initial ideal at weight {w} is not one-dimensional: "
                f"its slice {ctx.variables[0]} = 1 is not finite")
        p = normal_form(small.mono((1,) * (n - 1)), sliced, order)
        s = 1
        while s < length and not p.is_zero():
            p = normal_form(p * p, sliced, order)
            s *= 2
        if not p.is_zero():
            return None
        mono = ctx.mono((0,) + (s,) * (n - 1))
        # x_0 * (mono - r) lies in K, so NF(x_0 * mono) = NF(x_0 * r)
        r = normal_form(mono, gb, order)
        while not r.is_zero():
            mono, r = mono * x0, normal_form(r * x0, gb, order)
        return mono
    return handle.cached(("free", w), build)


# ------------------------------------------------------------ certificates

@dataclass(frozen=True)
class Certificate:
    """Replayable evidence for a verdict: the (possibly extended) ideal,
    the kind of witness, its data, and the adjunction transcript.

    The ideal J has graph shape: generators in ``base_vars`` only, then
    exactly ``ctx.var(name) - fdef`` for each transcript entry, in order,
    each ``fdef`` in the variables before ``name``, zero at the origin;
    for two_tropisms the last is the pencil verdict's one attachment,
    whose order ends each ray.  The quotient ring is that of the base
    generators' ideal I, which the certificate is about: z_j maps to h_j*,
    its InvLex remainder modulo the transcript relations, so the
    intersection number I_J(z_j) of z_j with J is I_I(h_j*).  A
    monomial_witness's monomial lies in the initial ideal K of J at J's
    base weights; it is read from J's generators or from K alone, not
    from the standard basis that found K (``_monomial_witness``)."""

    kind: str            # prime_tropism | monomial_witness | two_tropisms
    ideal: IdealHandle
    data: object         # weight tuple / witness Poly / pair of ray tuples
    base_vars: tuple     # variable names of the original input ring
    transcript: tuple = ()   # ((name, defining Poly in ideal.ctx), ...)


@dataclass(frozen=True)
class DecisionReport:
    verdict: str         # irreducible | reducible
    certificate: Certificate
    stats: dict


def _primitive(ray: Sequence[int]) -> tuple:
    g = gcd(*ray)
    return tuple(e // g for e in ray)


def _graph_shape_error(cert: Certificate) -> Optional[str]:
    """Why the certified ideal lacks the graph shape that ``Certificate``
    describes, or None when it has it."""
    ctx = cert.ideal.ctx
    names = tuple(name for name, _ in cert.transcript)
    if tuple(cert.base_vars) + names != ctx.variables:
        return "transcript does not span the certificate ring"
    base = len(cert.base_vars)
    gens = cert.ideal.generators
    head = len(gens) - len(names)
    if head < 0:
        return "the certified ideal has fewer generators than the transcript"
    if any(i >= base for g in gens[:head] for i in g.variables_used()):
        return ("a base generator of the certified ideal uses an adjoined "
                "variable")
    for k, ((name, fdef), gen) in enumerate(zip(cert.transcript, gens[head:])):
        if fdef.ctx != ctx:
            return "adjoined definition lives in a foreign ring"
        if any(i >= base + k for i in fdef.variables_used()):
            return "adjoined definition uses later variables"
        if not ctx.field.is_zero(fdef.constant_coeff()):
            return f"adjoined definition of {name} does not vanish at the origin"
        if not _is_relation(gen, base + k, fdef):
            return (f"generator {head + k + 1} of the certified ideal is not "
                    f"the transcript relation of {name}")
    return None


def _is_relation(gen: Poly, i: int, fdef: Poly) -> bool:
    """Whether gen == x_i - fdef, term by term and without building the
    difference, for fdef in gen's ring without x_i.  No term of fdef is
    x_i, so the difference's terms are x_i with coefficient 1 and those of
    fdef negated, zero coefficients kept as ``Poly.__sub__`` keeps them."""
    if len(gen.terms) != len(fdef.terms) + 1:
        return False
    field, terms = gen.ctx.field, gen.terms
    z = (0,) * i + (1,) + (0,) * (gen.ctx.nvars - i - 1)
    if z not in terms or not field.eq(terms[z], field.one()):
        return False
    eq, neg = field.eq, field.neg
    for m, c in fdef.terms.items():
        if m not in terms or not eq(terms[m], neg(c)):
            return False
    return True


def _certified_weights(cert: Certificate):
    """Base weights of the certified ideal J, one entry at a time, in the
    base ring, or in J's when there is no transcript: I_J(x_i) = I_I(x_i),
    I_J(z_j) = I_I(h_j*).  Each entry is computed only when it is asked
    for, so a caller that stops early takes no later intersection number.

    h_j* is z_j's InvLex remainder modulo the transcript relations
    z_k - fdef_k.  By ``_graph_shape_error`` each fdef_k uses only
    variables before z_k, so z_k leads its relation with coefficient 1.
    The leads are coprime, so the relations are a Groebner basis
    (Buchberger's first criterion) and the remainder has no z; being
    congruent to z_j, it is z_j's image in the base ring."""
    J, nbase, k = cert.ideal, len(cert.base_vars), len(cert.transcript)
    head = len(J.generators) - k
    base = restrict(J.generators[:head], J.ctx,
                    range(nbase, J.ctx.nvars)) if k else J
    for i in range(base.ctx.nvars):
        yield intersection_number(base.ctx.var(i), base)
    for name, _ in cert.transcript:
        star = normal_form(J.ctx.var(name), J.generators[head:], InvLex())
        yield intersection_number(project(star, base.ctx, range(nbase)), base)


def _tropism_refusal(handle: IdealHandle, w: tuple,
                     where: str) -> Optional[str]:
    """Why w is not a tropism of the certified ideal, or None when it is."""
    try:
        witness = _monomial_witness(handle, w)
    except WrongDimension:
        return f"initial ideal at {where} is not one-dimensional"
    if witness is not None:
        return f"initial ideal at {where} contains a monomial"
    return None


def verify_certificate(cert: Certificate) -> Tuple[bool, str]:
    """Recheck a certificate from its recorded data alone; returns
    (ok, reason) and never raises for a merely invalid certificate.

    The checks run cheapest first.  Those that read only the certificate's
    own data come first: the number of rays, their entries, that they are
    not proportional and that each is primitive, and the length of a
    prime tropism.  Then the certified ideal must have the graph shape of
    ``Certificate``, so every transcript relation is a member by
    inspection; any other generating set is refused, even of the same
    ideal.  Last come weights and tropisms.  Base weights are recomputed
    in the base ring (``_certified_weights``), tropisms in the certified
    ring by ``_monomial_witness``.  A prime tropism, once its entries are
    found to be ints above 0, is compared with the recomputed weights
    entry by entry and refused at the first that differs, before any
    later entry is computed; only then is its gcd checked."""
    handle = cert.ideal
    ctx = handle.ctx
    if cert.kind == "prime_tropism":
        w = tuple(cert.data)
        if len(w) != ctx.nvars:
            return False, "weight data does not match the ring variables"
    elif cert.kind == "two_tropisms":
        rays = tuple(tuple(r) for r in cert.data)
        if len(rays) != 2:
            return False, "certificate does not carry exactly two rays"
        for ray in rays:
            if len(ray) != ctx.nvars or any(
                    type(e) is not int or e <= 0 for e in ray):
                return False, "ray entries must be positive integers"
        if _primitive(rays[0]) == _primitive(rays[1]):
            return False, "rays are proportional"
        for k, ray in enumerate(rays):
            if _primitive(ray) != ray:
                return False, f"ray {k + 1} is not primitive"
    shape = _graph_shape_error(cert)
    if shape is not None:
        return False, shape
    if cert.kind == "prime_tropism":
        if any(type(e) is not int or e <= 0 for e in w):
            return False, "tropism entries must be positive integers"
        for got, want in zip(_certified_weights(cert), w):
            if got <= 0:
                return False, "base weights are not all positive"
            if got != want:
                return False, ("recomputed base weights differ from the "
                               "certified tropism")
        if gcd_weights(w) != 1:
            return False, "certified tropism is not primitive"
        refusal = _tropism_refusal(handle, w, "the certified tropism")
        if refusal is not None:
            return False, refusal
    elif cert.kind == "monomial_witness":
        bw = tuple(_certified_weights(cert))
        if any(e <= 0 for e in bw):
            return False, "base weights are not all positive"
        wit = cert.data
        if not isinstance(wit, Poly) or wit.is_zero():
            return False, "witness is not a nonzero polynomial"
        if any(e is INF for e in bw):
            return False, "base weights are not all finite"
        form = in_w(wit, bw)
        if len(form.terms) != 1 or not any(next(iter(form.terms))):
            return False, "witness initial form is not a single monomial"
        if not ideal_membership(form, _initial_handle(handle, bw)):
            return False, "witness initial form does not lie in the initial ideal"
    elif cert.kind == "two_tropisms":
        for k, ray in enumerate(rays):
            refusal = _tropism_refusal(handle, ray, f"ray {k + 1}")
            if refusal is not None:
                return False, refusal
    else:
        return False, f"unknown certificate kind: {cert.kind}"
    return True, "ok"


_RAYS_LIMIT = ("the pencil's rays assume that every branch's base valuation "
               "is a multiple of the primitive base weights wb")


def _certified(verdict: str, cert: Certificate, stats: dict) -> DecisionReport:
    ok, reason = verify_certificate(cert)
    if not ok and cert.kind == "two_tropisms":
        raise CertificateSearchFailed(
            f"{_RAYS_LIMIT}, and the pair read from the pencil failed "
            f"verification: {reason}")
    if not ok:
        raise CertificateSearchFailed(
            f"internal: produced certificate failed verification: {reason}")
    return DecisionReport(verdict, cert, stats)


# ------------------------------------------------------------ preconditions

def _checked_base_weights(handle: IdealHandle) -> tuple:
    """The base weights, once each is positive and finite: every one is 0
    exactly when the origin is off the curve, and an INF one names its
    variable."""
    w = base_weights(handle)
    if 0 in w:
        raise UnitIdeal("the curve does not pass through the origin")
    if INF in w:
        bad = handle.ctx.variables[w.index(INF)]
        raise InfiniteWeight(
            f"intersection number of {bad} is infinite: {bad} vanishes on "
            "some but not all branches of the curve, so a radical input is "
            "reducible; no certificate kind covers this case yet")
    return w


def assert_preconditions(ideal) -> IdealHandle:
    """Check dimension, drop variables lying in the ideal (shrinking the
    ring), and require positive, finite base weights.  Radicality is an
    input contract and is not checked here."""
    handle = _as_handle(ideal)
    dim = krull_dimension(handle)
    if dim != 1:
        raise WrongDimension(f"expected a curve, got dimension {dim}")
    ctx = handle.ctx
    members = [i for i in range(ctx.nvars)
               if ideal_membership(ctx.var(i), handle)]
    if members:
        handle = restrict(handle.generators, ctx, members)
    _checked_base_weights(handle)
    return handle


# -------------------------------------------------------------- the engine

# bounds the loop's rounds and each descent's steps; radical inputs end
# in finitely many of both, so only inputs outside the contract reach it
_LOOP_CAP = 256


def _call_test(f: Poly, g: Poly, handle: IdealHandle, *,
               stats: dict) -> Verdict:
    stats["parametric_calls"] += 1
    try:
        v = parametric_test(f, g, handle)
    except ContextViolation as exc:
        raise NonRadicalSuspected(
            "a degenerate direction vanished on the curve, which cannot "
            f"happen for a radical input: {exc}") from exc
    stats["truncation_high_water"] = max(stats["truncation_high_water"],
                                         v.pencil.truncation)
    return v


def _nf_ratio_resolves(m1: tuple, m2: tuple, in_handle: IdealHandle) -> bool:
    """Whether some scalar multiple x^a - lambda x^b already lies in the
    weighted initial ideal (then the pencil test carries no information).

    When it returns False, no resolved binomial f = x^a - beta*x^b lies in
    the initial ideal K, so ``_screen_round`` tests no membership.  Then
    q1 = NF(x^a) and q2 = NF(x^b) are nonzero (a zero one raises) and not
    proportional.  And
    beta != 0: in a not-false verdict det(M_f) has order exactly k0, so
    c_k0(0) != 0 and 0 is not a root.  The normal form is linear, so
    NF(f) = q1 - beta*q2 != 0, and f is not in K."""
    ctx, gb, order = in_handle.ctx, in_handle.groebner(), in_handle.order
    q1 = normal_form(ctx.mono(m1), gb, order)
    q2 = normal_form(ctx.mono(m2), gb, order)
    if q1.is_zero() or q2.is_zero():
        raise AlgebroidError("screening: a monomial inside the initial "
                             "ideal survived the monomial check")
    if set(q1.terms) != set(q2.terms):
        return False
    field = ctx.field
    ratios = [field.div(c, q2.terms[m]) for m, c in q1.terms.items()]
    return all(field.eq(ratios[0], r) for r in ratios)


def _screen_round(handle: IdealHandle, w: tuple, *, stats: dict):
    """Run the pencil test over the binomial generators of the weight
    semigroup's relation ideal, by (w-degree, key).  Returns ("false",
    verdict, f, g) on reducibility evidence, ("candidate", f, N) with the
    lowest-degree resolved binomial escaping the initial ideal, or
    ("radical",) when every binomial resolves inside it.  A broken input
    contract raises NonRadicalSuspected.

    Once an escape of w-degree d is found, the walk stops before the
    first binomial of degree above d.  Every binomial of degree d is
    still tested, so the candidate, the least escape by (d, key), is the
    one a walk over all binomials keeps; the "radical" end has no escape
    and so still tests them all.  A binomial above d that would have
    answered "false" or raised is left untested: the verdict never rests
    on the screen having seen it, because ``_certified`` verifies every
    certificate."""
    ctx = handle.ctx
    in_handle = _initial_handle(handle, w)
    binomials = prim_generators(w, ctx)
    binomials.sort(key=lambda b: (ord_w(b, w), b.key()))
    escapes = []
    for b in binomials:
        items = sorted(b.terms.items(), reverse=True)
        (m1, _), (m2, _) = items
        d = wdot(w, m1)
        if escapes and d > escapes[0][0]:
            break
        if _nf_ratio_resolves(m1, m2, in_handle):
            continue
        f = ctx.mono(m1)
        g = ctx.mono(m2)
        v = _call_test(f, g, handle, stats=stats)
        if v.result == "false":
            return ("false", v, f, g)
        cand = f - g.scale(v.beta)
        escapes.append((d, cand.key(), cand, v.value))
    if not escapes:
        return ("radical",)
    _, _, f, value = min(escapes, key=lambda t: t[:2])
    if not radical_membership(f, in_handle):
        raise NonRadicalSuspected(
            "the resolved binomial does not vanish on the initial ideal's "
            "zero set; the input contract is violated")
    return ("candidate", f, value)


def _descend(handle: IdealHandle, w: tuple, f: Poly, value: int, *,
             stats: dict):
    """Lower f by monomials of matching weight until its intersection
    value escapes the semigroup of w.  Returns ("done", f, N) or
    ("false", verdict, f, g).  More than ``_LOOP_CAP`` steps raise
    NonRadicalSuspected, which ``value_semigroup`` renames NotPrime.

    Each f arrives with its value, the exceptional value of the pencil
    that made it, so that value seeds the handle's intersection memo and
    the next pencil builds no local standard basis for it.  That pencil
    still checks that det(M_f) has exactly this pivot order, so a wrong
    seed raises ``AlgebroidError``."""
    ctx = handle.ctx
    steps = 0
    while True:
        handle.cached(("intersection", f.key()), lambda: value)
        wit = membership(value, w)
        if wit is None:
            return ("done", f, value)
        steps += 1
        stats["descent_steps"] += 1
        if steps > _LOOP_CAP:
            raise NonRadicalSuspected(
                f"descent exceeded _LOOP_CAP = {_LOOP_CAP} steps; on radical "
                "inputs it terminates")
        g = ctx.mono(wit)
        v = _call_test(f, g, handle, stats=stats)
        if v.result == "false":
            return ("false", v, f, g)
        f = f - g.scale(v.beta)
        value = v.value


# ------------------------------------------------------------------- rays

def _shifted_support(ck: list, beta, field: FieldSpec) -> List[int]:
    """The k whose a^k coefficient in ck(a + beta) is nonzero, by Horner's
    rule.  Over Q and F_p it runs on ints, as q^d*L*ck(a + p/q) with d =
    deg ck and L the lcm of ck's denominators; extensions run it on their
    field kernels."""
    if field.extension is not None:
        shifted: list = []
        for c in reversed(ck):
            shifted = uv_add(uv_mul(shifted, [beta, field.one()], field),
                             [c], field)
        return [k for k, c in enumerate(shifted) if not field.is_zero(c)]
    m, p, q = field.characteristic, beta.numerator, beta.denominator
    den = lcm(*(c.denominator for c in ck))
    shifted, scale = [], 1
    for c in reversed(ck):
        shifted = [p * x + q * y for x, y in zip(shifted + [0], [0] + shifted)]
        shifted[0] += c.numerator * (den // c.denominator) * scale
        scale *= q
    return [k for k, c in enumerate(shifted) if (c % m if m else c)]


def _polygon_rays(coeffs: dict, beta, field: FieldSpec, wb: tuple,
                  vbar: int, pivot: int) -> List[tuple]:
    """The primitive ray of each segment, left to right, of the lower
    convex hull of the points (k, pivot order of the a^k coefficient of
    D(a + beta)), D a determinant given by its parameter polynomials
    {pivot exponent e: c_e} over ``field``: ((k2 - k1)*wb, (k2 - k1)*vbar
    + (e1 - e2)*wb[pivot]) for the segment from (k1, e1) to (k2, e2)."""
    orders: dict = {}
    for e, ck in sorted(coeffs.items()):
        for k in _shifted_support(ck, beta, field):
            orders.setdefault(k, e)
    hull: List[tuple] = []
    for k, e in sorted(orders.items()):
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (e - hull[-2][1])
                                 <= (hull[-1][1] - hull[-2][1])
                                 * (k - hull[-2][0])):
            hull.pop()
        hull.append((k, e))
    return [_primitive(tuple((k2 - k1) * b for b in wb)
                       + ((k2 - k1) * vbar + (e1 - e2) * wb[pivot],))
            for (k1, e1), (k2, e2) in zip(hull, hull[1:])]


def _rays_for_false(handle: IdealHandle, w: tuple, verdict: Verdict, f: Poly,
                    g: Poly):
    """Two weight rays witnessing the pencil verdict on the handle, in the
    ideal J = I + (v - h) that adjoins the verdict's attachment h to its
    ring I, read from the Newton polygon of its determinant D(a) =
    det(M_f - a M_g); the certificate's verification is their one test.
    Returns (h, rays), h the attachment to adjoin: the verdict's, or its
    bend from ``_rays_bent_attachment``.

    Over k((t)), t the pivot, the roots of D(a + beta) are the values of
    h/g, h = f - beta*g (beta = 0 in case 1), at the ord_B(t) points of
    each branch B, of t-order (ord_B(h) - ord_B(g)) / ord_B(t).  So the
    segment from (k1, e1) to (k2, e2) of the lower hull of the points (k,
    t-order of the a^k coefficient) gathers branches whose ord_B(t) add
    up to k2 - k1 and whose ord_B(h) - ord_B(g) add up to e1 - e2, in any
    characteristic.  A branch of base valuation lam*wb (w = lam_total*wb,
    wb primitive) has ord_B(t) = lam*wb_t and ord_B(g) = lam*vbar, so its
    ray (lam*wb, ord_B(h)) is its segment's in ``_polygon_rays``.  Case 1
    has branches with ord_B(f) below and above lam*vbar, case 2 one that
    raises h and one that raises f - beta_2*g: two segments at least, and
    the two smallest rays are certified.  When h vanishes on some
    branches and the others share one ray, ``_rays_bent_attachment``
    bends h.

    Every hull vertex lies at or below the left end, of order top: I(h),
    nf in case 1, and when h vanishes on some branches n_h plus the order
    of g on them, at most n_h + nf, n_h = I(h) on the saturation of I by
    h.  So only the c_e with e <= top are shifted, over Q in integers.  D
    is recomputed at top + 1 when top reaches its truncation.  A branch
    whose base valuation is not a multiple of wb breaks the rays;
    CertificateSearchFailed names that limit, here for rays that are not
    positive and in ``_certified`` for a pair that fails verification."""
    lam_total = gcd_weights(w)
    wb = tuple(e // lam_total for e in w)
    vbar = wdot(wb, next(iter(g.terms)))
    nf = lam_total * vbar
    I, h, po = verdict.ideal, verdict.attachment, verdict.pencil
    field = I.ctx.field
    if verdict.value is INF:
        n_h = intersection_number(h, saturate(I, h))
        top = n_h + nf
    else:
        top = nf if verdict.case == 1 else verdict.value
    D = (po.determinant if top < po.truncation
         else _pencil_determinant(f, g, free_basis(handle), top + 1))
    if po.field != field:
        D = {k: field.embed(c) for k, c in D.items()}
    beta = field.zero() if verdict.case == 1 else verdict.beta
    coeffs = {e: c for e, c in _coefficients(D, field).items() if e <= top}
    rays = _polygon_rays(coeffs, beta, field, wb, vbar, po.pivot)
    if rays and all(e > 0 for ray in rays for e in ray):
        if len(rays) >= 2:
            return h, tuple(sorted(rays)[:2])
        if verdict.value is INF:
            return _rays_bent_attachment(h, rays[0], n_h, wb)
    raise CertificateSearchFailed(
        f"{_RAYS_LIMIT}: the pencil's Newton polygon gives the rays {rays}, "
        "not all positive or too few")


def _rays_bent_attachment(hb: Poly, ray: tuple, n_h: int, wb: tuple):
    """The attachment hb vanishes on some branches, and the others share
    ``ray``, so its ideal is one finite ray short of a pair: returns the
    attachment to adjoin instead, hb + x_i^M with wb_i the least entry of
    wb, and the pair of rays it carries.  n_h is the intersection number
    of hb on the branches B where it does not vanish; their base
    valuations add up to some bw, at least 1 in each entry as every x_i
    vanishes at the origin and on no branch, and ``ray`` is the
    primitive form of (bw, n_h).

    M = n_h + 1 bends only the vanishing branches.  n_h is the sum of
    ord_B(hb) over those B, and ord_B(x_i) >= 1, so M*ord_B(x_i) > n_h >=
    ord_B(hb) and hb + x_i^M keeps the order ord_B(hb) on each.  On a
    branch of base valuation lam*wb where hb vanishes, the bent order is
    exactly M*lam*wb_i, so every such branch has the ray (wb, M*wb_i).
    That ray is never proportional to ``ray``: (wb, M*wb_i) = c*(bw,
    n_h) would give n_h = M*bw_i >= M = n_h + 1.  (M from ord_B(x_i) >=
    wb_i would be smaller, but that bound fails on branches whose ray is
    off wb.)"""
    ctx = hb.ctx
    i = min(range(len(wb)), key=lambda k: wb[k])
    M = n_h + 1
    bent = hb + ctx.mono(tuple(M if k == i else 0 for k in range(ctx.nvars)))
    return bent, tuple(sorted((ray, _primitive(wb + (M * wb[i],)))))


# ----------------------------------------------------------- entry points

def _extend_with(ideal: IdealHandle, p: Poly) -> Tuple[IdealHandle, str]:
    """Adjoin one fresh variable v for p, returning the enlarged ideal
    <I, v - p> and the new name; every certificate's ring is built here."""
    ctx = ideal.ctx
    name = next_single(ctx.variables)
    big = ctx.extend((name,))
    gens = [embed(g, big) for g in ideal.generators]
    gens.append(big.var(name) - embed(p, big))
    return IdealHandle(gens, big), name


def _adjunction_loop(handle: IdealHandle, *, primitive_stops: bool):
    """The loop both entry points run: look for a monomial witness, stop
    at primitive weights when ``primitive_stops``, screen the binomial
    relations, descend the surviving candidate, adjoin it, and repeat.

    Returns (end, handle, w, transcript, stats, detail) at the stop, end
    being "monomial" (detail the witness), "primitive", "radical" (every
    binomial resolved inside the initial ideal) or "false" (detail the
    pencil's (verdict, f, g)).  More than ``_LOOP_CAP`` rounds, or a
    broken input contract, raise NonRadicalSuspected, which
    ``value_semigroup`` renames NotPrime."""
    w = _checked_base_weights(handle)
    p, gens = handle.ctx.field.characteristic, handle.generators
    # over a perfect field, a polynomial in the x_i^p is a p-th power
    if p and len(gens) == 1 and all(e % p == 0 for m in gens[0].terms
                                    for e in m):
        raise NonRadicalSuspected(
            f"the generator {gens[0]} is a p-th power, p = {p} the "
            "characteristic: each of its exponents is divisible by p, so "
            "the ideal is not radical")
    transcript: List[Tuple[str, Poly]] = []
    stats = {"outer_iterations": 0, "descent_steps": 0, "parametric_calls": 0,
             "truncation_high_water": 0, "final_weights": w,
             "weight_history": [w]}
    while True:
        wit = _monomial_witness(handle, w)
        if wit is not None:
            return "monomial", handle, w, transcript, stats, wit
        if primitive_stops and gcd_weights(w) == 1:
            return "primitive", handle, w, transcript, stats, None
        stats["outer_iterations"] += 1
        if stats["outer_iterations"] > _LOOP_CAP:
            raise NonRadicalSuspected(
                f"the outer loop exceeded _LOOP_CAP = {_LOOP_CAP} rounds; "
                "on radical inputs it ends in finitely many")
        outcome = _screen_round(handle, w, stats=stats)
        if outcome[0] == "radical":
            return "radical", handle, w, transcript, stats, None
        if outcome[0] == "candidate":
            _, f, value = outcome
            outcome = _descend(handle, w, f, value, stats=stats)
        if outcome[0] == "false":
            return "false", handle, w, transcript, stats, outcome[1:]
        _, f, value = outcome
        handle, name = _extend_with(handle, f)
        transcript.append((name, f))
        w = w + (value,)
        stats["weight_history"].append(w)
        stats["final_weights"] = w


def decide_irreducible(ideal) -> DecisionReport:
    """Decide whether the curve ideal is prime, returning a report whose
    certificate has already passed verification.  The input must be
    radical, unmixed of dimension one, with finite base weights (run
    assert_preconditions first)."""
    handle = _as_handle(ideal)
    end, J, w, transcript, stats, detail = _adjunction_loop(
        handle, primitive_stops=True)
    if end == "radical":
        raise NonRadicalSuspected(
            "every binomial relation resolved inside the initial ideal "
            "while the weights share a factor; radical unmixed inputs "
            "cannot do this")
    if end == "false":
        h, data = _rays_for_false(J, w, *detail)
        # h lives in the verdict's ring: the loop's handle, or its lift
        J, name = _extend_with(detail[0].ideal, h)
        transcript.append((name, h))
        kind = "two_tropisms"
    elif end == "monomial":
        kind, data = "monomial_witness", detail
    else:
        kind, data = "prime_tropism", tuple(w)
    cert = Certificate(kind, J, data, handle.ctx.variables,
                       tuple((name, embed(p, J.ctx))
                             for name, p in transcript))
    return _certified("irreducible" if end == "primitive" else "reducible",
                      cert, stats)


def value_semigroup(ideal) -> Tuple[IdealHandle, tuple]:
    """For a prime curve ideal, return an isomorphic presentation whose
    weight vector generates the value semigroup.  A non-prime input
    surfaces as NotPrime."""
    try:
        end, handle, w, _, _, detail = _adjunction_loop(
            _as_handle(ideal), primitive_stops=False)
    except NonRadicalSuspected as exc:
        raise NotPrime(str(exc)) from exc
    if end == "monomial":
        raise NotPrime("the weighted initial ideal contains a monomial")
    if end == "false":
        raise NotPrime(
            f"the pencil test returned false (case {detail[0].case})")
    return handle, w
