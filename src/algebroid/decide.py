"""Top-level decision procedures for algebroid curves.

Three entry points: ``assert_preconditions`` normalizes an input ideal
(dimension check, removal of variables lying in the ideal, finiteness of
the base weights); ``value_semigroup`` turns a prime curve ideal into an
isomorphic presentation whose weight vector generates the value
semigroup; ``decide_irreducible`` answers prime/not-prime and always
ships a certificate that ``verify_certificate`` can replay from scratch,
without re-running the decision.

The engine follows one loop shape: compute the weight vector, screen the
binomial relations of the weight semigroup through the three-way pencil
test, descend the surviving combination until its value escapes the
semigroup, adjoin a new variable recording it, and repeat.  Reducibility
surfaces either as a monomial in a weighted initial ideal or as a pencil
verdict, from which a pair of weight rays with monomial-free initial
ideals is constructed and verified exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .errors import (
    CertificateSearchFailed,
    ContextViolation,
    InfiniteWeight,
    NonRadicalSuspected,
    NotPrime,
    WrongDimension,
)
from .groebner import (
    IdealHandle,
    _as_handle,
    contains_monomial,
    eliminate,
    fresh_names,
    ideal_membership,
    krull_dimension,
    radical_membership,
)
from .localalg import base_weights, initial_ideal, intersection_number
from .naming import next_single
from .parametric import Verdict, parametric_test
from .polyring import (
    INF,
    DegRevLex,
    Poly,
    RingCtx,
    embed,
    in_w,
    normal_form,
    ord_w,
    project,
    wdot,
)
from .semigroups import gcd_weights, membership, prim_generators

_PERTURB_BUMPS = 8


def _to_ctx(f: Poly, big: RingCtx) -> Poly:
    """Carry a polynomial into a larger ring, lifting the coefficient
    field first when the target is an extension."""
    if f.ctx.field != big.field:
        small = RingCtx(big.field, f.ctx.variables)
        f = Poly({m: big.field.embed(c) for m, c in f.terms.items()}, small)
    if f.ctx is big or f.ctx.variables == big.variables:
        return Poly(dict(f.terms), big)
    return embed(f, big)


def _initial_handle(handle: IdealHandle, w: Sequence[int]) -> IdealHandle:
    return IdealHandle(initial_ideal(handle, w), handle.ctx)


# ------------------------------------------------------------ certificates

@dataclass(frozen=True)
class Certificate:
    """Replayable evidence for a verdict: the (possibly extended) ideal,
    the kind of witness, its data, and the adjunction transcript."""

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
    g = 0
    for e in ray:
        g = gcd(g, e)
    return tuple(e // g for e in ray)


def _proportional(w1: Sequence[int], w2: Sequence[int]) -> bool:
    return all(w1[i] * w2[j] == w1[j] * w2[i]
               for i in range(len(w1)) for j in range(i + 1, len(w1)))


def _ray_is_tropism(handle: IdealHandle, ray: Sequence[int]) -> bool:
    if any(not isinstance(e, int) or e <= 0 for e in ray):
        return False
    return contains_monomial(_initial_handle(handle, ray)) is None


def verify_certificate(cert: Certificate) -> Tuple[bool, str]:
    """Recheck a certificate from its recorded data alone; returns
    (ok, reason) and never raises for a merely invalid certificate."""
    handle = cert.ideal
    ctx = handle.ctx
    if cert.kind == "prime_tropism":
        w = tuple(cert.data)
        if len(w) != ctx.nvars:
            return False, "weight data does not match the ring variables"
        bw = base_weights(handle)
        if bw != w:
            return False, "recomputed base weights differ from the certified tropism"
        if gcd_weights(w) != 1:
            return False, "certified tropism is not primitive"
        if contains_monomial(_initial_handle(handle, w)) is not None:
            return False, "initial ideal at the certified tropism contains a monomial"
    elif cert.kind == "monomial_witness":
        wit = cert.data
        if not isinstance(wit, Poly) or wit.is_zero():
            return False, "witness is not a nonzero polynomial"
        w = base_weights(handle)
        if any(e is INF for e in w):
            return False, "base weights are not all finite"
        form = in_w(wit, w)
        if len(form.terms) != 1 or not any(next(iter(form.terms))):
            return False, "witness initial form is not a single monomial"
        if not ideal_membership(form, _initial_handle(handle, w)):
            return False, "witness initial form does not lie in the initial ideal"
    elif cert.kind == "two_tropisms":
        rays = tuple(tuple(r) for r in cert.data)
        if len(rays) != 2:
            return False, "certificate does not carry exactly two rays"
        for ray in rays:
            if len(ray) != ctx.nvars or any(
                    not isinstance(e, int) or e <= 0 for e in ray):
                return False, "ray entries must be positive integers"
        if _proportional(rays[0], rays[1]):
            return False, "rays are proportional"
        for k, ray in enumerate(rays):
            if _primitive(ray) != ray:
                return False, f"ray {k + 1} is not primitive"
        for k, ray in enumerate(rays):
            if contains_monomial(_initial_handle(handle, ray)) is not None:
                return False, f"initial ideal at ray {k + 1} contains a monomial"
    else:
        return False, f"unknown certificate kind: {cert.kind}"
    names = tuple(name for name, _ in cert.transcript)
    if tuple(cert.base_vars) + names != ctx.variables:
        return False, "transcript does not span the certificate ring"
    base = len(cert.base_vars)
    for k, (name, fdef) in enumerate(cert.transcript):
        if fdef.ctx.variables != ctx.variables:
            return False, "adjoined definition lives in a foreign ring"
        if any(i >= base + k for i in fdef.variables_used()):
            return False, "adjoined definition uses later variables"
        if not ideal_membership(ctx.var(name) - fdef, handle):
            return False, "adjoined relation is not a member of the certified ideal"
    return True, "ok"


def _certified(verdict: str, cert: Certificate, stats: dict) -> DecisionReport:
    ok, reason = verify_certificate(cert)
    if not ok:
        raise CertificateSearchFailed(
            f"internal: produced certificate failed verification: {reason}")
    return DecisionReport(verdict, cert, stats)


# ------------------------------------------------------------ preconditions

def assert_preconditions(ideal) -> IdealHandle:
    """Check dimension, drop variables lying in the ideal (shrinking the
    ring), and require all-finite base weights.  Radicality is an input
    contract and is not checked here."""
    handle = _as_handle(ideal)
    dim = krull_dimension(handle)
    if dim != 1:
        raise WrongDimension(f"expected a curve, got dimension {dim}")
    ctx = handle.ctx
    members = [i for i in range(ctx.nvars)
               if ideal_membership(ctx.var(i), handle)]
    if members:
        keep = [i for i in range(ctx.nvars) if i not in members]
        small = RingCtx(ctx.field, tuple(ctx.variables[i] for i in keep))
        zeroed = {i: 0 for i in members}
        gens = []
        for g in handle.generators:
            img = project(g.subs(zeroed), small, keep)
            if not img.is_zero():
                gens.append(img)
        handle = IdealHandle(gens, small)
    w = base_weights(handle)
    if any(e is INF for e in w):
        bad = handle.ctx.variables[[e is INF for e in w].index(True)]
        raise InfiniteWeight(
            f"intersection number of {bad} is infinite; the input is not "
            "an unmixed curve germ through the origin")
    return handle


# -------------------------------------------------------------- the engine

def _call_test(f: Poly, g: Poly, handle: IdealHandle, *, prime_mode: bool,
               trunc_cap: Optional[int], stats: dict) -> Verdict:
    stats["parametric_calls"] += 1
    try:
        v = parametric_test(f, g, handle, trunc_cap=trunc_cap)
    except ContextViolation as exc:
        if prime_mode:
            raise NotPrime(
                f"a degenerate direction vanished on the curve: {exc}") from exc
        raise NonRadicalSuspected(
            "a degenerate direction vanished on the curve; this cannot "
            "happen for a radical input") from exc
    stats["truncation_high_water"] = max(stats["truncation_high_water"],
                                         v.truncation)
    return v


def _nf_ratio_resolves(m1: tuple, m2: tuple, in_gb: List[Poly],
                       ctx: RingCtx) -> bool:
    """Whether some scalar multiple x^a - lambda x^b already lies in the
    weighted initial ideal (then the pencil test carries no information)."""
    order = DegRevLex()
    q1 = normal_form(ctx.mono(m1), in_gb, order)
    q2 = normal_form(ctx.mono(m2), in_gb, order)
    assert not q1.is_zero() and not q2.is_zero(), \
        "a monomial inside the initial ideal survives the monomial check"
    if set(q1.terms) != set(q2.terms):
        return False
    field = ctx.field
    ratio = None
    for m, c1 in q1.terms.items():
        c2 = q2.terms[m]
        r = field.div(c1, c2)
        if ratio is None:
            ratio = r
        elif not field.eq(ratio, r):
            return False
    return True


def _screen_round(handle: IdealHandle, w: tuple, *, prime_mode: bool,
                  trunc_cap: Optional[int], stats: dict):
    """Run the pencil test over the binomial generators of the weight
    semigroup's relation ideal.  Returns ("false", verdict, f, g) on
    reducibility evidence, ("candidate", f, N) with the lowest-degree
    resolved binomial escaping the initial ideal, or ("radical",) when
    every binomial resolves inside it."""
    ctx = handle.ctx
    in_handle = _initial_handle(handle, w)
    in_gb = in_handle.groebner(DegRevLex())
    binomials = prim_generators(w, ctx)
    binomials.sort(key=lambda b: (ord_w(b, w), b.key()))
    escapes = []
    for b in binomials:
        items = sorted(b.terms.items(), reverse=True)
        (m1, _), (m2, _) = items
        if _nf_ratio_resolves(m1, m2, in_gb, ctx):
            continue
        f = ctx.mono(m1)
        g = ctx.mono(m2)
        v = _call_test(f, g, handle, prime_mode=prime_mode,
                       trunc_cap=trunc_cap, stats=stats)
        if v.result == "false":
            return ("false", v, f, g)
        cand = f - g.scale(v.beta.value)
        escapes.append((wdot(w, m1), cand.key(), cand, v.value))
    if not escapes:
        return ("radical",)
    escapes.sort(key=lambda t: (t[0], t[1]))
    _, _, f, value = escapes[0]
    if not radical_membership(f, in_handle):
        err = NotPrime if prime_mode else NonRadicalSuspected
        raise err("the resolved binomial does not vanish on the initial "
                  "ideal's zero set; the input contract is violated")
    if ideal_membership(f, in_handle):
        err = NotPrime if prime_mode else NonRadicalSuspected
        raise err("the resolved binomial lies in the initial ideal despite "
                  "the normal-form screen; the input contract is violated")
    return ("candidate", f, value)


def _descend(handle: IdealHandle, w: tuple, f: Poly, value: int, *,
             prime_mode: bool, iter_cap: int, trunc_cap: Optional[int],
             stats: dict):
    """Lower f by monomials of matching weight until its intersection
    value escapes the semigroup of w.  Returns ("done", f, N) or
    ("false", verdict, f, g)."""
    ctx = handle.ctx
    steps = 0
    while True:
        wit = membership(value, w)
        if wit is None:
            return ("done", f, value)
        steps += 1
        stats["descent_steps"] += 1
        if steps > iter_cap:
            if prime_mode:
                raise NotPrime(
                    f"descent exceeded {iter_cap} steps; non-termination "
                    "indicates the input is not prime")
            raise NonRadicalSuspected(
                f"descent exceeded {iter_cap} steps; on radical inputs the "
                "loop terminates, so the input is likely not radical")
        g = ctx.mono(wit)
        v = _call_test(f, g, handle, prime_mode=prime_mode,
                       trunc_cap=trunc_cap, stats=stats)
        if v.result == "false":
            return ("false", v, f, g)
        f = f - g.scale(v.beta.value)
        value = v.value


def _adjoin(handle: IdealHandle, f: Poly) -> Tuple[IdealHandle, str]:
    ctx = handle.ctx
    name = next_single(ctx.variables)
    big = ctx.extend((name,))
    gens = [embed(g, big) for g in handle.generators]
    gens.append(big.var(name) - embed(f, big))
    return IdealHandle(gens, big), name


def _monomial_witness(handle: IdealHandle, w: tuple) -> Optional[Poly]:
    """A monic monomial inside the weighted initial ideal, preferring one
    that appears as the initial form of a generator; None if the initial
    ideal is monomial-free."""
    in_handle = _initial_handle(handle, w)
    found = contains_monomial(in_handle)
    if found is None:
        return None
    ctx = handle.ctx
    for g in handle.generators:
        if g.is_zero():
            continue
        form = in_w(g, w)
        if len(form.terms) == 1:
            m = next(iter(form.terms))
            if any(m):
                return ctx.mono(m)
    for g in in_handle.generators:
        if len(g.terms) == 1:
            m = next(iter(g.terms))
            if any(m):
                return ctx.mono(m)
    return ctx.mono(found)


# --------------------------------------------------------------- ray search

def _balanced(lo: int, hi: int, nf: int, lam: int,
              lam_total: int) -> List[int]:
    """lo..hi nearest the centre nf * lam / lam_total first, the smaller
    of two equally near first; compared exactly, in integers."""
    return sorted(range(lo, hi + 1),
                  key=lambda u: (abs(u * lam_total - nf * lam), u))


def _recovered_attachments(verdict: Verdict) -> List[Tuple[str, Poly]]:
    """The adjoined names with their defining polynomials, read back from
    the trailing generators of the verdict's extended ideal."""
    J = verdict.ideal
    names = verdict.adjoined
    out = []
    tail = J.generators[-len(names):]
    for name, gen in zip(names, tail):
        out.append((name, J.ctx.var(name) - gen))
    return out


def _first_tropism_pair(J: IdealHandle, pool) -> Optional[tuple]:
    hits: List[tuple] = []
    seen = set()
    for cand in pool:
        if any(e <= 0 for e in cand):
            continue
        ray = _primitive(cand)
        if ray in seen:
            continue
        seen.add(ray)
        if _ray_is_tropism(J, ray):
            hits.append(ray)
            if len(hits) == 2:
                return tuple(sorted(hits))
    return None


def _rays_for_false(handle: IdealHandle, w: tuple, verdict: Verdict,
                    f: Poly, g: Poly):
    """Construct and verify two weight rays with monomial-free initial
    ideals witnessing the pencil verdict.  Returns (J, rays, extra)
    where extra lists adjunctions to append to the transcript."""
    lam_total = gcd_weights(w)
    wb = tuple(e // lam_total for e in w)
    J = verdict.ideal
    extra = _recovered_attachments(verdict)
    pool: List[tuple] = []
    if verdict.case == 1:
        nf = intersection_number(f, handle)
        dbar = ord_w(f, w) // lam_total
        c = next(iter(g.terms))
        vbar = wdot(wb, c)
        for lam in range(1, lam_total):
            lam2 = lam_total - lam
            v1, v2 = lam * vbar, lam2 * vbar
            lo, hi = lam * dbar, nf - lam2 * dbar
            for u in _balanced(lo, hi, nf, lam, lam_total):
                u2 = nf - u
                if (u - v1) * (u2 - v2) < 0:
                    pool.append(tuple(lam * e for e in wb) + (u, v1))
                    pool.append(tuple(lam2 * e for e in wb) + (u2, v2))
    elif verdict.case == 2:
        nf = intersection_number(f, handle)
        dbar = ord_w(f, w) // lam_total
        ctxJ = J.ctx
        jumps = [intersection_number(ctxJ.var(n), J) - nf
                 for n in verdict.adjoined]
        assert all(isinstance(d, int) and d >= 1 for d in jumps), \
            "a two-parameter verdict must raise both attached values"
        d1, d2 = jumps
        for lam in range(1, lam_total):
            lam2 = lam_total - lam
            lo, hi = lam * dbar, nf - lam2 * dbar
            for u in _balanced(lo, hi, nf, lam, lam_total):
                base = tuple(lam * e for e in wb)
                for d in range(d1, 0, -1):
                    pool.append(base + (u + d, u))
                for d in range(d2, 0, -1):
                    pool.append(base + (u, u + d))
    else:
        hb = project(extra[0][1], handle.ctx, range(handle.ctx.nvars))
        out = _saturate(handle, hb)
        n_h = intersection_number(hb, out)
        pool.append(tuple(base_weights(out)) + (n_h,))
        for lam in range(1, lam_total):
            base = tuple(lam * e for e in wb)
            for H in range(1, n_h + 1):
                pool.append(base + (H,))
    pair = _first_tropism_pair(J, pool)
    if pair is not None:
        return J, pair, extra
    if verdict.case == 3:
        return _rays_bent_attachment(handle, hb, out, n_h, wb, lam_total)
    raise CertificateSearchFailed(
        "no pair of weight rays with monomial-free initial ideals was "
        "found in the search window")


def _saturate(handle: IdealHandle, h: Poly) -> IdealHandle:
    """The components of the ideal on which h does not vanish, computed
    by inverting h with a leading helper variable and eliminating it."""
    ctx = handle.ctx
    name = fresh_names(ctx.variables, "sat_t")[0]
    big = RingCtx(ctx.field, (name,) + ctx.variables)

    def up(p: Poly) -> Poly:
        return Poly({(0,) + m: c for m, c in p.terms.items()}, big)

    gens = [up(g) for g in handle.generators]
    gens.append(big.one() - big.var(0) * up(h))
    kept = eliminate(IdealHandle(gens, big), 1)
    return IdealHandle([project(g, ctx, range(1, big.nvars)) for g in kept],
                       ctx)


def _rays_bent_attachment(handle: IdealHandle, hb: Poly, out: IdealHandle,
                          n_h: int, wb: tuple, lam_total: int):
    """The attachment vanishes on some components, so its ideal is one
    finite ray short of a pair.  Adding a single high monomial leaves the
    other components' orders alone while giving the vanishing ones the
    exactly known order M * wb_i, restoring a verifiable second ray."""
    ctx = handle.ctx
    i = min(range(len(wb)), key=lambda k: wb[k])
    exact = _primitive(tuple(base_weights(out)) + (n_h,))
    M = n_h + 1
    for _ in range(_PERTURB_BUMPS):
        if not _proportional(exact, wb + (M * wb[i],)):
            break
        M += 1
    bent = hb + ctx.mono(tuple(M if k == i else 0 for k in range(ctx.nvars)))
    J2, name = _adjoin(handle, bent)
    pool: List[tuple] = [exact, wb + (M * wb[i],)]
    for lam in range(1, lam_total):
        base = tuple(lam * e for e in wb)
        for H in range(1, n_h + 1):
            pool.append(base + (H,))
    pair = _first_tropism_pair(J2, pool)
    if pair is not None:
        return J2, pair, [(name, J2.ctx.var(name) - J2.generators[-1])]
    raise CertificateSearchFailed(
        "no monomial bend of the vanishing attachment exposed two weight "
        "rays in the search window")


# ----------------------------------------------------------- entry points

def _final_transcript(entries: List[Tuple[str, Poly]],
                      ctx: RingCtx) -> tuple:
    return tuple((name, _to_ctx(p, ctx)) for name, p in entries)


def _fresh_stats(w: tuple) -> dict:
    return {
        "outer_iterations": 0,
        "descent_steps": 0,
        "parametric_calls": 0,
        "truncation_high_water": 0,
        "final_weights": tuple(w),
        "weight_history": [tuple(w)],
    }


def decide_irreducible(ideal, iter_cap: int = 256,
                       trunc_cap: Optional[int] = None) -> DecisionReport:
    """Decide whether the curve ideal is prime, returning a report whose
    certificate has already passed verification.  The input must be
    radical, unmixed of dimension one, with finite base weights (run
    assert_preconditions first)."""
    handle = _as_handle(ideal)
    base_vars = handle.ctx.variables
    w = base_weights(handle)
    if any(e is INF for e in w):
        raise InfiniteWeight(
            "base weights are not all finite; run assert_preconditions")
    transcript: List[Tuple[str, Poly]] = []
    stats = _fresh_stats(w)

    def reducible_monomial(wit: Poly) -> DecisionReport:
        cert = Certificate("monomial_witness", handle, wit, base_vars,
                           _final_transcript(transcript, handle.ctx))
        stats["final_weights"] = tuple(w)
        return _certified("reducible", cert, stats)

    def reducible_rays(verdict: Verdict, f: Poly, g: Poly) -> DecisionReport:
        J, rays, extra = _rays_for_false(handle, w, verdict, f, g)
        cert = Certificate("two_tropisms", J, rays, base_vars,
                           _final_transcript(transcript + extra, J.ctx))
        stats["final_weights"] = tuple(w)
        return _certified("reducible", cert, stats)

    wit = _monomial_witness(handle, w)
    if wit is not None:
        return reducible_monomial(wit)
    while gcd_weights(w) != 1:
        stats["outer_iterations"] += 1
        if stats["outer_iterations"] > iter_cap:
            raise NonRadicalSuspected(
                f"the outer loop exceeded {iter_cap} rounds without the "
                "weights becoming primitive")
        outcome = _screen_round(handle, w, prime_mode=False,
                                trunc_cap=trunc_cap, stats=stats)
        if outcome[0] == "false":
            _, verdict, f, g = outcome
            return reducible_rays(verdict, f, g)
        if outcome[0] == "radical":
            raise NonRadicalSuspected(
                "every binomial relation resolved inside the initial ideal "
                "while the weights share a factor; radical unmixed inputs "
                "cannot do this")
        _, f, value = outcome
        outcome = _descend(handle, w, f, value, prime_mode=False,
                           iter_cap=iter_cap, trunc_cap=trunc_cap,
                           stats=stats)
        if outcome[0] == "false":
            _, verdict, f, g = outcome
            return reducible_rays(verdict, f, g)
        _, f, value = outcome
        handle, name = _adjoin(handle, f)
        transcript.append((name, f))
        w = w + (value,)
        stats["weight_history"].append(tuple(w))
        wit = _monomial_witness(handle, w)
        if wit is not None:
            return reducible_monomial(wit)
    stats["final_weights"] = tuple(w)
    cert = Certificate("prime_tropism", handle, tuple(w), base_vars,
                       _final_transcript(transcript, handle.ctx))
    return _certified("irreducible", cert, stats)


def value_semigroup(ideal, iter_cap: int = 256,
                    trunc_cap: Optional[int] = None
                    ) -> Tuple[IdealHandle, tuple]:
    """For a prime curve ideal, return an isomorphic presentation whose
    weight vector generates the value semigroup.  A non-prime input
    surfaces as NotPrime."""
    handle = _as_handle(ideal)
    w = base_weights(handle)
    if any(e is INF for e in w):
        raise InfiniteWeight(
            "base weights are not all finite; run assert_preconditions")
    stats = _fresh_stats(w)
    rounds = 0
    while True:
        if _monomial_witness(handle, w) is not None:
            raise NotPrime("the weighted initial ideal contains a monomial")
        rounds += 1
        if rounds > iter_cap:
            raise NotPrime(
                f"the outer loop exceeded {iter_cap} rounds; the value "
                "semigroup of a prime ideal is reached in finitely many")
        outcome = _screen_round(handle, w, prime_mode=True,
                                trunc_cap=trunc_cap, stats=stats)
        if outcome[0] == "radical":
            return handle, w
        if outcome[0] == "false":
            raise NotPrime(
                f"the pencil test returned false (case {outcome[1].case})")
        _, f, value = outcome
        outcome = _descend(handle, w, f, value, prime_mode=True,
                           iter_cap=iter_cap, trunc_cap=trunc_cap,
                           stats=stats)
        if outcome[0] == "false":
            raise NotPrime(
                f"the pencil test returned false (case {outcome[1].case})")
        _, f, value = outcome
        handle, _ = _adjoin(handle, f)
        w = w + (value,)
