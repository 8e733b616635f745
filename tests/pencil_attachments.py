"""Both pencil attachments of a two-parameter verdict, for tests.

A case-1 or case-2 verdict of ``parametric_test`` carries one attachment,
I + (v1 - h1), the one its certificate keeps.  Facts about both
attachments are checked in I + (v1 - h1, v2 - h2), built here from the
handle the test ran on, its f and g, and the verdict: h1, h2 = f, g in
case 1 and f - beta_k*g in case 2.  beta_1 is the verdict's beta, and
beta_2 is derived here: another base-field root of the pencil when beta_1
is one, else the other root -m1 - theta of the quadratic class
a^2 + m1*a + m0 of theta = beta_1, with everything lifted to the
verdict's extension field.  v1 keeps the verdict's name, so the ring
less its last variable is the verdict's.
"""

from algebroid.groebner import IdealHandle
from algebroid.naming import next_single
from algebroid.parametric import _lift, parametric_intersection
from algebroid.polyring import embed


def second_parameter(handle, f, g, verdict):
    """beta_2 of a case-2 verdict, as a field payload of the verdict's
    field."""
    beta = verdict.beta.value
    if verdict.minimal_poly is None:
        return next(ev.beta.value
                    for ev in parametric_intersection(f, g, handle).exceptional
                    if ev.beta is not None and ev.beta.value != beta)
    field = verdict.ideal.ctx.field
    _, m1, _ = verdict.minimal_poly
    return field.neg(field.add(field.embed(m1), beta))


def two_attachment_ideal(handle, f, g, verdict):
    if verdict.case == 1:
        attachments = (f, g)
    else:
        beta2 = second_parameter(handle, f, g, verdict)
        if verdict.minimal_poly is not None:
            handle, f, g = _lift(handle, verdict.minimal_poly, f, g)
        attachments = tuple(f - g.scale(b)
                            for b in (verdict.beta.value, beta2))
    names = (verdict.adjoined[0],)
    names += (next_single(handle.ctx.variables + names),)
    big = handle.ctx.extend(names)
    gens = [embed(p, big) for p in handle.generators]
    gens += [big.var(v) - embed(h, big) for v, h in zip(names, attachments)]
    return IdealHandle(gens, big)
