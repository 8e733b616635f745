"""Both pencil attachments of a two-parameter verdict, for tests.

A case-1 or case-2 verdict of ``parametric_test`` returns one attachment
h1, the one its certificate adjoins, in its ring: the handle the test ran
on, or that handle lifted to the verdict's extension field.  Facts about
both attachments are checked in I + (v1 - h1, v2 - h2), built here with
``decide._extend_with`` from the verdict's ring and attachment, the
handle the test ran on, its f and g: h2 = g in case 1 and f - beta_2*g in
case 2.  beta_2 is derived here: another base-field root of the pencil
when beta_1 is one, else the other root -m1 - theta of the quadratic
class a^2 + m1*a + m0 of theta = beta_1.  v1 takes the name that the
decide gives the verdict's attachment, so the ring less its last
variable is the certificate's.
"""

from algebroid.decide import _extend_with
from algebroid.parametric import parametric_intersection
from algebroid.polyring import embed


def second_parameter(handle, f, g, verdict):
    """beta_2 of a case-2 verdict, as a field payload of the verdict's
    field."""
    beta = verdict.beta
    if verdict.ideal is handle:
        return next(ev.beta
                    for ev in parametric_intersection(f, g, handle).exceptional
                    if ev.beta is not None and ev.beta != beta)
    field = verdict.ideal.ctx.field
    _, m1 = field.extension
    return field.neg(field.add(field.embed(m1), beta))


def two_attachment_ideal(handle, f, g, verdict):
    J = verdict.ideal
    beta2 = (None if verdict.case == 1
             else second_parameter(handle, f, g, verdict))
    f, g = embed(f, J.ctx), embed(g, J.ctx)
    for h in (verdict.attachment, g if beta2 is None else f - g.scale(beta2)):
        J, _ = _extend_with(J, h)
    return J
