"""Both pencil attachments of a two-parameter verdict, for tests.

A case-1 or case-2 verdict of ``parametric_test`` carries one attachment,
I + (v1 - h1), the one its certificate keeps.  Facts about both
attachments are checked in I + (v1 - h1, v2 - h2), built here from the
handle the test ran on, its f and g, and the verdict's betas:
h1, h2 = f, g in case 1 and f - beta_k*g in case 2, lifted to the
verdict's extension field when its betas are conjugate.  v1 keeps the
verdict's name, so the ring less its last variable is the verdict's.
"""

from algebroid.groebner import IdealHandle
from algebroid.naming import next_single
from algebroid.parametric import _lift
from algebroid.polyring import embed


def two_attachment_ideal(handle, f, g, verdict):
    if verdict.minimal_poly is not None:
        handle, f, g = _lift(handle, verdict.minimal_poly, f, g)
    if verdict.case == 1:
        attachments = (f, g)
    else:
        attachments = tuple(f - g.scale(b.value) for b in verdict.betas)
    names = (verdict.adjoined[0],)
    names += (next_single(handle.ctx.variables + names),)
    big = handle.ctx.extend(names)
    gens = [embed(p, big) for p in handle.generators]
    gens += [big.var(v) - embed(h, big) for v, h in zip(names, attachments)]
    return IdealHandle(gens, big)
