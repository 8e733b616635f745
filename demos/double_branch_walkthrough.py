"""Walk through the reducibility proof for the plane curve

    (y^2 - x^3)^2 = x^7

over Q.  The curve looks like a single unibranch germ from its Newton
polygon, so the decision loop has to dig: it adjoins new coordinates
for escaping relations until it can exhibit two genuinely different
weight rays whose initial ideals are monomial free.  Each ray can only
come from a branch, so two rays mean two branches.

Run with: python3 demos/double_branch_walkthrough.py
"""

from dataclasses import replace

from algebroid import (
    IdealHandle,
    RingCtx,
    QQ,
    decide_irreducible,
    parametric_intersection,
    parse_poly,
    verify_certificate,
)


def main():
    ctx = RingCtx(QQ, ("x", "y"))
    curve = IdealHandle((parse_poly("(y^2 - x^3)^2 - x^7", ctx),), ctx)

    print("input ideal:", curve.generators[0])
    report = decide_irreducible(curve)
    print("verdict:", report.verdict)
    print("certificate kind:", report.certificate.kind)
    for ray in report.certificate.data:
        print("  ray:", ray)
    for name, rel in report.certificate.transcript:
        print(f"  adjoined {name} =", rel)

    # The two rays came out of a pencil computation: intersect the
    # curve with x^3 - y^2 + a*x^2*y for a generic parameter a, and
    # watch which special values of a jump the intersection number.
    pencil = parametric_intersection(parse_poly("x^3 - y^2", ctx),
                                     parse_poly("x^2*y", ctx), curve)
    print("generic pencil value:", pencil.generic_value)
    for ev in pencil.exceptional:
        print(f"  a = {ev.beta}: value jumps to {ev.value}")
    for k in (14, 15):
        ascending = [str(c) for c in pencil.coefficient(k)]
        print(f"determinant coefficients at order {k}:", ascending)

    # Certificates are re-checkable; tampering is caught.
    ok, reason = verify_certificate(report.certificate)
    print("verification:", ok, f"({reason})")
    crooked = replace(report.certificate,
                      data=(tuple(3 * e for e in report.certificate.data[0]),
                            report.certificate.data[1]))
    ok, reason = verify_certificate(crooked)
    print("after scaling one ray:", ok, f"({reason})")


if __name__ == "__main__":
    main()
