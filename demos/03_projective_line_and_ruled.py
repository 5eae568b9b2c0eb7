"""The degree-2p criterion on the projective line, and ruled-surface gluing.

On P^1 with charts x and y = 1/x, a correction f of F(x) = x^p + p*f
extends to the other chart exactly when deg f <= 2p, because
F(y) = 1/F(x) = y^p - p*y^(2p)*f(1/y).  Counting the surviving monomial
degrees 0..2p recovers the dimension 2p+1 of the space of lifts.

On a ruled surface, fixing a base lift and sending x to x^p forces the
whole four-chart lift; the resulting V-side correction h always has
fiber degree <= p, and the charts glue exactly.
"""

from w2frob import (
    GF,
    DegreeTooHigh,
    Poly,
    TransitionData,
    base_glue_consistency,
    build_standard_lift,
    extend_chart,
    extract_base_lift,
    hirzebruch_transition,
    poly_to_str,
    verify_gluing,
)

print("=== which monomial corrections extend across the two charts? ===")
for p in (2, 3):
    field = GF(p)
    fates = []
    for d in range(3 * p + 1):
        try:
            extend_chart(Poly.monomial(field, 1, (d,)))
            fates.append(f"x^{d}: ok")
        except DegreeTooHigh:
            fates.append(f"x^{d}: no")
    print(f"  p={p}: " + "  ".join(fates))
    dimension = sum(fate.endswith("ok") for fate in fates)
    print(f"       dimension of the lift space: {dimension} (= 2p+1)")

print()
print("=== a flipped correction, explicitly ===")
F2 = GF(2)
f = Poly.monomial(F2, 1, (4,))
g = extend_chart(f)
print(f"  p=2, f = x^4: F(y) = y^2 + 2*({poly_to_str(g)}), and flipping back gives "
      f"{poly_to_str(extend_chart(g))}")

print()
print("=== ruled surfaces: Hirzebruch and shear transitions ===")
for p in (2, 3):
    field = GF(p)
    u = Poly.variable(field, 1, 0)
    cases = [
        ("P(O+O(2)) over P^1", hirzebruch_transition(field, 2)),
        ("x = y + u over A^1", TransitionData("A1", Poly.constant(field, 1, 1), u)),
        ("x = u*y + u + 1/u over G_m",
         TransitionData("Gm", u, u + Poly.monomial(field, 1, (-1,)))),
    ]
    for label, T in cases:
        lift = build_standard_lift(T)
        glue = verify_gluing(lift)
        cons = base_glue_consistency(lift)
        ext = extract_base_lift(lift.charts["UX"])
        print(f"  p={p}, {label}:")
        print(f"      h = {poly_to_str(lift.h)}  (deg_y <= {p})")
        print(f"      gluing: {'pass' if glue.ok else glue.failures}; "
              f"checked {len(glue.details['checked'])} overlaps, "
              f"implied {len(glue.details['implied'])}")
        print(f"      base consistency: {'pass' if cons.ok else cons.failures}; "
              f"eta(u) = {cons.details['eta_u']}; tails: {len(ext.tails)}")
