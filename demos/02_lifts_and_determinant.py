"""Chart lifts of the Frobenius, their differences, and the phi determinant.

A lift on k[x1..xn] sends x_i to x_i^p + p*f_i.  Dividing its
differential by p gives a matrix Diag(x_i^(p-1)) + (df_i/dx_j) whose
determinant always has coefficient 1 at x1^(p-1)...xn^(p-1); in
particular it is nonzero, no matter the corrections.  That single
coefficient is what rules out lifts on most surfaces.
"""

import random

from w2frob import (
    GF,
    AffineChartLift,
    apply_lift,
    eta_axioms_check,
    eta_between,
    monomial_lemma_check,
    phi_det,
    phi_matrix,
    poly_from_str,
    poly_to_str,
    standard_lift,
    top_monomial,
)
from w2frob.randgen import random_chart_lift

F2 = GF(2)

print("=== a lift and its action ===")
L = AffineChartLift(F2, 1, (False,), (poly_from_str(F2, 1, "x^3"),))
ring = L.lift_ring
print(f"  F(x)   = {poly_to_str(L.image_of_var(0))}")
x2 = poly_from_str(ring, 1, "x^2")
print(f"  F(x^2) = {poly_to_str(apply_lift(L, x2))}   (the cross terms die: p^2 = 0)")

print()
print("=== the difference of two lifts is p times an eta ===")
L0 = standard_lift(F2, 1)
eta = eta_between(L0, L)
print(f"  eta(x) = {poly_to_str(eta.values[0])}")
a = poly_from_str(F2, 1, "x+1")
b = poly_from_str(F2, 1, "x^2+x")
res = eta_axioms_check(eta, a, b)
print(f"  additivity and twisted Leibniz on (x+1, x^2+x): {'pass' if res.ok else res.failures}")

print()
print("=== phi matrix and determinant ===")
swap = AffineChartLift(F2, 2, (False, False),
                       (poly_from_str(F2, 2, "x2"), poly_from_str(F2, 2, "x1")))
M = phi_matrix(swap)
for i in range(2):
    print("  [" + ", ".join(poly_to_str(M[i, j]) for j in range(2)) + "]")
det = phi_det(swap)
print(f"  det = {poly_to_str(det)}, coefficient at x1*x2 = {det.coefficient_of((1, 1))}")

print()
print("=== the coefficient is 1 for random lifts ===")
rng = random.Random(7)
for p in (2, 3, 5):
    field = GF(p)
    for n in (1, 2, 3):
        for _ in range(50):
            lift = random_chart_lift(rng, field, n)
            d = phi_det(lift)
            assert d.coefficient_of(top_monomial(lift)) == field.one and not d.is_zero()
    print(f"  p={p}: 150 random lifts, top coefficient always 1, determinant never 0")

print()
print("=== why: the column-sum lemma on monomial corrections ===")
K = [[2, 1], [1, 2]]
res = monomial_lemma_check(K, 3)
print(f"  K = {K}, p = 3: expanded det = {res.details['expanded']}, "
      f"det(K) mod p = {res.details['det_block_mod_p']}  -> {'pass' if res.ok else 'fail'}")
