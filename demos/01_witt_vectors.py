"""Length-2 Witt vectors, their integer model, and division by p.

W2(F_p) stores a number as a pair (a0, a1) of residues mod p; the pair
corresponds to the integer a0^p + p*a1 in Z/p^2, and W2(F_p) is Z/p^2.
Addition must track a carry, exactly like school addition with a funny
digit rule.
"""

from w2frob import (
    W2,
    divide_by_p,
    poly_from_str,
    poly_to_str,
    reduce_mod_p,
    witt_to_str,
)

print("=== W2(F_5): arithmetic and the Z/25 dictionary ===")
ring = W2(5)
u = ring.pair(2, 3)
v = ring.pair(4, 1)
for label, w in [("u", u), ("v", v), ("u+v", u + v), ("u*v", u * v)]:
    print(f"  {label:4} = {witt_to_str(w):14} <-> {w.n:2} in Z/25")

n = u.n
m = v.n
print(f"  check: {n}+{m} = {(n + m) % 25}, {n}*{m} = {(n * m) % 25} in Z/25")

print()
print("=== the carry in (1,0) + (1,0) over W2(F_2) ===")
r2 = W2(2)
one = r2.pair(1, 0)
print(f"  (1,0) + (1,0) = {witt_to_str(one + one)}   (that is 1 + 1 = 2 = 0*1 + 2*1)")

print()
print("=== division by p on polynomials over W2(F_2) = Z/4: 3 = (1,1), 2 = (0,1) ===")
z4 = W2(2)
f = poly_from_str(z4, 1, "2*x^3+2*x+2")
print(f"  f          = {poly_to_str(f)}   over W2(F_2)")
print(f"  f / 2      = {poly_to_str(divide_by_p(f))}   over F_2")
g = poly_from_str(z4, 1, "3*x^2+2")
print(f"  g          = {poly_to_str(g)}")
print(f"  g mod 2    = {poly_to_str(reduce_mod_p(g))}")

print()
print("=== multiplication by p then division by p is reduction mod p ===")
w = W2(3)
h = poly_from_str(w, 1, "(2,1)*x^2+(0,2)")
ph = h * w.p_elem
print(f"  h          = {poly_to_str(h)}   over W2(F_3)")
print(f"  p*h        = {poly_to_str(ph)}")
print(f"  (p*h)/p    = {poly_to_str(divide_by_p(ph))}")
print(f"  h mod p    = {poly_to_str(reduce_mod_p(h))}")
