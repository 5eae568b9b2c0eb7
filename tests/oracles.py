"""Independent brute-force models used as test oracles.

Everything here works with plain ints and dicts on purpose: these
implementations must not share any code path with the package.  The one
exception is ``eta_through_two_lifts``, the reference route an eta-function
had before its divided difference was fused: it composes public package
functions, each checked by its own tests, to pin the fused path to them.
"""

from itertools import permutations, product
from math import comb


def naive_poly_mul(f: dict, g: dict, p: int) -> dict:
    """Dict-convolution product of {exponent tuple: int} polynomials mod p."""
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            out[mono] = (out.get(mono, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


def naive_poly_mul_fq(f: dict, g: dict, F) -> dict:
    """Dict-convolution product of dict-polynomials over a model F: FqModel, WittModel, ..."""
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            out[mono] = F.add(out.get(mono, F.zero), F.mul(c1, c2))
    return {m: c for m, c in out.items() if c != F.zero}


def naive_poly_add(f: dict, g: dict, p: int) -> dict:
    out = dict(f)
    for m, c in g.items():
        out[m] = (out.get(m, 0) + c) % p
    return {m: c for m, c in out.items() if c}


def naive_det_by_permutations(rows: list, ring) -> dict:
    """Determinant of a matrix of dict-polynomials via the Leibniz sum.

    ``ring`` is a modulus p, for int coefficients mod p, or a coefficient
    model with add, neg, mul, zero and one: FqModel or WittModel.
    """
    R = IntModModel(ring) if isinstance(ring, int) else ring
    n = len(rows)
    total: dict = {}
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = {(0,) * _width(rows): R.one}
        for i in range(n):
            prod = naive_poly_mul_fq(prod, rows[i][perm[i]], R)
        for m, c in prod.items():
            c = c if sign > 0 else R.neg(c)
            total[m] = R.add(total.get(m, R.zero), c)
    return {m: c for m, c in total.items() if c != R.zero}


def naive_partial_derivative(f: dict, j: int, R) -> dict:
    """d/dx_j of a dict-polynomial over a coefficient model: e*c as |e| repeated additions."""
    out = {}
    for m, c in f.items():
        d = R.zero
        for _ in range(abs(m[j])):
            d = R.add(d, c if m[j] > 0 else R.neg(c))
        if d != R.zero:
            out[m[:j] + (m[j] - 1,) + m[j + 1:]] = d
    return out


def _width(rows) -> int:
    for row in rows:
        for entry in row:
            for mono in entry:
                return len(mono)
    return 1


class IntModModel:
    """Z/N on plain ints, with the interface of FqModel."""

    def __init__(self, modulus: int):
        self.N, self.zero, self.one = modulus, 0, 1 % modulus

    def add(self, a, b):
        return (a + b) % self.N

    def neg(self, a):
        return -a % self.N

    def mul(self, a, b):
        return a * b % self.N


def from_pkg_poly(f) -> dict:
    """Extract a prime-field package polynomial into plain dict-of-ints form."""
    return {m: f.coefficient_of(m).as_int() for m in f.terms}


def eta_through_two_lifts(f1, f2, a):
    """divide_by_p(F2(a~) - F1(a~)), a~ the canonical lift of a, with both values built whole."""
    from w2frob import apply_lift, canonical_lift, divide_by_p

    a_lift = canonical_lift(a, f1.lift_ring)
    return divide_by_p(apply_lift(f2, a_lift) - apply_lift(f1, a_lift))


def naive_laurent_mul_zp2(f: dict, g: dict, p: int) -> dict:
    """{int exponent: int} Laurent product over Z/p^2."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = (out.get(e1 + e2, 0) + c1 * c2) % (p * p)
    return {e: c for e, c in out.items() if c}


def count_affine_points(p: int, a1: int, a2: int, a3: int, a4: int, a6: int) -> int:
    n = 0
    for x in range(p):
        for y in range(p):
            lhs = (y * y + a1 * x * y + a3 * y) % p
            rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
            if lhs == rhs:
                n += 1
    return n


# ---------------------------------------------------------------------------
# W2(F_q) by the length-2 component formulas
# ---------------------------------------------------------------------------


class FqModel:
    """F_q on coefficient tuples: F_p, or F_p[x]/(x^m - x - 1) for q in {4, 8, 9}.

    x^m - x - 1 is x^2+x+1 over F_2, x^3+x+1 over F_2 and x^2+2x+2 over F_3.
    """

    def __init__(self, p: int, m: int):
        self.p, self.m, self.q = p, m, p ** m
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)

    def elements(self):
        return list(product(range(self.p), repeat=self.m))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def scale(self, k: int, a):
        return tuple(k * x % self.p for x in a)

    def mul(self, a, b):
        m = self.m
        raw = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                raw[i + j] += x * y
        for k in range(2 * m - 2, m - 1, -1):  # x^k = x^(k-m+1) + x^(k-m)
            raw[k - m + 1] += raw[k]
            raw[k - m] += raw[k]
        return tuple(c % self.p for c in raw[:m])

    def pow(self, a, e: int):
        out = self.one
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def root_p(self, a):
        """The unique b with b^p = a, found by search."""
        (b,) = [b for b in self.elements() if self.pow(b, self.p) == a]
        return b


class WittModel:
    """W2(F_q) on Witt coordinates (a0, a1) by the length-2 component formulas."""

    def __init__(self, p: int, m: int):
        self.p = p
        self.F = FqModel(p, m)
        self.zero, self.one = (self.F.zero, self.F.zero), (self.F.one, self.F.zero)

    def elements(self):
        return [(a0, a1) for a0 in self.F.elements() for a1 in self.F.elements()]

    def _carry(self, a0, b0):
        """sum over 0 < i < p of (C(p, i) / p) a0^i b0^(p-i)."""
        F, p = self.F, self.p
        total = F.zero
        for i in range(1, p):
            term = F.mul(F.pow(a0, i), F.pow(b0, p - i))
            total = F.add(total, F.scale(comb(p, i) // p, term))
        return total

    def add(self, a, b):
        F = self.F
        s1 = F.add(F.add(a[1], b[1]), F.neg(self._carry(a[0], b[0])))
        return F.add(a[0], b[0]), s1

    def neg(self, a):
        # the b with a + b = 0: b0 = -a0, then b1 = carry(a0, b0) - a1
        F = self.F
        b0 = F.neg(a[0])
        return b0, F.add(self._carry(a[0], b0), F.neg(a[1]))

    def mul(self, a, b):
        F, p = self.F, self.p
        t1 = F.add(F.mul(F.pow(a[0], p), b[1]), F.mul(F.pow(b[0], p), a[1]))
        return F.mul(a[0], b[0]), t1

    def frobenius(self, a):
        return self.F.pow(a[0], self.p), self.F.pow(a[1], self.p)

    def reduce_p(self, a):
        return a[0]

    def divide_p(self, a):
        """c with p*(c, 0) = (0, c^p) equal to a; None unless a0 = 0."""
        return self.F.root_p(a[1]) if a[0] == self.F.zero else None

    def times_p_embed(self, c):
        return self.F.zero, self.F.pow(c, self.p)

    def from_residue(self, c):
        return c, self.F.zero


def monic_lifts_dividing(p: int, low: tuple, q: int) -> list:
    """Monic lifts to Z/p^2 of x^m + low (low = (c_0..c_(m-1)) mod p) that divide x^q - x."""
    m, N = len(low), p * p
    found = []
    for shift in product(range(p), repeat=m):
        g = [c + p * s for c, s in zip(low, shift)]
        rem = [0] * (q + 1)
        rem[q], rem[1] = 1, -1
        for k in range(q, m - 1, -1):  # subtract rem[k] x^(k-m) g
            c = rem[k]
            rem[k] = 0
            for i, gi in enumerate(g):
                rem[k - m + i] -= c * gi
        if all(c % N == 0 for c in rem):
            found.append(tuple(c % N for c in g))
    return found


def teichmuller_modulus(p: int, m: int) -> tuple:
    """The unique monic lift to Z/p^2 of x^m - x - 1 mod p dividing x^q - x."""
    (g,) = monic_lifts_dividing(p, tuple(-1 % p if i < 2 else 0 for i in range(m)), p ** m)
    return g


def reduce_by_modulus(raw: list, g: tuple, N: int) -> list:
    """raw (constant first) mod the monic x^m + g_(m-1) x^(m-1) + ... + g_0, then mod N.

    Long division on a plain coefficient list: the reduction model that the
    kernel's packed fold is checked against.
    """
    m = len(g)
    rem = list(raw) + [0] * m
    for k in range(len(rem) - 1, m - 1, -1):  # subtract rem[k] x^(k-m) g
        c = rem[k]
        rem[k] = 0
        for i, gi in enumerate(g):
            rem[k - m + i] -= c * gi
    return [c % N for c in rem[:m]]


# ---------------------------------------------------------------------------
# the seeded generators as written on randint / randrange
# ---------------------------------------------------------------------------


def randrange_field_draw(p: int, m: int):
    """F_q's coefficient draw: the slots c_0, ..., c_(m-1), each ``randrange(p)``."""
    return lambda rng: tuple(rng.randrange(p) for _ in range(m))


def randrange_witt_draw(p: int, m: int):
    """W2(F_q)'s coefficient draw: the Witt coordinates a0, then a1, each an F_q draw."""
    field = randrange_field_draw(p, m)
    return lambda rng: (field(rng), field(rng))


def _is_zero_draw(c) -> bool:
    return all(_is_zero_draw(x) for x in c) if isinstance(c, tuple) else c == 0


def randint_random_poly(rng, coeff_draw, nvars: int, max_deg: int, max_terms: int) -> dict:
    """randgen.random_poly on randint: {exponent tuple: coefficient draw}, zero draws left out."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        while True:
            exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
            if sum(exps) <= max_deg:
                break
        c = coeff_draw(rng)
        if not _is_zero_draw(c):
            terms[exps] = c
    return terms


def randint_exponent_matrix(rng, p: int, m: int, n: int) -> list:
    return [[rng.randint(0, p - 1) for _ in range(n)] for _ in range(m)]
