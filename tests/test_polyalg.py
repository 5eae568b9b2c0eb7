import random

import pytest

from oracles import from_pkg_poly, naive_det_by_permutations, naive_poly_mul
from w2frob import (
    GF,
    W2,
    Poly,
    ParseError,
    PolyMatrix,
    RingMismatch,
    ShapeError,
    UnitError,
    Zp2Ring,
    frobenius_substitute,
    invert_unit,
    poly_from_str,
    poly_to_str,
    reduce_mod_p,
    substitute,
)
from w2frob.polyalg import flip_variable


def P(ring, nvars, s):
    return poly_from_str(ring, nvars, s)


# -- multiplication ----------------------------------------------------------


def test_mul_char2_cancellation():
    F2 = GF(2)
    f = P(F2, 1, "x+1")
    assert f * f == P(F2, 1, "x^2+1")


def test_mul_identity_and_units():
    F3 = GF(3)
    f = P(F3, 2, "2*x1^2*x2+x2")
    assert f * Poly.constant(F3, 2, 1) == f
    x = Poly.variable(F3, 1, 0)
    xinv = Poly.variable(F3, 1, 0, -1)
    assert x * xinv == Poly.constant(F3, 1, 1)


def test_mul_matches_naive_oracle(rng):
    F5 = GF(5)
    for _ in range(100):
        f_terms = {
            (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, 4) for _ in range(4)
        }
        g_terms = {
            (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, 4) for _ in range(4)
        }
        f = Poly(F5, 2, {m: F5.from_int(c) for m, c in f_terms.items()})
        g = Poly(F5, 2, {m: F5.from_int(c) for m, c in g_terms.items()})
        expected = naive_poly_mul(from_pkg_poly(f), from_pkg_poly(g), 5)
        assert from_pkg_poly(f * g) == expected


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        P(GF(2), 1, "x") * P(GF(3), 1, "x")
    with pytest.raises(RingMismatch):
        P(GF(2), 1, "x") * P(GF(2), 2, "x1")


# -- derivatives -------------------------------------------------------------


def test_derivative_kills_pth_powers():
    for p in (2, 3, 5):
        Fp = GF(p)
        t = Poly.variable(Fp, 1, 0, p)
        assert t.partial_derivative(0).is_zero()


def test_derivative_power_rule():
    F3 = GF(3)
    f = P(F3, 2, "x1^2*x2")
    assert f.partial_derivative(0) == P(F3, 2, "2*x1*x2")


def test_derivative_laurent_negative_exponent():
    F3 = GF(3)
    f = Poly.variable(F3, 1, 0, -1)
    assert f.partial_derivative(0) == Poly.monomial(F3, 1, (-2,), F3.from_int(2))


# -- determinants ------------------------------------------------------------


def test_det_diagonal():
    F3 = GF(3)
    p = 3
    entries = [
        [Poly.variable(F3, 2, i, p - 1) if i == j else Poly.zero(F3, 2) for j in range(2)]
        for i in range(2)
    ]
    assert PolyMatrix(entries).determinant() == P(F3, 2, "x1^2*x2^2")


def test_det_2x2_frozen_example():
    F3 = GF(3)
    M = PolyMatrix(
        [
            [P(F3, 2, "2*x1*x2"), P(F3, 2, "x1^2")],
            [P(F3, 2, "x2^2"), P(F3, 2, "2*x1*x2")],
        ]
    )
    # 4*x1^2*x2^2 - x1^2*x2^2 = 3*... = 0 over F_3
    assert M.determinant().is_zero()


def test_det_identity():
    F2 = GF(2)
    one, zero = Poly.constant(F2, 1, 1), Poly.zero(F2, 1)
    M = PolyMatrix([[one, zero], [zero, one]])
    assert M.determinant() == one


def test_det_shape_errors():
    F2 = GF(2)
    one = Poly.constant(F2, 1, 1)
    with pytest.raises(ShapeError):
        PolyMatrix([[one], [one]]).determinant()
    with pytest.raises(ShapeError):
        PolyMatrix([[one] * 5 for _ in range(5)]).determinant()


def test_det_matches_permutation_oracle(rng):
    F5 = GF(5)
    for _ in range(25):
        rows = [
            [
                Poly(
                    F5,
                    2,
                    {
                        (rng.randint(0, 2), rng.randint(0, 2)): F5.from_int(rng.randint(0, 4))
                        for _ in range(2)
                    },
                )
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        got = from_pkg_poly(PolyMatrix(rows).determinant())
        expected = naive_det_by_permutations(
            [[from_pkg_poly(e) or {} for e in row] for row in rows], 5
        )
        assert got == expected


def test_det_multilinear_and_alternating(rng):
    F5 = GF(5)

    def rand_poly():
        return Poly(
            F5,
            2,
            {
                (rng.randint(0, 2), rng.randint(0, 2)): F5.from_int(rng.randint(0, 4))
                for _ in range(3)
            },
        )

    for _ in range(25):
        rows = [[rand_poly() for _ in range(3)] for _ in range(3)]
        extra = [rand_poly() for _ in range(3)]
        c = F5.from_int(rng.randint(1, 4))
        base = PolyMatrix(rows).determinant()
        # linearity in row 0
        scaled = [[e * c for e in rows[0]]] + rows[1:]
        summed = [[e1 + e2 for e1, e2 in zip(rows[0], extra)]] + rows[1:]
        alt = [extra] + rows[1:]
        assert PolyMatrix(scaled).determinant() == base * c
        assert PolyMatrix(summed).determinant() == base + PolyMatrix(alt).determinant()
        # repeated rows kill the determinant
        repeated = [rows[0], rows[0], rows[2]]
        assert PolyMatrix(repeated).determinant().is_zero()


# -- coefficient extraction ---------------------------------------------------


def test_coefficient_of():
    F2 = GF(2)
    f = P(F2, 1, "x+1")
    assert f.coefficient_of((1,)) == F2.one
    g = P(F2, 2, "x1^2+x2^2")
    assert g.coefficient_of((1, 1)).is_zero()
    M = PolyMatrix(
        [[Poly.variable(F2, 2, 0), Poly.constant(F2, 2, 1)],
         [Poly.constant(F2, 2, 1), Poly.variable(F2, 2, 1)]]
    )
    assert M.determinant().coefficient_of((1, 1)) == F2.one


# -- reduction ----------------------------------------------------------------


def test_reduce_mod_p_examples():
    z4 = Zp2Ring(2)
    f = Poly(z4, 1, {(1,): z4.from_int(3), (0,): z4.from_int(2)})
    assert reduce_mod_p(f) == P(GF(2), 1, "x")
    assert reduce_mod_p(Poly.zero(z4, 1)).is_zero()
    z9 = Zp2Ring(3)
    assert reduce_mod_p(Poly(z9, 1, {(5,): z9.from_int(9 % 9 + 9)})).is_zero()


def test_reduce_mod_p_is_homomorphism(rng):
    for ring in (Zp2Ring(3), W2(2, 2)):
        for _ in range(150):
            f = Poly(ring, 1, {(rng.randint(0, 4),): ring.random(rng) for _ in range(3)})
            g = Poly(ring, 1, {(rng.randint(0, 4),): ring.random(rng) for _ in range(3)})
            assert reduce_mod_p(f * g) == reduce_mod_p(f) * reduce_mod_p(g)
            assert reduce_mod_p(f + g) == reduce_mod_p(f) + reduce_mod_p(g)


def test_reduce_mod_p_needs_lift_ring():
    with pytest.raises(RingMismatch):
        reduce_mod_p(P(GF(2), 1, "x"))


# -- frobenius substitution ----------------------------------------------------


def test_frobenius_substitute_is_pth_power(rng):
    for q in [(2, 1), (3, 1), (2, 2)]:
        F = GF(*q)
        for _ in range(50):
            f = Poly(F, 2, {(rng.randint(0, 3), rng.randint(0, 3)): F.random(rng) for _ in range(3)})
            assert frobenius_substitute(f) == f ** F.p


# -- units ---------------------------------------------------------------------


def test_invert_unit_field_monomial():
    F3 = GF(3)
    f = Poly.monomial(F3, 1, (2,), F3.from_int(2))
    g = invert_unit(f)
    assert f * g == Poly.constant(F3, 1, 1)
    with pytest.raises(UnitError):
        invert_unit(P(F3, 1, "x+1"))


def test_invert_unit_lift_ring(rng):
    ring = W2(2)
    x2 = Poly.variable(ring, 1, 0, 2)
    f = x2 + Poly.monomial(ring, 1, (5,), ring.times_p_embed(GF(2).one))
    g = invert_unit(f)
    assert f * g == Poly.constant(ring, 1, 1)
    for _ in range(50):
        # random unit: x^k + p * (junk)
        junk = Poly(
            ring, 1, {(rng.randint(-3, 3),): ring.times_p_embed(GF(2).random(rng)) for _ in range(3)}
        )
        u = Poly.variable(ring, 1, 0, rng.randint(-3, 3)) + junk
        inv = invert_unit(u)
        assert u * inv == Poly.constant(ring, 1, 1)


def test_flip_variable_is_the_monomial_substitution(rng):
    for ring in (GF(3), W2(2), W2(3, 2)):
        for _ in range(30):
            f = Poly(
                ring,
                2,
                {(rng.randint(-4, 4), rng.randint(-4, 4)): ring.random(rng) for _ in range(5)},
            )
            for i in range(2):
                images = [Poly.variable(ring, 2, j, -1 if j == i else 1) for j in range(2)]
                assert flip_variable(f, i) == substitute(f, images)
                assert flip_variable(flip_variable(f, i), i) == f


# -- text grammar ---------------------------------------------------------------


def test_poly_text_examples():
    F2 = GF(2)
    f = P(F2, 2, "1*x1^2*x2^-3+1")
    assert poly_to_str(f) == "1*x1^2*x2^-3+1"
    assert P(F2, 2, poly_to_str(f)) == f


def test_poly_text_roundtrip_random(rng):
    rings = [GF(2), GF(5), GF(2, 2), W2(3), W2(2, 2), Zp2Ring(5)]
    signs = random.Random(1)  # apart from rng, which draws the polynomials
    for ring in rings:
        for _ in range(40):
            terms = {}
            for _ in range(rng.randint(0, 5)):
                mono = (rng.randint(-4, 4), rng.randint(-4, 4))
                c = ring.random(rng)
                if not c.is_zero():
                    terms[mono] = c
            f = Poly(ring, 2, terms)
            assert P(ring, 2, poly_to_str(f)) == f
            assert P(ring, 2, _signed_text(f, signs)) == f


def _signed_text(f, rng):
    """f with a sign before every term, the first included; a '-' negates the coefficient."""
    parts = []
    for mono, c in f.terms.items():
        sign = rng.choice("+-")
        factors = [f.ring.coeff_to_str(-c if sign == "-" else c)]
        factors.extend(f"x{i + 1}^{e}" for i, e in enumerate(mono) if e)
        parts.append(f" {sign} " + "*".join(factors))
    return "".join(parts) or "-0"


def test_poly_text_parser_leniency():
    F5 = GF(5)
    assert P(F5, 1, "x^2") == Poly.variable(F5, 1, 0, 2)
    assert P(F5, 1, "3*x-2") == Poly(F5, 1, {(1,): F5.from_int(3), (0,): F5.from_int(3)})
    assert P(F5, 1, "x*x*x") == Poly.variable(F5, 1, 0, 3)


def test_poly_text_leading_sign():
    F5, F9, W = GF(5), GF(3, 2), W2(3)
    assert P(F5, 1, "-x^2-1") == Poly.constant(F5, 1, 4) * Poly.variable(F5, 1, 0, 2) + 4
    assert P(F5, 2, " -x2") == Poly.variable(F5, 2, 1, coeff=F5.from_int(4))
    assert P(F9, 1, "-[1,2]") == Poly.constant(F9, 1, F9.elem([2, 1]))
    assert P(W, 1, "-(1,1)*x") == Poly.variable(W, 1, 0, coeff=-W.pair(1, 1))
    # a sign before a factor negates it wherever the factor stands
    assert P(F5, 1, "--x") == P(F5, 1, "x*+x^0") == P(F5, 1, "2*-3*x*-1") == P(F5, 1, "x")
    assert P(W, 1, "x*-(1,1)") == P(W, 1, "-(1,1)*x")


@pytest.mark.parametrize(
    "ring, text",
    [
        (GF(5), ""),
        (GF(5), "x+"),
        (GF(5), "x*"),
        (GF(5), "*x"),
        (GF(5), "x x"),
        (GF(5), "x^"),
        (GF(5), "x^2^3"),
        (GF(5), "x2"),
        (GF(5), "(x)"),
        (GF(5), "[0,1]"),
        (GF(3, 2), "[1]"),
        (GF(3, 2), "[[1,2]]"),
        (W2(3), "(1,2"),
        (W2(3), "(1,2,3)"),
        (W2(3, 2), "([1,2,0],0)"),
        (Zp2Ring(3), "[1]"),
    ],
    ids=repr,
)
def test_poly_text_rejects_malformed_input(ring, text):
    with pytest.raises(ParseError):
        P(ring, 1, text)
