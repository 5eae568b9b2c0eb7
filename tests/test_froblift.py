import json

import pytest

from w2frob import (
    GF,
    W2,
    AffineChartLift,
    EtaFunction,
    ParseError,
    Poly,
    RangeError,
    ShapeError,
    UnsupportedShape,
    apply_lift,
    divide_by_p,
    eta_axioms_check,
    eta_between,
    lift_from_json,
    lift_to_json,
    monomial_lemma_check,
    phi_det,
    phi_matrix,
    poly_from_str,
    standard_lift,
    top_monomial,
    witt_to_residue_ring,
)
from w2frob.randgen import random_chart_lift, random_poly


def P(ring, nvars, s):
    return poly_from_str(ring, nvars, s)


# -- construction -------------------------------------------------------------


def test_standard_lift_images():
    F3 = GF(3)
    L = standard_lift(F3, 2)
    for i in range(2):
        img = L.image_of_var(i)
        assert img == Poly.variable(L.lift_ring, 2, i, 3)


def test_chart_lift_examples():
    F2 = GF(2)
    L = AffineChartLift(F2, 1, (False,), (P(F2, 1, "x^3"),))
    ring = L.lift_ring
    assert L.image_of_var(0) == Poly.variable(ring, 1, 0, 2) + Poly.monomial(
        ring, 1, (3,), ring.p_elem
    )
    # Laurent correction on an inverted chart
    AffineChartLift(F2, 1, (True,), (P(F2, 1, "x^-1"),))
    with pytest.raises(UnsupportedShape):
        AffineChartLift(F2, 1, (False,), (P(F2, 1, "x^-1"),))
    with pytest.raises(ShapeError):
        AffineChartLift(F2, 2, (False, False), (Poly.zero(F2, 2),))


def test_laurent_image_is_unit():
    F2 = GF(2)
    L = AffineChartLift(F2, 1, (True,), (P(F2, 1, "x^-1"),))
    img = L.image_of_var(0)
    inv = L.image_of_var_power(0, -1)
    assert img * inv == Poly.constant(L.lift_ring, 1, 1)


# -- apply_lift ---------------------------------------------------------------


def test_apply_standard_sends_x_to_xp():
    F5 = GF(5)
    L = standard_lift(F5, 1)
    x = Poly.variable(L.lift_ring, 1, 0)
    assert apply_lift(L, x) == Poly.variable(L.lift_ring, 1, 0, 5)


def test_apply_lift_square_example():
    # F(x) = x^2 + 2x^3 over Z/4-like ring: F(x^2) = x^4 exactly
    F2 = GF(2)
    L = AffineChartLift(F2, 1, (False,), (P(F2, 1, "x^3"),))
    ring = L.lift_ring
    assert apply_lift(L, Poly.variable(ring, 1, 0, 2)) == Poly.variable(ring, 1, 0, 4)


def test_apply_lift_constants_follow_frobenius():
    for q in [(2, 1), (3, 1), (2, 2)]:
        ring = W2(*q)
        F = GF(*q)
        L = standard_lift(F, 1)
        for c in list(ring.elements())[: 9]:
            got = apply_lift(L, Poly.constant(ring, 1, c))
            assert got == Poly.constant(ring, 1, c.frobenius())
    # over the prime field the action is the identity of Z/p^2
    ring = W2(3)
    L = standard_lift(GF(3), 1)
    for c in ring.elements():
        got = apply_lift(L, Poly.constant(ring, 1, c)).constant_term()
        assert witt_to_residue_ring(got) == witt_to_residue_ring(c)


def test_apply_lift_on_laurent_chart(rng):
    F3 = GF(3)
    L = AffineChartLift(F3, 2, (True, False), (P(F3, 2, "x1^-1+x2"), P(F3, 2, "2*x1^-2*x2")))
    ring = L.lift_ring
    x, x_inv = Poly.variable(ring, 2, 0), Poly.variable(ring, 2, 0, -1)
    assert apply_lift(L, x_inv) * apply_lift(L, x) == Poly.constant(ring, 2, 1)

    def laurent():
        return Poly(ring, 2, {(rng.randint(-2, 2), rng.randint(0, 2)): ring.random(rng) for _ in range(3)})

    for _ in range(20):
        a, b = laurent(), laurent()
        assert apply_lift(L, a + b) == apply_lift(L, a) + apply_lift(L, b)
        assert apply_lift(L, a * b) == apply_lift(L, a) * apply_lift(L, b)


def test_apply_lift_on_zero_variable_chart():
    for q in [(2, 1), (3, 1), (2, 2)]:
        L = standard_lift(GF(*q), 0)
        for c in L.lift_ring.elements():
            got = apply_lift(L, Poly.constant(L.lift_ring, 0, c))
            assert got == Poly.constant(L.lift_ring, 0, c.frobenius())


def test_apply_lift_is_ring_homomorphism(rng):
    for p in (2, 3):
        F = GF(p)
        for _ in range(40):
            L = random_chart_lift(rng, F, 2)
            ring = L.lift_ring
            a = Poly(ring, 2, {(rng.randint(0, 2), rng.randint(0, 2)): ring.random(rng) for _ in range(3)})
            b = Poly(ring, 2, {(rng.randint(0, 2), rng.randint(0, 2)): ring.random(rng) for _ in range(3)})
            assert apply_lift(L, a + b) == apply_lift(L, a) + apply_lift(L, b)
            assert apply_lift(L, a * b) == apply_lift(L, a) * apply_lift(L, b)


# -- eta calculus ---------------------------------------------------------------


def test_eta_zero_for_equal_lifts():
    F2 = GF(2)
    L = AffineChartLift(F2, 1, (False,), (P(F2, 1, "x^3"),))
    eta = eta_between(L, L)
    assert eta.is_zero()


def test_eta_between_definition():
    F2 = GF(2)
    L0 = standard_lift(F2, 1)
    L1 = AffineChartLift(F2, 1, (False,), (P(F2, 1, "x^3"),))
    eta = eta_between(L0, L1)
    assert eta.values[0] == P(F2, 1, "x^3")
    # both evaluation paths on x^2: closed form and the lift difference
    x = Poly.variable(F2, 1, 0)
    assert eta(x * x).is_zero()
    assert eta.via_lifts(x * x).is_zero()
    # and they agree with divide_by_p(F2(x) - F1(x)) on the generator
    ring = L0.lift_ring
    xl = Poly.variable(ring, 1, 0)
    assert divide_by_p(apply_lift(L1, xl) - apply_lift(L0, xl)) == eta.values[0]


def test_eta_axioms_on_random_pairs(rng):
    for F in (GF(2), GF(3), GF(5), GF(2, 2), GF(2, 3), GF(3, 2)):
        p = F.p
        for _ in range(20):
            n = rng.randint(1, 2)
            L1 = random_chart_lift(rng, F, n)
            L2 = random_chart_lift(rng, F, n)
            eta = eta_between(L1, L2)
            for _ in range(10):
                a = random_poly(rng, F, n, p, 3)
                b = random_poly(rng, F, n, p, 3)
                res = eta_axioms_check(eta, a, b)
                assert res.ok, res.failures


def test_corrupted_eta_fails():
    F9 = GF(3, 2)
    for F, correction, bump in [(GF(2), "x^3", 1), (F9, "[0,1]*x^4", F9.gen())]:
        L0 = standard_lift(F, 1)
        L1 = AffineChartLift(F, 1, (False,), (P(F, 1, correction),))
        eta = eta_between(L0, L1)
        bad = EtaFunction(
            F, 1, (False,), (eta.values[0] + Poly.constant(F, 1, bump),), sources=eta.sources
        )
        x = Poly.variable(F, 1, 0)
        candidates = [(x, x), (x + 1, x), (x, x * x), (x + 1, x * x + x)]
        assert all(eta_axioms_check(eta, a, b).ok for a, b in candidates)
        assert any(not eta_axioms_check(bad, a, b).ok for a, b in candidates)


# -- phi matrix and determinant ---------------------------------------------------


def test_phi_matrix_standard_is_diagonal():
    F3 = GF(3)
    L = standard_lift(F3, 2)
    M = phi_matrix(L)
    assert M[0, 0] == Poly.variable(F3, 2, 0, 2)
    assert M[1, 1] == Poly.variable(F3, 2, 1, 2)
    assert M[0, 1].is_zero() and M[1, 0].is_zero()
    assert phi_det(L) == P(F3, 2, "x1^2*x2^2")


def test_phi_matrix_univariate_example():
    F2 = GF(2)
    L = AffineChartLift(F2, 1, (False,), (P(F2, 1, "x^3"),))
    assert phi_matrix(L)[0, 0] == P(F2, 1, "x^2+x")


def test_phi_matrix_swap_example():
    F2 = GF(2)
    L = AffineChartLift(F2, 2, (False, False), (P(F2, 2, "x2"), P(F2, 2, "x1")))
    M = phi_matrix(L)
    assert M[0, 0] == Poly.variable(F2, 2, 0)
    assert M[0, 1] == Poly.constant(F2, 2, 1)
    assert M[1, 0] == Poly.constant(F2, 2, 1)
    assert M[1, 1] == Poly.variable(F2, 2, 1)
    det = phi_det(L)
    assert det == P(F2, 2, "x1*x2+1")
    assert not det.is_zero()
    assert det.coefficient_of((1, 1)) == F2.one


def test_phi_det_invariant_under_transpose(rng):
    # the two index conventions for the matrix differ by a transpose,
    # which cannot change the determinant
    from w2frob import PolyMatrix

    for p in (2, 3):
        F = GF(p)
        for _ in range(30):
            L = random_chart_lift(rng, F, 3)
            M = phi_matrix(L)
            Mt = PolyMatrix([[M[j, i] for j in range(3)] for i in range(3)])
            assert M.determinant() == Mt.determinant()


def test_phi_det_top_coefficient_sweep(rng):
    for p in (2, 3, 5):
        F = GF(p)
        for n in (1, 2, 3):
            for _ in range(60):
                L = random_chart_lift(rng, F, n)
                det = phi_det(L)
                assert not det.is_zero()
                assert det.coefficient_of(top_monomial(L)) == F.one


def test_low_decomposition_terms_do_not_touch_top_coefficient(rng):
    # dropping every x_s^p-divisible part of the corrections leaves the
    # distinguished coefficient of det(phi) unchanged
    for p in (2, 3):
        F = GF(p)
        for _ in range(60):
            n = rng.randint(1, 3)
            L = random_chart_lift(rng, F, n, max_deg=p + 1)
            lows = [
                Poly(F, n, {m: c for m, c in f.terms.items() if max(m) < p})
                for f in L.corrections
            ]
            L_low = AffineChartLift(F, n, (False,) * n, lows)
            target = top_monomial(L)
            assert phi_det(L).coefficient_of(target) == phi_det(L_low).coefficient_of(target)


# -- the monomial lemma ------------------------------------------------------------


def test_monomial_lemma_frozen_examples():
    assert monomial_lemma_check([[2, 1], [1, 2]], 3).ok
    assert monomial_lemma_check([[1, 1], [1, 1]], 2).ok
    assert monomial_lemma_check([[1, 0], [0, 1]], 2).ok


def test_monomial_lemma_rectangular():
    assert monomial_lemma_check([[1, 1, 0]], 2).ok
    assert monomial_lemma_check([[1, 0, 1], [0, 1, 1]], 2).ok


def test_monomial_lemma_range_and_shape_errors():
    with pytest.raises(RangeError):
        monomial_lemma_check([[3, 0], [0, 1]], 3)
    with pytest.raises(ShapeError):
        monomial_lemma_check([[0, 1], [1, 0], [1, 1]], 3)  # m > n


def test_monomial_lemma_random_sweep(rng):
    for p in (2, 3, 5):
        for _ in range(300):
            n = rng.randint(1, 3)
            m = rng.randint(1, n)
            K = [[rng.randint(0, p - 1) for _ in range(n)] for _ in range(m)]
            res = monomial_lemma_check(K, p)
            assert res.ok, (K, res.failures)


# -- serialization -------------------------------------------------------------


def test_lift_json_roundtrip(rng):
    for q in [(2, 1), (3, 1), (2, 2)]:
        F = GF(*q)
        L = random_chart_lift(rng, F, 2)
        L2 = lift_from_json(lift_to_json(L))
        assert L2 == L


def test_lift_json_rejects_q_not_a_power_of_p():
    chart = {"nvars": 1, "laurent_mask": [False], "corrections": ["0"]}
    for p, q in ((2, 6), (3, 4), (2, 1), (1, 2)):
        with pytest.raises(ParseError):
            lift_from_json(json.dumps({"p": p, "q": q, **chart}))


@pytest.mark.parametrize(
    "doc",
    [
        {"p": "2", "q": 2, "nvars": 1, "laurent_mask": [False], "corrections": ["0"]},
        {"p": 2, "q": 2, "nvars": 1, "laurent_mask": [False]},
        [2, 2, 1, [False], ["0"]],
        {"p": 5, "q": 5, "nvars": 1, "laurent_mask": [False], "corrections": ["[0,1]"]},
        {"p": 2, "q": 2, "nvars": -1, "laurent_mask": [], "corrections": []},
        {"p": 2, "q": 2, "nvars": 2, "laurent_mask": [False], "corrections": ["0", "0"]},
        {"p": 2, "q": 2, "nvars": 1, "laurent_mask": ["yes"], "corrections": ["0"]},
    ],
    ids=[
        "string-p",
        "no-corrections",
        "top-level-list",
        "two-slots-over-F5",
        "negative-nvars",
        "short-mask",
        "string-mask-entry",
    ],
)
def test_lift_json_malformed_documents_raise_parse_error(doc):
    with pytest.raises(ParseError):
        lift_from_json(json.dumps(doc))
