import itertools
import json

import pytest

from w2frob import (
    GF,
    W2,
    AffineChartLift,
    AlgebraError,
    CheckResult,
    EtaFunction,
    InvariantViolation,
    Poly,
    PolyMatrix,
    RangeError,
    RingMismatch,
    ShapeError,
    UnsupportedField,
    UnsupportedShape,
    apply_lift,
    canonical_lift,
    divide_by_p,
    eta_axioms_check,
    eta_between,
    invert_unit,
    lift_to_json,
    monomial_lemma_check,
    phi_det,
    phi_matrix,
    poly_from_str,
    reduce_mod_p,
    standard_lift,
    substitute,
    top_monomial,
    witt_to_residue_ring,
)
from oracles import eta_through_two_lifts, int_det_by_permutations
from w2frob import froblift, polyalg
from w2frob.polyalg import flip_variable
from w2frob.randgen import random_chart_lift, random_poly
from w2frob.sweeps import sweep_eta


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


def test_chart_lift_counts_and_indices_follow_the_index_rule():
    # nvars True was a lift, image_of_var(-1) the last image and image_of_var(True)
    # x2's, and image_of_var_power(5, 1) a bare IndexError
    F3 = GF(3)
    x = Poly.variable(F3, 1, 0)
    for nvars in (True, -1, 1.0):
        with pytest.raises(ShapeError):
            AffineChartLift(F3, nvars, (False,), (x,))
    with pytest.raises(ShapeError):
        standard_lift(F3, True)
    one, two = standard_lift(F3, 1), standard_lift(F3, 2)
    two.image_of_var_power(1, 1)  # cached under (1, 1), which (True, 1) would find
    for L, i in ((one, -1), (one, 1), (two, True), (two, False), (two, 2), (two, 5), (two, 1.0)):
        with pytest.raises(ShapeError, match="out of range"):
            L.image_of_var(i)
        with pytest.raises(ShapeError, match="out of range"):
            L.image_of_var_power(i, 1)


def test_laurent_image_is_unit():
    F2 = GF(2)
    L = AffineChartLift(F2, 1, (True,), (P(F2, 1, "x^-1"),))
    img = L.image_of_var(0)
    inv = L.image_of_var_power(0, -1)
    assert img * inv == Poly.constant(L.lift_ring, 1, 1)


FIELDS = [GF(2), GF(3), GF(5), GF(2, 2), GF(2, 3), GF(3, 2)]


def _random_laurent_lift(rng, field, nvars, mask=None) -> AffineChartLift:
    """Up to 4 correction terms each; exponents down to -2 on the inverted variables."""
    if mask is None:
        mask = tuple(rng.random() < 0.5 for _ in range(nvars))
    lows = [-2 if inverted else 0 for inverted in mask]
    corrections = [
        Poly(
            field,
            nvars,
            {
                tuple(rng.randint(low, field.p) for low in lows): field.random(rng)
                for _ in range(rng.randint(0, 4))
            },
        )
        for _ in range(nvars)
    ]
    return AffineChartLift(field, nvars, mask, corrections)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_images_are_frobenius_lifts_and_give_back_the_lift(field, rng):
    # image_of_var and from_images are the two directions of F(x_i) = x_i^p + p*f_i
    for _ in range(40):
        L = _random_laurent_lift(rng, field, rng.randint(1, 3))
        images = [L.image_of_var(i) for i in range(L.nvars)]
        for i, img in enumerate(images):
            assert reduce_mod_p(img) == Poly.variable(field, L.nvars, i, field.p)
        assert AffineChartLift.from_images(L.field, L.laurent_mask, images) == L


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(2, 2), GF(2, 3), GF(3, 2)], ids=repr)
def test_from_images_keeps_the_images_it_was_given(field, rng):
    # from_images validates the images and keeps them, instead of building
    # x_i^p + p*f_i again; they equal the images a fresh lift builds from
    # the corrections read off them
    ring = W2(field.p, field.m)
    for _ in range(30):
        L = _random_laurent_lift(rng, field, rng.randint(1, 3))
        images = [
            Poly.variable(ring, L.nvars, i, field.p) + canonical_lift(f, ring) * ring.p_elem
            for i, f in enumerate(L.corrections)
        ]
        kept = AffineChartLift.from_images(field, L.laurent_mask, images)
        assert kept.images == tuple(images)
        assert all(a is b for a, b in zip(kept.images, images))
        assert kept.corrections == L.corrections
        fresh = AffineChartLift(field, L.nvars, L.laurent_mask, kept.corrections)
        assert fresh.images == kept.images


def test_interned_variables_survive_every_operation():
    # no operation on a variable may write into its terms, as results share them
    for ring in (GF(3), W2(3), W2(2, 2)):
        x, y = Poly.variable(ring, 2, 0, 2), Poly.variable(ring, 2, 1)
        zero = Poly.zero(ring, 2)
        results = [
            x + y, y + x, x + 1, x - y, y - x, x - x, 1 - x, x * y, y * x, x * x,
            x + zero, zero + x, x - zero, zero - x,
            x * ring.from_int(2), x ** 0, x ** 1, x ** 3, x ** -2, -x, -(-x),
            substitute(x, [y, x]), substitute(y, [y, Poly.zero(ring, 2)]),
            flip_variable(x, 0), flip_variable(y, 0), invert_unit(x),
        ]
        assert results[0] == y + x and results[-1] == Poly.variable(ring, 2, 0, -2)
        assert x.terms == {(2, 0): 1} and y.terms == {(0, 1): 1}
    for i in (2, -1):
        with pytest.raises(ShapeError, match="out of range"):
            Poly.variable(GF(3), 2, i)


def test_from_images_rejects_an_image_that_is_not_the_frobenius_mod_p():
    F3 = GF(3)
    ring = W2(3)
    images = [Poly.variable(ring, 2, 0, 3), Poly.variable(ring, 2, 1, 3) + 1]
    with pytest.raises(InvariantViolation, match=r"F\(x2\) is not x2\^p mod p"):
        AffineChartLift.from_images(F3, (False, False), images)
    images[1] = Poly.variable(ring, 2, 1, 3) + Poly.constant(ring, 2, ring.p_elem)
    assert AffineChartLift.from_images(F3, (False, False), images).corrections[1] == P(F3, 2, "1")


@pytest.mark.parametrize("ring", [W2(5), W2(2, 2)], ids=repr)
def test_chart_lifts_are_built_over_a_field_not_a_lift_ring(ring, rng):
    # corrections live over F_q: over W2(F_5) the zero lift's phi determinant
    # read (1,0)*x1^4*x2^4, so a lift ring is refused before any correction is read
    zero = Poly.zero(ring, 2)
    for build in (
        lambda: AffineChartLift(ring, 2, (False, False), (zero, zero)),
        lambda: AffineChartLift(ring, 0, (), ()),
        lambda: standard_lift(ring, 2),
        lambda: random_chart_lift(rng, ring, 2),
    ):
        with pytest.raises(RingMismatch, match="over a finite field"):
            build()
    L = standard_lift(ring.residue_field, 2)
    assert phi_det(L) == Poly.monomial(L.field, 2, top_monomial(L))


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
        got = apply_lift(L, Poly.constant(ring, 1, c)).coefficient_of((0,))
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


def _raises_exactly(kind, fn, *args):
    with pytest.raises(AlgebraError) as info:
        fn(*args)
    assert type(info.value) is kind, info.value


def test_via_lifts_argument_contract():
    # the ring is checked first, then the variable count, then the mask
    F = GF(3)
    L = AffineChartLift(F, 2, (False, False), (P(F, 2, "x1^2"), P(F, 2, "2*x2")))
    eta = eta_between(standard_lift(F, 2), L)
    lifted = canonical_lift(P(F, 2, "x1"), L.lift_ring)
    for wrong_ring in (P(GF(5), 2, "x1"), P(GF(3, 2), 2, "x1"), lifted, P(GF(5), 3, "x1")):
        _raises_exactly(RingMismatch, eta.via_lifts, wrong_ring)
    for wrong_nvars in (P(F, 1, "x"), P(F, 3, "x3"), Poly.zero(F, 3)):
        _raises_exactly(ShapeError, eta.via_lifts, wrong_nvars)
    # the standard lift's one-term images would invert silently: the mask decides
    for eta_ in (eta, eta_between(standard_lift(F, 2), standard_lift(F, 2))):
        _raises_exactly(UnsupportedShape, eta_.via_lifts, P(F, 2, "x1^-1+x2"))
    _raises_exactly(ShapeError, eta.via_lifts, P(F, 3, "x1^-1"))


def test_via_lifts_on_zero_variable_chart():
    # with no chart variables both lifts act on constants alike: eta is 0
    for F in (GF(2), GF(2, 2)):
        L = standard_lift(F, 0)
        eta = eta_between(L, L)
        for c in F.elements():
            got = eta.via_lifts(Poly.constant(F, 0, c))
            assert got == Poly.zero(F, 0) and got.ring is F


def _random_laurent_poly(rng, field, mask) -> Poly:
    """Up to 4 terms; exponents down to -2 on the variables the mask inverts."""
    lows = [-2 if inverted else 0 for inverted in mask]
    terms = {
        tuple(rng.randint(low, field.p) for low in lows): field.random(rng)
        for _ in range(rng.randint(0, 4))
    }
    return Poly(field, len(mask), terms)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_via_lifts_matches_the_two_lift_route(field, rng):
    # the one-pass divided difference against divide_by_p(F2(a~) - F1(a~))
    # with both lift values built whole, on Laurent charts of 1 to 3 variables
    seen_negative = False
    for trial in range(18):
        n = 1 + trial % 3
        mask = tuple(rng.random() < 0.5 for _ in range(n - 1)) + (True,)
        L1, L2 = (_random_laurent_lift(rng, field, n, mask) for _ in range(2))
        standard = standard_lift(field, n, mask)
        args = [Poly.zero(field, n), Poly.constant(field, n, field.random(rng))]
        args += [_random_laurent_poly(rng, field, mask) for _ in range(6)]
        for f1, f2 in [(L1, L2), (standard, L2), (L1, standard), (L2, L2)]:
            eta = eta_between(f1, f2)
            for a in args:
                seen_negative |= any(e < 0 for m in a.terms for e in m)
                got = eta.via_lifts(a)
                assert got.ring is field and got == eta_through_two_lifts(f1, f2, a)
                assert got == eta(a)
    assert seen_negative


def test_via_lifts_builds_no_lift_value(monkeypatch):
    # on a seeded slice of sweep_eta, via_lifts makes no apply_lift, substitute,
    # Poly subtraction or divide_by_p call, and runs the accumulation that
    # substitute shares exactly twice per call: once for each lift
    counts = dict.fromkeys(["via_lifts", "apply_lift", "substitute", "sub", "divide_by_p"], 0)
    counts["accumulations"] = 0
    inside = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if inside:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    real_via_lifts = EtaFunction.via_lifts

    def via_lifts(self, a):
        counts["via_lifts"] += 1
        inside.append(a)
        try:
            return real_via_lifts(self, a)
        finally:
            inside.pop()

    monkeypatch.setattr(EtaFunction, "via_lifts", via_lifts)
    for module in (froblift, polyalg):
        for name in ("apply_lift", "substitute", "divide_by_p"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(Poly, "__sub__", counted("sub", Poly.__sub__))
    monkeypatch.setattr(Poly, "__rsub__", counted("sub", Poly.__rsub__))
    monkeypatch.setattr(polyalg, "_substituted", counted("accumulations", polyalg._substituted))
    for p in (2, 3, 5):
        (check,) = sweep_eta(p, 3, 4, 20130902)
        assert check["ok"], check
    calls = 3 * 3 * 4 * 2  # 3 primes, 3 lift pairs, 4 pairs (a, b), 2 laws
    assert counts == {
        "via_lifts": calls, "apply_lift": 0, "substitute": 0, "sub": 0, "divide_by_p": 0,
        "accumulations": 2 * calls,
    }


def test_corrupted_eta_fails():
    F9 = GF(3, 2)
    for F, correction, bump in [(GF(2), "x^3", 1), (F9, "[0,1]*x^4", F9.elem([0, 1]))]:
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


def test_phi_matrix_is_the_entrywise_derivative_matrix(rng):
    # the rows come from one walk per correction; each entry must still be
    # df_i/dx_j, plus x_i^(p-1) on the diagonal, over every field kind and size
    for F in (GF(2), GF(3), GF(5), GF(2, 2), GF(3, 2)):
        for n in (1, 2, 3, 4):
            for _ in range(8):
                L = random_chart_lift(rng, F, n)
                M = phi_matrix(L)
                for i, f in enumerate(L.corrections):
                    for j in range(n):
                        expected = f.partial_derivative(j)
                        if i == j:
                            expected = expected + Poly.variable(F, n, i, F.p - 1)
                        assert M[i, j] == expected


def test_low_decomposition_terms_do_not_touch_top_coefficient(rng):
    # dropping every x_s^p-divisible part of the corrections leaves the
    # distinguished coefficient of det(phi) unchanged
    for p in (2, 3):
        F = GF(p)
        for _ in range(60):
            n = rng.randint(1, 3)
            corrections = [random_poly(rng, F, n, p + 1, 4) for _ in range(n)]
            L = AffineChartLift(F, n, (False,) * n, corrections)
            lows = [
                Poly(F, n, {m: f.coefficient_of(m) for m in f.terms if max(m) < p})
                for f in L.corrections
            ]
            L_low = AffineChartLift(F, n, (False,) * n, lows)
            target = top_monomial(L)
            assert phi_det(L).coefficient_of(target) == phi_det(L_low).coefficient_of(target)


# -- the monomial lemma ------------------------------------------------------------


def test_int_det_matches_the_permutation_sum(rng):
    # the explicit 1x1, 2x2 and 3x3 formulas of the lemma's closed form
    for a in range(-2, 5):
        assert froblift._int_det([[a]]) == a
    for a, b, c, d in itertools.product(range(5), repeat=4):
        rows = [[a, b], [c, d]]
        assert froblift._int_det(rows) == int_det_by_permutations(rows), rows
    for _ in range(500):
        rows = [[rng.randint(-3, 16) for _ in range(3)] for _ in range(3)]
        assert froblift._int_det(rows) == int_det_by_permutations(rows), rows


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


def test_monomial_lemma_checks_p_and_the_entry_types_before_the_range():
    # True was read as p = 1 ("exponent 1 outside [0, 0]"), and a string entry
    # or a matrix that is no sequence of rows raised a bare TypeError
    with pytest.raises(UnsupportedField):
        monomial_lemma_check([[1]], True)
    with pytest.raises(UnsupportedField):
        monomial_lemma_check([[7]], 4)
    for K in ([["1"]], [[True]], [[1, 0], [0, 1.0]], 5, [5], [[0, 1], 2]):
        with pytest.raises(ShapeError):
            monomial_lemma_check(K, 5)


def test_monomial_lemma_names_both_witnesses(monkeypatch):
    # no exponent matrix breaks the lemma, so the expansion of K = [[1]] at p = 3,
    # which is 1, is replaced by 2*x1^2: a top term and a wrong closed form at once
    field = GF(3)
    fake = Poly.monomial(field, 1, (2,), field.from_int(2))
    monkeypatch.setattr(PolyMatrix, "determinant", lambda self: fake)
    res = monomial_lemma_check([[1]], 3)
    assert not res.ok
    assert res.failures == [
        {"claim": "top-coefficient-zero", "monomial": [2], "coefficient": "2"},
        {"claim": "closed-form", "expanded": "2*x1^2", "closed": "1"},
    ]
    assert res.details == {"det_block_mod_p": 1, "expanded": "2*x1^2"}


def test_monomial_lemma_random_sweep(rng):
    for p in (2, 3, 5):
        for _ in range(300):
            n = rng.randint(1, 3)
            m = rng.randint(1, n)
            K = [[rng.randint(0, p - 1) for _ in range(n)] for _ in range(m)]
            res = monomial_lemma_check(K, p)
            assert res.ok, (K, res.failures)


# -- serialization -------------------------------------------------------------


def test_lift_to_json_writes_the_field_mask_and_corrections():
    F = GF(2, 2)
    corrections = [poly_from_str(F, 2, "[0,1]*x1*x2^-1"), poly_from_str(F, 2, "0")]
    L = AffineChartLift(F, 2, [False, True], corrections)
    doc = json.loads(lift_to_json(L))
    assert doc == {
        "p": 2,
        "q": 4,
        "nvars": 2,
        "laurent_mask": [False, True],
        "corrections": ["[0,1]*x1^1*x2^-1", "0"],
    }
    assert [poly_from_str(F, 2, c) for c in doc["corrections"]] == corrections


def test_check_results_never_share_their_witness_lists():
    # sweeps append to a returned .failures list; a shared default would
    # carry one surface's witnesses into the next one's verdict
    first, second = CheckResult(), CheckResult()
    first.failures.append({"chart": "x"})
    first.details["checked"] = 1
    assert second.failures == [] and second.details == {} and second.ok
    assert not first.ok
    assert CheckResult().failures is not CheckResult().failures
    assert CheckResult().details is not CheckResult().details
