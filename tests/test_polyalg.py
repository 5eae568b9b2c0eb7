import itertools
import operator
import random
from math import factorial

import pytest

from oracles import (
    FqModel,
    WittModel,
    from_pkg_poly,
    naive_det_by_permutations,
    naive_laurent_mul_zp2,
    naive_partial_derivative,
    naive_poly_add,
    naive_poly_mul,
    naive_poly_mul_fq,
)
from w2frob import (
    GF,
    W2,
    CharMismatch,
    FiniteField,
    NotDivisible,
    Poly,
    ParseError,
    PolyMatrix,
    RingMismatch,
    ShapeError,
    UnitError,
    WittRing,
    canonical_lift,
    divide_by_p,
    embed_times_p,
    frobenius_substitute,
    invert_unit,
    poly_from_str,
    poly_to_str,
    reduce_mod_p,
    substitute,
    witt_to_residue_ring,
)
from w2frob import polyalg
from w2frob.polyalg import (
    divided_difference,
    flip_variable,
    partial_derivatives,
    phi_derivation,
    power_coefficient,
    reindex,
)
from w2frob.witt2 import SHIFT
from test_randgen import QS


def P(ring, nvars, s):
    return poly_from_str(ring, nvars, s)


def _as_zp2(p, *args):
    """A case on W2(F_p) under its other name Z/p^2: the same ring, GR(p^2, 1)."""
    return pytest.param(W2(p), *args, id="-".join([f"Z/{p}^2", *map(repr, args)]))


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
    # sizes 1 and 4 on either side: one-term factors take their own path
    F5 = GF(5)
    for f_size, g_size in [(1, 1), (1, 4), (4, 1), (4, 4)] * 25:
        f_terms = {
            (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, 4) for _ in range(f_size)
        }
        g_terms = {
            (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, 4) for _ in range(g_size)
        }
        f = Poly(F5, 2, {m: F5.from_int(c) for m, c in f_terms.items()})
        g = Poly(F5, 2, {m: F5.from_int(c) for m, c in g_terms.items()})
        expected = naive_poly_mul(from_pkg_poly(f), from_pkg_poly(g), 5)
        assert from_pkg_poly(f * g) == expected


def _ints(f) -> dict:
    """{monomial: int} of a polynomial over F_p or W2(F_p) (read as Z/p^2)."""
    out = {}
    for m in f.terms:
        c = f.coefficient_of(m)
        out[m] = witt_to_residue_ring(c).n if hasattr(f.ring, "residue_field") else c.as_int()
    return out


@pytest.mark.parametrize("ring", [_as_zp2(2), _as_zp2(3), W2(2), W2(5)], ids=repr)
def test_mul_over_lift_rings_matches_naive_oracle(ring, rng):
    # coefficients in (p) half of the time, so that p*p = 0 kills products
    p = ring.p

    def draw(size):
        terms = {}
        for _ in range(size):
            c = p * rng.randrange(1, p) if rng.random() < 0.5 else rng.randrange(1, p * p)
            terms[(rng.randint(-3, 3),)] = ring.from_int(c)
        return Poly(ring, 1, terms)

    def laurent(h):
        return {e: c for (e,), c in _ints(h).items()}

    for f_size, g_size in [(1, 1), (1, 3), (3, 1), (3, 3)] * 25:
        f, g = draw(f_size), draw(g_size)
        assert laurent(f * g) == naive_laurent_mul_zp2(laurent(f), laurent(g), p)
    px, py = (Poly.monomial(ring, 2, e, ring.p_elem) for e in [(1, 0), (0, 1)])
    assert (px * py).is_zero()
    assert px * (py + Poly.variable(ring, 2, 0)) == Poly.monomial(ring, 2, (2, 0), ring.p_elem)


def _slot_tuples(f) -> dict:
    """{monomial: coefficient tuple} of a polynomial over F_q, as ``FqModel`` reads it."""
    return {m: f.coefficient_of(m).coeffs for m in f.terms}


def test_mul_over_F9_matches_naive_oracle(rng):
    # the one-term path folds each packed product like the general one
    F9, model = GF(3, 2), FqModel(3, 2)

    def draw(size):
        terms = {(rng.randint(-2, 2), rng.randint(0, 2)): F9.random(rng) for _ in range(size)}
        return Poly(F9, 2, terms)

    for f_size, g_size in [(1, 1), (1, 4), (4, 1), (4, 4)] * 10:
        f, g = draw(f_size), draw(g_size)
        expected = naive_poly_mul_fq(_slot_tuples(f), _slot_tuples(g), model)
        assert _slot_tuples(f * g) == expected


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        P(GF(2), 1, "x") * P(GF(3), 1, "x")
    with pytest.raises(RingMismatch):
        P(GF(2), 1, "x") * P(GF(2), 2, "x1")
    for lift in (embed_times_p, canonical_lift):  # a field is no lift ring
        with pytest.raises(RingMismatch):
            lift(P(GF(3), 1, "x"), GF(3))


@pytest.mark.parametrize("q", [(5, 1), (2, 2)], ids=["q=5", "q=4"])
def test_a_ring_built_by_its_class_is_a_ring_of_its_own(q):
    # only GF/W2 rings combine: over F_q and W2(F_q), a polynomial over a
    # directly built ring raises against one over GF's or W2's, either way round
    p, m = q
    for own, shared in [(FiniteField(p, m), GF(p, m)), (WittRing(GF(p, m)), W2(p, m))]:
        f, g = P(own, 2, "x1+x2^2"), P(shared, 2, "x1+x2^2")
        assert f * P(own, 2, "x1") == P(own, 2, "x1^2+x1*x2^2")  # usable on its own
        assert f != g and not f == g
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(RingMismatch):
                op(f, g)
            with pytest.raises(RingMismatch):
                op(g, f)
        with pytest.raises(RingMismatch):
            substitute(f, [Poly.variable(shared, 1, 0)] * 2)
        with pytest.raises(RingMismatch):
            substitute(g, [Poly.variable(own, 1, 0)] * 2)
        with pytest.raises(CharMismatch):
            Poly(own, 1, {(0,): shared.one})
    with pytest.raises(RingMismatch):
        canonical_lift(P(FiniteField(p, m), 1, "x"), W2(p, m))


def test_constructor_reads_elements_of_its_ring_and_ints():
    F5 = GF(5)
    with pytest.raises(CharMismatch):
        Poly(GF(3), 1, {(0,): GF(3, 2).elem([0, 1])})
    with pytest.raises(CharMismatch):
        Poly(F5, 1, {(1,): W2(5).from_int(7)})
    with pytest.raises(CharMismatch):
        Poly.constant(F5, 1, "2")
    assert Poly.monomial(F5, 1, (2,), 3) == P(F5, 1, "3*x^2")
    assert Poly(F5, 1, {(0,): 7, (1,): 5}) == Poly.constant(F5, 1, F5.from_int(2))
    f = P(W2(2, 2), 2, "([1,1],[0,1])*x1*x2^-1+x2") ** 3
    assert all(type(c) is int for c in f.terms.values())
    assert f.coefficient_of((0, 3)) == W2(2, 2).one


def test_a_polynomial_is_no_coefficient_of_the_constructor():
    # Poly read c.n off any coefficient whose ring was its own: a bare AttributeError here
    F5 = GF(5)
    c = Poly.constant(F5, 1, 1)
    for build in (lambda: Poly(F5, 1, {(0,): c}), lambda: Poly.constant(F5, 1, c)):
        with pytest.raises(CharMismatch, match="is no coefficient over F5"):
            build()


@pytest.mark.parametrize("ring", [GF(5), GF(2, 2), W2(3)], ids=repr)
def test_an_element_operand_reads_as_its_int(ring):
    # x + c and c - x raised TypeError for an element c, while x * c took it
    x = Poly.variable(ring, 2, 0, 2) + Poly.variable(ring, 2, 1)
    for n in range(ring.pk + 1):
        c = ring.from_int(n)
        assert x + c == x + n and c + x == n + x
        assert x - c == x - n and c - x == n - x
        assert x * c == x * n and c * x == n * x
    assert (x * 0).is_zero() and x * ring.one == x * 1 == x


@pytest.mark.parametrize("ring", [GF(5), GF(2, 2), W2(3)], ids=repr)
def test_eq_reads_an_operand_as_add_does(ring):
    # == read ints alone: Poly.constant(ring, 1, 1) == ring.one was False, and != True
    for n in range(ring.pk + 1):
        f, c = Poly.constant(ring, 1, n), ring.from_int(n)
        assert f == c and c == f and not f != c and not c != f
        assert f == f + 0 and not f == c + 1 and f != c + 1
    x = Poly.variable(ring, 2, 0)
    # an element of another ring is unequal, as a Poly over another ring is
    for c in (GF(7).one, W2(ring.p, ring.m).one if ring.k == 1 else ring.residue_field.one):
        assert not x == c and x != c and not c == x and c != x


@pytest.mark.parametrize("ring", [GF(5), GF(2, 2), W2(3)], ids=repr)
def test_a_foreign_element_is_a_char_mismatch_under_every_operator(ring):
    x = Poly.variable(ring, 2, 0)
    # another characteristic, and the other ring of the same p and m
    foreign = [GF(7).one, W2(ring.p, ring.m).one if ring.k == 1 else ring.residue_field.one]
    for c in foreign:
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(CharMismatch, match="is no coefficient"):
                op(x, c)
            with pytest.raises(CharMismatch, match="is no coefficient"):
                op(c, x)


@pytest.mark.parametrize("exp", [1.5, 1.0, "2", True, None], ids=repr)
def test_constructors_reject_exponents_that_are_not_ints(exp):
    # the exponent kernels add ints: 1.5 would print as x1^1.5 and "2" would
    # concatenate in a product; 1.0 and True equal 1, so each is refused by
    # its type, not by its value
    F3 = GF(3)
    with pytest.raises(ShapeError, match="is not an int"):
        Poly(F3, 1, {(exp,): 1})
    with pytest.raises(ShapeError, match="is not an int"):
        Poly(F3, 2, {(1, 0): 2, (0, exp): 1})
    with pytest.raises(ShapeError, match="is not an int"):
        Poly.monomial(F3, 2, (1, exp))
    with pytest.raises(ShapeError, match="is not an int"):
        Poly.variable(F3, 2, 0, exp)
    for ring in (F3, W2(3)):  # f ** True was f, and f ** 1.0 a bare TypeError
        with pytest.raises(ShapeError, match="is not an int"):
            P(ring, 2, "x1+x2") ** exp
    # an exponent list is still read as its tuple
    assert Poly.monomial(F3, 2, [2, -1]) == P(F3, 2, "x1^2*x2^-1")


@pytest.mark.parametrize("nvars", [-1, -3, 1.0, True, "2", None], ids=repr)
def test_constructors_reject_variable_counts_that_are_not_counts(nvars):
    # Poly.constant(F3, -1, 1) was a polynomial with nvars -1 and the monomial ()
    F3 = GF(3)
    for build in [
        lambda: Poly(F3, nvars),
        lambda: Poly(F3, nvars, {(): 1}),
        lambda: Poly.zero(F3, nvars),
        lambda: Poly.constant(F3, nvars, 1),
        lambda: Poly.monomial(F3, nvars, ()),
    ]:
        with pytest.raises(ShapeError, match="variable count"):
            build()
    with pytest.raises(ShapeError):
        Poly.variable(F3, nvars, 0)
    assert Poly.constant(F3, 0, 2) == Poly(F3, 0, {(): 2})


def test_constructors_raise_shape_errors_for_bad_monomials_and_indices():
    F3 = GF(3)
    for key in [5, "ab", frozenset({1}), None]:
        with pytest.raises(ShapeError, match="does not have"):
            Poly(F3, 2 if key == "ab" else 1, {key: 1})
    for i in [True, False, 1.0, "1", None]:
        with pytest.raises(ShapeError, match="is not an int"):
            Poly.variable(F3, 2, i, 2)
    assert Poly.variable(F3, 2, 1, 2) == P(F3, 2, "x2^2")


def test_index_queries_raise_shape_errors():
    F3 = GF(3)
    f = P(F3, 2, "x1^2*x2+x2^3")
    for i in (-1, 2, 7, True, False, 1.0, "1"):
        with pytest.raises(ShapeError, match="out of range for 2 variables"):
            f.degree_in(i)
        with pytest.raises(ShapeError, match="out of range for 2 variables"):
            f.collect_by_var(i)
        with pytest.raises(ShapeError, match="out of range for 2 variables"):
            f.partial_derivative(i)
    with pytest.raises(ShapeError, match="out of range"):
        Poly.zero(F3, 2).degree_in(2)  # the zero polynomial too, before its None
    for mask in [(), (True,), (True, True, True)]:  # a short mask was a bare IndexError
        with pytest.raises(ShapeError, match="does not have 2 entries"):
            P(F3, 2, "x1^-1+x2^-1").respects_mask(mask)
    for mono in [(1,), (1, 0, 0), (), (2.0, True), (2, True), (2, 1.0)]:
        with pytest.raises(ShapeError, match="does not have 2 exponents"):
            f.coefficient_of(mono)
    assert [f.degree_in(0), f.degree_in(1)] == [2, 3]
    assert f.coefficient_of([2, 1]) == F3.one


def test_invert_unit_names_the_zero_polynomial():
    for ring in (GF(3), GF(2, 2), W2(3), W2(2, 2)):
        for nvars in (0, 1, 6):
            with pytest.raises(UnitError, match="not a unit: the zero polynomial"):
                invert_unit(Poly.zero(ring, nvars))


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


# F_p, F_q for q in {4, 8, 9}, W2(F_p) and W2(F_q): every kind of coefficient ring
_MODEL_RINGS = [GF(2), GF(3), GF(5), GF(2, 2), GF(2, 3), GF(3, 2)]
_MODEL_RINGS += [W2(2), W2(3), W2(5), W2(2, 2), W2(2, 3), W2(3, 2)]


def _model_of(ring):
    """The oracle model of a package ring, and the map of its elements into it."""
    if hasattr(ring, "residue_field"):
        return WittModel(ring.p, ring.m), lambda u: tuple(c.coeffs for c in ring.witt_coords(u))
    return FqModel(ring.p, ring.m), lambda u: u.coeffs


def _to_model(f, to_model) -> dict:
    return {m: to_model(f.coefficient_of(m)) for m in f.terms}


def _random_laurent(rng, ring, nvars: int, max_terms: int) -> Poly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[tuple(rng.randint(-2, 3) for _ in range(nvars))] = ring.random(rng)
    return Poly(ring, nvars, terms)


@pytest.mark.parametrize("ring", _MODEL_RINGS, ids=repr)
def test_one_pass_derivatives_match_single_ones_and_the_oracle(ring, rng):
    model, to_model = _model_of(ring)
    for _ in range(12):
        f = _random_laurent(rng, ring, 3, 5)
        derivatives = partial_derivatives(f, range(3))
        assert derivatives == [f.partial_derivative(j) for j in range(3)]
        for j, d in enumerate(derivatives):
            assert _to_model(d, to_model) == naive_partial_derivative(
                _to_model(f, to_model), j, model
            )
        # any columns, in the order given
        assert partial_derivatives(f, (2, 0)) == [derivatives[2], derivatives[0]]
        assert partial_derivatives(f, ()) == []


def test_one_pass_derivatives_reject_bad_columns():
    f = P(GF(3), 2, "x1^2*x2")
    for columns in [(2,), (-1,), (0, 2), (True,), (1.0,)]:
        with pytest.raises(ShapeError, match="out of range for 2 variables"):
            partial_derivatives(f, columns)


# every supported field: F_p for p <= 17, and F4, F8, F9 with packed coefficients
_FIELDS = [GF(p) for p in (2, 3, 5, 7, 11, 13, 17)] + [GF(2, 2), GF(2, 3), GF(3, 2)]


def _laurent_poly(ring, rng, nterms: int, exponents) -> Poly:
    """Up to nterms random terms in two variables, exponents drawn from ``exponents``."""
    return Poly(
        ring, 2, {(rng.choice(exponents), rng.choice(exponents)): ring.random(rng) for _ in range(nterms)}
    )


@pytest.mark.parametrize("ring", [*_FIELDS, _as_zp2(3), W2(2), W2(2, 2)], ids=repr)
def test_phi_derivation_matches_the_composition(ring, rng):
    # Laurent exponents, exponents divisible by p (whose derivative dies) and
    # zero values: trial % 4 zeroes no value, the first, the second or both
    p = ring.p
    exponents = (-2 * p, -p, -2, -1, 0, 1, 2, p, p + 1, 2 * p)
    for trial in range(40):
        f = _laurent_poly(ring, rng, 5, exponents)
        values = [
            Poly.zero(ring, 2) if trial >> i & 1 else _laurent_poly(ring, rng, 3, exponents)
            for i in range(2)
        ]
        expected = Poly.zero(ring, 2)
        for i, v in enumerate(values):
            expected = expected + frobenius_substitute(f.partial_derivative(i)) * v
        assert phi_derivation(f, values) == expected
    with pytest.raises(ShapeError):
        phi_derivation(f, values[:1])
    with pytest.raises(RingMismatch):
        phi_derivation(f, [values[0], Poly.zero(GF(3 if p == 2 else 2), 2)])


def _product_of_copies(f: Poly, e: int) -> Poly:
    power = Poly.constant(f.ring, f.nvars, 1)
    for _ in range(e):
        power = power * f
    return power


def _counting_products(monkeypatch):
    """Count every Poly product from here on; the returned list grows by one per product."""
    products = []
    real_mul = Poly.__mul__

    def counting_mul(a, b):
        products.append(1)
        return real_mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    return products


@pytest.mark.parametrize(
    "ring", [W2(2), W2(3), W2(5), W2(2, 2), W2(2, 3), W2(3, 2)], ids=repr
)
def test_first_order_power_matches_repeated_products(ring, rng, monkeypatch):
    # f = c*x^M + r with c a unit other than 1, M Laurent or not, and p | r:
    # f**e is two-term binomial arithmetic with no Poly product at all, for
    # e = 0 mod p and e = p^2 as for any other e
    p, one = ring.p, Poly.constant(ring, 2, 1)
    powers = sorted({2, 3, p, 2 * p, p * p, p * p + 1})
    for _ in range(20):
        c = _random_unit_coeff(ring, rng)
        while Poly.constant(ring, 2, c) == one:
            c = _random_unit_coeff(ring, rng)
        f = Poly.monomial(ring, 2, (rng.randint(-2, 2), rng.randint(-2, 2)), c)
        for _ in range(rng.randint(0, 3)):
            mono = (rng.randint(-2, 3), rng.randint(-2, 3))
            f = f + Poly.monomial(ring, 2, mono, ring.p_elem * ring.random(rng))
        for e in powers:
            expected = _product_of_copies(f, e)
            with monkeypatch.context() as m:
                products = _counting_products(m)
                assert f ** e == expected, (f, e)
            assert not products
    # every other base squares: its reduction has no terms, or two or more
    p_x = Poly.monomial(ring, 2, (1, -1), ring.p_elem)
    two_units = P(ring, 2, "x1^-1+x2") + p_x
    for f in (Poly.zero(ring, 2), p_x, p_x + Poly.monomial(ring, 2, (0, 2), ring.p_elem), two_units):
        for e in (0, 1, 2, p, p + 1):
            assert f ** e == _product_of_copies(f, e), (f, e)


@pytest.mark.parametrize(
    "ring",
    [GF(2), GF(3), GF(5), GF(2, 2), GF(2, 3), GF(3, 2)]
    + [_as_zp2(p) for p in (2, 3, 5)]
    + [W2(2), W2(3), W2(5), W2(2, 2), W2(2, 3), W2(3, 2)],
    ids=repr,
)
def test_multinomial_power_matches_repeated_products(ring, rng):
    # f has 2-4 terms, Laurent or not, two or more of them units and, over a lift
    # ring, some divisible by p: a ruled shear a*y + b is such a base
    p, lift_ring = ring.p, hasattr(ring, "residue_field")
    for _ in range(12):
        nterms = rng.randint(2, 4)
        units = nterms if not lift_ring else rng.randint(2, nterms)
        terms = {}
        while len(terms) < nterms:
            mono = (rng.randint(-2, 3), rng.randint(-2, 3))
            c = _random_unit_coeff(ring, rng)
            if len(terms) >= units:
                c = ring.p_elem * c
            terms.setdefault(mono, c)
        f = Poly(ring, 2, terms)
        for e in sorted({2, 3, p, p + 1, 2 * p}):
            assert f ** e == _product_of_copies(f, e), (f, e)


@pytest.mark.parametrize(
    "ring", [GF(5), GF(2, 2), GF(2, 3), GF(3, 2), _as_zp2(3), W2(2, 2), W2(3, 2)], ids=repr
)
def test_sub_matches_adding_the_negative(ring, rng):
    # few exponents, so that many terms of a and b meet and some cancel
    for _ in range(60):
        a, b = (_laurent_poly(ring, rng, 4, (-1, 0, 1)) for _ in range(2))
        diff = a - b
        assert diff == a + (-b)
        assert 0 not in diff.terms.values()
        assert a - a == Poly.zero(ring, 2) and not (a - a).terms
        assert (a + b) - b == a


def test_sub_does_not_borrow_between_packed_slots():
    # each slot of a is below that of b: an int subtraction of the packed
    # coefficients would borrow from the next slot
    for ring in (GF(3, 2), GF(2, 3), W2(3, 2), W2(2, 3)):
        xi = ring.wrap(1 << SHIFT)  # slots (0, 1, ...)
        a, b = (Poly.monomial(ring, 1, (1,), c) for c in (xi, ring.one))  # b: (1, 0, ...)
        assert a - b == a + (-b)
        assert (a - b).coefficient_of((1,)) == xi - ring.one
        assert b - a == -(a - b)


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


def test_det_of_a_1x1_matrix_is_its_entry(monkeypatch):
    # no reach list and no minors: the expansion is never entered
    monkeypatch.setattr(polyalg, "_det", None)
    for ring in (GF(3), GF(2, 2), W2(5), W2(3, 2)):
        for entry in (P(ring, 2, "x1^-1*x2+x1"), Poly.zero(ring, 2), Poly.constant(ring, 0, 1)):
            assert PolyMatrix([[entry]]).determinant() is entry


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


def _assert_det_matches_oracle(rows, model, to_model):
    got = PolyMatrix(rows).determinant()
    expected = naive_det_by_permutations(
        [[_to_model(e, to_model) for e in row] for row in rows], model
    )
    assert _to_model(got, to_model) == expected
    return got


@pytest.mark.parametrize("ring", _MODEL_RINGS, ids=repr)
def test_det_matches_permutation_oracle_over_every_ring_kind(ring, rng):
    # Laurent exponents, zero entries, zero rows and columns, repeated rows
    model, to_model = _model_of(ring)
    zero = Poly.zero(ring, 2)
    for n in (1, 2, 3, 4):
        for _ in range(2):
            rows = [[_random_laurent(rng, ring, 2, 2) for _ in range(n)] for _ in range(n)]
            _assert_det_matches_oracle(rows, model, to_model)
            k = rng.randrange(n)
            zero_row = [row if i != k else [zero] * n for i, row in enumerate(rows)]
            assert _assert_det_matches_oracle(zero_row, model, to_model).is_zero()
            zero_col = [[e if j != k else zero for j, e in enumerate(row)] for row in rows]
            assert _assert_det_matches_oracle(zero_col, model, to_model).is_zero()
            if n > 1:
                repeated = [rows[0], *rows[1:-1], rows[0]]
                assert _assert_det_matches_oracle(repeated, model, to_model).is_zero()


@pytest.mark.parametrize("ring", _MODEL_RINGS, ids=repr)
def test_det_of_a_signed_permutation_matrix(ring, rng):
    # one nonzero entry +-c_i*x^m_i per row: the determinant is a single product
    model, to_model = _model_of(ring)
    zero = Poly.zero(ring, 2)
    for perm in [(0, 1, 2, 3), (1, 0, 3, 2), (3, 0, 1, 2), (2, 3, 1, 0)]:
        rows = []
        for i in range(4):
            c = ring.random(rng)
            while c == ring.zero:
                c = ring.random(rng)
            entry = Poly.monomial(ring, 2, (rng.randint(-2, 2), i), c)
            entry = -entry if rng.random() < 0.5 else entry
            rows.append([entry if j == perm[i] else zero for j in range(4)])
        _assert_det_matches_oracle(rows, model, to_model)


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


@pytest.mark.parametrize("ring", [R for p, m in QS for R in (GF(p, m), W2(p, m))], ids=repr)
def test_power_coefficient_reads_the_full_power(ring, rng):
    # seeded f over 0-4 variables, Laurent or not, zero or not, e in 0..5: every
    # monomial of f**e and a few out of its reach read the same coefficient element
    for trial in range(80):
        nvars = trial % 5
        f = _wide_poly(ring, rng, nvars, rng.randint(0, 5), low=-2 if trial % 3 else 0)
        e = rng.randint(0, 5)
        power = f ** e
        far = [tuple(rng.randint(-12, 16) for _ in range(nvars)) for _ in range(4)]
        for mono in [*power.terms, *far]:
            got = power_coefficient(f, e, mono)
            assert got == power.coefficient_of(mono) and got.ring is ring, (f, e, mono)


def test_power_coefficient_edge_cases():
    F5, W = GF(5), W2(3)
    zero = Poly.zero(F5, 2)
    assert power_coefficient(zero, 0, (0, 0)) == F5.one
    assert power_coefficient(zero, 0, [1, 0]) == F5.zero
    assert power_coefficient(zero, 3, (0, 0)) == F5.zero
    f = P(F5, 2, "x1^-1+2*x2+3")
    assert power_coefficient(f, 0, (0, 0)) == F5.one
    assert power_coefficient(f, 3, (-3, 0)) == F5.one
    assert power_coefficient(f, 3, (-2, 1)) == F5.from_int(3 * 2)
    for out_of_reach in [(-4, 0), (0, 4), (1, 0), (-1, 3)]:
        assert power_coefficient(f, 3, out_of_reach) == F5.zero
    c = Poly.constant(W, 0, W.from_int(5))
    assert power_coefficient(c, 4, ()) == W.from_int(5) ** 4
    assert power_coefficient(Poly.zero(W, 0), 2, ()) == W.zero
    for e in [-1, 1.0, True, None]:
        with pytest.raises(ShapeError):
            power_coefficient(f, e, (0, 0))
    for mono in [(0,), (True, 0), (0, False), (1.5, 0), (0, 1.0)]:
        # the constructor's rule: bool is not read as 1, nor a float as an int
        with pytest.raises(ShapeError):
            power_coefficient(f, 2, mono)


def test_power_coefficient_of_a_dense_quartic_matches_the_full_power(rng):
    # Fedder's coefficient of (xyzw)^(p-1) in f^(p-1) for a quartic with all 35 terms
    F7 = GF(7)
    monos = [m for m in itertools.product(range(5), repeat=4) if sum(m) == 4]
    quartic = Poly(F7, 4, {m: rng.randrange(1, 7) for m in monos})
    assert len(quartic.terms) == 35
    full = quartic ** 6
    for mono in [(6, 6, 6, 6), *rng.sample(sorted(full.terms), 8), (7, 6, 6, 5), (25, 0, 0, -1)]:
        assert power_coefficient(quartic, 6, mono) == full.coefficient_of(mono), mono


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_power_coefficient_of_the_fermat_quartic(p):
    # (x^4 + y^4 + z^4 + w^4)^(p-1) meets (xyzw)^(p-1) only when 4 | p - 1, with
    # the multinomial (p-1)! / (((p-1)/4)!)^4
    F = GF(p)
    fermat = P(F, 4, "x1^4+x2^4+x3^4+x4^4")
    k = (p - 1) // 4
    want = factorial(p - 1) // factorial(k) ** 4 if (p - 1) % 4 == 0 else 0
    assert power_coefficient(fermat, p - 1, (p - 1,) * 4) == F.from_int(want)


# -- reduction ----------------------------------------------------------------


def test_reduce_mod_p_examples():
    z4 = W2(2)
    f = Poly(z4, 1, {(1,): z4.from_int(3), (0,): z4.from_int(2)})
    assert reduce_mod_p(f) == P(GF(2), 1, "x")
    assert reduce_mod_p(Poly.zero(z4, 1)).is_zero()
    z9 = W2(3)
    assert reduce_mod_p(Poly(z9, 1, {(5,): z9.from_int(9 % 9 + 9)})).is_zero()


def test_reduce_mod_p_is_homomorphism(rng):
    for ring in (W2(3), W2(2, 2)):
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


def _random_unit_coeff(ring, rng):
    """A random unit: a coefficient whose reduction mod p (over a field: itself) is nonzero."""
    while True:
        c = Poly.constant(ring, 1, ring.random(rng))
        if (reduce_mod_p(c) if hasattr(ring, "residue_field") else c):
            return c.coefficient_of((0,))


def test_invert_unit_lift_ring(rng):
    for ring in (W2(2), W2(3), W2(5), W2(2, 2), W2(3, 2)):
        x2 = Poly.variable(ring, 1, 0, 2)
        f = x2 + Poly.monomial(ring, 1, (5,), ring.p_elem)
        g = invert_unit(f)
        assert f * g == Poly.constant(ring, 1, 1)
        for _ in range(50):
            # random unit: c * x^k + p * (junk), with c a unit that need not be 1
            junk = Poly(
                ring, 1, {(rng.randint(-3, 3),): ring.p_elem * ring.random(rng) for _ in range(3)}
            )
            head = Poly.monomial(ring, 1, (rng.randint(-3, 3),), _random_unit_coeff(ring, rng))
            assert head * invert_unit(head) == Poly.constant(ring, 1, 1), ring  # one term
            u = head + junk
            inv = invert_unit(u)
            assert u * inv == Poly.constant(ring, 1, 1), ring
            assert inv * u == Poly.constant(ring, 1, 1), ring
        with pytest.raises(UnitError, match="reduction mod p is not a monomial"):
            invert_unit(Poly.monomial(ring, 1, (1,), ring.p_elem))


# -- substitution ------------------------------------------------------------------


def _naive_substitute(f: dict, images: list, nvars: int, N: int) -> dict:
    """Sum over the terms of f of c * prod images[i]^e_i, mod N, on {exponent tuple: int} dicts.

    Each image is a monomial {mono: c} or zero {}; a negative power of a
    monomial inverts it, which needs c to be a unit mod N.
    """
    total: dict = {}
    for mono, c in f.items():
        term = {(0,) * nvars: c}
        for img, e in zip(images, mono):
            if e < 0:
                ((m, d),) = img.items()
                img, e = {tuple(-a for a in m): pow(d, -1, N)}, -e
            for _ in range(e):
                term = naive_poly_mul(term, img, N)
        total = naive_poly_add(total, term, N)
    return total


@pytest.mark.parametrize("ring", [GF(5), _as_zp2(3), _as_zp2(5), W2(3)], ids=repr)
def test_substitute_monomial_images_match_naive_oracle(ring, rng):
    # images c*x1^a*x2^b with units c that need not be 1, or 0; Laurent source
    # exponents; on even trials both images are powers of x1, so that many
    # source terms land on one target monomial
    for trial in range(60):
        zero_slot = trial % 3  # image 0 or 1 is zero, or (2) neither is
        images = []
        for i in range(2):
            if i == zero_slot:
                images.append(Poly.zero(ring, 2))
            else:
                mono = (rng.randint(-2, 2), rng.randint(-1, 1)) if trial % 2 else (1, 0)
                images.append(Poly.monomial(ring, 2, mono, _random_unit_coeff(ring, rng)))
        # a zero image only meets exponents >= 0, which remove the terms with > 0
        lows = [0 if i == zero_slot else -3 for i in range(2)]
        f = Poly(
            ring,
            2,
            {tuple(rng.randint(low, 3) for low in lows): ring.random(rng) for _ in range(6)},
        )
        expected = _naive_substitute(_ints(f), [_ints(img) for img in images], 2, ring.pk)
        assert _ints(substitute(f, images)) == expected


def _substitute_by_products(f: Poly, images: list) -> Poly:
    """Sum over the terms of f of c * prod images[i]^e_i, one ``Poly`` product per factor."""
    ring, nvars = images[0].ring, images[0].nvars
    total = Poly.zero(ring, nvars)
    for mono in f.terms:
        term = Poly.constant(ring, nvars, f.coefficient_of(mono))
        for img, e in zip(images, mono):
            factor = invert_unit(img) if e < 0 else img
            for _ in range(abs(e)):
                term = term * factor
        total = total + term
    return total


@pytest.mark.parametrize("ring", [GF(2, 2), W2(2, 2), W2(2, 3), W2(3, 2)], ids=repr)
def test_substitute_monomial_images_over_extension_rings(ring, rng):
    # packed coefficients: a source term multiplies up to three image powers
    # other than 1 into its coefficient, and each product must be folded
    # before the next, since a fold reduces only the slots of one product
    one = Poly.constant(ring, 3, 1)
    for _ in range(40):
        images = []
        for _ in range(3):
            c = _random_unit_coeff(ring, rng)
            while Poly.constant(ring, 3, c) == one:
                c = _random_unit_coeff(ring, rng)
            mono = tuple(rng.randint(-1, 2) for _ in range(3))
            images.append(Poly.monomial(ring, 3, mono, c))
        f = Poly(
            ring,
            3,
            {tuple(rng.randint(-2, 3) for _ in range(3)): ring.random(rng) for _ in range(5)},
        )
        assert substitute(f, images) == _substitute_by_products(f, images)


@pytest.mark.parametrize("ring", [GF(5), GF(2, 2), _as_zp2(3), W2(3), W2(2, 2)], ids=repr)
def test_substitute_mixed_images_match_products(ring, rng):
    # a monomial, zero or many-term image in each slot, in every combination:
    # monomials shift exponents, and only many-term images are raised to powers;
    # over a lift ring a many-term image may be a unit (its reduction a monomial)
    unit, lift_ring = _random_unit_coeff, hasattr(ring, "residue_field")
    for trial in range(81):
        kinds = [trial // 3**i % 3 for i in range(3)]  # 0 monomial, 1 zero, 2 many terms
        images, lows = [], []
        for kind in kinds:
            mono = tuple(rng.randint(-1, 2) for _ in range(2))
            img = Poly.monomial(ring, 2, mono, unit(ring, rng))
            if kind == 1:
                img = Poly.zero(ring, 2)
            elif kind == 2:
                other = tuple(rng.randint(0, 2) for _ in range(2))
                tail = ring.p_elem if lift_ring else unit(ring, rng)
                img = img + Poly.monomial(ring, 2, other, tail)
            images.append(img)
            unit_image = kind == 0 or (kind == 2 and lift_ring)
            lows.append(-2 if unit_image else 0)  # negative exponents invert the image
        f = Poly(
            ring,
            3,
            {tuple(rng.randint(low, 3) for low in lows): ring.random(rng) for _ in range(5)},
        )
        asked = []

        def powers(i, e):
            asked.append(i)
            return images[i] ** e

        assert substitute(f, images, powers=powers) == _substitute_by_products(f, images)
        assert all(kinds[i] == 2 for i in asked)


def test_substitute_zero_image_under_a_negative_exponent_raises():
    for ring in [GF(3), W2(3), W2(2, 2)]:
        f = P(ring, 2, "x1^2+x1*x2^-1")
        with pytest.raises(UnitError, match="not a unit: the zero polynomial"):
            substitute(f, [Poly.variable(ring, 2, 0), Poly.zero(ring, 2)])
        if ring.pk != ring.p:  # p * x2 is no unit either
            with pytest.raises(UnitError, match="not a unit: reduction mod p is not a monomial"):
                substitute(f, [Poly.variable(ring, 2, 0), P(ring, 2, f"{ring.p}*x2")])
    # a zero image under positive exponents only removes those terms
    F3 = GF(3)
    f = P(F3, 2, "x1^2+2*x1*x2+x2^3")
    assert substitute(f, [Poly.variable(F3, 2, 1, -1), Poly.zero(F3, 2)]) == P(F3, 2, "x2^-2")


@pytest.mark.parametrize("ring", [_as_zp2(3), W2(2), W2(5), W2(2, 2), W2(3, 2)], ids=repr)
def test_divided_difference_is_divide_by_p_of_the_substitutions(ring, rng):
    # two image sets that agree mod p, with monomial, many-term and unit images
    # under negative exponents: one pass gives divide_by_p of the difference
    field = ring.residue_field
    for _ in range(40):
        first = []
        for i in range(2):
            img = Poly.monomial(ring, 2, tuple(rng.randint(-1, 2) for _ in range(2)),
                                _random_unit_coeff(ring, rng))
            if rng.random() < 0.5:
                img = img + Poly.monomial(ring, 2, (rng.randint(0, 2), i), ring.p_elem)
            first.append(img)
        second = [img + Poly.monomial(ring, 2, (rng.randint(0, 2), rng.randint(0, 2)),
                                      ring.p_elem * ring.random(rng)) for img in first]
        f = Poly(ring, 2, {(rng.randint(-2, 3), rng.randint(-2, 3)): ring.random(rng)
                           for _ in range(rng.randint(0, 5))})
        want = divide_by_p(substitute(f, second) - substitute(f, first))
        got = divided_difference(f, (first, None), (second, None))
        assert got.ring is field and got == want
        assert divided_difference(f, (first, None), (first, None)) == Poly.zero(field, 2)


def test_divided_difference_names_a_monomial_it_cannot_divide():
    # images that differ mod p: the same NotDivisible, with the same message,
    # as divide_by_p on the whole difference (x1 + 1)*x2 - x1*x2 = x2
    for ring in (W2(3), W2(2, 2)):
        f = P(ring, 2, "x1*x2")
        first = [Poly.variable(ring, 2, 0), Poly.variable(ring, 2, 1)]
        second = [first[0] + 1, first[1]]
        with pytest.raises(NotDivisible) as whole:
            divide_by_p(substitute(f, second) - substitute(f, first))
        with pytest.raises(NotDivisible) as fused:
            divided_difference(f, (first, None), (second, None))
        assert str(fused.value) == str(whole.value) == "coefficient at (0, 1) is not divisible by p"


def test_divided_difference_rejects_what_it_cannot_take():
    ring = W2(3)
    x, y = Poly.variable(ring, 2, 0), Poly.variable(ring, 2, 1)
    f = P(ring, 2, "x1*x2")
    with pytest.raises(RingMismatch, match="no division by p"):
        divided_difference(P(GF(3), 2, "x1"), ([x, y], None), ([x, y], None))
    with pytest.raises(ShapeError, match="need 2 images a side, got 2 and 1"):
        divided_difference(f, ([x, y], None), ([x], None))
    with pytest.raises(RingMismatch):
        divided_difference(f, ([x, y], None), ([x, Poly.variable(W2(5), 2, 1)], None))
    with pytest.raises(RingMismatch):
        divided_difference(f, ([x, y], None), ([x, Poly.variable(ring, 3, 1)], None))
    # with no variables both sides leave a constant alone: the difference is 0
    c = Poly.constant(W2(2, 2), 0, 3)
    assert divided_difference(c, ((), None), ((), None)) == Poly.zero(GF(2, 2), 0)


# -- exponent kernels -------------------------------------------------------------


@pytest.mark.parametrize("nvars", range(7))
def test_exponent_kernels_match_the_generic_forms(nvars, rng):
    # arities 0-4 are written out, 5 and up fall back to the generic forms
    add, scale = polyalg._kernels(nvars)
    assert (nvars >= 5) == (add is polyalg._add_any)
    for _ in range(50):
        a = tuple(rng.randint(-9, 9) for _ in range(nvars))
        b = tuple(rng.randint(-9, 9) for _ in range(nvars))
        k = rng.randint(-4, 17)
        assert add(a, b) == tuple(x + y for x, y in zip(a, b))
        assert scale(k, a) == tuple(k * x for x in a)
        assert scale(-1, a) == tuple(-x for x in a)
        assert type(add(a, b)) is type(scale(k, a)) is tuple


def _wide_poly(ring, rng, nvars: int, nterms: int, low: int = -2) -> Poly:
    """Up to nterms random terms, exponents in [low, 3]; coefficients may be 0."""
    return Poly(ring, nvars, {
        tuple(rng.randint(low, 3) for _ in range(nvars)): ring.random(rng) for _ in range(nterms)
    })


def _wide_unit(ring, rng, nvars: int) -> Poly:
    """c*x^M plus, over a lift ring, up to two terms divisible by p: a unit."""
    mono = tuple(rng.randint(-2, 2) for _ in range(nvars))
    f = Poly.monomial(ring, nvars, mono, _random_unit_coeff(ring, rng))
    if hasattr(ring, "residue_field"):
        f = f + Poly.monomial(ring, nvars, (1,) * nvars, ring.p_elem * ring.random(rng))
        f = f + Poly.monomial(ring, nvars, (0,) * (nvars - 1) + (2,), ring.p_elem)
    return f


@pytest.mark.parametrize("nvars", [5, 6])
def test_products_and_powers_past_the_kernel_table_match_their_oracles(nvars, rng, monkeypatch):
    # no workload has more than 4 variables; these reach the generic fallback
    F5, W = GF(5), W2(3)
    for f_size, g_size in [(1, 1), (1, 4), (4, 1), (4, 4)] * 5:
        f = _wide_poly(F5, rng, nvars, f_size, low=0)
        g = _wide_poly(F5, rng, nvars, g_size, low=0)
        assert from_pkg_poly(f * g) == naive_poly_mul(from_pkg_poly(f), from_pkg_poly(g), 5)
        f, g = _wide_poly(W, rng, nvars, f_size), _wide_poly(W, rng, nvars, g_size)
        assert _ints(f * g) == naive_poly_mul(_ints(f), _ints(g), 9)
    for _ in range(6):
        first_order = _wide_unit(W, rng, nvars)  # one unit term: no Poly product
        all_units = _wide_poly(F5, rng, nvars, 3)
        two_units = _wide_unit(W, rng, nvars) + _wide_unit(W, rng, nvars)
        for f in (first_order, all_units, two_units):
            for e in (2, 3, 6):
                expected = _product_of_copies(f, e)
                with monkeypatch.context() as m:
                    products = _counting_products(m)
                    assert f ** e == expected, (f, e)
                assert not products or f is not first_order, (f, e)
        assert frobenius_substitute(all_units) == _product_of_copies(all_units, 5)


@pytest.mark.parametrize("nvars", [5, 6])
@pytest.mark.parametrize("ring", [GF(5), GF(2, 2), W2(3), W2(2, 2)], ids=repr)
def test_substitution_past_the_kernel_table_matches_its_oracles(ring, nvars, rng):
    lift_ring = hasattr(ring, "residue_field")
    for trial in range(12):
        # monomial, zero and many-term images; units where exponents go negative
        images, lows = [], []
        for i in range(nvars):
            kind = (trial + i) % 3
            if kind == 0:
                images.append(_wide_unit(ring, rng, nvars) if lift_ring else
                              Poly.monomial(ring, nvars, tuple(rng.randint(-1, 2)
                                                               for _ in range(nvars)),
                                            _random_unit_coeff(ring, rng)))
            elif kind == 1:
                images.append(Poly.zero(ring, nvars))
            else:
                images.append(_wide_poly(ring, rng, nvars, 2, low=0) + 1)
            lows.append(-1 if kind == 0 else 0)
        f = Poly(ring, nvars, {
            tuple(rng.randint(low, 2) for low in lows): ring.random(rng) for _ in range(4)
        })
        assert substitute(f, images) == _substitute_by_products(f, images)
        if lift_ring:
            second = [img + Poly.monomial(ring, nvars, (0,) * nvars, ring.p_elem)
                      for img in images]
            want = divide_by_p(substitute(f, second) - substitute(f, images))
            assert divided_difference(f, (images, None), (second, None)) == want
    for _ in range(10):
        u = _wide_unit(ring, rng, nvars)
        assert u * invert_unit(u) == Poly.constant(ring, nvars, 1)
        x = Poly.monomial(ring, nvars, tuple(rng.randint(-3, 3) for _ in range(nvars)))
        assert x * invert_unit(x) == Poly.constant(ring, nvars, 1)


@pytest.mark.parametrize("nvars", [5, 6])
def test_phi_derivation_past_the_kernel_table_matches_its_oracles(nvars, rng):
    # over F_p, phi(c) = c, so sum_i phi(df/dx_i)*v_i has a dict oracle of its own
    F5 = GF(5)
    for _ in range(10):
        f = _wide_poly(F5, rng, nvars, 4, low=-3)
        values = [_wide_poly(F5, rng, nvars, 2) for _ in range(nvars)]
        expected: dict = {}
        for m, c in from_pkg_poly(f).items():
            for i, v in enumerate(values):
                if m[i] % 5:
                    shift = {tuple(5 * (e - (j == i)) for j, e in enumerate(m)): c * m[i] % 5}
                    prod = naive_poly_mul(shift, from_pkg_poly(v), 5)
                    expected = naive_poly_add(expected, prod, 5)
        assert from_pkg_poly(phi_derivation(f, values)) == expected
    W = W2(3)
    for _ in range(10):
        f = _wide_poly(W, rng, nvars, 4)
        values = [_wide_poly(W, rng, nvars, 2) for _ in range(nvars)]
        composed = Poly.zero(W, nvars)
        for i, v in enumerate(values):
            composed = composed + frobenius_substitute(f.partial_derivative(i)) * v
        assert phi_derivation(f, values) == composed


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


def test_flip_variable_checks_its_index():
    # unchecked, m[:i] + (-m[i],) + m[i + 1:] at i = -1 has nvars + 1 exponents
    for ring in (GF(5), W2(5)):
        x = Poly.variable(ring, 2, 0)
        for i in (-1, 2, 5, True):
            with pytest.raises(ShapeError, match="out of range for 2 variables"):
                flip_variable(x, i)


def _outcome(compute):
    """The value of compute(), or UnitError if it raises one."""
    try:
        return compute()
    except UnitError:
        return UnitError


@pytest.mark.parametrize(
    "ring", [GF(2), GF(3), GF(5), W2(2), W2(3), W2(5), W2(2, 2), W2(2, 3), W2(3, 2)], ids=repr
)
def test_reindex_matches_substitute_by_variable_and_zero_images(ring, rng):
    # x_i -> x_slots[i] or 0 as an exponent map: the same polynomial as
    # substitute with bare-variable and zero images, or the same UnitError
    # where a variable sent to 0 has a negative exponent; slots may repeat
    raised = 0
    for _ in range(80):
        nsrc, nvars = rng.randint(1, 3), rng.randint(1, 3)
        slots = [rng.choice([None, *range(nvars)]) for _ in range(nsrc)]
        images = [
            Poly.zero(ring, nvars) if s is None else Poly.variable(ring, nvars, s) for s in slots
        ]
        # on one trial in four a variable sent to 0 may carry a negative exponent
        laurent_dead = rng.random() < 0.25
        lows = [-2 if s is not None or laurent_dead else 0 for s in slots]
        f = Poly(
            ring,
            nsrc,
            {tuple(rng.randint(low, 3) for low in lows): ring.random(rng) for _ in range(6)},
        )
        expected = _outcome(lambda: substitute(f, images))
        raised += expected is UnitError
        assert _outcome(lambda: reindex(f, slots, nvars)) == expected
    assert raised  # the error branch was exercised


def test_reindex_raises_for_any_negative_exponent_sent_to_0():
    for ring in (GF(3), W2(3), W2(2, 2)):
        # x1 > 0 alone would drop the term; x2 < 0 must still raise
        f = P(ring, 3, "x1*x2^-1+x3")
        images = [Poly.zero(ring, 1), Poly.zero(ring, 1), Poly.variable(ring, 1, 0)]
        with pytest.raises(UnitError):
            substitute(f, images)
        with pytest.raises(UnitError, match="negative exponent"):
            reindex(f, (None, None, 0), 1)
        assert reindex(P(ring, 3, "x1*x2+x3^-2"), (None, None, 0), 1) == P(ring, 1, "x^-2")
    with pytest.raises(ShapeError):
        reindex(P(GF(3), 2, "x1"), (0,), 2)
    with pytest.raises(ShapeError):
        reindex(P(GF(3), 2, "x1"), (0, 2), 2)


def test_reindex_checks_each_slot_and_the_variable_count():
    # True was read as slot 1, 0.0 raised a bare TypeError, and -1 variables
    # gave a polynomial with nvars == -1
    f = P(GF(3), 2, "x1+x2^2")
    for slots, nvars in (
        ((True, 0), 2), ((0.0, 1), 2), ((0, "1"), 2), ((None, None), -1), ((0, None), 1.0),
        ((None, None), True), ((0, 1), None),
    ):
        with pytest.raises(ShapeError):
            reindex(f, slots, nvars)
    assert reindex(f, (None, None), 0) == Poly.zero(GF(3), 0)


def test_collect_by_var_buckets_sum_back_to_f(rng):
    for ring in (GF(3), GF(2, 2), W2(2), W2(3, 2)):
        for _ in range(30):
            f = Poly(
                ring,
                3,
                {tuple(rng.randint(-2, 3) for _ in range(3)): ring.random(rng) for _ in range(6)},
            )
            i = rng.randrange(3)
            buckets = f.collect_by_var(i)
            assert list(buckets) == sorted({m[i] for m in f.terms})
            total = Poly.zero(ring, 3)
            for e, g in buckets.items():
                assert g.nvars == 3 and all(m[i] == 0 for m in g.terms)
                total = total + g * Poly.variable(ring, 3, i, e)
            assert total == f
    assert Poly.zero(GF(3), 2).collect_by_var(0) == {}


# -- text grammar ---------------------------------------------------------------


def test_poly_text_examples():
    F2 = GF(2)
    f = P(F2, 2, "1*x1^2*x2^-3+1")
    assert poly_to_str(f) == "1*x1^2*x2^-3+1"
    assert P(F2, 2, poly_to_str(f)) == f


def test_poly_text_roundtrip_random(rng):
    rings = [GF(2), GF(5), GF(2, 2), W2(3), W2(2, 2), W2(5)]
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
    for mono in f.terms:
        c = f.coefficient_of(mono)
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
    assert P(F5, 2, " -x2") == Poly.monomial(F5, 2, (0, 1), F5.from_int(4))
    assert P(F9, 1, "-[1,2]") == Poly.constant(F9, 1, F9.elem([2, 1]))
    assert P(W, 1, "-(1,1)*x") == Poly.monomial(W, 1, (1,), -W.pair(1, 1))
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
        _as_zp2(3, "[1]"),
    ],
    ids=repr,
)
def test_poly_text_rejects_malformed_input(ring, text):
    with pytest.raises(ParseError):
        P(ring, 1, text)
