import operator
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import WittModel, monic_lifts_dividing, reduce_by_modulus, teichmuller_modulus

from w2frob import witt2
from w2frob import (
    GF,
    W2,
    AlgebraError,
    CharMismatch,
    FiniteField,
    InvariantViolation,
    NotDivisible,
    Poly,
    RingMismatch,
    ShapeError,
    UnitError,
    UnsupportedField,
    WeierstrassCurve,
    WittRing,
    divide_by_p,
    reduce_mod_p,
    witt_to_residue_ring,
    witt_to_str,
)


# -- frozen examples ---------------------------------------------------------


def test_add_p2_one_plus_one():
    r = W2(2)
    assert r.pair(1, 0) + r.pair(1, 0) == r.pair(0, 1)
    assert witt_to_residue_ring(r.pair(0, 1)).n == 2


def test_add_identity():
    for p in (2, 3, 5):
        r = W2(p)
        u = r.pair(p - 1, 1)
        assert r.zero + u == u


def test_add_p3_inverse_pair():
    r = W2(3)
    assert r.pair(1, 0) + r.pair(2, 0) == r.zero


def test_mul_p2_three_squared():
    r = W2(2)
    assert r.pair(1, 1) * r.pair(1, 1) == r.pair(1, 0)


def test_mul_identity():
    r = W2(7)
    u = r.pair(3, 5)
    assert r.one * u == u


def test_mul_p3_two_squared():
    r = W2(3)
    assert r.pair(2, 0) * r.pair(2, 0) == r.pair(1, 0)


def test_frobenius_prime_field_is_identity():
    r = W2(5)
    for u in r.elements():
        assert u.frobenius() == u


def test_frobenius_f4_generator():
    r = W2(2, 2)
    w = r.residue_field.elem([0, 1])
    assert r.pair(w.coeffs, (0, 0)).frobenius() == r.pair((w * w).coeffs, (0, 0))
    assert r.zero.frobenius() == r.zero


def test_residue_map_values():
    assert witt_to_residue_ring(W2(2).pair(0, 1)).n == 2
    assert witt_to_residue_ring(W2(3).pair(1, 0)).n == 1
    assert witt_to_residue_ring(W2(5).pair(2, 3)).n == 22


def test_residue_map_rejects_extensions():
    for ring in (W2(2, 2), W2(2, 3), W2(3, 2)):
        with pytest.raises(UnsupportedField):
            witt_to_residue_ring(ring.one)


def test_residue_map_is_the_identity_on_w2_fp():
    # W2(F_p) is Z/p^2: the map returns its argument, whose int is a0^p + p*a1 mod p^2
    for p in (2, 3, 5, 7, 11, 13, 17):
        for u in W2(p).elements():
            assert witt_to_residue_ring(u) is u
            assert u.n == (u.a0.as_int() ** p + p * u.a1.as_int()) % (p * p)
    assert witt2.Zp2Elem is witt2.WittPair


def test_char_mismatch():
    with pytest.raises(CharMismatch):
        W2(2).one + W2(3).one
    with pytest.raises(CharMismatch):
        W2(2).one * W2(2, 2).one


# -- oracle equivalence ------------------------------------------------------


def _residue(u) -> int:
    """a0^p + p*a1 mod p^2 in plain ints, from the Witt coordinates of u."""
    p = u.ring.p
    return (u.a0.as_int() ** p + p * u.a1.as_int()) % (p * p)


def _check_residue_map(u, v):
    # the map agrees with its formula and carries W2 sums and products to Z/p^2
    p2 = u.ring.p ** 2
    ru, rv = _residue(u), _residue(v)
    assert witt_to_residue_ring(u).n == ru
    assert witt_to_residue_ring(u + v) == witt_to_residue_ring(u) + witt_to_residue_ring(v)
    assert witt_to_residue_ring(u * v) == witt_to_residue_ring(u) * witt_to_residue_ring(v)
    assert _residue(u + v) == (ru + rv) % p2
    assert _residue(u * v) == ru * rv % p2


@pytest.mark.parametrize("p", [2, 3])
def test_oracle_exhaustive(p):
    r = W2(p)
    elems = list(r.elements())
    images = {witt_to_residue_ring(u).n for u in elems}
    assert len(images) == p * p  # bijection
    for u in elems:
        for v in elems:
            _check_residue_map(u, v)


@pytest.mark.parametrize("p", [5, 7])
def test_oracle_random(p, rng):
    r = W2(p)
    for _ in range(2000):
        _check_residue_map(r.random(rng), r.random(rng))


def _field_id(q):
    return f"F{q[0] ** q[1]}"


@pytest.mark.parametrize("q", [(2, 2), (2, 3), (3, 2)], ids=_field_id)
def test_teichmuller_moduli_are_the_unique_lifts(q):
    # g = the F_q modulus mod p, and g | x^q - x mod p^2, for exactly one monic lift
    p, m = q
    low = tuple(-1 % p if i < 2 else 0 for i in range(m))  # x^m - x - 1
    assert monic_lifts_dividing(p, low, p ** m) == [witt2._MODULI[q]]


@pytest.mark.parametrize(
    "q", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)], ids=_field_id
)
def test_kernel_matches_component_formulas_exhaustively(q):
    # every pair for add and mul, every element for the unary maps
    ring, model = W2(*q), WittModel(*q)
    field = ring.residue_field

    def coords(u):
        return tuple(c.coeffs for c in ring.witt_coords(u))

    elems = list(ring.elements())
    assert [coords(u) for u in elems] == model.elements()
    pairs = list(zip(elems, model.elements()))
    for u, a in pairs:
        assert coords(-u) == model.neg(a)
        assert coords(u.frobenius()) == model.frobenius(a)
        # split_p gives reduction, divisibility and division by p
        high, low = ring.split_p(u.n)
        assert field.wrap(low).coeffs == model.reduce_p(a)
        if model.divide_p(a) is None:
            assert low
        else:
            assert not low and field.wrap(high).coeffs == model.divide_p(a)
        for v, b in pairs:
            assert coords(u + v) == model.add(a, b)
            assert coords(u * v) == model.mul(a, b)
    for c in field.elements():
        assert coords(ring.wrap(ring.times_p_int(c.n))) == model.times_p_embed(c.coeffs)
        assert coords(ring.wrap(ring.from_residue_int(c.n))) == model.from_residue(c.coeffs)


@pytest.mark.parametrize("q", [(2, 2), (2, 3), (3, 2)], ids=_field_id)
def test_fold_matches_long_division(q, rng, monkeypatch):
    # fold of sums of 1 to 64 products of canonical elements, and of 2^24
    # products at the slot bound, against division by g on coefficient lists;
    # each sum is folded twice, through a fresh ring's fold table
    p, m = q
    g = teichmuller_modulus(p, m)

    def pack(coeffs):
        return sum(c << (witt2.SHIFT * i) for i, c in enumerate(coeffs))

    for ring in (witt2.FiniteField(p, m), WittRing(witt2.FiniteField(p, m))):
        pk = ring.pk
        table = ring.fold.__self__
        assert all(table.get(e.n) == e.n for e in ring.elements())

        def check(pairs, times=1):
            n, raw = 0, [0] * (2 * m - 1)
            for a, b in pairs:
                n += pack(a) * pack(b) * times
                for i, x in enumerate(a):
                    for j, y in enumerate(b):
                        raw[i + j] += x * y * times
            want = pack(reduce_by_modulus(raw, g, pk))
            # the first fold may fill the table; the second must read it
            assert ring.fold(n) == want, (ring, pairs, times)
            size = len(table)
            assert ring.fold(n) == want and len(table) == size, (ring, pairs, times)

        def canonical():
            return [rng.randrange(pk) for _ in range(m)]

        for _ in range(200):
            check([(canonical(), canonical()) for _ in range(rng.randint(1, 64))])
        top = [pk - 1] * m
        check([(top, top)], times=1 << 24)

        # with room for 20 more entries, 100 new sums fill it and stop there;
        # the misses past the bound still fold exactly
        monkeypatch.setattr(witt2, "_FOLD_TABLE_BOUND", len(table) + 20)
        for _ in range(100):
            check([(canonical(), canonical()) for _ in range(rng.randint(2, 64))])
        assert len(table) == witt2._FOLD_TABLE_BOUND


def test_non_units_raise_unit_error():
    with pytest.raises(UnitError):
        GF(5).zero.inverse()
    with pytest.raises(UnitError):
        W2(3).one ** -1


@pytest.mark.parametrize("ring", [GF(5), GF(3, 2), W2(5), W2(3, 2)], ids=repr)
def test_element_powers_take_only_int_exponents(ring):
    # 2.0 and "2" raised a bare TypeError, and True silently read as 1
    u = ring.from_int(3)
    for e in (2.0, "2", True, False, None):
        with pytest.raises(ShapeError, match="is not an int"):
            u ** e
    assert u ** 2 is u * u and u ** 1 is u and u ** 0 is ring.one


# -- ring axioms -------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.tuples(*(st.integers(0, 24),) * 3))
def test_witt_ring_axioms(p, ns):
    r = W2(p)
    u, v, w = (r.from_int(n) for n in ns)
    assert (u + v) + w == u + (v + w)
    assert u + v == v + u
    assert (u * v) * w == u * (v * w)
    assert u * v == v * u
    assert u * (v + w) == u * v + u * w
    assert u + (-u) == r.zero


@pytest.mark.parametrize("q", [(2, 2), (3, 2), (2, 3)])
def test_witt_ring_axioms_extension_fields(q, rng):
    r = W2(*q)
    for _ in range(200):
        u, v, w = r.random(rng), r.random(rng), r.random(rng)
        assert (u + v) + w == u + (v + w)
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w
        assert u + (-u) == r.zero


def test_frobenius_is_ring_endomorphism(rng):
    for q in [(2, 2), (3, 2), (2, 3)]:
        r = W2(*q)
        for _ in range(200):
            u, v = r.random(rng), r.random(rng)
            assert (u + v).frobenius() == u.frobenius() + v.frobenius()
            assert (u * v).frobenius() == u.frobenius() * v.frobenius()
            assert u.frobenius().a0 == u.a0 ** r.residue_field.p


# -- interned elements -------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17)
_EXTENSIONS = ((2, 2), (2, 3), (3, 2))
_DESK_RINGS = (
    [("F", p, 1) for p in _PRIMES]
    + [("Z", p, 1) for p in _PRIMES]
    + [("W", p, 1) for p in _PRIMES]
    + [("F",) + q for q in _EXTENSIONS]
    + [("W",) + q for q in _EXTENSIONS]
)


def _desk_ring(kind, p, m):
    # "Z" is W2(F_p) under its other name Z/p^2: the same ring object
    return {"F": GF, "Z": lambda p, m: W2(p), "W": W2}[kind](p, m)


@pytest.mark.parametrize("spec", _DESK_RINGS, ids=lambda s: f"{s[0]}{s[1]}^{s[2]}")
def test_each_ring_holds_its_elements_in_one_table(spec):
    ring = _desk_ring(*spec)
    size = ring.p ** (ring.k * ring.m)
    assert len(ring._elements) == size <= 289
    elems = list(ring.elements())
    assert len({id(u) for u in elems}) == size
    for u in elems:
        assert type(u) is ring.element and u.ring is ring
        assert ring.wrap(u.n) is u
    assert ring.zero is ring.wrap(0) and ring.one is ring.wrap(1)
    for n in [*range(-2 * ring.pk, 2 * ring.pk), 10 ** 30 + 7, -(10 ** 30)]:
        assert ring.from_int(n) is ring.wrap(n % ring.pk)
    if spec[0] == "Z":
        # read as Z/p^2, the table holds the residues 0, ..., p^2 - 1
        assert sorted(u.n for u in elems) == list(range(size))


@pytest.mark.parametrize("spec", _DESK_RINGS, ids=lambda s: f"{s[0]}{s[1]}^{s[2]}")
def test_every_operator_returns_a_table_entry(spec, rng):
    ring = _desk_ring(*spec)
    elems = list(ring.elements())
    if len(elems) <= 81:
        pairs = [(u, v) for u in elems for v in elems]
    else:
        pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(3000)]
    for u, v in pairs:
        results = [u + v, u - v, -u, u * v, u + 3, 3 + u, u - 3, 3 - u, u * 5, 5 * u]
        results += [u ** 2, u ** 0, u.frobenius()]
        if ring.k == 1 and u:
            results += [u.inverse(), u ** -1]
        for w in results:
            assert w is ring.wrap(w.n)
        # interned: two elements of one ring are equal exactly when they are one object
        assert (u == v) is (u is v)


def test_elements_keep_their_order():
    # sweeps.sweep_witt draws its pairs from list(ring.elements())
    for p, m in [(p, 1) for p in _PRIMES] + list(_EXTENSIONS):
        f, r = GF(p, m), W2(p, m)
        assert [u.coeffs for u in f.elements()] == list(product(range(p), repeat=m))
        assert [(u.a0, u.a1) for u in r.elements()] == list(product(f.elements(), repeat=2))


def test_wrap_of_a_non_canonical_int_raises():
    for ring, n in [(W2(5), 30), (W2(5), -1), (GF(2, 2), 7), (W2(3), 9), (GF(7), 7)]:
        with pytest.raises(InvariantViolation):
            ring.wrap(n)
    assert issubclass(InvariantViolation, AlgebraError)
    # from_int reduces first, so it still accepts every int
    assert W2(5).from_int(30) == W2(5).pair(0, 1) == W2(5).wrap(5)
    assert W2(5).from_int(-1).n == 24
    assert GF(2, 2).from_int(7).coeffs == (1, 0)


def test_a_coefficient_that_is_not_an_int_is_a_char_mismatch():
    # from_int reduced whatever it was given: 2.0 read as 2, "x" %-formatted into a
    # bare TypeError, and elem and pair iterated a float
    F5 = GF(5)
    for build in (
        lambda: F5.from_int("x"),
        lambda: F5.from_int(None),
        lambda: F5.from_int(2.0),
        lambda: F5.from_int(2.5),
        lambda: F5.elem(1.0),
        lambda: GF(2, 2).elem([1.0, 0]),
        lambda: W2(5).pair(1.0, 2),
        lambda: W2(5).pair(1, "2"),
    ):
        with pytest.raises(CharMismatch, match="is no coefficient over F"):
            build()
    # a bool is an int, as Poly reads it
    assert F5.from_int(True) is F5.one and F5.elem(False) is F5.zero


def test_from_int_is_the_one_coefficient_rule():
    # an element of the ring itself is a coefficient wherever an int is, as
    # Poly.constant always took it; an element of another ring is none
    F5 = GF(5)
    assert F5.from_int(F5.one) is F5.one and F5.elem(F5.one) is F5.one
    assert W2(5).pair(F5.one, 0) == W2(5).pair(1, 0)
    assert Poly.constant(F5, 1, F5.one) == Poly.constant(F5, 1, 1)
    assert WeierstrassCurve(5, a4=F5.one, a6=1).a4 is F5.one
    for build in (
        lambda: F5.from_int(GF(7).one),
        lambda: W2(5).from_int(F5.one),
        lambda: F5.one + GF(7).one,
        lambda: Poly.constant(F5, 1, W2(5).one),
        lambda: Poly(F5, 1, {(0,): GF(7).one}),
        lambda: Poly.constant(F5, 1, 1) * GF(7).one,
    ):
        with pytest.raises(CharMismatch, match="is no coefficient over"):
            build()


@pytest.mark.parametrize(
    "p, m", [(p, 1) for p in _PRIMES] + list(_EXTENSIONS), ids=lambda v: str(v)
)
def test_one_ring_object_per_p_and_m(p, m):
    # however m is passed, GF and W2 hand out one object, and W2's residue field is GF's
    field, ring = GF(p, m), W2(p, m)
    assert GF(p, m=m) is field and W2(p, m=m) is ring
    if m == 1:
        assert GF(p) is field and W2(p) is ring
    assert ring.residue_field is field


def test_witt_coordinates_come_from_one_table_built_on_first_use():
    ring = WittRing(GF(5))
    u = ring.pair(2, 3)
    assert "_coords" not in vars(ring)  # building the ring and its elements reads none
    assert (u.a0, u.a1) == (GF(5).elem(2), GF(5).elem(3))
    assert ring.witt_coords(u) is vars(ring)["_coords"][u.n]
    # coordinates that name fewer than q^2 elements raise
    broken = WittRing(GF(3))
    broken._pair_int = lambda a0, a1: a0
    with pytest.raises(InvariantViolation):
        broken.witt_coords(broken.one)


# each operator form and the ring operations it reaches: (form, int result, add, neg, mul)
_ROUTES = [
    (lambda u, v: u + v, lambda a, b: a + b, 1, 0, 0),
    (lambda u, v: u * v, lambda a, b: a * b, 0, 0, 1),
    (lambda u, v: -u, lambda a, b: -a, 0, 1, 0),
    (lambda u, v: u - v, lambda a, b: a - b, 1, 1, 0),
    (lambda u, v: v - u, lambda a, b: b - a, 1, 1, 0),
    (lambda u, v: u + 3, lambda a, b: a + 3, 1, 0, 0),
    (lambda u, v: 3 + u, lambda a, b: a + 3, 1, 0, 0),
    (lambda u, v: u - 3, lambda a, b: a - 3, 1, 1, 0),
    (lambda u, v: 3 - u, lambda a, b: 3 - a, 1, 1, 0),
    (lambda u, v: u * -3, lambda a, b: -3 * a, 0, 0, 1),
    (lambda u, v: -3 * u, lambda a, b: -3 * a, 0, 0, 1),
    (lambda u, v: u * True, lambda a, b: a, 0, 0, 1),
    (lambda u, v: u == v, None, 0, 0, 0),
    (lambda u, v: u != 3, None, 0, 0, 0),
]


def test_witt_pair_operators_go_through_the_witt_ring(monkeypatch):
    # perfbench's per-layer w2_add/w2_neg/w2_mul counts wrap the WittRing
    # bindings; every element class reaches its own ring's add/neg/mul the same way
    calls = {}

    def counted(cls, name):
        original = getattr(cls, name)

        def op(*args):
            calls[cls, name] += 1
            return original(*args)

        return op

    for ring, cls in [(W2(5), WittRing), (GF(5), FiniteField)]:
        for name in ("add", "neg", "mul"):
            calls[cls, name] = 0
            monkeypatch.setattr(cls, name, counted(cls, name))
        u, v = ring.from_int(17), ring.from_int(9)
        for form, on_ints, *route in _ROUTES:
            before = [calls[cls, name] for name in ("add", "neg", "mul")]
            got = form(u, v)
            after = [calls[cls, name] for name in ("add", "neg", "mul")]
            assert [b - a for a, b in zip(before, after)] == route, (ring, route)
            if on_ints is not None:
                assert got is ring.from_int(on_ints(u.n, v.n))


def test_residue_map_takes_only_elements_of_w2_fp():
    for bad in [GF(5).one, GF(2, 2).one, 7, None]:
        with pytest.raises(RingMismatch):
            witt_to_residue_ring(bad)
    # W2(F_q) with m > 1 raises on every call
    ring = W2(2, 2)
    for _ in range(2):
        with pytest.raises(UnsupportedField):
            witt_to_residue_ring(ring.one)


# the rings of the operator contract: F_p, F4, F8, F9, W2(F_p) (also as Z/p^2) and W2(F_q)
_CONTRACT_RINGS = (
    [("F", p, 1) for p in (2, 5, 17)]
    + [("F",) + q for q in _EXTENSIONS]
    + [("Z", p, 1) for p in (2, 5, 17)]
    + [("W", p, 1) for p in (2, 5, 17)]
    + [("W",) + q for q in _EXTENSIONS]
)
# ints on either side of an operator: negative, past p^k, past a machine word, and bools
_INT_OPERANDS = (0, 1, -1, 2, -7, 289, 2 ** 64 + 3, -(10 ** 30) - 1, True, False)
_FOREIGN_OPERANDS = (1.5, "1", None, [1])
# rings that differ from some contract ring in characteristic, kind or degree
_ALIEN_RINGS = (GF(3), W2(3), GF(2, 2), W2(2, 2))
_BINARY = (operator.add, operator.sub, operator.mul)


def _twin(kind, p, m):
    """A ring built by its class for the (p, m) of ``_desk_ring(kind, p, m)``: a ring of its own."""
    return FiniteField(p, m) if kind == "F" else WittRing(GF(p, m))


@pytest.mark.parametrize("spec", _CONTRACT_RINGS, ids=lambda s: f"{s[0]}{s[1]}^{s[2]}")
def test_operators_keep_their_contract_on_every_ring(spec, rng):
    # the operators against the int kernel; every result is the ring's interned entry
    ring, twin = _desk_ring(*spec), _twin(*spec)
    assert twin != ring and not twin == ring
    fold, neg, pk = ring.fold, ring.neg_int, ring.pk
    elems = list(ring.elements())
    if len(elems) > 30:
        elems = rng.sample(elems, 30)
    for u in elems:
        assert -u is ring.wrap(neg(u.n))
        for v in elems:
            assert u + v is ring.wrap(fold(u.n + v.n))
            assert u - v is ring.wrap(fold(u.n + neg(v.n)))
            assert u * v is ring.wrap(fold(u.n * v.n))
            assert (u == v) is (u.n == v.n) and (u != v) is (u.n != v.n)
            # the twin's element, with the same int, combines on neither side
            w = twin.wrap(v.n)
            for op in _BINARY:
                with pytest.raises(CharMismatch):
                    op(u, w)
                with pytest.raises(CharMismatch):
                    op(w, u)
            assert (u == w) is False and (u != w) is True
        for k in _INT_OPERANDS:
            c = k % pk  # k times the unit
            assert u + k is ring.wrap(fold(u.n + c)) and k + u is ring.wrap(fold(c + u.n))
            assert u - k is ring.wrap(fold(u.n + neg(c))) and k - u is ring.wrap(fold(c + neg(u.n)))
            assert u * k is ring.wrap(fold(u.n * c)) and k * u is ring.wrap(fold(c * u.n))
            assert (u == k) is (k == u) is (u.n == c) and (u != k) is (k != u) is (u.n != c)
        for bad in _FOREIGN_OPERANDS:
            for op in _BINARY:
                with pytest.raises(TypeError):
                    op(u, bad)
                with pytest.raises(TypeError):
                    op(bad, u)
            assert (u == bad) is False and (u != bad) is True
        for alien in _ALIEN_RINGS:
            if alien is ring:
                continue
            x = alien.one
            for op in _BINARY:
                with pytest.raises(CharMismatch):
                    op(u, x)
                with pytest.raises(CharMismatch):
                    op(x, u)
            assert (u == x) is False and (u != x) is True


def test_operator_contract_holds_under_python_O():
    # python -O strips asserts, so an operator that leaned on one would change
    # here; pytest still runs the test's own rewritten asserts
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run(
        [
            sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
            # the warning that asserts outside test modules do not run under -O
            "-W", "ignore::pytest.PytestConfigWarning",
            f"{Path(__file__).resolve()}::test_operators_keep_their_contract_on_every_ring",
        ],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(Path(witt2.__file__).resolve().parent.parent)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stdout[-3000:]
    assert f"{len(_CONTRACT_RINGS)} passed" in out.stdout


# -- field models ------------------------------------------------------------


@pytest.mark.parametrize("q", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_field_axioms_exhaustive(q):
    f = GF(*q)
    elems = list(f.elements())
    assert len(elems) == f.q
    for a in elems:
        assert a + f.zero == a
        assert a * f.one == a
        if not a.is_zero():
            assert a * a.inverse() == f.one
        assert f.inv_frob_int(a.frobenius().n) == a.n
    # full exhaustive associativity/distributivity (at most 9^3 triples)
    for a in elems:
        for b in elems:
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_unsupported_fields():
    with pytest.raises(UnsupportedField):
        GF(4)
    with pytest.raises(UnsupportedField):
        GF(19)
    with pytest.raises(UnsupportedField):
        GF(5, 2)


# a characteristic or degree whose type is not int, bools and floats included
_NON_INT_ARGS = [(7.0,), (5.0,), (True,), ("5",), (5, 1.0), (2, 2.0), (5, True), (3, None)]


@pytest.mark.parametrize("build", [GF, W2], ids=["GF", "W2"])
def test_a_non_int_characteristic_or_degree_raises_whatever_was_built(build):
    # first with nothing in the outer cache, then after the int rings are built
    ring = build(5)
    build.cache_clear()
    for args in _NON_INT_ARGS:
        with pytest.raises(UnsupportedField):
            build(*args)
    assert build(5) is ring and build(5, 1) is ring and build(7) and build(2, 2)
    for args in _NON_INT_ARGS + [(5.0, 1), (True, 1)]:
        with pytest.raises(UnsupportedField):
            build(*args)


# -- division by p -----------------------------------------------------------


def test_divide_by_p_examples():
    z4 = W2(2)
    f = Poly(z4, 1, {(0,): z4.from_int(2), (1,): z4.from_int(2)})
    g = divide_by_p(f)
    F2 = GF(2)
    assert g == Poly(F2, 1, {(0,): F2.one, (1,): F2.one})
    assert divide_by_p(Poly.zero(z4, 1)).is_zero()
    with pytest.raises(NotDivisible):
        divide_by_p(Poly(z4, 1, {(0,): z4.from_int(1), (1,): z4.from_int(2)}))


@pytest.mark.parametrize("ring", [W2(5), W2(3), W2(2, 2)])
def test_divide_after_multiply_is_reduction(ring, rng):
    # multiplication by p followed by division by p is reduction mod p
    for _ in range(150):
        terms = {
            (rng.randint(0, 4), rng.randint(0, 4)): ring.random(rng) for _ in range(4)
        }
        g = Poly(ring, 2, terms)
        pg = g * ring.p_elem
        assert divide_by_p(pg) == reduce_mod_p(g)


def test_divide_by_p_witt_inverse_frobenius():
    # over F_4 the division must undo the Frobenius twist of the embedding
    r = W2(2, 2)
    w = r.residue_field.elem([0, 1])
    embedded = r.wrap(r.times_p_int(w.n))
    assert embedded == r.pair((0, 0), (w * w).coeffs)
    assert r.split_p(embedded.n) == (w.n, 0)


# -- serialization -----------------------------------------------------------


def test_witt_text_roundtrip():
    # witt_to_str is the ring's coefficient text tagged with its field
    u = W2(5).pair(2, 3)
    assert witt_to_str(u) == "(2,3)@5^1"
    for v in (u, W2(2, 2).pair((1, 1), (0, 1)), W2(3, 2).pair((2, 0), (1, 2))):
        body, tag = witt_to_str(v).rsplit("@", 1)
        assert v.ring.coeff_from_str(body) == v
        assert tag == f"{v.ring.residue_field.p}^{v.ring.residue_field.m}"


def test_witt_text_takes_only_witt_elements():
    # an element of F_q has no residue field to tag, which was a bare AttributeError
    for u in (GF(5).one, GF(2, 2).one, 5, None):
        with pytest.raises(RingMismatch):
            witt_to_str(u)
