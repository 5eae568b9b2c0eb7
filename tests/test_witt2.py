import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from w2frob import (
    GF,
    W2,
    CharMismatch,
    NotDivisible,
    Poly,
    UnsupportedField,
    Zp2Ring,
    divide_by_p,
    reduce_mod_p,
    witt_from_str,
    witt_to_residue_ring,
    witt_to_str,
)


# -- frozen examples ---------------------------------------------------------


def test_add_p2_one_plus_one():
    r = W2(2)
    assert r.pair(1, 0) + r.pair(1, 0) == r.pair(0, 1)
    assert witt_to_residue_ring(r.pair(0, 1)).rep == 2


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
    w = r.field.gen()
    assert r.pair(w.coeffs, (0, 0)).frobenius() == r.pair((w * w).coeffs, (0, 0))
    assert r.zero.frobenius() == r.zero


def test_residue_map_values():
    assert witt_to_residue_ring(W2(2).pair(0, 1)).rep == 2
    assert witt_to_residue_ring(W2(3).pair(1, 0)).rep == 1
    assert witt_to_residue_ring(W2(5).pair(2, 3)).rep == 22


def test_residue_map_rejects_extensions():
    with pytest.raises(UnsupportedField):
        witt_to_residue_ring(W2(2, 2).one)


def test_char_mismatch():
    with pytest.raises(CharMismatch):
        W2(2).one + W2(3).one
    with pytest.raises(CharMismatch):
        W2(2).one * W2(2, 2).one


# -- oracle equivalence ------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_oracle_exhaustive(p):
    r = W2(p)
    elems = list(r.elements())
    images = {witt_to_residue_ring(u).rep for u in elems}
    assert len(images) == p * p  # bijection
    for u in elems:
        for v in elems:
            assert witt_to_residue_ring(u + v) == witt_to_residue_ring(u) + witt_to_residue_ring(v)
            assert witt_to_residue_ring(u * v) == witt_to_residue_ring(u) * witt_to_residue_ring(v)


@pytest.mark.parametrize("p", [5, 7])
def test_oracle_random(p, rng):
    r = W2(p)
    for _ in range(2000):
        u, v = r.random(rng), r.random(rng)
        assert witt_to_residue_ring(u + v) == witt_to_residue_ring(u) + witt_to_residue_ring(v)
        assert witt_to_residue_ring(u * v) == witt_to_residue_ring(u) * witt_to_residue_ring(v)


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
            assert u.frobenius().a0 == u.a0 ** r.field.p


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
        assert a.frobenius().inv_frobenius() == a
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


# -- division by p -----------------------------------------------------------


def test_divide_by_p_examples():
    z4 = Zp2Ring(2)
    f = Poly(z4, 1, {(0,): z4.from_int(2), (1,): z4.from_int(2)})
    g = divide_by_p(f)
    F2 = GF(2)
    assert g == Poly(F2, 1, {(0,): F2.one, (1,): F2.one})
    assert divide_by_p(Poly.zero(z4, 1)).is_zero()
    with pytest.raises(NotDivisible):
        divide_by_p(Poly(z4, 1, {(0,): z4.from_int(1), (1,): z4.from_int(2)}))


@pytest.mark.parametrize("ring", [Zp2Ring(3), W2(3), W2(2, 2)])
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
    w = r.field.gen()
    embedded = r.times_p_embed(w)
    assert embedded == r.pair((0, 0), (w * w).coeffs)
    assert r.divide_p(embedded) == w


# -- serialization -----------------------------------------------------------


def test_witt_text_roundtrip():
    u = W2(5).pair(2, 3)
    assert witt_to_str(u) == "(2,3)@5^1"
    assert witt_from_str("(2,3)@5^1") == u
    v = W2(2, 2).pair((1, 1), (0, 1))
    assert witt_from_str(witt_to_str(v)) == v
    with pytest.raises(Exception):
        witt_from_str("(2,3)")
