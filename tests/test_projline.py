import pytest

from oracles import naive_laurent_mul_zp2
from w2frob import (
    GF,
    W2,
    AffineChartLift,
    DegreeTooHigh,
    Poly,
    ShapeError,
    UnsupportedShape,
    eta_axioms_check,
    eta_between,
    extend_chart,
    poly_from_str,
    verify_p1_lift,
)
from w2frob import projline
from w2frob.randgen import random_poly
from w2frob.sweeps import sweep_p1


def P(ring, nvars, s):
    return poly_from_str(ring, nvars, s)


def test_extend_zero_correction():
    g = extend_chart(Poly.zero(GF(3), 1))
    assert g.is_zero()


@pytest.mark.parametrize("ring", [W2(5), W2(2, 2)], ids=repr)
def test_extension_takes_a_correction_over_f_q(ring):
    # over a lift ring extend_chart returned a W2 "correction"
    f = Poly.variable(ring, 1, 0, 3)
    for check in (extend_chart, verify_p1_lift):
        with pytest.raises(ShapeError, match="F_q polynomial"):
            check(f)


def test_extend_x4_at_p2():
    # F(x) = x^2 + 2x^4 flips to F(y) = y^2 + 2 (the correction is the constant 1)
    F2 = GF(2)
    g = extend_chart(P(F2, 1, "x^4"))
    assert g == Poly.constant(F2, 1, 1)


def test_extend_x5_at_p2_fails():
    F2 = GF(2)
    with pytest.raises(DegreeTooHigh):
        extend_chart(P(F2, 1, "x^5"))


def test_extension_bound_exhaustive():
    for p in (2, 3, 5):
        F = GF(p)
        for d in range(3 * p + 1):
            for c in (1, p - 1):
                f = Poly.monomial(F, 1, (d,), F.from_int(c))
                if d <= 2 * p:
                    extend_chart(f)
                else:
                    with pytest.raises(DegreeTooHigh):
                        extend_chart(f)


def test_roundtrip_is_involution(rng):
    for p in (2, 3):
        F = GF(p)
        for _ in range(200):
            f = random_poly(rng, F, 1, 2 * p, 4)
            g = extend_chart(f)
            assert extend_chart(g) == f


def test_extension_over_affine_base():
    # base A^1 with coordinate u: coefficients ride along untouched
    F2 = GF(2)
    f = P(F2, 2, "x1*x2^3+x1^2")  # u*x^3 + u^2
    g = extend_chart(f)
    assert g == P(F2, 2, "x1*x2^1+x1^2*x2^4")


def test_extension_reads_the_fiber_as_the_last_variable():
    F3 = GF(3)
    with pytest.raises(ShapeError):
        extend_chart(Poly.constant(F3, 0, 1))
    with pytest.raises(UnsupportedShape, match="Laurent where the chart is not"):
        extend_chart(P(F3, 2, "x1*x2^-1"))
    # a Laurent base exponent rides along: -y^6 * (u^-1 * y^-3) = 2*u^-1*y^3
    assert extend_chart(P(F3, 2, "x1^-1*x2^3")) == P(F3, 2, "2*x1^-1*x2^3")


def test_verify_p1_lift_examples():
    F2 = GF(2)
    assert verify_p1_lift(Poly.zero(F2, 1)).ok
    assert verify_p1_lift(P(F2, 1, "x^4")).ok
    res = verify_p1_lift(P(F2, 1, "x^5"))
    assert not res.ok and res.failures[0]["chart"] == "y"


def test_verify_p1_lift_sweep(rng):
    F3 = GF(3)
    for _ in range(150):
        f = random_poly(rng, F3, 1, 6, 4)
        assert verify_p1_lift(f).ok


def test_sweep_p1_sees_a_dropped_sign(monkeypatch):
    # g = +y^(2p)*f(1/y) still extends and round-trips, but breaks F(x)*F(y) = 1;
    # at p = 2 the sign is invisible, since -c = c in F_2
    real = projline.extend_chart
    monkeypatch.setattr(projline, "extend_chart", lambda f: -real(f))
    assert sweep_p1(2)[0]["ok"]
    for p in (3, 5):
        check = sweep_p1(p)[0]
        assert not check["ok"]
        assert check["passes"] == p  # only the p degrees above 2p, where failing is expected


def test_gluing_identity_against_naive_arithmetic(rng):
    # independent check over plain ints mod 4: (x^2 + 2f)(y^2 + 2g)|_{y=1/x} = 1
    F2 = GF(2)
    for _ in range(100):
        f = random_poly(rng, F2, 1, 4, 3)
        g = extend_chart(f)
        fx = {2: 1}
        for (e,) in f.terms:
            fx[e] = (fx.get(e, 0) + 2 * f.coefficient_of((e,)).as_int()) % 4
        fy_sub = {-2: 1}
        for (e,) in g.terms:
            fy_sub[-e] = (fy_sub.get(-e, 0) + 2 * g.coefficient_of((e,)).as_int()) % 4
        assert naive_laurent_mul_zp2(fx, fy_sub, 2) == {0: 1}


def test_two_p1_lifts_differ_by_bounded_eta(rng):
    # two lifts over the same base reduction differ by a degree <= 2p correction
    # whose eta satisfies the difference-calculus axioms
    F3 = GF(3)
    for _ in range(25):
        f1 = random_poly(rng, F3, 1, 6, 4)
        f2 = random_poly(rng, F3, 1, 6, 4)
        c1 = AffineChartLift(F3, 1, (False,), (f1,))
        c2 = AffineChartLift(F3, 1, (False,), (f2,))
        eta = eta_between(c1, c2)
        assert eta.values[0] == f2 - f1
        d = eta.values[0].degree_in(0)
        assert d is None or d <= 6
        a = random_poly(rng, F3, 1, 4, 3)
        b = random_poly(rng, F3, 1, 4, 3)
        assert eta_axioms_check(eta, a, b).ok
