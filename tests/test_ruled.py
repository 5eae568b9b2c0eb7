import dataclasses
import itertools

import pytest

from w2frob import (
    GF,
    AffineChartLift,
    BaseLift,
    Poly,
    ShapeError,
    TransitionData,
    UnitError,
    UnsupportedShape,
    base_glue_consistency,
    build_standard_lift,
    embed_times_p,
    eta_axioms_check,
    extract_base_lift,
    hirzebruch_transition,
    poly_from_str,
    poly_to_str,
    verify_gluing,
)
from w2frob import sweeps
from w2frob.randgen import random_poly


def P(ring, nvars, s):
    return poly_from_str(ring, nvars, s)


def shear_A1(field):
    return TransitionData(
        "A1", Poly.constant(field, 1, 1), Poly.variable(field, 1, 0)
    )


def shear_Gm(field):
    u = Poly.variable(field, 1, 0)
    return TransitionData("Gm", u, u + Poly.monomial(field, 1, (-1,)))


# -- transition validation ------------------------------------------------------


def test_transition_requires_unit_a():
    F2 = GF(2)
    with pytest.raises(UnitError):
        TransitionData("A1", Poly.variable(F2, 1, 0), Poly.zero(F2, 1))  # u not a unit on A1
    with pytest.raises(UnitError):
        TransitionData("P1", P(F2, 1, "x+1"), Poly.zero(F2, 1))
    with pytest.raises(UnsupportedShape):
        TransitionData("A1", Poly.constant(F2, 1, 1), Poly.monomial(F2, 1, (-1,)))
    TransitionData("Gm", Poly.monomial(F2, 1, (-2,)), Poly.monomial(F2, 1, (-1,)))


# -- the standard lift -----------------------------------------------------------


@pytest.mark.parametrize("n", [0, 2, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_hirzebruch_standard_lift_has_zero_h(p, n):
    field = GF(p)
    lift = build_standard_lift(hirzebruch_transition(field, n))
    assert lift.h.is_zero()
    assert lift.charts["VY"].image_of_var(1) == Poly.variable(
        lift.charts["VY"].lift_ring, 2, 1, p
    )


def test_A1_shear_p2_h_is_uy():
    F2 = GF(2)
    lift = build_standard_lift(shear_A1(F2))
    assert lift.h == P(F2, 2, "x1*x2")
    d = lift.h.degree_in(1)
    assert d == 1 <= 2


def test_A1_shear_p3_h_frozen():
    # (y+u)^3 - u^3 = y^3 + 3(u*y^2 + u^2*y): h = u*y^2 + u^2*y
    F3 = GF(3)
    lift = build_standard_lift(shear_A1(F3))
    assert lift.h == P(F3, 2, "x1*x2^2+x1^2*x2")


def test_product_chart_trivial_transition():
    F3 = GF(3)
    T = TransitionData("A1", Poly.constant(F3, 1, 1), Poly.zero(F3, 1))
    lift = build_standard_lift(T)
    assert lift.h.is_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_degree_of_h_bound(p):
    field = GF(p)
    for T in (shear_A1(field), shear_Gm(field), hirzebruch_transition(field, 2)):
        lift = build_standard_lift(T)
        d = lift.h.degree_in(1)
        assert d is None or d <= p


# -- gluing ----------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [0, 2, 3])
def test_verify_gluing_hirzebruch(p, n):
    lift = build_standard_lift(hirzebruch_transition(GF(p), n))
    res = verify_gluing(lift)
    assert res.ok, res.failures
    assert len(res.details["checked"]) == 6  # b = 0: every overlap directly


@pytest.mark.parametrize("p", [2, 3, 5])
def test_verify_gluing_shears(p):
    field = GF(p)
    for T in (shear_A1(field), shear_Gm(field)):
        res = verify_gluing(build_standard_lift(T))
        assert res.ok, res.failures
        assert res.details["implied"] == ["UT/VY", "UT/VS"]


# Overlaps that fail once one chart's correction is bumped by a polynomial:
# the directly checked overlaps that contain the chart.  With b != 0 the
# overlaps UT/VY and UT/VS are implied rather than checked.
_CORRUPTED_OVERLAPS = {
    ("UX", True): {"UX/UT", "UX/VY", "UX/VS"},
    ("UT", True): {"UX/UT", "UT/VY", "UT/VS"},
    ("VY", True): {"VY/VS", "UX/VY", "UT/VY"},
    ("VS", True): {"VY/VS", "UX/VS", "UT/VS"},
    ("UX", False): {"UX/UT", "UX/VY", "UX/VS"},
    ("UT", False): {"UX/UT"},
    ("VY", False): {"VY/VS", "UX/VY"},
    ("VS", False): {"VY/VS", "UX/VS"},
}


def _bumped(lift, key, slot, bump):
    """The lift with one correction of one chart raised by the polynomial ``bump``."""
    chart = lift.charts[key]
    corrections = list(chart.corrections)
    corrections[slot] = corrections[slot] + P(chart.field, 2, bump)
    corrupted = AffineChartLift(chart.field, 2, chart.laurent_mask, corrections)
    return dataclasses.replace(lift, charts={**lift.charts, key: corrupted})


def test_corrupted_chart_fails_on_overlap():
    # bump one correction of one chart by 1, x1 or x2, i.e. its image by p times that
    for p in (2, 3):
        field = GF(p)
        for name, T in sweeps._ruled_cases(field):
            lift = build_standard_lift(T)
            for key in lift.charts:
                for slot, bump in itertools.product((0, 1), ("1", "x1", "x2")):
                    case = _bumped(lift, key, slot, bump)
                    where = (p, name, key, slot, bump)
                    if slot == 0 and bump == "x2":
                        # a base image that depends on the fiber is rejected outright
                        with pytest.raises(ShapeError):
                            verify_gluing(case)
                        continue
                    res = verify_gluing(case)
                    failing = {f["overlap"] for f in res.failures}
                    assert failing == _CORRUPTED_OVERLAPS[key, T.b.is_zero()], where
                    for f in res.failures:
                        assert f["coordinate"] in ("u", "w", "x", "y", "s"), where


# -- base-lift extraction -----------------------------------------------------------


def test_extract_standard_lift_has_no_tail():
    F3 = GF(3)
    lift = build_standard_lift(hirzebruch_transition(F3, 2))
    ext = extract_base_lift(lift.charts["UX"])
    assert ext.tails == {}
    assert ext.f0.corrections[0].is_zero()


def test_extract_synthetic_fiber_dependence():
    # F(u) = u^p + p*x on k[u][x]: degree-0 part is the standard base lift,
    # the tail coefficient is p*1 and is killed by p
    F2 = GF(2)
    chart = AffineChartLift(F2, 2, (False, False), (P(F2, 2, "x2"), Poly.zero(F2, 2)))
    ext = extract_base_lift(chart)
    assert ext.f0.corrections[0].is_zero()
    ring = chart.lift_ring
    assert list(ext.tails) == [(0, 1)]
    tail = ext.tails[(0, 1)]
    assert tail == embed_times_p(Poly.constant(F2, 1, 1), ring)
    assert (tail * ring.p_elem).is_zero()


def test_extract_random_chart_lifts(rng):
    # arbitrary valid chart lifts: every tail coefficient is divisible by p
    for p in (2, 3):
        F = GF(p)
        for _ in range(120):
            g_base = random_poly(rng, F, 2, p, 3)  # may involve the fiber
            g_fiber = random_poly(rng, F, 2, p, 3)
            chart = AffineChartLift(F, 2, (False, False), (g_base, g_fiber))
            ext = extract_base_lift(chart)  # raises InvariantViolation on failure
            for (i, k), tail in ext.tails.items():
                assert k >= 1
                assert (tail * chart.lift_ring.p_elem).is_zero()


# -- base gluing consistency ---------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_base_consistency_standard(p):
    field = GF(p)
    for T in (
        hirzebruch_transition(field, 0),
        hirzebruch_transition(field, 2),
        hirzebruch_transition(field, 3),
        shear_A1(field),
        shear_Gm(field),
    ):
        lift = build_standard_lift(T)
        res = base_glue_consistency(lift)
        assert res.ok, res.failures
        eta = res.details["eta"]
        assert eta.is_zero()


def test_gluing_with_twisted_base_lift():
    # base P^1 carrying a nonzero correction F(u) = u^2 + p*u^3; the v-chart
    # correction is forced by the degree bound and all six overlaps still glue
    F2 = GF(2)
    fu = Poly.monomial(F2, 1, (3,))
    baseF = BaseLift("P1", AffineChartLift(F2, 1, (False,), (fu,)))
    assert baseF.chart_V.corrections[0] == Poly.variable(F2, 1, 0)
    lift = build_standard_lift(hirzebruch_transition(F2, 2), baseF)
    res = verify_gluing(lift)
    assert res.ok, res.failures
    assert base_glue_consistency(lift).ok


def test_base_consistency_F2_p3_extractions_equal_base():
    F3 = GF(3)
    lift = build_standard_lift(hirzebruch_transition(F3, 2))
    res = base_glue_consistency(lift)
    assert res.details["f0"].corrections[0].is_zero()
    assert res.details["g0"].corrections[0].is_zero()


@pytest.mark.parametrize("p", [2, 3])
def test_base_consistency_eta_satisfies_axioms(p, rng):
    field = GF(p)
    for T in (shear_A1(field), shear_Gm(field), hirzebruch_transition(field, 2)):
        lift = build_standard_lift(T)
        eta = base_glue_consistency(lift).details["eta"]
        for _ in range(30):
            a = random_poly(rng, field, 1, p, 3)
            b = random_poly(rng, field, 1, p, 3)
            res = eta_axioms_check(eta, a, b)
            assert res.ok, res.failures


@pytest.mark.parametrize(
    "T, eta_u",
    [(shear_A1(GF(2)), "1"), (hirzebruch_transition(GF(2), 2), "x1^4")],
    ids=["A1-shear", "F2"],
)
def test_base_consistency_eta_is_the_difference_of_the_base_lifts(T, eta_u, rng):
    # F(v) = v^2 + 2 on the V side; over P1 that is F(u) = u^2 + 2u^4 (mod 4), as v = 1/u
    lift = _bumped(build_standard_lift(T), "VY", 0, "1")
    res = base_glue_consistency(lift)
    assert not res.ok
    eta = res.details["eta"]
    assert eta.values[0] == P(GF(2), 1, eta_u)
    assert res.details["eta_u"] == poly_to_str(eta.values[0])
    for _ in range(20):
        a, b = (random_poly(rng, GF(2), 1, 2, 3) for _ in range(2))
        assert eta_axioms_check(eta, a, b).ok


@pytest.mark.parametrize("p", [2, 3])
def test_base_consistency_compares_fiber_degree_0_only(p):
    # on F0 (b = 0) a fiber term in the UX base image never reaches fiber degree 0
    lift = _bumped(build_standard_lift(hirzebruch_transition(GF(p), 0)), "UX", 0, "x2")
    res = base_glue_consistency(lift)
    assert res.ok, res.failures
    assert res.details["eta"].is_zero()
