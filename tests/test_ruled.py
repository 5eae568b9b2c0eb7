import hashlib
import itertools
import json

import pytest

from w2frob import (
    GF,
    W2,
    AffineChartLift,
    BaseLift,
    InvariantViolation,
    Poly,
    RingMismatch,
    ShapeError,
    TransitionData,
    UnitError,
    UnsupportedShape,
    apply_lift,
    base_glue_consistency,
    build_standard_lift,
    embed_times_p,
    eta_axioms_check,
    extract_base_lift,
    hirzebruch_transition,
    invert_unit,
    poly_from_str,
    poly_to_str,
    standard_base_lift,
    standard_lift,
    substitute,
    verify_gluing,
)
import w2frob
from w2frob import froblift, polyalg, projline, ruled, sweeps
from w2frob.polyalg import flip_variable
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


def sheared_P1(field):
    """a = u^2 with b in {u, 1/u, u + 1/u}: P1 transitions with b != 0."""
    for b in ("x1", "x1^-1", "x1+x1^-1"):
        yield f"P1-b={b}", TransitionData("P1", Poly.monomial(field, 1, (2,)), P(field, 1, b))


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


@pytest.mark.parametrize("ring", [W2(5), W2(2, 2)], ids=repr)
def test_transitions_and_base_lifts_are_built_over_a_field(ring):
    # over a lift ring build_standard_lift failed only later, with "polynomial
    # is not over the residue field of the target"
    u = Poly.variable(ring, 1, 0)
    with pytest.raises(ShapeError, match="over one field"):
        hirzebruch_transition(ring, 1)
    with pytest.raises(ShapeError, match="over one field"):
        TransitionData("A1", Poly.constant(ring, 1, 1), u)
    with pytest.raises(RingMismatch):
        standard_base_lift(ring, "P1")


def test_unknown_base_name_is_rejected_alike():
    F2 = GF(2)
    one = Poly.constant(F2, 1, 1)
    message = "unsupported base 'P2'; expected one of ('A1', 'Gm', 'P1')"
    for build in (
        lambda: TransitionData("P2", one, Poly.zero(F2, 1)),
        lambda: BaseLift("P2", standard_lift(F2, 1)),
        lambda: standard_base_lift(F2, "P2"),
    ):
        with pytest.raises(UnsupportedShape) as info:
            build()
        assert str(info.value) == message


def test_a_base_name_that_is_not_a_string_is_rejected_alike():
    # an unhashable name used to reach the base table and raise a bare TypeError
    F2 = GF(2)
    one = Poly.constant(F2, 1, 1)
    for build in (
        lambda: TransitionData(["P1"], one, Poly.zero(F2, 1)),
        lambda: BaseLift(["P1"], standard_lift(F2, 1)),
        lambda: standard_base_lift(F2, ["P1"]),
    ):
        with pytest.raises(UnsupportedShape, match=r"^unsupported base \['P1'\]; expected one of"):
            build()


def test_base_lift_chart_mask_must_match_the_base():
    # u is a unit on the Gm chart only, so its base lift is the one Laurent in u
    F3 = GF(3)
    for name, mask, exp in (("A1", (True,), -1), ("Gm", (False,), 1)):
        with pytest.raises(UnsupportedShape) as info:
            BaseLift(name, AffineChartLift(F3, 1, mask, (Poly.monomial(F3, 1, (exp,)),)))
        assert str(info.value) == f"a {name} base lift needs chart mask {(not mask[0],)}, got {mask}"
    for name in ("A1", "Gm", "P1"):
        assert standard_base_lift(F3, name).chart_U.laurent_mask == (name == "Gm",)


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


def test_build_rejects_h_above_fiber_degree_p(monkeypatch):
    # deg_y h <= p is enforced where h is read off the images, so sweep_ruled
    # needs no witness for it: force an h of fiber degree p + 1 through
    F3 = GF(3)
    real = AffineChartLift.from_images.__func__

    def from_images(cls, field, laurent_mask, images):
        fu, h = real(cls, field, laurent_mask, images).corrections
        return cls(field, 2, laurent_mask, (fu, h + Poly.monomial(field, 2, (0, 4))))

    monkeypatch.setattr(AffineChartLift, "from_images", classmethod(from_images))
    with pytest.raises(InvariantViolation, match="fiber degree of h is 4 > p = 3"):
        build_standard_lift(shear_A1(F3))


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
    return lift._replace(charts={**lift.charts, key: corrupted})


def test_replacing_a_chart_leaves_the_original_lift_untouched():
    lift = build_standard_lift(hirzebruch_transition(GF(3), 2))
    charts = dict(lift.charts)
    bumped = _bumped(lift, "VY", 0, "1")
    assert lift.charts == charts and lift.charts["VY"] is charts["VY"]
    assert bumped.charts["VY"] != lift.charts["VY"]
    assert bumped.transition is lift.transition and bumped.h is lift.h
    assert verify_gluing(lift).ok and not verify_gluing(bumped).ok


def test_corrupted_chart_fails_on_overlap():
    # bump one correction of one chart by 1, x1 or x2, i.e. its image by p times that;
    # a base image that depends on the fiber (slot 0, bump x2) gets a verdict like any other
    for p in (2, 3):
        field = GF(p)
        for name, T in itertools.chain(sweeps._ruled_cases(field), sheared_P1(field)):
            lift = build_standard_lift(T)
            for key in lift.charts:
                for slot, bump in itertools.product((0, 1), ("1", "x1", "x2")):
                    case = _bumped(lift, key, slot, bump)
                    where = (p, name, key, slot, bump)
                    res = verify_gluing(case)
                    failing = {f["overlap"] for f in res.failures}
                    assert failing == _CORRUPTED_OVERLAPS[key, T.b.is_zero()], where
                    for f in res.failures:
                        assert f["coordinate"] in ("u", "w", "x", "y", "s"), where


def _bumped_lifts():
    """The 960 bumped lifts of ``test_corrupted_lift_witnesses_are_pinned``."""
    for p in (2, 3, 5):
        field = GF(p)
        for _, T in itertools.chain(sweeps._ruled_cases(field), sheared_P1(field)):
            lift = build_standard_lift(T)
            for key, slot in itertools.product(lift.charts, (0, 1)):
                for bump in ("1", "x1", "x2", "x1^2*x2", "2*x2^2"):
                    yield _bumped(lift, key, slot, bump)


def test_corrupted_lift_witnesses_are_pinned():
    # corrupted charts have images that are not monomials, so this pins the general
    # substitution path: gluing and base-consistency witnesses of 960 bumped lifts
    digest = hashlib.sha256()
    for case in _bumped_lifts():
        g, c = verify_gluing(case), base_glue_consistency(case)
        record = [g.failures, g.details, c.failures, c.details["eta_u"]]
        digest.update(json.dumps(record, sort_keys=True, default=str).encode())
    assert digest.hexdigest() == (
        "c2c6dbe6a816fb5c0427b7f517cc1284bc4dec3d367d44d5dbc3faf9e2b50547"
    )


def test_u_side_y_witnesses_solve_the_transition():
    # a U-side y-witness is F(y) on (u, y), so F(x) = F(a)*F(y) + F(b) there, where F of
    # a, b and x goes through the chart's own ring map and then x = a*y + b (t = 1/(a*y))
    seen = {"UX/VY": 0, "UT/VY": 0}
    for case in _bumped_lifts():
        T = case.transition
        ring = case.charts["UX"].lift_ring
        a2, b2 = case.overlap.a, case.overlap.b
        u, y = Poly.variable(ring, 2, 0), Poly.variable(ring, 2, 1)
        for f in verify_gluing(case).failures:
            if f["overlap"] not in seen or f["coordinate"] != "y":
                continue
            seen[f["overlap"]] += 1
            chart = case.charts[f["overlap"][:2]]
            t_chart = f["overlap"] == "UT/VY"
            assert not t_chart or T.b.is_zero()
            mask = (T.base.overlap_mask, t_chart)
            over = AffineChartLift(chart.field, 2, mask, chart.corrections)
            coords = [u, invert_unit(a2 * y) if t_chart else a2 * y + b2]
            images = (apply_lift(over, a2), apply_lift(over, b2), chart.image_of_var(1))
            fa, fb, fx = (substitute(g, coords) for g in images)
            if t_chart:
                fx = invert_unit(fx)
            assert fx == fa * P(ring, 2, f["lhs"]) + fb, (T, f)
    assert seen["UX/VY"] and seen["UT/VY"], seen


@pytest.mark.parametrize("p", [2, 3])
def test_flipped_read_twice_gives_the_images_back(p):
    # x_i -> 1/x_i and the inversion of the i-th image undo themselves, on every chart
    for _, T in itertools.chain(sweeps._ruled_cases(GF(p)), sheared_P1(GF(p))):
        for chart in build_standard_lift(T).charts.values():
            images = [chart.image_of_var(0), chart.image_of_var(1)]
            for i in (0, 1):
                once = ruled._flipped(images, i)
                assert once[1 - i] == flip_variable(images[1 - i], i)
                assert once[i] * flip_variable(images[i], i) == 1
                assert ruled._flipped(once, i) == images


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
    # arbitrary valid chart lifts: f0 is the base correction at fiber 0, and
    # every tail coefficient is killed by p, which extract_base_lift does
    # not check itself
    for F in (GF(2), GF(3), GF(5), GF(2, 2), GF(2, 3), GF(3, 2)):
        for _ in range(120):
            g_base = random_poly(rng, F, 2, F.p, 3)  # may involve the fiber
            g_fiber = random_poly(rng, F, 2, F.p, 3)
            chart = AffineChartLift(F, 2, (False, False), (g_base, g_fiber))
            ext = extract_base_lift(chart)
            at_fiber_0 = substitute(g_base, [Poly.variable(F, 1, 0), Poly.zero(F, 1)])
            assert ext.f0.corrections == (at_fiber_0,)
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
        *(T for _, T in sheared_P1(field)),
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


# -- work gate -------------------------------------------------------------------------

# upper bounds on substitute calls per surface at p = 3: building, verifying,
# extracting from UX and VY, and the base consistency check.  Re-indexing a
# coordinate goes through polyalg.reindex, so what is left is apply_lift and
# the x = a~*y + b~ rewrites of verify_gluing and base_glue_consistency
_SUBSTITUTE_CALLS = {
    "F2": {"build": 2, "verify": 6, "extract": 0, "glue": 1},
    "A1": {"build": 2, "verify": 4, "extract": 0, "glue": 1},
    "Gm": {"build": 2, "verify": 4, "extract": 0, "glue": 1},
}


def test_ruled_checks_make_a_bounded_number_of_substitutions(monkeypatch):
    real = polyalg.substitute
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    for module in (w2frob, polyalg, froblift, projline, ruled):
        if getattr(module, "substitute", None) is real:
            monkeypatch.setattr(module, "substitute", counting)
    def counted(run, *args):
        calls.clear()
        return run(*args), len(calls)

    F3 = GF(3)
    counts = {}
    surfaces = {"F2": hirzebruch_transition(F3, 2), "A1": shear_A1(F3), "Gm": shear_Gm(F3)}
    for name, T in surfaces.items():
        lift, build = counted(build_standard_lift, T)
        glue, verify = counted(verify_gluing, lift)
        _, extract = counted(lambda: [extract_base_lift(lift.charts[k]) for k in ("UX", "VY")])
        base, base_glue = counted(base_glue_consistency, lift)
        assert glue.ok and base.ok, (name, glue.failures, base.failures)
        counts[name] = {"build": build, "verify": verify, "extract": extract, "glue": base_glue}
    over = {
        (name, step): n
        for name, made in counts.items()
        for step, n in made.items()
        if n > _SUBSTITUTE_CALLS[name][step]
    }
    assert not over, over
    assert counts["F2"]["verify"] > 0  # the wrapper sees the calls


def _units(f: Poly) -> int:
    """The number of unit terms of f: those not divisible by p (over a field, every term)."""
    split = f.ring.split_p
    return sum(1 for c in f.terms.values() if split(c)[1])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_one_shear_power_per_lift(p, monkeypatch):
    # (a~*y + b~)^p is the only power of a base with two or more unit terms that
    # building and verifying a shear takes, and it is taken once
    real_pow = Poly.__pow__
    raised = []

    def counting_pow(f, e):
        if _units(f) > 1:
            raised.append((poly_to_str(f), e))
        return real_pow(f, e)

    field = GF(p)
    monkeypatch.setattr(Poly, "__pow__", counting_pow)
    for T in (shear_A1(field), shear_Gm(field), *(T for _, T in sheared_P1(field))):
        raised.clear()
        lift = build_standard_lift(T)
        assert verify_gluing(lift).ok
        overlap = lift.overlap
        assert raised == [(poly_to_str(overlap.images[1]), p)], T
        assert overlap.power(1, p) is overlap.power(1, p)


def test_a_replaced_chart_keeps_a_valid_overlap_cache():
    # sweeps and the corrupted-lift tests replace charts with lift._replace: the
    # overlap map depends on the transition alone, so its cached powers still hold
    for p in (2, 3):
        for _, T in itertools.chain(sweeps._ruled_cases(GF(p)), sheared_P1(GF(p))):
            lift = build_standard_lift(T)
            for key, slot in itertools.product(lift.charts, (0, 1)):
                bumped = _bumped(lift, key, slot, "x1^2*x2")
                assert bumped.overlap is lift.overlap
                fresh = bumped._replace(overlap=ruled.OverlapMap(lift.overlap.a, lift.overlap.b))
                got, want = verify_gluing(bumped), verify_gluing(fresh)
                assert (got.failures, got.details) == (want.failures, want.details)
            for (i, e), power in lift.overlap._powers.items():
                assert power == lift.overlap.images[i] ** e
