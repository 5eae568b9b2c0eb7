"""Chart calculus for ruled surfaces over a one-dimensional toric base.

The surface is covered by four affine charts over a base pair (U, V).
Fiber coordinates x, t on the U side and y, s on the V side glue by
t*x = s*y = 1 and x = a*y + b, with a a unit and b a function on the
base overlap.  The base is one of the ``ToricBase`` objects in ``BASES``:
the affine line A1, the punctured line Gm and the projective line P1
(transition a = c*u^n, Laurent b).  A base holds two facts: whether u is
a unit on chart U (Gm), and whether V is a second chart with v = 1/u (P1)
rather than chart U itself.  The overlap mask follows from them, and
one rule, ``_flipped``, reads images across t = 1/x, s = 1/y and v = 1/u.

The standard lift fixes a base-chart lift, sends x to x^p, and
propagates through the transition: F(y) = ((a*y + b)^p - F(b)) / F(a),
which always lands in y^p + p*h with deg_y h <= p.  The overlap map
x = a~*y + b~ of the canonical lifts is an ``OverlapMap``, made once per
lift; it keeps its powers as a chart lift keeps F(x_i)^e, so the lift's
(a~*y + b~)^p is squared up once and ``verify_gluing`` substitutes
through the same cache.  The t and s images
come from the degree-bound chart extension.  h, like the base lifts of
``extract_base_lift`` and ``base_glue_consistency``, is read off images
by ``AffineChartLift.from_images``, so every chart map reduces to the
Frobenius by construction and no check here tests it again.  Every chart
lift acts on overlap functions through ``froblift.apply_lift``, and the
eta between the base lifts read off the U and V sides is
``froblift.eta_between`` of the two, which is 0 exactly when they agree.

Chart polynomials put the base coordinate in slot 0 and the fiber in
slot 1.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvariantViolation, ShapeError, UnitError, UnsupportedShape
from .froblift import AffineChartLift, CheckResult, apply_lift, eta_between, standard_lift
from .polyalg import (
    Poly,
    canonical_lift,
    flip_variable,
    invert_unit,
    poly_to_str,
    reindex,
    substitute,
)
from .projline import extend_chart
from .witt2 import FiniteField


class ToricBase:
    """A one-dimensional toric base, fixed by the two facts of the module docstring."""

    __slots__ = ("name", "u_unit", "v_inverse", "overlap_mask")

    def __init__(self, name: str, u_unit: bool, v_inverse: bool):
        self.name = name
        self.u_unit = u_unit  # u is a unit on chart U
        self.v_inverse = v_inverse  # V is a second chart with v = 1/u
        self.overlap_mask = u_unit or v_inverse  # u is a unit on the base overlap


BASES = {
    name: ToricBase(name, u_unit, v_inverse)
    for name, u_unit, v_inverse in (("A1", False, False), ("Gm", True, False), ("P1", False, True))
}


def _toric_base(name: str) -> ToricBase:
    base = BASES.get(name) if isinstance(name, str) else None
    if base is None:
        raise UnsupportedShape(f"unsupported base {name!r}; expected one of {tuple(BASES)}")
    return base


class TransitionData:
    """Gluing data x = a*y + b over a toric base; a must be a unit monomial."""

    __slots__ = ("base", "field", "a", "b")

    def __init__(self, name: str, a: Poly, b: Poly):
        base, field = _toric_base(name), a.ring
        if a.nvars != 1 or b.nvars != 1 or b.ring is not field or not isinstance(field, FiniteField):
            raise ShapeError("a and b must be one-variable polynomials over one field")
        st = a.single_term()
        if st is None or st[1].is_zero():
            raise UnitError("transition coefficient a must be a unit monomial")
        mono, _ = st
        if mono[0] != 0 and not base.overlap_mask:
            raise UnitError(f"a = {poly_to_str(a)} is not a unit on the {name} base")
        if not b.respects_mask((base.overlap_mask,)):
            raise UnsupportedShape(f"b = {poly_to_str(b)} is not regular on the {name} overlap")
        self.base = base
        self.field = field
        self.a = a
        self.b = b

    def __repr__(self):
        return f"TransitionData({self.base.name}, a={poly_to_str(self.a)}, b={poly_to_str(self.b)})"


def hirzebruch_transition(field: FiniteField, n: int) -> TransitionData:
    """The transition a = u^n, b = 0 of the n-th projective-bundle surface over P1."""
    if type(n) is not int:  # bool too, as an exponent
        raise ShapeError(f"twist {n!r} is not an int")
    if n < 0:
        raise UnsupportedShape("twist n must be >= 0")
    return TransitionData("P1", Poly.monomial(field, 1, (n,)), Poly.zero(field, 1))


class BaseLift:
    """Frobenius lift on the base charts (one chart, or two glued ones for P1)."""

    __slots__ = ("base", "chart_U", "chart_V")

    def __init__(self, name: str, chart_U: AffineChartLift):
        base = _toric_base(name)
        if chart_U.nvars != 1:
            raise ShapeError("base chart lifts are one-variable")
        if chart_U.laurent_mask != (base.u_unit,):
            raise UnsupportedShape(
                f"a {name} base lift needs chart mask {(base.u_unit,)}, got {chart_U.laurent_mask}"
            )
        chart_V = chart_U
        if base.v_inverse:  # the second chart is forced by the degree-bound extension
            g = extend_chart(chart_U.corrections[0])
            chart_V = AffineChartLift(chart_U.field, 1, (False,), (g,))
        self.base = base
        self.chart_U = chart_U
        self.chart_V = chart_V


def standard_base_lift(field: FiniteField, name: str) -> BaseLift:
    """u -> u^p on every base chart."""
    return BaseLift(name, standard_lift(field, 1, (_toric_base(name).u_unit,)))


class OverlapMap:
    """x = a~*y + b~ over W2(F_q): the images (u, a~*y + b~) of (u, x) in (u, y).

    a~ and b~ are the canonical lifts of the transition, embedded in two
    variables.  The map keeps its powers as a chart lift keeps F(x_i)^e,
    so the (a~*y + b~)^p of ``build_standard_lift``, squared up once, is
    the one that ``verify_gluing`` substitutes through: one power per lift.
    """

    __slots__ = ("a", "b", "images", "_powers")

    def __init__(self, a: Poly, b: Poly):
        ring = a.ring
        self.a, self.b = a, b
        self.images = (Poly.variable(ring, 2, 0), a * Poly.variable(ring, 2, 1) + b)
        self._powers = {}

    def power(self, i: int, e: int) -> Poly:
        """images[i] ** e, computed once per map."""
        power = self._powers.get((i, e))
        if power is None:
            power = self._powers[i, e] = self.images[i] ** e
        return power


class RuledLift(NamedTuple):
    """Four-chart lift data; charts keyed UX, UT, VY, VS."""

    transition: TransitionData
    charts: dict
    overlap: OverlapMap  # x = a~*y + b~, which depends on the transition alone

    @property
    def field(self):
        return self.transition.field

    @property
    def h(self) -> Poly:
        """The fiber correction of the VY chart, over F_q."""
        return self.charts["VY"].corrections[1]

    def chart_images(self) -> dict:
        out = {}
        for key, coord in (("UX", "x"), ("UT", "t"), ("VY", "y"), ("VS", "s")):
            chart = self.charts[key]
            out[key] = {
                "base": poly_to_str(chart.image_of_var(0)),
                coord: poly_to_str(chart.image_of_var(1)),
            }
        return out


def _flipped(images, i: int) -> list:
    """Images read in the chart with coordinate 1/x_i: x_i -> 1/x_i in each, the i-th inverted."""
    out = [flip_variable(img, i) for img in images]
    out[i] = invert_unit(out[i])
    return out


def _embed2(f: Poly) -> Poly:
    """One-variable polynomial into two variables, occupying the base slot."""
    return reindex(f, (0,), 2)


def build_standard_lift(T: TransitionData, baseF: BaseLift = None) -> RuledLift:
    """The explicit lift with F(x) = x^p, propagated to the other three charts."""
    field = T.field
    p = field.p
    if baseF is None:
        baseF = standard_base_lift(field, T.base.name)
    if baseF.base is not T.base or baseF.chart_U.field is not field:
        raise ShapeError("base lift does not match the transition data")

    wring = baseF.chart_U.lift_ring
    fu = _embed2(baseF.chart_U.corrections[0])
    fv = _embed2(baseF.chart_V.corrections[0])
    chart_mask = (T.base.u_unit, False)
    zero = Poly.zero(field, 2)

    # U-side charts: x -> x^p exactly; the t-chart (t = 1/x) has the same corrections
    chart_ux = AffineChartLift(field, 2, chart_mask, (fu, zero))

    # V-side fiber image, computed on the overlap, where a and b may be Laurent in u:
    #   F(y) = ((a~*y + b~)^p - F(b~)) * F(a~)^(-1)
    # F(a~) is a unit, as a is a unit monomial and F(u) = u^p mod p
    overlap = OverlapMap(*(_embed2(canonical_lift(g, wring)) for g in (T.a, T.b)))
    over_ux = AffineChartLift(field, 2, (T.base.overlap_mask, False), (fu, zero))
    den_inv = invert_unit(apply_lift(over_ux, overlap.a))
    y_img = (overlap.power(1, p) - apply_lift(over_ux, overlap.b)) * den_inv
    images = (over_ux.image_of_var(0), y_img)  # the VY chart map in the overlap coordinates
    h_overlap = AffineChartLift.from_images(field, over_ux.laurent_mask, images).corrections[1]
    deg_h = h_overlap.degree_in(1)
    if deg_h is not None and deg_h > p:
        raise InvariantViolation(f"fiber degree of h is {deg_h} > p = {p}")

    # the VY chart's mask rejects a positive power of u, which does not descend to P1's v-chart
    h_chart = flip_variable(h_overlap, 0) if T.base.v_inverse else h_overlap
    chart_vy = AffineChartLift(field, 2, chart_mask, (fv, h_chart))
    # s-chart via the degree-bound extension (deg_y h <= p <= 2p always holds)
    g_s = extend_chart(h_chart)
    chart_vs = AffineChartLift(field, 2, chart_mask, (fv, g_s))

    return RuledLift(
        transition=T,
        charts={"UX": chart_ux, "UT": chart_ux, "VY": chart_vy, "VS": chart_vs},
        overlap=overlap,
    )


# ---------------------------------------------------------------------------
# gluing verification
# ---------------------------------------------------------------------------


def verify_gluing(L: RuledLift) -> CheckResult:
    """Exact agreement of all chart maps on the pairwise overlaps.

    Each overlap ring is generated by two coordinates, the base
    coordinate and one fiber coordinate, together with inverses of units.
    A chart lift acts on it as the ring map that sends those two
    coordinates to their images and the coefficients through the Witt
    Frobenius, so two chart lifts agree on the overlap exactly when the
    two coordinate images agree; every other overlap function (x = a*y + b,
    t = 1/x, ...) then agrees as well.  Each checked overlap compares the
    two images computed from either side, with one witness per image that
    differs.  Every image, base images included (they may involve the
    fiber), is rewritten in the overlap's coordinates before it meets
    another.  The t- and s-charts are read in the coordinates of their x-
    and y-charts by t = 1/x and s = 1/y, so UT's images reach (u, x) in
    the UX/UT comparison and the V-side overlaps take them from there.
    Each U-side chart then reaches (u, y) by one rule: F(y) = (F(x) -
    F(b)) / F(a) is formed in (u, x), with F(a) and F(b) through that
    chart's own images, and x = a*y + b takes F(u) and F(y) to (u, y).
    The V charts reach (u, y) by v = 1/u on P1, and (u, s) is (u, y) with
    y = 1/s.  UT's images are Laurent in x, so they reach (u, y) only
    when x = a*y is a monomial (b = 0); otherwise UT/VY and UT/VS are
    implied by the directly checked overlaps and reported as such.
    """
    T = L.transition
    b_zero = T.b.is_zero()
    base = T.base
    overlap = L.overlap
    a2, b2 = overlap.a, overlap.b

    failures, checked = [], []

    def compare(name, coords, side_a, side_b):
        checked.append(name)
        for cname, lhs, rhs in zip(coords, side_a, side_b):
            if lhs != rhs:
                failures.append(
                    {
                        "overlap": name,
                        "coordinate": cname,
                        "lhs": poly_to_str(lhs),
                        "rhs": poly_to_str(rhs),
                    }
                )

    own = {key: [chart.image_of_var(0), chart.image_of_var(1)] for key, chart in L.charts.items()}

    # UX meets UT in (u, x) by x = 1/t; VY meets VS in (w, y) by y = 1/s (V-side base w kept)
    u_side = {"UX": own["UX"], "UT": _flipped(own["UT"], 1)}
    compare("UX/UT", ("u", "x"), u_side["UX"], u_side["UT"])
    compare("VY/VS", ("w", "y"), own["VY"], _flipped(own["VS"], 1))

    # each U-side chart meets VY in (u, y) and VS in (u, s), by u = 1/v on P1
    side_vy, side_vs = (_flipped(own[k], 0) if base.v_inverse else own[k] for k in ("VY", "VS"))
    mask = (base.overlap_mask, True)  # (u, x), with x inverted for UT's images (x = 1/t)
    for key in ("UX", "UT") if b_zero else ("UX",):
        u_img, x_img = u_side[key]
        lift = AffineChartLift.from_images(L.field, mask, u_side[key])
        if b2:
            x_img = x_img - apply_lift(lift, b2)
        y_img = x_img * invert_unit(apply_lift(lift, a2))
        u_img, y_img = (
            substitute(g, overlap.images, powers=overlap.power) for g in (u_img, y_img)
        )
        compare(f"{key}/VY", ("u", "y"), [u_img, y_img], side_vy)
        compare(f"{key}/VS", ("u", "s"), _flipped([u_img, y_img], 1), side_vs)
    implied = [] if b_zero else ["UT/VY", "UT/VS"]

    return CheckResult(
        failures,
        {"checked": checked, "implied": implied, "base": base.name, "b_zero": b_zero},
    )


# ---------------------------------------------------------------------------
# base-lift extraction
# ---------------------------------------------------------------------------


class BaseLiftExtraction(NamedTuple):
    """Fiber-degree-0 part of a chart lift, plus the fiber tails."""

    f0: AffineChartLift
    tails: dict  # (base var index, fiber power >= 1) -> lift-ring polynomial


def extract_base_lift(chart: AffineChartLift) -> BaseLiftExtraction:
    """Expand each base image in fiber powers; degree 0 is again a base lift.

    The fiber-degree-0 parts are the images of a lift on the base
    variables, read off by ``AffineChartLift.from_images``.  Every higher
    coefficient comes from p*f_i and so is killed by p; the tails are
    returned as they are.
    """
    if chart.nvars < 2:
        raise ShapeError("need at least one base variable plus the fiber")
    fiber = chart.nvars - 1
    images = []
    tails = {}
    for i in range(fiber):
        buckets = chart.image_of_var(i).collect_by_var(fiber)
        images.append(_fiber_degree_0(buckets.pop(0, Poly.zero(chart.lift_ring, chart.nvars))))
        for k, coeff_poly in buckets.items():
            tails[(i, k)] = _fiber_degree_0(coeff_poly)
    f0 = AffineChartLift.from_images(chart.field, chart.laurent_mask[:fiber], images)
    return BaseLiftExtraction(f0, tails)


def _fiber_degree_0(f: Poly) -> Poly:
    """f at fiber 0 (fiber last), on the base variables; UnitError if f is Laurent there."""
    n = f.nvars - 1
    return reindex(f, (*range(n), None), n)


def base_glue_consistency(L: RuledLift) -> CheckResult:
    """The U- and V-side base lifts agree; eta is the one between them.

    The U-side image of u at x = b~ (through x = a*y + b, at y = 0) must
    equal the V-side image of u on the overlap.  Their fiber-degree-0
    parts are base lifts f0 and g0, and ``eta = eta_between(f0, g0)`` is 0
    exactly when the two agree.
    """
    T = L.transition
    field = L.field
    wring = L.charts["UX"].lift_ring
    mask = (T.base.overlap_mask,)

    img_u = L.charts["UX"].image_of_var(0)
    f0_poly = _fiber_degree_0(img_u)
    lhs0 = _fiber_degree_0(substitute(img_u, [Poly.variable(wring, 2, 0), L.overlap.b]))

    g0_poly = _fiber_degree_0(L.charts["VY"].image_of_var(0))
    if T.base.v_inverse:
        (g0_poly,) = _flipped([g0_poly], 0)

    failures = []
    if lhs0 != g0_poly:
        failures.append(
            {
                "coordinate": "u",
                "lhs": poly_to_str(lhs0),
                "rhs": poly_to_str(g0_poly),
                "law": "degree-0 comparison",
            }
        )

    f0_lift, g0_lift = (
        AffineChartLift.from_images(field, mask, (img,)) for img in (f0_poly, g0_poly)
    )
    eta = eta_between(f0_lift, g0_lift)
    return CheckResult(
        failures,
        {"eta": eta, "f0": f0_lift, "g0": g0_lift, "eta_u": poly_to_str(eta.values[0])},
    )
