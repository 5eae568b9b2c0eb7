"""Chart calculus for ruled surfaces over a one-dimensional toric base.

The surface is covered by four affine charts over a base pair (U, V).
Fiber coordinates x, t on the U side and y, s on the V side glue by
t*x = s*y = 1 and x = a*y + b, with a a unit and b a function on the
base overlap.  Supported bases: the affine line, the punctured line and
the projective line (transition a = c*u^n, Laurent b).

The standard lift fixes a base-chart lift, sends x to x^p, and
propagates through the transition: F(y) = ((a*y + b)^p - F(b)) / F(a),
which always lands in y^p + p*h with deg_y h <= p.  The t and s images
come from the degree-bound chart extension.  Every chart lift acts on
overlap functions through ``froblift.apply_lift``, and the eta between
the base lifts read off the U and V sides is ``froblift.eta_between``
of the two, which is 0 exactly when they agree.

Chart polynomials put the base coordinate in slot 0 and the fiber in
slot 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InvariantViolation,
    NotDivisible,
    ShapeError,
    UnitError,
    UnsupportedShape,
)
from .froblift import AffineChartLift, CheckResult, apply_lift, eta_between, standard_lift
from .polyalg import (
    Poly,
    canonical_lift,
    divide_by_p,
    flip_variable,
    invert_unit,
    poly_to_str,
    reduce_mod_p,
    substitute,
)
from .projline import extend_chart
from .witt2 import FiniteField

BASE_KINDS = ("A1", "Gm", "P1")

# Laurent mask of the base overlap coordinate u
_OVERLAP_MASK = {"A1": False, "Gm": True, "P1": True}
# Laurent mask of each base chart's own coordinate
_CHART_MASK = {"A1": False, "Gm": True, "P1": False}


class TransitionData:
    """Gluing data x = a*y + b over a toric base; a must be a unit monomial."""

    __slots__ = ("kind", "field", "a", "b")

    def __init__(self, kind: str, a: Poly, b: Poly):
        if kind not in BASE_KINDS:
            raise UnsupportedShape(f"unsupported base {kind!r}; expected one of {BASE_KINDS}")
        if a.nvars != 1 or b.nvars != 1 or a.ring != b.ring:
            raise ShapeError("a and b must be one-variable polynomials over one field")
        st = a.single_term()
        if st is None or st[1].is_zero():
            raise UnitError("transition coefficient a must be a unit monomial")
        mono, _ = st
        mask = (_OVERLAP_MASK[kind],)
        if not a.respects_mask(mask) or (kind == "A1" and mono[0] != 0):
            raise UnitError(f"a = {poly_to_str(a)} is not a unit on the {kind} base")
        if not b.respects_mask(mask):
            raise UnsupportedShape(f"b = {poly_to_str(b)} is not regular on the {kind} overlap")
        self.kind = kind
        self.field = a.ring
        self.a = a
        self.b = b

    def __repr__(self):
        return f"TransitionData({self.kind}, a={poly_to_str(self.a)}, b={poly_to_str(self.b)})"


def hirzebruch_transition(field: FiniteField, n: int) -> TransitionData:
    """The transition a = u^n, b = 0 of the n-th projective-bundle surface over P1."""
    if n < 0:
        raise UnsupportedShape("twist n must be >= 0")
    return TransitionData(
        "P1", Poly.monomial(field, 1, (n,)), Poly.zero(field, 1)
    )


class BaseLift:
    """Frobenius lift on the base charts (one chart, or two glued ones for P1)."""

    __slots__ = ("kind", "chart_U", "chart_V")

    def __init__(self, kind: str, chart_U: AffineChartLift, chart_V: AffineChartLift = None):
        if kind not in BASE_KINDS:
            raise UnsupportedShape(f"unsupported base {kind!r}")
        if chart_U.nvars != 1:
            raise ShapeError("base chart lifts are one-variable")
        if kind == "P1":
            if chart_V is None:
                # the second chart is forced by the degree-bound extension
                point = standard_lift(chart_U.field, 0)
                chart_V = AffineChartLift(
                    chart_U.field, 1, (False,),
                    (extend_chart(point, chart_U.corrections[0]),),
                )
            if chart_V.nvars != 1:
                raise ShapeError("base chart lifts are one-variable")
        else:
            chart_V = chart_U
        self.kind = kind
        self.chart_U = chart_U
        self.chart_V = chart_V


def standard_base_lift(field: FiniteField, kind: str) -> BaseLift:
    """u -> u^p on every base chart."""
    return BaseLift(kind, standard_lift(field, 1, (_CHART_MASK[kind],)))


@dataclass
class RuledLift:
    """Four-chart lift data; charts keyed UX, UT, VY, VS."""

    transition: TransitionData
    charts: dict
    h: Poly  # fiber correction of the VY chart, over F_q

    @property
    def field(self):
        return self.transition.field

    def chart_images(self) -> dict:
        out = {}
        for key, coord in (("UX", "x"), ("UT", "t"), ("VY", "y"), ("VS", "s")):
            chart = self.charts[key]
            out[key] = {
                "base": poly_to_str(chart.image_of_var(0)),
                coord: poly_to_str(chart.image_of_var(1)),
            }
        return out


def _embed2(f: Poly) -> Poly:
    """One-variable polynomial into two variables, occupying the base slot."""
    return Poly(f.ring, 2, {m + (0,): c for m, c in f.terms.items()})


def _lifted_transition(T: TransitionData, wring) -> tuple:
    """The canonical lifts a~ and b~ as overlap polynomials over W2(F_q)."""
    return _embed2(canonical_lift(T.a, wring)), _embed2(canonical_lift(T.b, wring))


def _overlap_lift(chart: AffineChartLift, kind: str) -> AffineChartLift:
    """A U-side chart lift with u inverted, as it acts on the base overlap.

    Over P1, a and b may be Laurent in u, which the chart itself rejects.
    """
    mask = (_OVERLAP_MASK[kind], False)
    if chart.laurent_mask == mask:
        return chart
    return AffineChartLift(chart.field, 2, mask, chart.corrections)


def build_standard_lift(T: TransitionData, baseF: BaseLift = None) -> RuledLift:
    """The explicit lift with F(x) = x^p, propagated to the other three charts."""
    field = T.field
    p = field.p
    if baseF is None:
        baseF = standard_base_lift(field, T.kind)
    if baseF.kind != T.kind or baseF.chart_U.field != field:
        raise ShapeError("base lift does not match the transition data")

    wring = baseF.chart_U.lift_ring
    fu = _embed2(baseF.chart_U.corrections[0])
    fv = _embed2(baseF.chart_V.corrections[0])
    chart_mask = (_CHART_MASK[T.kind], False)

    # U-side charts: x -> x^p exactly; the t-chart (t = 1/x) has the same corrections
    chart_ux = AffineChartLift(field, 2, chart_mask, (fu, Poly.zero(field, 2)))

    # V-side fiber image, computed on the overlap:
    #   F(y) = ((a~*y + b~)^p - F(b~)) * F(a~)^(-1)
    a2, b2 = _lifted_transition(T, wring)
    over_ux = _overlap_lift(chart_ux, T.kind)
    try:
        den_inv = invert_unit(apply_lift(over_ux, a2))
    except UnitError as exc:
        raise UnitError(f"base image of a is not a unit: {exc}") from exc
    y_img = ((a2 * Poly.variable(wring, 2, 1) + b2) ** p - apply_lift(over_ux, b2)) * den_inv

    try:
        h_overlap = divide_by_p(y_img - Poly.variable(wring, 2, 1, p))
    except NotDivisible as exc:
        raise InvariantViolation(f"V-chart image does not reduce to y^p: {exc}") from exc
    deg_h = h_overlap.degree_in(1)
    if deg_h is not None and deg_h > p:
        raise InvariantViolation(f"fiber degree of h is {deg_h} > p = {p}")

    h_chart = _to_v_coords(h_overlap, T.kind)
    chart_vy = AffineChartLift(field, 2, chart_mask, (fv, h_chart))
    # s-chart via the degree-bound extension (deg_y h <= p <= 2p always holds)
    g_s = extend_chart(baseF.chart_V, h_chart)
    chart_vs = AffineChartLift(field, 2, chart_mask, (fv, g_s))

    return RuledLift(
        transition=T,
        charts={"UX": chart_ux, "UT": chart_ux, "VY": chart_vy, "VS": chart_vs},
        h=h_chart,
    )


def _to_v_coords(f: Poly, kind: str) -> Poly:
    """Rewrite an overlap polynomial (coords u, fiber) into the V chart."""
    if kind != "P1":
        if kind == "A1" and not f.respects_mask((False, True)):
            raise UnsupportedShape("correction is not regular on the affine-line base")
        return f
    if (f.degree_in(0) or 0) > 0:
        raise UnsupportedShape(
            "V-side correction involves positive powers of u and does not "
            "descend to the v-chart; this transition needs a different gluing"
        )
    return flip_variable(f, 0)


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
    differs.  An overlap related to another by a monomial change of
    coordinates (y = 1/s, v = 1/u) takes its images from the other's by
    flipping that variable.  Overlaps whose transition is not expressible
    with monomial units (the t-side against the V charts when b != 0) are
    implied by the directly checked ones and reported as such.
    """
    T = L.transition
    field = L.field
    wring = L.charts["UX"].lift_ring
    b_zero = T.b.is_zero()
    on_p1 = T.kind == "P1"
    a2, b2 = _lifted_transition(T, wring)
    u = Poly.variable(wring, 2, 0)
    y = Poly.variable(wring, 2, 1)

    failures, checked, implied = [], [], []

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

    def base_img(chart_key):
        # base images are fiber-free; reinterpret them on the overlap
        return _embed2(_strip_var(L.charts[chart_key].image_of_var(0), 1))

    def v_side(img):
        # a V-chart polynomial on the overlap, whose base coordinate is 1/u over P1
        return flip_variable(img, 0) if on_p1 else img

    def v_side_u_image(chart_key):
        img = v_side(base_img(chart_key))
        return invert_unit(img) if on_p1 else img

    def flipped(img):
        # the image of the inverse fiber coordinate (t = 1/x, s = 1/y)
        return invert_unit(flip_variable(img, 1))

    # mod-p sanity: every chart map lifts the Frobenius
    for key, chart in L.charts.items():
        for i in range(2):
            red = reduce_mod_p(chart.image_of_var(i))
            if red != Poly.variable(field, 2, i, field.p):
                failures.append(
                    {
                        "overlap": key,
                        "coordinate": "base" if i == 0 else "fiber",
                        "lhs": poly_to_str(red),
                        "rhs": "reduction must be the p-th power",
                    }
                )

    # UX meets UT in (u, x), t = 1/x; VY meets VS in (w, y), s = 1/y (V-side base w kept)
    img_x = L.charts["UX"].image_of_var(1)
    img_y = L.charts["VY"].image_of_var(1)
    pairs = (("UX", "UT", ("u", "x"), img_x), ("VY", "VS", ("w", "y"), img_y))
    for near, far, coords, img in pairs:
        side_far = [base_img(far), flipped(L.charts[far].image_of_var(1))]
        compare(f"{near}/{far}", coords, [base_img(near), img], side_far)

    # the U-side images of y on the overlap coords (u, y)
    over_ux = _overlap_lift(L.charts["UX"], T.kind)
    # UX: x = a*y + b, so F(y) = (F(x) - F(b)) / F(a)
    ay_img = substitute(img_x, [u, a2 * y + b2]) - apply_lift(over_ux, b2)
    y_images = {"UX": ay_img * invert_unit(apply_lift(over_ux, a2))}
    if b_zero:
        # UT: t = 1/(a*y), so F(y) = 1/(F(a) * F(t))
        chart_ut = L.charts["UT"]
        over_ut = over_ux if chart_ut is L.charts["UX"] else _overlap_lift(chart_ut, T.kind)
        img_t = substitute(chart_ut.image_of_var(1), [u, invert_unit(a2 * y)])
        y_images["UT"] = invert_unit(apply_lift(over_ut, a2) * img_t)
    else:
        implied = ["UT/VY", "UT/VS"]

    # each meets VY in (u, y) and VS in (u, s); y = 1/s
    side_vy = [v_side_u_image("VY"), v_side(img_y)]
    side_vs = [v_side_u_image("VS"), v_side(L.charts["VS"].image_of_var(1))]
    for key, y_img in y_images.items():
        u_img = base_img(key)
        compare(f"{key}/VY", ("u", "y"), [u_img, y_img], side_vy)
        compare(f"{key}/VS", ("u", "s"), [u_img, flipped(y_img)], side_vs)

    return CheckResult(
        not failures,
        failures,
        {"checked": checked, "implied": implied, "base": T.kind, "b_zero": b_zero},
    )


# ---------------------------------------------------------------------------
# base-lift extraction
# ---------------------------------------------------------------------------


@dataclass
class BaseLiftExtraction:
    """Fiber-degree-0 part of a chart lift, plus the p-torsion tail."""

    f0: AffineChartLift
    tails: dict  # (base var index, fiber power >= 1) -> lift-ring polynomial


def extract_base_lift(chart: AffineChartLift) -> BaseLiftExtraction:
    """Expand each base image in fiber powers; degree 0 is again a base lift.

    Every higher coefficient must be killed by p (it reduces to zero mod
    p); a violation raises, since it would contradict the structure of a
    chart lift.
    """
    if chart.nvars < 2:
        raise ShapeError("need at least one base variable plus the fiber")
    fiber = chart.nvars - 1
    ring = chart.lift_ring
    n_base = chart.nvars - 1
    base_mask = chart.laurent_mask[:n_base]
    g0s = []
    tails = {}
    for i in range(n_base):
        img = chart.image_of_var(i)
        buckets = img.collect_by_var(fiber)
        a0 = buckets.get(0, Poly.zero(ring, chart.nvars))
        xp = Poly.variable(ring, chart.nvars, i, chart.p)
        try:
            g0 = divide_by_p(a0 - xp)
        except NotDivisible as exc:
            raise InvariantViolation(
                f"fiber-free part of F(x{i + 1}) does not lift the Frobenius: {exc}"
            ) from exc
        g0s.append(_strip_var(g0, fiber))
        for k, coeff_poly in buckets.items():
            if k == 0:
                continue
            for mono, c in coeff_poly.terms.items():
                if not ring.divisible_by_p(c):
                    raise InvariantViolation(
                        f"tail coefficient of x_fiber^{k} in F(x{i + 1}) "
                        "is not annihilated by p"
                    )
            tails[(i, k)] = _strip_var(coeff_poly, fiber)
    f0 = AffineChartLift(chart.field, n_base, base_mask, g0s)
    return BaseLiftExtraction(f0, tails)


def _strip_var(f: Poly, i: int) -> Poly:
    terms = {}
    for m, c in f.terms.items():
        if m[i] != 0:
            raise ShapeError("cannot strip a variable that still occurs")
        terms[m[:i] + m[i + 1:]] = c
    return Poly(f.ring, f.nvars - 1, terms)


def _fiber_degree_0(f: Poly) -> Poly:
    """The fiber-degree-0 part of a two-variable polynomial, as a base polynomial."""
    return _strip_var(f.collect_by_var(1).get(0, Poly.zero(f.ring, 2)), 1)


def base_glue_consistency(L: RuledLift) -> CheckResult:
    """The U- and V-side base lifts agree; eta is the one between them.

    The U-side image of u, pushed through the lifted transition and cut
    at fiber degree 0, must equal the V-side image of u on the overlap.
    Their fiber-degree-0 parts are base lifts f0 and g0, and
    ``eta = eta_between(f0, g0)`` is 0 exactly when the two agree.
    """
    T = L.transition
    field = L.field
    wring = L.charts["UX"].lift_ring
    mask = (_OVERLAP_MASK[T.kind],)
    a2, b2 = _lifted_transition(T, wring)

    img_u = L.charts["UX"].image_of_var(0)
    f0_poly = _fiber_degree_0(img_u)
    xelem = a2 * Poly.variable(wring, 2, 1) + b2
    lhs0 = _fiber_degree_0(substitute(img_u, [Poly.variable(wring, 2, 0), xelem]))

    g0_poly = _strip_var(L.charts["VY"].image_of_var(0), 1)
    if T.kind == "P1":
        # the V-side base coordinate is v = 1/u, so F(u) = 1/F(v)
        g0_poly = invert_unit(flip_variable(g0_poly, 0))

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

    up = Poly.variable(wring, 1, 0, field.p)
    try:
        f0_lift = AffineChartLift(field, 1, mask, (divide_by_p(f0_poly - up),))
        g0_lift = AffineChartLift(field, 1, mask, (divide_by_p(g0_poly - up),))
    except NotDivisible as exc:
        raise InvariantViolation(f"extracted base parts are not Frobenius lifts: {exc}") from exc

    eta = eta_between(f0_lift, g0_lift)
    return CheckResult(
        not failures,
        failures,
        {"eta": eta, "f0": f0_lift, "g0": g0_lift, "eta_u": poly_to_str(eta.values[0])},
    )
