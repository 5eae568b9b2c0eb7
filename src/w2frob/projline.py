"""Frobenius lifts on the projective line over an affine base.

Charts A[x] and A[y] glue along xy = 1.  A lift on the x-chart sends x
to x^p + p*f with f an A-coefficient polynomial in x; inverting gives
F(y) = y^p - p*y^(2p)*f(1/y), which is polynomial in y exactly when
deg_x f <= 2p.  That bound cuts out a (2p+1)-dimensional space of
monomial corrections over a point.

Convention: chart polynomials carry the base variables first and the
fiber variable last.
"""

from __future__ import annotations

from .errors import DegreeTooHigh, InvariantViolation, ShapeError, UnsupportedShape
from .froblift import AffineChartLift, CheckResult, standard_lift
from .polyalg import Poly, embed_times_p, flip_variable, poly_to_str
from .witt2 import GF


class P1Lift:
    """A base-chart lift together with an x-chart correction of fiber degree <= 2p."""

    __slots__ = ("base", "f")

    def __init__(self, base: AffineChartLift, f: Poly):
        _validate_fiber_poly(base, f)
        d = f.degree_in(base.nvars)
        if d is not None and d > 2 * base.p:
            raise DegreeTooHigh(f"fiber degree {d} exceeds {2 * base.p}")
        self.base = base
        self.f = f

    @property
    def nvars(self) -> int:
        return self.base.nvars + 1

    @property
    def fiber(self) -> int:
        return self.base.nvars

    def x_chart(self) -> AffineChartLift:
        """The full (base + fiber) chart lift on A[x]."""
        return _fiber_chart(self.base, self.f)

    def __repr__(self):
        return f"P1Lift(p={self.base.p}, f={poly_to_str(self.f)})"


def _validate_fiber_poly(base: AffineChartLift, f: Poly):
    if f.ring != base.field or f.nvars != base.nvars + 1:
        raise ShapeError("correction must be an F_q polynomial in base variables plus x")
    fiber = base.nvars
    mask = base.laurent_mask + (False,)
    if not f.respects_mask(mask):
        raise UnsupportedShape("correction is Laurent where the chart is not")
    if (f.min_exponent(fiber) or 0) < 0:
        raise UnsupportedShape("correction must be polynomial in the fiber variable")


def _fiber_chart(base: AffineChartLift, fiber_correction: Poly) -> AffineChartLift:
    n = base.nvars + 1
    field = base.field
    corrections = [
        _embed_base(g, n) for g in base.corrections
    ] + [fiber_correction]
    return AffineChartLift(field, n, base.laurent_mask + (False,), corrections)


def _embed_base(g: Poly, nvars: int) -> Poly:
    pad = nvars - g.nvars
    terms = {m + (0,) * pad: c for m, c in g.terms.items()}
    return Poly(g.ring, nvars, terms)


def extend_chart(base: AffineChartLift, f: Poly) -> Poly:
    """Rewrite F(x) = x^p + p*f on the opposite chart; fails above degree 2p.

    Returns the y-chart correction g with F(y) = y^p + p*g, i.e.
    g = -y^(2p) * f(1/y).  The map is an involution: applying it to g
    returns f exactly.
    """
    _validate_fiber_poly(base, f)
    p = base.p
    fiber = base.nvars
    terms = {}
    for m, c in f.terms.items():
        e = m[fiber]
        if e > 2 * p:
            raise DegreeTooHigh(
                f"monomial of fiber degree {e} > {2 * p}: no lift extends across the charts"
            )
        terms[m[:fiber] + (2 * p - e,)] = -c
    return Poly(f.ring, f.nvars, terms)


def verify_p1_lift(L: P1Lift) -> CheckResult:
    """Extension, exact round-trip, and the gluing identity F(x)*F(y) = 1."""
    base = L.base
    fiber = L.fiber
    failures = []
    try:
        g = extend_chart(base, L.f)
    except DegreeTooHigh as exc:
        return CheckResult(False, [{"chart": "y", "error": str(exc)}])

    back = extend_chart(base, g)
    if back != L.f:
        failures.append(
            {
                "chart": "x",
                "error": "round-trip mismatch",
                "expected": poly_to_str(L.f),
                "got": poly_to_str(back),
            }
        )

    # gluing identity in the overlap ring (fiber inverted):
    # (x^p + p f)(y^p + p g)|_{y=1/x} must be exactly 1
    ring = base.lift_ring
    n = L.nvars
    fx = Poly.variable(ring, n, fiber, base.p) + embed_times_p(L.f, ring)
    fy_sub = Poly.variable(ring, n, fiber, -base.p) + embed_times_p(
        flip_variable(g, fiber), ring
    )
    prod = fx * fy_sub
    if prod != Poly.constant(ring, n, ring.one):
        failures.append(
            {
                "chart": "overlap",
                "error": "F(x)*F(y) != 1 on the overlap",
                "got": poly_to_str(prod),
            }
        )
    return CheckResult(not failures, failures, {"y_correction": poly_to_str(g)})


def lift_space_dimension(p: int) -> int:
    """Count monomial corrections x^d over a point that extend across both charts.

    Enumerates d in [0, 3p] and checks that exactly d <= 2p succeed,
    returning the count 2p + 1.
    """
    field = GF(p)
    base = standard_lift(field, 0)
    passing = []
    for d in range(3 * p + 1):
        f = Poly.monomial(field, 1, (d,))
        try:
            extend_chart(base, f)
        except DegreeTooHigh:
            continue
        passing.append(d)
    if passing != list(range(2 * p + 1)):
        raise InvariantViolation(f"extendable degrees {passing} are not 0..2p for p = {p}")
    return len(passing)
