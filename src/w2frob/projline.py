"""Frobenius lifts on the projective line over an affine base.

Charts A[x] and A[y] glue along xy = 1.  A lift on the x-chart sends x
to x^p + p*f with f an A-coefficient polynomial in x; inverting gives
F(y) = y^p - p*y^(2p)*f(1/y), which is polynomial in y exactly when
deg_x f <= 2p.  That bound cuts out a (2p+1)-dimensional space of
monomial corrections over a point, which ``sweeps.sweep_p1`` counts by
running ``verify_p1_lift`` on x^0, ..., x^(3p).

The chart is read off the correction, and no base lift is passed: the
fiber is the last variable, and any variables before it are base
coordinates that ride along untouched.  Whether they fit a base chart is
for the caller's chart lift to check.
"""

from __future__ import annotations

from .errors import DegreeTooHigh, ShapeError, UnsupportedShape
from .froblift import AffineChartLift, CheckResult
from .polyalg import Poly, flip_variable, poly_to_str
from .witt2 import FiniteField


def extend_chart(f: Poly) -> Poly:
    """Rewrite F(x) = x^p + p*f on the opposite chart; fails above degree 2p.

    Returns the y-chart correction g with F(y) = y^p + p*g, i.e.
    g = -y^(2p) * f(1/y).  The map is an involution: applying it to g
    returns f exactly.
    """
    if f.nvars == 0 or not isinstance(f.ring, FiniteField):
        raise ShapeError("a correction is an F_q polynomial with a fiber variable")
    p = f.ring.p
    fiber = f.nvars - 1
    for m in f.terms:
        e = m[fiber]
        if e < 0:
            raise UnsupportedShape("correction is Laurent where the chart is not")
        if e > 2 * p:
            raise DegreeTooHigh(
                f"monomial of fiber degree {e} > {2 * p}: no lift extends across the charts"
            )
    return -flip_variable(f, fiber) * Poly.variable(f.ring, f.nvars, fiber, 2 * p)


def verify_p1_lift(f: Poly) -> CheckResult:
    """Extension, and the gluing identity F(x)*F(y) = 1.

    The round trip needs no run-time check: g = -y^(2p)*f(1/y) is an
    involution by its formula, with or without the sign, so only the
    gluing identity can catch a wrong flip.
    """
    try:
        g = extend_chart(f)
    except DegreeTooHigh as exc:
        return CheckResult([{"chart": "y", "error": str(exc)}])

    # gluing identity in the overlap ring (fiber inverted): F(x) * F(y)|_{y=1/x}
    # must be exactly 1; only the fiber corrections enter the two images
    n = f.nvars
    fiber = n - 1
    zeros = (Poly.zero(f.ring, n),) * fiber
    fx, fy = (
        AffineChartLift(f.ring, n, (False,) * n, zeros + (c,)).image_of_var(fiber) for c in (f, g)
    )
    prod = fx * flip_variable(fy, fiber)
    failures = []
    if prod != Poly.constant(prod.ring, n, 1):
        failures.append(
            {
                "chart": "overlap",
                "error": "F(x)*F(y) != 1 on the overlap",
                "got": poly_to_str(prod),
            }
        )
    return CheckResult(failures, {"y_correction": poly_to_str(g)})
