"""Frobenius lifts on affine (Laurent) charts and their difference calculus.

A chart lift stores only the correction polynomials f_i over F_q, with
the chart map fixed as x_i -> x_i^p + p*f_i and the coefficient action
fixed as the canonical Witt Frobenius.  Only this module converts
between images and corrections: ``AffineChartLift.image_of_var`` one
way, ``AffineChartLift.from_images`` the other.  Two lifts on the same
chart differ by p times an eta-function: an additive map satisfying the
twisted Leibniz rule eta(ab) = a^p eta(b) + b^p eta(a).

The phi matrix Diag(x_i^(p-1)) + (df_i/dx_j) represents the map induced
by dividing the differential of the lift by p.  Its determinant is
always nonzero with top-monomial coefficient 1; the combinatorial heart
of that statement is the column-sum lemma checked by
``monomial_lemma_check``.
"""

from __future__ import annotations

import json
from typing import Sequence

from .errors import (
    InvariantViolation,
    NotDivisible,
    RangeError,
    RingMismatch,
    ShapeError,
    UnsupportedShape,
)
from .polyalg import (
    Poly,
    PolyMatrix,
    _check_count,
    _check_index,
    canonical_lift,
    divide_by_p,
    divided_difference,
    embed_times_p,
    frobenius_substitute,
    partial_derivatives,
    phi_derivation,
    poly_to_str,
    substitute,
)
from .witt2 import GF, W2, FiniteField


class CheckResult:
    """Outcome of a verification: a witness for every failure, and details; ok means none."""

    __slots__ = ("failures", "details")

    def __init__(self, failures: list = None, details: dict = None):
        self.failures = [] if failures is None else failures
        self.details = {} if details is None else details

    @property
    def ok(self) -> bool:
        return not self.failures


class AffineChartLift:
    """Frobenius lift on a chart k[x_1..x_n] (variables in laurent_mask inverted).

    corrections[i] is the F_q polynomial f_i with F(x_i) = x_i^p + p*f_i.
    """

    __slots__ = ("field", "lift_ring", "nvars", "laurent_mask", "corrections", "_images", "_powers")

    def __init__(self, field: FiniteField, nvars: int, laurent_mask, corrections):
        if not isinstance(field, FiniteField):
            raise RingMismatch(f"a chart lift lives over a finite field, not over {field!r}")
        _check_count(nvars)
        laurent_mask = tuple(map(bool, laurent_mask))
        corrections = tuple(corrections)
        if len(laurent_mask) != nvars:
            raise ShapeError(f"laurent_mask needs {nvars} entries")
        if len(corrections) != nvars:
            raise ShapeError(f"need {nvars} correction polynomials, got {len(corrections)}")
        for f in corrections:
            if f.ring is not field or f.nvars != nvars:
                raise ShapeError("corrections must be F_q polynomials on this chart")
            if not f.respects_mask(laurent_mask):
                raise UnsupportedShape("correction inverts a variable outside the chart")
        self.field = field
        self.lift_ring = W2(field.p, field.m)
        self.nvars = nvars
        self.laurent_mask = laurent_mask
        self.corrections = corrections
        self._images = None
        self._powers = {}

    @classmethod
    def from_images(cls, field: FiniteField, laurent_mask, images) -> "AffineChartLift":
        """The lift with F(x_i) = images[i], which it keeps; the inverse of ``image_of_var``."""
        nvars, ring = len(images), W2(field.p, field.m)
        corrections = []
        for i, img in enumerate(images):
            try:
                corrections.append(divide_by_p(img - Poly.variable(ring, nvars, i, field.p)))
            except NotDivisible as exc:
                raise InvariantViolation(f"F(x{i + 1}) is not x{i + 1}^p mod p: {exc}") from exc
        lift = cls(field, nvars, laurent_mask, corrections)
        lift._images = tuple(images)  # each is x_i^p + p*f_i exactly, as divide_by_p succeeded
        return lift

    @property
    def p(self) -> int:
        return self.field.p

    def __eq__(self, other):
        return (
            isinstance(other, AffineChartLift)
            and self.same_chart(other)
            and self.corrections == other.corrections
        )

    def same_chart(self, other: "AffineChartLift") -> bool:
        return (
            self.field is other.field
            and self.nvars == other.nvars
            and self.laurent_mask == other.laurent_mask
        )

    @property
    def images(self) -> tuple:
        """(F(x_1), ..., F(x_n)), F(x_i) = x_i^p + p*f_i over W2(F_q), built once if at all."""
        if self._images is None:
            ring, n, p = self.lift_ring, self.nvars, self.p
            self._images = tuple(
                Poly.variable(ring, n, i, p) + embed_times_p(f, ring)
                for i, f in enumerate(self.corrections)
            )
        return self._images

    def image_of_var(self, i: int) -> Poly:
        """F(x_i) = x_i^p + p*f_i as a polynomial over W2(F_q)."""
        return self.images[_check_index(i, self.nvars)]

    def image_of_var_power(self, i: int, e: int) -> Poly:
        """F(x_i)^e, computed once per lift; e < 0 only for inverted variables."""
        _check_index(i, self.nvars)  # i and e before the cache, where True would find 1
        if type(e) is not int:
            raise ShapeError(f"power {e!r} of a polynomial is not an int")
        if e < 0 and not self.laurent_mask[i]:
            raise UnsupportedShape(f"variable x{i + 1} is not inverted on this chart")
        power = self._powers.get((i, e))
        if power is None:
            power = self._powers[i, e] = self.images[i] ** e
        return power

    def __repr__(self):
        cs = ", ".join(poly_to_str(f) for f in self.corrections)
        return f"AffineChartLift(p={self.p}, q={self.field.q}, n={self.nvars}, f=[{cs}])"


def standard_lift(field: FiniteField, nvars: int, laurent_mask=None) -> AffineChartLift:
    """The lift with all corrections zero, F(x_i) = x_i^p."""
    if laurent_mask is None:
        laurent_mask = (False,) * nvars
    zero = Poly.zero(field, nvars)
    return AffineChartLift(field, nvars, laurent_mask, (zero,) * nvars)


def apply_lift(L: AffineChartLift, a: Poly) -> Poly:
    """Extend the chart lift to a ring endomorphism and evaluate it on a.

    a must live over W2(F_q) on the same chart; coefficients transform by
    the Witt Frobenius, so the reduction mod p of the result is the p-th
    power of the reduction of a.
    """
    return substitute(_frobenius_twisted(L, a), L.images, powers=L.image_of_var_power)


def _frobenius_twisted(L: AffineChartLift, a: Poly) -> Poly:
    """a with the Witt Frobenius on its coefficients, once checked to lie on L's chart."""
    ring = L.lift_ring
    if a.ring is not ring or a.nvars != L.nvars:
        raise ShapeError("argument is not a lift-ring polynomial on this chart")
    if not a.respects_mask(L.laurent_mask):
        raise UnsupportedShape("argument inverts a variable outside the chart")
    if ring.m > 1:  # the Witt Frobenius is the identity on W2(F_p)
        a = a.map_coefficients(ring.frob_int, ring)
    return a


# ---------------------------------------------------------------------------
# eta calculus
# ---------------------------------------------------------------------------


class EtaFunction:
    """The divided difference (F' - F)/p of two lifts on one chart.

    Stored by its values on the chart variables and extended to every
    polynomial through additivity and the twisted Leibniz rule; the
    closed form is eta(f) = sum_i phi(df/dx_i) * eta(x_i) with phi the
    p-power substitution.  The source pair of lifts is always recorded,
    so eta can also be evaluated independently through the lift
    difference, which is what catches corrupted value tables.
    """

    __slots__ = ("field", "nvars", "laurent_mask", "values", "sources")

    def __init__(self, field, nvars, laurent_mask, values, sources):
        values = tuple(values)
        if len(values) != nvars:
            raise ShapeError(f"need {nvars} generator values")
        self.field = field
        self.nvars = nvars
        self.laurent_mask = tuple(laurent_mask)
        self.values = values
        self.sources = sources

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def __call__(self, a: Poly) -> Poly:
        """The closed form sum_i phi(da/dx_i) * eta(x_i), one ``phi_derivation`` pass."""
        if a.ring is not self.field or a.nvars != self.nvars:
            raise ShapeError("eta argument must be an F_q polynomial on this chart")
        return phi_derivation(a, self.values)

    def via_lifts(self, a: Poly) -> Poly:
        """divide_by_p(F2(a~) - F1(a~)) for any lift a~ of a (well defined), in one pass."""
        f1, f2 = self.sources
        a_lift = _frobenius_twisted(f1, canonical_lift(a, f1.lift_ring))
        sides = (f1.images, f1.image_of_var_power), (f2.images, f2.image_of_var_power)
        return divided_difference(a_lift, *sides)

    def __repr__(self):
        vs = ", ".join(poly_to_str(v) for v in self.values)
        return f"EtaFunction([{vs}])"


def eta_between(F1: AffineChartLift, F2: AffineChartLift) -> EtaFunction:
    """eta with F2(x) = F1(x) + p*eta(x); on generators just f2_i - f1_i."""
    if not F1.same_chart(F2):
        raise ShapeError("lifts live on different charts")
    values = tuple(f2 - f1 for f1, f2 in zip(F1.corrections, F2.corrections))
    return EtaFunction(F1.field, F1.nvars, F1.laurent_mask, values, sources=(F1, F2))


def eta_axioms_check(eta: EtaFunction, a: Poly, b: Poly) -> CheckResult:
    """Exact check of additivity and the twisted Leibniz rule on (a, b).

    The left-hand sides are evaluated through the source lifts and the
    right-hand sides through the stored values, so a tampered value table
    fails.
    """
    eta_a, eta_b = eta(a), eta(b)
    leibniz = frobenius_substitute(a) * eta_b + frobenius_substitute(b) * eta_a
    failures = []
    laws = (("additivity", a + b, eta_a + eta_b), ("twisted-leibniz", a * b, leibniz))
    for law, arg, rhs in laws:
        lhs = eta.via_lifts(arg)
        if lhs != rhs:
            failures.append(
                {
                    "law": law,
                    "a": poly_to_str(a),
                    "b": poly_to_str(b),
                    "lhs": poly_to_str(lhs),
                    "rhs": poly_to_str(rhs),
                }
            )
    return CheckResult(failures)


# ---------------------------------------------------------------------------
# the phi matrix and its determinant
# ---------------------------------------------------------------------------


def phi_matrix(L: AffineChartLift) -> PolyMatrix:
    """Diag(x_i^(p-1)) + (df_i/dx_j), row i, column j."""
    entries = []
    for i, f in enumerate(L.corrections):
        row = partial_derivatives(f, range(L.nvars))
        row[i] = row[i] + Poly.variable(L.field, L.nvars, i, L.p - 1)
        entries.append(row)
    return PolyMatrix(entries)


def phi_det(L: AffineChartLift) -> Poly:
    return phi_matrix(L).determinant()


def top_monomial(L: AffineChartLift) -> tuple:
    """The exponent tuple (p-1, ..., p-1) of the distinguished monomial."""
    return (L.p - 1,) * L.nvars


def _int_det(rows) -> int:
    """Determinant of an m x m int matrix, m <= 3, by its explicit formula."""
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def monomial_lemma_check(K: Sequence[Sequence[int]], p: int) -> CheckResult:
    """Both routes through the column-sum lemma for monomial corrections.

    Given an m x n exponent matrix K with entries in [0, p-1] and
    f_i = prod_j t_j^(k_ij), the m x m matrix (df_i/dt_j), j <= m, must
    (a) expand to a determinant with zero coefficient at
    t_1^(p-1)...t_m^(p-1), and (b) equal det(K block) * prod_j t_j^(s_j)
    with s_j the j-th column sum minus 1 on the first m variables.
    """
    field = GF(p)
    try:
        K = [list(row) for row in K]
    except TypeError:
        raise ShapeError("the exponent matrix must be a sequence of rows") from None
    m = len(K)
    if m == 0:
        raise ShapeError("empty exponent matrix")
    n = len(K[0])
    if any(len(row) != n for row in K):
        raise ShapeError("ragged exponent matrix")
    if not m <= n <= 3:
        raise ShapeError(f"need m <= n <= 3, got {m}x{n}")
    for row in K:
        for k in row:
            if type(k) is not int:  # bool too: True would pass as exponent 1
                raise ShapeError(f"exponent {k!r} is not an int")
            if not 0 <= k <= p - 1:
                raise RangeError(f"exponent {k} outside [0, {p - 1}]")

    fs = [Poly.monomial(field, n, tuple(row)) for row in K]
    M = PolyMatrix([partial_derivatives(f, range(m)) for f in fs])
    expanded = M.determinant()

    failures = []
    target = (p - 1,) * m
    for mono in expanded.terms:
        if mono[:m] == target:
            failures.append(
                {
                    "claim": "top-coefficient-zero",
                    "monomial": list(mono),
                    "coefficient": field.coeff_to_str(expanded.coefficient_of(mono)),
                }
            )

    det_block = _int_det([row[:m] for row in K])
    # the column sums, less 1 on the first m variables
    exps = [s - 1 if j < m else s for j, s in enumerate(map(sum, zip(*K)))]
    closed = Poly.monomial(field, n, exps, det_block)  # zero where p | det_block
    if closed != expanded:
        failures.append(
            {
                "claim": "closed-form",
                "expanded": poly_to_str(expanded),
                "closed": poly_to_str(closed),
            }
        )
    return CheckResult(
        failures,
        {"det_block_mod_p": det_block % p, "expanded": poly_to_str(expanded)},
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def lift_to_json(L: AffineChartLift) -> str:
    return json.dumps(
        {
            "p": L.field.p,
            "q": L.field.q,
            "nvars": L.nvars,
            "laurent_mask": list(L.laurent_mask),
            "corrections": [poly_to_str(f) for f in L.corrections],
        }
    )
