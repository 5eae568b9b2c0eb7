"""Frobenius lifts on affine (Laurent) charts and their difference calculus.

A chart lift stores only the correction polynomials f_i over F_q, with
the chart map fixed as x_i -> x_i^p + p*f_i and the coefficient action
fixed as the canonical Witt Frobenius.  Two lifts on the same chart
differ by p times an eta-function: an additive map satisfying the
twisted Leibniz rule eta(ab) = a^p eta(b) + b^p eta(a).

The phi matrix Diag(x_i^(p-1)) + (df_i/dx_j) represents the map induced
by dividing the differential of the lift by p.  Its determinant is
always nonzero with top-monomial coefficient 1; the combinatorial heart
of that statement is the column-sum lemma checked by
``monomial_lemma_check``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from typing import Sequence

from .errors import ParseError, RangeError, ShapeError, UnsupportedShape
from .polyalg import (
    Poly,
    PolyMatrix,
    canonical_lift,
    divide_by_p,
    embed_times_p,
    frobenius_substitute,
    poly_from_str,
    poly_to_str,
    substitute,
)
from .witt2 import GF, W2, FiniteField, WittPair


@dataclass
class CheckResult:
    """Outcome of a verification, with witnesses for every failure."""

    ok: bool
    failures: list = dc_field(default_factory=list)
    details: dict = dc_field(default_factory=dict)


class AffineChartLift:
    """Frobenius lift on a chart k[x_1..x_n] (variables in laurent_mask inverted).

    corrections[i] is the F_q polynomial f_i with F(x_i) = x_i^p + p*f_i.
    """

    __slots__ = ("field", "nvars", "laurent_mask", "corrections", "_images", "_powers")

    def __init__(self, field: FiniteField, nvars: int, laurent_mask, corrections):
        laurent_mask = tuple(bool(b) for b in laurent_mask)
        corrections = tuple(corrections)
        if len(laurent_mask) != nvars:
            raise ShapeError(f"laurent_mask needs {nvars} entries")
        if len(corrections) != nvars:
            raise ShapeError(f"need {nvars} correction polynomials, got {len(corrections)}")
        for f in corrections:
            if f.ring != field or f.nvars != nvars:
                raise ShapeError("corrections must be F_q polynomials on this chart")
            if not f.respects_mask(laurent_mask):
                raise UnsupportedShape("correction inverts a variable outside the chart")
        self.field = field
        self.nvars = nvars
        self.laurent_mask = laurent_mask
        self.corrections = corrections
        self._images = {}
        self._powers = {}

    @property
    def lift_ring(self):
        return W2(self.field.p, self.field.m)

    @property
    def p(self) -> int:
        return self.field.p

    def __eq__(self, other):
        return (
            isinstance(other, AffineChartLift)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.laurent_mask == other.laurent_mask
            and self.corrections == other.corrections
        )

    def same_chart(self, other: "AffineChartLift") -> bool:
        return (
            self.field == other.field
            and self.nvars == other.nvars
            and self.laurent_mask == other.laurent_mask
        )

    def image_of_var(self, i: int) -> Poly:
        """F(x_i) = x_i^p + p*f_i as a polynomial over W2(F_q)."""
        if i not in self._images:
            ring = self.lift_ring
            img = Poly.variable(ring, self.nvars, i, self.p) + embed_times_p(
                self.corrections[i], ring
            )
            self._images[i] = img
        return self._images[i]

    def image_of_var_power(self, i: int, e: int) -> Poly:
        """F(x_i)^e, computed once per lift; e < 0 only for inverted variables."""
        if e < 0 and not self.laurent_mask[i]:
            raise UnsupportedShape(f"variable x{i + 1} is not inverted on this chart")
        power = self._powers.get((i, e))
        if power is None:
            power = self._powers[i, e] = self.image_of_var(i) ** e
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
    ring = L.lift_ring
    if a.ring != ring or a.nvars != L.nvars:
        raise ShapeError("argument is not a lift-ring polynomial on this chart")
    if not a.respects_mask(L.laurent_mask):
        raise UnsupportedShape("argument inverts a variable outside the chart")
    images = [L.image_of_var(i) for i in range(L.nvars)]
    return substitute(
        a,
        images,
        coeff_map=WittPair.frobenius,
        ring=ring,
        nvars=L.nvars,
        powers=L.image_of_var_power,
    )


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
        if a.ring != self.field or a.nvars != self.nvars:
            raise ShapeError("eta argument must be an F_q polynomial on this chart")
        result = Poly.zero(self.field, self.nvars)
        for i, v in enumerate(self.values):
            if v.is_zero():
                continue
            result = result + frobenius_substitute(a.partial_derivative(i)) * v
        return result

    def via_lifts(self, a: Poly) -> Poly:
        """divide_by_p(F2(a~) - F1(a~)) for any lift a~ of a (well defined)."""
        f1, f2 = self.sources
        a_lift = canonical_lift(a, f1.lift_ring)
        return divide_by_p(apply_lift(f2, a_lift) - apply_lift(f1, a_lift))

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
    return CheckResult(not failures, failures)


# ---------------------------------------------------------------------------
# the phi matrix and its determinant
# ---------------------------------------------------------------------------


def phi_matrix(L: AffineChartLift) -> PolyMatrix:
    """Diag(x_i^(p-1)) + (df_i/dx_j), row i, column j."""
    n = L.nvars
    p = L.p
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            e = L.corrections[i].partial_derivative(j)
            if i == j:
                e = e + Poly.variable(L.field, n, i, p - 1)
            row.append(e)
        entries.append(row)
    return PolyMatrix(entries)


def phi_det(L: AffineChartLift) -> Poly:
    return phi_matrix(L).determinant()


def top_monomial(L: AffineChartLift) -> tuple:
    """The exponent tuple (p-1, ..., p-1) of the distinguished monomial."""
    return (L.p - 1,) * L.nvars


def _int_det(rows) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        sub = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        cof = rows[0][j] * _int_det(sub)
        total += cof if j % 2 == 0 else -cof
    return total


def monomial_lemma_check(K: Sequence[Sequence[int]], p: int) -> CheckResult:
    """Both routes through the column-sum lemma for monomial corrections.

    Given an m x n exponent matrix K with entries in [0, p-1] and
    f_i = prod_j t_j^(k_ij), the m x m matrix (df_i/dt_j), j <= m, must
    (a) expand to a determinant with zero coefficient at
    t_1^(p-1)...t_m^(p-1), and (b) equal det(K block) * prod_j t_j^(s_j)
    with s_j the j-th column sum minus 1 on the first m variables.
    """
    K = [list(row) for row in K]
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
            if not 0 <= k <= p - 1:
                raise RangeError(f"exponent {k} outside [0, {p - 1}]")

    field = GF(p)
    fs = [Poly.monomial(field, n, tuple(row)) for row in K]
    M = PolyMatrix([[f.partial_derivative(j) for j in range(m)] for f in fs])
    expanded = M.determinant()

    failures = []
    target = (p - 1,) * m
    for mono in expanded.terms:
        if mono[:m] == target:
            failures.append(
                {
                    "claim": "top-coefficient-zero",
                    "monomial": list(mono),
                    "coefficient": field.coeff_to_str(expanded.terms[mono]),
                }
            )

    det_block = _int_det([row[:m] for row in K])
    if det_block % p == 0:
        closed = Poly.zero(field, n)
    else:
        col_sums = [sum(K[i][j] for i in range(m)) for j in range(n)]
        exps = tuple(
            (col_sums[j] - 1) if j < m else col_sums[j] for j in range(n)
        )
        closed = Poly.monomial(field, n, exps, field.from_int(det_block))
    if closed != expanded:
        failures.append(
            {
                "claim": "closed-form",
                "expanded": poly_to_str(expanded),
                "closed": poly_to_str(closed),
            }
        )
    return CheckResult(
        not failures,
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


def lift_from_json(s: str) -> AffineChartLift:
    """Parse the format of :func:`lift_to_json`; a malformed document raises ParseError."""
    try:
        d = json.loads(s)
    except json.JSONDecodeError as exc:
        raise ParseError(f"lift is not valid JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise ParseError("a lift must be a JSON object")
    try:
        p, q, nvars, mask, corrections = (
            d[key] for key in ("p", "q", "nvars", "laurent_mask", "corrections")
        )
    except KeyError as exc:
        raise ParseError(f"lift lacks the key {exc}") from exc
    if not all(type(v) is int for v in (p, q, nvars)) or nvars < 0:
        raise ParseError("p, q and nvars must be integers, nvars >= 0")
    # checked before any correction is parsed, which allocates per variable
    if not all(isinstance(v, list) and len(v) == nvars for v in (mask, corrections)):
        raise ParseError(f"laurent_mask and corrections must be lists of {nvars} entries")
    if not all(type(b) is bool for b in mask) or not all(isinstance(c, str) for c in corrections):
        raise ParseError("laurent_mask entries must be booleans and corrections strings")
    m = 1
    while p > 1 and p ** m < q:
        m += 1
    if p ** m != q:
        raise ParseError(f"q = {q} is not a power of p = {p}")
    field = GF(p, m)
    corrections = [poly_from_str(field, nvars, c) for c in corrections]
    return AffineChartLift(field, nvars, mask, corrections)
