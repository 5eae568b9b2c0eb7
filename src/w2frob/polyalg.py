"""Sparse exact multivariate Laurent polynomials over a coefficient ring.

Monomials are exponent tuples (negative entries allowed on Laurent
charts); a polynomial is a dict mapping monomials to nonzero ring
elements plus the ring tag.  All arithmetic is exact; nothing here ever
floats or truncates.

The coefficient rings are the Galois rings of ``witt2``: every element
carries one canonical int ``n``, and the ring's ``fold`` maps any sum of
products of such ints to the canonical int.  Products, sums, derivatives
and substitutions therefore accumulate plain ints per monomial and build
one element per resulting term.  Rings that carry the mod-p interface
(``residue_field``, ``reduce_p``, ``divide_p``, ``times_p_embed``,
``from_residue``) support the reduction and division-by-p maps between a
lift ring and its residue field.

Text grammar: terms like ``c*x1^e1*x2^-3``, joined by '+' or '-', and the
first may carry a sign too.  A factor is a variable power (bare ``x`` is
``x1``) or a coefficient literal: ``3``, ``[1,0]`` over F_q, ``(a0,a1)``
over W2(F_q).  ``poly_to_str`` and ``poly_from_str`` round-trip bit-exactly.
"""

from __future__ import annotations

import re
from operator import add
from typing import Callable, Sequence

from .errors import (
    CharMismatch,
    NotDivisible,
    ParseError,
    RingMismatch,
    ShapeError,
    UnitError,
)

Monomial = tuple  # exponent tuple, one entry per variable


def _is_lift_ring(ring) -> bool:
    return hasattr(ring, "residue_field")


def _folded(ring, nvars: int, acc: dict) -> "Poly":
    """The polynomial with coefficient ``ring.fold(acc[m])`` at each monomial m."""
    fold, wrap = ring.fold, ring.wrap
    terms = {}
    for mono, n in acc.items():
        n = fold(n)
        if n:
            terms[mono] = wrap(n)
    return Poly._make(ring, nvars, terms)


class Poly:
    """Immutable sparse polynomial; do not mutate ``terms`` after creation."""

    __slots__ = ("ring", "nvars", "terms")

    def __init__(self, ring, nvars: int, terms=None):
        self.ring = ring
        self.nvars = nvars
        clean = {}
        if terms:
            for mono, c in terms.items():
                if len(mono) != nvars:
                    raise ShapeError(f"monomial {mono} does not have {nvars} exponents")
                if not c.is_zero():
                    clean[tuple(mono)] = c
        self.terms = clean

    @staticmethod
    def _make(ring, nvars: int, terms: dict) -> "Poly":
        """Wrap terms that are already clean (tuple monomials, nonzero coefficients)."""
        out = Poly.__new__(Poly)
        out.ring, out.nvars, out.terms = ring, nvars, terms
        return out

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, ring, nvars: int) -> "Poly":
        return cls(ring, nvars)

    @classmethod
    def constant(cls, ring, nvars: int, c) -> "Poly":
        if isinstance(c, int):
            c = ring.from_int(c)
        return cls(ring, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, ring, nvars: int, i: int, exp: int = 1, coeff=None) -> "Poly":
        if not 0 <= i < nvars:
            raise ShapeError(f"variable index {i} out of range for {nvars} variables")
        mono = tuple(exp if j == i else 0 for j in range(nvars))
        return cls(ring, nvars, {mono: ring.one if coeff is None else coeff})

    @classmethod
    def monomial(cls, ring, nvars: int, exps, coeff=None) -> "Poly":
        return cls(ring, nvars, {tuple(exps): ring.one if coeff is None else coeff})

    # -- ring structure -------------------------------------------------

    def _compat(self, other: "Poly"):
        if self.ring != other.ring or self.nvars != other.nvars:
            raise RingMismatch(
                f"cannot combine polynomials over {self.ring!r}/{self.nvars} vars "
                f"and {other.ring!r}/{other.nvars} vars"
            )

    def _scalar(self, c):
        """The int of a scalar coefficient in this ring; None if c is no scalar."""
        if isinstance(c, int):
            return self.ring.from_int(c).n
        ring = getattr(c, "ring", None)
        if ring is None:
            return None
        if ring is not self.ring and ring != self.ring:
            raise CharMismatch(f"scalar from {ring!r} applied to a polynomial over {self.ring!r}")
        return c.n

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly.constant(self.ring, self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._compat(other)
        ring = self.ring
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            d = terms.get(mono)
            if d is None:
                terms[mono] = c
                continue
            n = ring.fold(d.n + c.n)
            if n:
                terms[mono] = ring.wrap(n)
            else:
                del terms[mono]
        return Poly._make(ring, self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        ring = self.ring
        terms = {m: ring.wrap(ring.neg_int(c.n)) for m, c in self.terms.items()}
        return Poly._make(ring, self.nvars, terms)

    def __sub__(self, other):
        if isinstance(other, int):
            other = Poly.constant(self.ring, self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            n = self._scalar(other)
            if n is None:
                return NotImplemented
            return _folded(self.ring, self.nvars, {m: c.n * n for m, c in self.terms.items()})
        self._compat(other)
        acc = {}
        get = acc.get
        for m1, c1 in self.terms.items():
            n1 = c1.n
            for m2, c2 in other.terms.items():
                mono = tuple(map(add, m1, m2))
                acc[mono] = get(mono, 0) + n1 * c2.n
        return _folded(self.ring, self.nvars, acc)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return invert_unit(self) ** (-e)
        result, base = None, self
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return Poly.constant(self.ring, self.nvars, self.ring.one) if result is None else result

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly.constant(self.ring, self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- queries ---------------------------------------------------------

    def coefficient_of(self, mono) -> object:
        """Stored coefficient at the given exponent tuple, or the ring zero."""
        return self.terms.get(tuple(mono), self.ring.zero)

    def constant_term(self):
        return self.coefficient_of((0,) * self.nvars)

    def degree_in(self, i: int):
        """Largest exponent of variable i; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(m[i] for m in self.terms)

    def min_exponent(self, i: int):
        if not self.terms:
            return None
        return min(m[i] for m in self.terms)

    def respects_mask(self, laurent_mask: Sequence[bool]) -> bool:
        """Negative exponents only occur in variables flagged as inverted."""
        for m in self.terms:
            for i, e in enumerate(m):
                if e < 0 and not laurent_mask[i]:
                    return False
        return True

    def single_term(self):
        if len(self.terms) != 1:
            return None
        return next(iter(self.terms.items()))

    # -- calculus ----------------------------------------------------------

    def partial_derivative(self, j: int) -> "Poly":
        """Formal d/dx_j; exponents divisible by the characteristic die."""
        if not 0 <= j < self.nvars:
            raise ShapeError(f"variable index {j} out of range")
        # distinct monomials with e_j != 0 stay distinct after lowering e_j
        pk = self.ring.pk
        acc = {
            m[:j] + (m[j] - 1,) + m[j + 1:]: c.n * (m[j] % pk)
            for m, c in self.terms.items()
            if m[j]
        }
        return _folded(self.ring, self.nvars, acc)

    def map_coefficients(self, fn: Callable, target_ring) -> "Poly":
        terms = {}
        for m, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                terms[m] = v
        return Poly._make(target_ring, self.nvars, terms)

    def collect_by_var(self, i: int) -> dict:
        """Split into {exponent of x_i: polynomial in the remaining slots}.

        The returned polynomials keep the full variable count with the
        i-th exponent zeroed out.
        """
        buckets: dict = {}
        for m, c in self.terms.items():
            e = m[i]
            rest = m[:i] + (0,) + m[i + 1:]
            buckets.setdefault(e, {})[rest] = c
        return {
            e: Poly(self.ring, self.nvars, terms) for e, terms in sorted(buckets.items())
        }

    def __repr__(self):
        return f"Poly({poly_to_str(self)!r} over {self.ring!r})"


# ---------------------------------------------------------------------------
# free functions on polynomials
# ---------------------------------------------------------------------------


def substitute(
    f: Poly,
    images: Sequence[Poly],
    coeff_map: Callable | None = None,
    *,
    ring=None,
    nvars: int | None = None,
    powers: Callable | None = None,
) -> Poly:
    """Evaluate f at the given variable images (a substitution homomorphism).

    All images must share one ring and variable count, which become the
    target; ``ring``/``nvars`` are only needed when f has no variables.
    Negative source exponents invert the corresponding image, so images
    standing in for inverted variables must be units.  ``powers(i, e)``,
    when given, must return ``images[i] ** e``: a caller that keeps those
    powers (a chart lift does) passes its cache; otherwise each power is
    computed once per call.
    """
    if len(images) != f.nvars:
        raise ShapeError(f"need {f.nvars} images, got {len(images)}")
    if images:
        ring = images[0].ring
        nvars = images[0].nvars
        for img in images[1:]:
            images[0]._compat(img)
    elif ring is None or nvars is None:
        raise ShapeError("substituting into a constant needs an explicit target ring")
    if powers is None:
        cache: dict = {}

        def powers(i, e):
            if (i, e) not in cache:
                cache[i, e] = images[i] ** e
            return cache[i, e]

    one = Poly.constant(ring, nvars, ring.one)
    acc: dict = {}
    get = acc.get
    for m, c in f.terms.items():
        term = one
        for i, e in enumerate(m):
            if e:
                power = powers(i, e)
                term = power if term is one else term * power
        n = one._scalar(coeff_map(c) if coeff_map is not None else c)
        for mono, t in term.terms.items():
            acc[mono] = get(mono, 0) + n * t.n
    return _folded(ring, nvars, acc)


def flip_variable(f: Poly, i: int) -> Poly:
    """x_i -> 1/x_i: the substitution by monomial images, as an exponent negation."""
    terms = {m[:i] + (-m[i],) + m[i + 1:]: c for m, c in f.terms.items()}
    return Poly(f.ring, f.nvars, terms)


def frobenius_substitute(f: Poly) -> Poly:
    """x_i -> x_i^p and c -> c^p; over F_q this equals f**p, computed directly."""
    p = f.ring.p
    terms = {tuple(e * p for e in m): c.frobenius() for m, c in f.terms.items()}
    return Poly(f.ring, f.nvars, terms)


def reduce_mod_p(f: Poly) -> Poly:
    """Coefficientwise reduction of a lift-ring polynomial to the residue field."""
    ring = f.ring
    if not _is_lift_ring(ring):
        raise RingMismatch(f"{ring!r} has no mod-p reduction")
    return f.map_coefficients(ring.reduce_p, ring.residue_field)


def divide_by_p(f: Poly) -> Poly:
    """The unique g over the residue field with p*g = f.

    Every coefficient must lie in the ideal (p); the result does not
    depend on any choice of representatives.
    """
    ring = f.ring
    if not _is_lift_ring(ring):
        raise RingMismatch(f"{ring!r} has no division by p")
    terms = {}
    for m, c in f.terms.items():
        if not ring.divisible_by_p(c):
            raise NotDivisible(f"coefficient at {m} is not divisible by p")
        v = ring.divide_p(c)
        if not v.is_zero():
            terms[m] = v
    return Poly(ring.residue_field, f.nvars, terms)


def embed_times_p(f: Poly, lift_ring) -> Poly:
    """Image of a residue-field polynomial under multiplication by p in the lift."""
    if f.ring != lift_ring.residue_field:
        raise RingMismatch("polynomial is not over the residue field of the target")
    return f.map_coefficients(lift_ring.times_p_embed, lift_ring)


def canonical_lift(f: Poly, lift_ring) -> Poly:
    """Coefficientwise lift c -> (c, 0); a fixed section, not a ring map."""
    if f.ring != lift_ring.residue_field:
        raise RingMismatch("polynomial is not over the residue field of the target")
    return f.map_coefficients(lift_ring.from_residue, lift_ring)


def invert_unit(f: Poly) -> Poly:
    """Exact inverse of a unit.

    Over a field: f must be a single monomial with nonzero coefficient.
    Over a lift ring: the reduction mod p must be such a monomial; then
    f = m*(1 + p*r) and the inverse is m^(-1)*(1 - p*r).
    """
    ring = f.ring
    if not _is_lift_ring(ring):
        st = f.single_term()
        if st is None:
            raise UnitError("not a unit: more than one term")
        mono, c = st
        if c.is_zero():
            raise UnitError("not a unit: zero")
        return Poly.monomial(ring, f.nvars, tuple(-e for e in mono), c.inverse())
    red = reduce_mod_p(f)
    st = red.single_term()
    if st is None:
        raise UnitError("not a unit: reduction mod p is not a monomial")
    mono, c = st
    g0 = Poly.monomial(ring, f.nvars, tuple(-e for e in mono), ring.from_residue(c.inverse()))
    r = divide_by_p(f * g0 - Poly.constant(ring, f.nvars, ring.one))
    return g0 - g0 * embed_times_p(r, ring)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class PolyMatrix:
    """Rectangular grid of polynomials over one ring."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Poly]]):
        if not entries or not entries[0]:
            raise ShapeError("matrix must have at least one row and column")
        self.rows = len(entries)
        self.cols = len(entries[0])
        first = entries[0][0]
        for row in entries:
            if len(row) != self.cols:
                raise ShapeError("ragged matrix rows")
            for e in row:
                first._compat(e)
        self.entries = [list(row) for row in entries]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries

    def minor(self, i: int, j: int) -> "PolyMatrix":
        sub = [
            [self.entries[r][c] for c in range(self.cols) if c != j]
            for r in range(self.rows)
            if r != i
        ]
        return PolyMatrix(sub)

    def determinant(self) -> Poly:
        """Exact determinant by cofactor expansion (square, size <= 4)."""
        if self.rows != self.cols:
            raise ShapeError(f"determinant of a {self.rows}x{self.cols} matrix")
        if self.rows > 4:
            raise ShapeError("determinant restricted to size <= 4")
        return self._det()

    def _det(self) -> Poly:
        n = self.rows
        if n == 1:
            return self.entries[0][0]
        if n == 2:
            a, b = self.entries[0]
            c, d = self.entries[1]
            return a * d - b * c
        acc = Poly.zero(self.entries[0][0].ring, self.entries[0][0].nvars)
        for j in range(n):
            head = self.entries[0][j]
            if head.is_zero():
                continue
            cof = head * self.minor(0, j)._det()
            acc = acc + (cof if j % 2 == 0 else -cof)
        return acc

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

# one token: a sign, '*', a variable power x<i>^<e>, or a coefficient literal
# (an integer, a slot list [..], or a pair (..) whose entries may be slot lists)
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<sign>[+-])|(?P<star>\*)|x(?P<var>\d*)(?:\^(?P<exp>-?\d+))?"
    r"|(?P<lit>\d[\d_]*|\[[^\[\]()]*\]|\((?:[^\[\]()]|\[[^\[\]()]*\])*\)))"
)


def poly_to_str(f: Poly) -> str:
    if not f.terms:
        return "0"
    parts = []
    for mono in sorted(f.terms, reverse=True):
        c = f.terms[mono]
        factors = [f.ring.coeff_to_str(c)]
        factors.extend(f"x{i + 1}^{e}" for i, e in enumerate(mono) if e)
        parts.append("*".join(factors))
    return "+".join(parts)


def poly_from_str(ring, nvars: int, s: str) -> Poly:
    """Parse the grammar of the module docstring, one token at a time.

    A sign after a factor starts the next term, a sign before a factor
    negates it, and '*' stands between two factors.
    """
    result = Poly.zero(ring, nvars)
    coeff, exps, after_factor = ring.one, [0] * nvars, False
    pos, end = 0, len(s.rstrip())
    while pos < end:
        tok = _TOKEN_RE.match(s, pos)
        if tok is None:
            raise ParseError(f"unexpected {s[pos:end].strip()!r} in {s!r}")
        pos = tok.end()
        if tok["sign"]:
            if after_factor:
                result += Poly.monomial(ring, nvars, tuple(exps), coeff)
                coeff, exps, after_factor = ring.one, [0] * nvars, False
            if tok["sign"] == "-":
                coeff = -coeff
        elif after_factor == (tok["star"] is None):
            raise ParseError(f"'*' must stand between two factors in {s!r}")
        elif tok["star"]:
            after_factor = False
        elif tok["var"] is not None:
            i = int(tok["var"]) - 1 if tok["var"] else 0
            if not 0 <= i < nvars:
                raise ParseError(f"variable x{i + 1} out of range in {s!r}")
            exps[i] += int(tok["exp"]) if tok["exp"] else 1
            after_factor = True
        else:
            coeff = coeff * ring.coeff_from_str(tok["lit"])
            after_factor = True
    if not after_factor:
        raise ParseError(f"{s!r} does not end in a factor")
    return result + Poly.monomial(ring, nvars, tuple(exps), coeff)
