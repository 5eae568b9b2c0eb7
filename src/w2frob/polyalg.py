"""Sparse exact multivariate Laurent polynomials over a coefficient ring.

Monomials are exponent tuples (negative entries allowed on Laurent
charts); a polynomial is its ring plus ``terms``, a dict mapping each
monomial to its nonzero coefficient as the ring's canonical int (the
``n`` of a ``witt2`` element).  All arithmetic is exact; nothing here
ever floats or truncates.

The coefficient rings are the Galois rings of ``witt2``, whose ``fold``
maps any sum of products of canonical ints to the canonical int.
Products, sums, derivatives and substitutions therefore accumulate plain
ints per monomial and fold once per term.  Element objects appear only
at the boundary: the constructors, and ``_constant`` for every non-Poly
operand of ``+ - * ==``, read ints and elements as the ring's
``from_int`` does, and ``coefficient_of``, ``single_term`` and the text
format return or print them.  The lift ring W2(F_q) carries the
int-form mod-p maps (``residue_field``, ``split_p``, ``times_p_int``,
``from_residue_int``) for reduction, division by p, multiplication by p
and the canonical lift between it and its residue field F_q.

Chart changes of toric and ruled surfaces are monomial, so most products
and substitutions meet monomials, and three fast paths serve them.  A
product with a one-term factor shifts the other factor's exponents and
folds each coefficient product once, dropping the products that vanish
(p*p = 0 in a lift ring).  ``substitute`` turns each monomial or zero
image into an exponent shift and a coefficient, so only images with more
terms cost polynomial powers and products, and a source term whose images
are all monomials lands on one target monomial; terms that land on one
monomial add up before the fold.  Re-indexing coordinates, x_i -> x_j or
x_i -> 0, is ``reindex``: an exponent map that builds no image at all.
``invert_unit`` of a bare monomial x^M is x^-M; over a lift ring it is
otherwise one Newton step from the inverse of the leading monomial, on
the coefficient alone for a one-term unit.  No operation writes into the
terms of its operands, so a result may share them with an operand.

The images x_i^p + p*f_i of a chart lift, and their inverses, have one
unit term c*x^M and a rest r divisible by p, so r*r = 0 and a power of
one is first order: f^e = c^e*x^(eM) + e*c^(e-1)*x^((e-1)M)*r, two
coefficient powers and one pass over r instead of repeated squaring.
Every other power is repeated squaring.  A ruled shear x = a*y + b, the
one many-unit base a sweep raises to a power, is squared up to
(a~*y + b~)^p once per lift: ``ruled.OverlapMap`` keeps its powers.

A check that reads one coefficient of a power, the Hasse invariant's
x^(p-1) in (x^3 + ax + b)^((p-1)/2) or Fedder's (xyzw)^(p-1) in f^(p-1),
calls ``power_coefficient``, which never builds f^e.  It adds up the
terms (e!/prod k_j!) * prod c_j^(k_j) * x^(sum k_j*m_j), over the
compositions k of e, that land on the target, as a dynamic program over
the terms of f keyed by what is left of e and of the target, so
compositions that meet add up; a term takes k copies only where the
exponent box of the later terms can still reach the rest.  For a quartic
with all 35 terms, (xyzw)^(p-1) in f^(p-1) takes 0.011 s where the full
power takes 0.038 s at p = 7.
``phi_derivation``, the closed form sum_i phi(df/dx_i)*v_i of an
eta-function, accumulates every term phi(c*m_i)*x^(p*(m - e_i))*v_i into
one dict and folds once.  A difference folds each coefficient once,
adding ``pk_slots`` instead of negating first, and so does the (g2 - g1)/p
of two substitutions (``divided_difference``, eta through two lifts).
``partial_derivatives`` takes several derivatives in one walk.  A
determinant (size <= 4) is a Laplace expansion from the last row up over
column bitmasks: the minor of the last k rows on columns S sums the entry
in column j times the minor on S - j over the j in S, every other one
negated by ``neg_int``, as ints per monomial folded once.  Zero entries
and minors drop; a first pass keeps the column sets nonzero entries reach.
A 1x1 determinant is its entry.

Every exponent tuple these paths build comes from one small table,
``_KERNELS``: for each arity up to 4 an add and a scale kernel written
out entry by entry, such as (a[0] + b[0], a[1] + b[1]), which costs
about 0.1 us where tuple(map(add, a, b)) costs 0.35-0.45 us; scale(-1, a)
negates.  Each function picks its pair once per call (``_kernels``), and
5 or more variables, which no sweep builds, fall back to the generic
forms.  A default-seed ``perfbench`` sweep makes about 3,300 monomial
adds on eta-lifts (79% arity 2, 21% arity 1), 2,350 on eta-ext (77% and
23%), 2,870 on ruled-gluing (all arity 2) and 1,630 on field-checks (62%
arity 1, 23% arity 4, 11% arity 3, 3% arity 2).  Monomials stay exponent
tuples, the keys every reader of ``terms`` sees.

Text grammar: terms like ``c*x1^e1*x2^-3``, joined by '+' or '-', and the
first may carry a sign too.  A factor is a variable power (bare ``x`` is
``x1``) or a coefficient literal: ``3``, ``[1,0]`` over F_q, ``(a0,a1)``
over W2(F_q).  ``poly_to_str`` and ``poly_from_str`` round-trip bit-exactly.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb
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


def _add_any(a, b):
    return tuple(map(add, a, b))


def _scale_any(k, a):
    return tuple(k * x for x in a)


# (add, scale) of exponent tuples by arity, written out (module docstring)
_KERNELS = {
    0: (lambda a, b: (), lambda k, a: ()),
    1: (lambda a, b: (a[0] + b[0],), lambda k, a: (k * a[0],)),
    2: (lambda a, b: (a[0] + b[0], a[1] + b[1]), lambda k, a: (k * a[0], k * a[1])),
    3: (
        lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]),
        lambda k, a: (k * a[0], k * a[1], k * a[2]),
    ),
    4: (
        lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]),
        lambda k, a: (k * a[0], k * a[1], k * a[2], k * a[3]),
    ),
}
_ANY_ARITY = (_add_any, _scale_any)


def _kernels(nvars: int) -> tuple:
    """(add, scale) of exponent tuples with nvars entries: add(a, b) and scale(k, a) = k*a."""
    return _KERNELS.get(nvars, _ANY_ARITY)


def _is_lift_ring(ring) -> bool:
    return hasattr(ring, "residue_field")


def _folded(ring, nvars: int, acc: dict) -> "Poly":
    """The polynomial with coefficient ``ring.fold(acc[m])`` at each monomial m."""
    fold = ring.fold
    terms = {}
    for mono, n in acc.items():
        n = fold(n)
        if n:
            terms[mono] = n
    return Poly._make(ring, nvars, terms)


def _first_order_power(f: "Poly", e: int, lead: tuple, c: int) -> "Poly":
    """f^e for f = c*x^lead + r over a lift ring, c a unit and p | r.

    As r*r = 0, the binomial theorem stops after its first-order term:
    f^e = c^e*x^(e*lead) + e*c^(e-1)*x^((e-1)*lead)*r.  The terms of r have
    distinct monomials other than lead, so no two terms of the result meet.
    """
    ring = f.ring
    fold, pow_int = ring.fold, ring.pow_int
    add, scale = _kernels(f.nvars)
    terms = {scale(e, lead): pow_int(c, e)}  # a unit power, never 0
    k = fold(pow_int(c, e - 1) * (e % ring.pk))
    if k:
        base = scale(e - 1, lead)
        for m, d in f.terms.items():
            if m != lead:
                n = fold(k * d)
                if n:
                    terms[add(base, m)] = n
    return Poly._make(ring, f.nvars, terms)


@lru_cache(maxsize=64)
def _binomial_rows(e: int, pk: int) -> tuple:
    """C(n, k) mod pk for 0 <= k <= n <= e, row by row; built on first use."""
    rows = [[comb(n, k) % pk for k in range(n + 1)] for n in range(e + 1)]
    return tuple(map(tuple, rows))


def _term_powers(fold, add, mono: tuple, c: int, e: int) -> list:
    """[(k*mono, c^k) for k = 0, 1, ...], up to e or to the first power that folds to 0."""
    km, n = (0,) * len(mono), 1
    out = [(km, n)]
    for _ in range(e):
        n = fold(n * c)
        if not n:  # p * p = 0 over a lift ring
            break
        km = add(km, mono)
        out.append((km, n))
    return out


def power_coefficient(f: "Poly", e: int, mono) -> object:
    """The coefficient element of x^mono in f^e, computed without f^e.

    A dynamic program over the terms c_j*x^m_j of f: a state is what is left
    of e and of mono, and states that meet add up.  Term j takes k copies,
    with the factor C(rest, k)*c_j^k, only for the k whose rest the later
    terms can still reach: rest*lo <= t <= rest*hi in each variable, for
    their least and greatest exponents lo and hi, so Laurent f needs no
    special case.  The last term takes what is left.  Each product of two
    canonical ints is folded.
    """
    mono = tuple(mono)
    # bool and float exponents too, as the constructor rejects them: the kernels add ints
    if type(e) is not int or e < 0 or len(mono) != f.nvars or any(type(x) is not int for x in mono):
        raise ShapeError(f"no x^{mono} in power {e!r} of a {f.nvars}-variable polynomial")
    ring = f.ring
    if not f.terms:
        return ring.wrap(int(e == 0 and not any(mono)))
    fold, add, scale = ring.fold, *_kernels(f.nvars)
    binomials = _binomial_rows(e, ring.pk)
    *head, (last, c_last) = f.terms.items()
    boxes, lo, hi = [], last, last  # boxes[j]: the exponent box of the terms after head[j]
    for m, _ in reversed(head):
        boxes.append((lo, hi))
        lo, hi = tuple(map(min, lo, m)), tuple(map(max, hi, m))
    states = {(e, mono): 1}
    for (m, c), (lo, hi) in zip(head, reversed(boxes)):
        reach, top = [], 0  # (rest, t, n, first, stop): the k in [first, stop) keep t reachable
        for (rest, t), n in states.items():
            first, stop, n = 0, rest + 1, fold(n)
            for ti, a, l, h in zip(t, m, lo, hi):  # (rest - k)*l <= ti - k*a <= (rest - k)*h
                for s, b in ((a - l, ti - rest * l), (h - a, rest * h - ti)):  # as k*s <= b
                    if s > 0:
                        stop = min(stop, b // s + 1)
                    elif s:
                        first = max(first, -(b // -s))
                    elif b < 0:
                        stop = 0
            if n and first < stop:
                reach.append((rest, t, n, first, stop))
                top = max(top, stop)
        powers = _term_powers(fold, add, scale(-1, m), c, top - 1)  # (-k*m, c^k)
        states = {}
        for rest, t, n, first, stop in reach:
            for k in range(first, min(stop, len(powers))):
                key, ck = (rest - k, add(t, powers[k][0])), powers[k][1]
                states[key] = states.get(key, 0) + fold(n * ck) * binomials[rest][k]
    pow_int = ring.pow_int
    total = sum(fold(n) * pow_int(c_last, r) for (r, t), n in states.items() if scale(r, last) == t)
    return ring.wrap(fold(total))


def _check_count(nvars) -> int:
    """nvars, once checked to be an int variable count >= 0 (a bool is not)."""
    if type(nvars) is not int or nvars < 0:
        raise ShapeError(f"variable count {nvars!r} is not an int >= 0")
    return nvars


def _check_index(i, nvars: int) -> int:
    """i, once checked to be the int index of one of nvars variables (a bool is not)."""
    if type(i) is not int or not 0 <= i < nvars:
        raise ShapeError(f"variable index {i!r} out of range for {nvars} variables")
    return i


class Poly:
    """Immutable sparse polynomial; do not mutate ``terms`` after creation."""

    __slots__ = ("ring", "nvars", "terms")

    def __init__(self, ring, nvars: int, terms=None):
        self.ring = ring
        self.nvars = _check_count(nvars)
        clean = {}
        if terms:
            for mono, c in terms.items():
                if not isinstance(mono, tuple) or len(mono) != nvars:
                    raise ShapeError(f"monomial {mono} does not have {nvars} exponents")
                mono = tuple(mono)
                for e in mono:
                    if type(e) is not int:  # bool and float too: the kernels add ints
                        raise ShapeError(f"exponent {e!r} of {mono} is not an int")
                n = ring.from_int(c).n
                if n:
                    clean[mono] = n
        self.terms = clean

    @staticmethod
    def _make(ring, nvars: int, terms: dict) -> "Poly":
        """Wrap terms that are already clean (tuple monomials, nonzero canonical ints)."""
        out = Poly.__new__(Poly)
        out.ring, out.nvars, out.terms = ring, nvars, terms
        return out

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, ring, nvars: int) -> "Poly":
        return cls(ring, nvars)

    @classmethod
    def constant(cls, ring, nvars: int, c) -> "Poly":
        zero = cls(ring, nvars)  # a bad nvars raises ShapeError here, before (0,) * nvars
        n = ring.from_int(c).n
        return cls._make(ring, nvars, {(0,) * nvars: n}) if n else zero

    @classmethod
    def variable(cls, ring, nvars: int, i: int, exp: int = 1) -> "Poly":
        """x_i^exp."""
        if type(nvars) is not int or type(i) is not int or type(exp) is not int:
            raise ShapeError(f"one of count {nvars!r}, index {i!r}, exp {exp!r} is not an int")
        if not 0 <= i < nvars:
            raise ShapeError(f"variable index {i} out of range for {nvars} variables")
        return cls._make(ring, nvars, {(0,) * i + (exp,) + (0,) * (nvars - i - 1): 1})

    @classmethod
    def monomial(cls, ring, nvars: int, exps, coeff=None) -> "Poly":
        return cls(ring, nvars, {tuple(exps): 1 if coeff is None else coeff})

    # -- ring structure -------------------------------------------------

    def _constant(self, c):
        """The constant c, an int or an element read by ``ring.from_int``; None for any other c."""
        if not (isinstance(c, int) or hasattr(c, "n")):
            return None
        n = self.ring.from_int(c).n
        return Poly._make(self.ring, self.nvars, {(0,) * self.nvars: n} if n else {})

    def _compat(self, other: "Poly"):
        if self.nvars != other.nvars or self.ring is not other.ring:
            raise RingMismatch(
                f"cannot combine polynomials over {self.ring!r}/{self.nvars} vars "
                f"and {other.ring!r}/{other.nvars} vars"
            )

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = self._constant(other)
            if other is None:
                return NotImplemented
        self._compat(other)
        if not other.terms:
            return self
        fold = self.ring.fold
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            d = terms.get(mono)
            if d is None:
                terms[mono] = c
                continue
            n = fold(d + c)
            if n:
                terms[mono] = n
            else:
                del terms[mono]
        return Poly._make(self.ring, self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.neg_int
        return Poly._make(self.ring, self.nvars, {m: neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = self._constant(other)
            if other is None:
                return NotImplemented
        self._compat(other)
        if not other.terms:
            return self
        # pk_slots - c is -c with no borrow between slots, as neg_int computes it
        fold, pk_slots = self.ring.fold, self.ring.pk_slots
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            n = fold(terms.get(mono, 0) + pk_slots - c)
            if n:
                terms[mono] = n
            else:
                del terms[mono]
        return Poly._make(self.ring, self.nvars, terms)

    def __rsub__(self, other):
        other = self._constant(other)
        if other is None:
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            other = self._constant(other)
            if other is None:
                return NotImplemented
        self._compat(other)
        add = _kernels(self.nvars)[0]
        big, small = (other, self) if len(self.terms) == 1 else (self, other)
        if len(small.terms) == 1:
            # a one-term factor shifts exponents: no two products share a monomial
            ((m2, c2),) = small.terms.items()
            fold = self.ring.fold
            terms = {}
            for m1, c1 in big.terms.items():
                n = fold(c1 * c2)
                if n:  # p * p = 0 over a lift ring
                    terms[add(m1, m2)] = n
            return Poly._make(self.ring, self.nvars, terms)
        acc = {}
        get = acc.get
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = add(m1, m2)
                acc[mono] = get(mono, 0) + c1 * c2
        return _folded(self.ring, self.nvars, acc)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if type(e) is not int:  # bool and float too, as power_coefficient rejects them
            raise ShapeError(f"power {e!r} of a polynomial is not an int")
        if e < 0:
            return invert_unit(self) ** (-e)
        if e > 1 and _is_lift_ring(self.ring):
            split = self.ring.split_p
            units = [(m, c) for m, c in self.terms.items() if split(c)[1]]
            if len(units) == 1:
                return _first_order_power(self, e, *units[0])
        result, base = None, self
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return Poly.constant(self.ring, self.nvars, 1) if result is None else result

    def __eq__(self, other):
        if not isinstance(other, Poly):
            try:
                other = self._constant(other)
            except CharMismatch:  # an element of another ring, unequal as a Poly over one is
                return False
            if other is None:
                return NotImplemented
        return self.ring is other.ring and self.nvars == other.nvars and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- queries ---------------------------------------------------------

    def coefficient_of(self, mono) -> object:
        """The coefficient element at the given exponent tuple (the ring zero if absent)."""
        mono = tuple(mono)
        if len(mono) != self.nvars or any(type(e) is not int for e in mono):
            raise ShapeError(f"monomial {mono} does not have {self.nvars} exponents, each an int")
        return self.ring.wrap(self.terms.get(mono, 0))

    def degree_in(self, i: int):
        """Largest exponent of variable i; None for the zero polynomial."""
        _check_index(i, self.nvars)
        if not self.terms:
            return None
        return max(m[i] for m in self.terms)

    def respects_mask(self, laurent_mask: Sequence[bool]) -> bool:
        """Negative exponents only occur in variables flagged as inverted."""
        if len(laurent_mask) != self.nvars:
            raise ShapeError(f"mask {laurent_mask!r} does not have {self.nvars} entries")
        for m in self.terms:
            for i, e in enumerate(m):
                if e < 0 and not laurent_mask[i]:
                    return False
        return True

    def single_term(self):
        """(monomial, coefficient element) of a one-term polynomial; None otherwise."""
        if len(self.terms) != 1:
            return None
        ((mono, c),) = self.terms.items()
        return mono, self.ring.wrap(c)

    # -- calculus ----------------------------------------------------------

    def partial_derivative(self, j: int) -> "Poly":
        """Formal d/dx_j; exponents divisible by the characteristic die."""
        return partial_derivatives(self, (j,))[0]

    def map_coefficients(self, fn: Callable, target_ring) -> "Poly":
        """Apply fn, a map of canonical ints into ``target_ring``'s, to every coefficient."""
        terms = {}
        for m, c in self.terms.items():
            v = fn(c)
            if v:
                terms[m] = v
        return Poly._make(target_ring, self.nvars, terms)

    def collect_by_var(self, i: int) -> dict:
        """Split into {e: f_e}, ascending in e, with f the sum of f_e * x_i^e.

        Each f_e keeps the full variable count, with its i-th exponent 0,
        and e runs over the exponents of x_i that occur (negative ones
        too); the zero polynomial has no buckets.
        """
        _check_index(i, self.nvars)
        buckets: dict = {}
        for m, c in self.terms.items():
            e = m[i]
            rest = m[:i] + (0,) + m[i + 1:]
            buckets.setdefault(e, {})[rest] = c
        return {
            e: Poly._make(self.ring, self.nvars, terms) for e, terms in sorted(buckets.items())
        }

    def __repr__(self):
        return f"Poly({poly_to_str(self)!r} over {self.ring!r})"


# ---------------------------------------------------------------------------
# free functions on polynomials
# ---------------------------------------------------------------------------


def substitute(f: Poly, images: Sequence[Poly], *, powers: Callable | None = None) -> Poly:
    """Evaluate f at the given variable images (a substitution homomorphism).

    The images must share f's ring and one variable count, which becomes
    the target's; with no variables f is its own value.  Negative source
    exponents invert the corresponding image, so images standing in for
    inverted variables must be units.  ``powers(i, e)``, when given, must
    return ``images[i] ** e``: a caller that keeps those powers (a chart
    lift does, so does ``ruled.OverlapMap``) passes its cache; otherwise
    each power is computed once per call.  A monomial or zero image needs
    no powers: it shifts exponents and scales coefficients.
    """
    if len(images) != f.nvars:
        raise ShapeError(f"need {f.nvars} images, got {len(images)}")
    if not images:
        return f
    ring, nvars = images[0].ring, images[0].nvars
    for img in images[1:]:
        images[0]._compat(img)
    if ring is not f.ring:
        raise RingMismatch(f"images over {ring!r} for a polynomial over {f.ring!r}")
    return _folded(ring, nvars, _substituted(f, images, powers, ring, nvars))


def _substituted(f: Poly, images, powers, ring, nvars: int) -> dict:
    """``substitute``'s value on validated images, as unfolded ints per monomial."""
    fold, pow_int = ring.fold, ring.pow_int
    add, scale = _kernels(nvars)
    if powers is None:
        cache: dict = {}

        def powers(i, e):
            if (i, e) not in cache:
                cache[i, e] = images[i] ** e
            return cache[i, e]

    def shift(i, e):
        """(monomial, coefficient) of a one-term images[i] ** e; coefficient 0 if that is 0."""
        img = images[i]
        if e < 0:
            img, e = invert_unit(img), -e  # raises for a zero or non-unit image
        if not img.terms:
            return None, 0
        ((mono, c),) = img.terms.items()
        return scale(e, mono), pow_int(c, e)

    one_term = [len(img.terms) <= 1 for img in images]
    shifts: dict = {}
    origin = (0,) * nvars
    acc: dict = {}
    get = acc.get
    for m, c in f.terms.items():
        mono, n, term = origin, c, None
        for i, e in enumerate(m):
            if not e:
                continue
            if not one_term[i]:
                power = powers(i, e)
                term = power if term is None else term * power
                continue
            pm, pc = shifts.get((i, e)) or shifts.setdefault((i, e), shift(i, e))
            if pc != 1:
                n = fold(n * pc)
            if n:
                mono = add(mono, pm)
        if not n:
            continue
        if term is None:
            acc[mono] = get(mono, 0) + n
            continue
        for tm, t in term.terms.items():
            if mono is not origin:
                tm = add(tm, mono)
            acc[tm] = get(tm, 0) + n * t
    return acc


def divided_difference(f: Poly, first: tuple, second: tuple) -> Poly:
    """divide_by_p(g2 - g1) for g_k = ``substitute(f, images, powers=powers)``, the k-th side.

    Each side is (images, powers), the images on f's chart; both accumulate
    unfolded, then each monomial folds and subtracts via ``pk_slots``, and
    the difference splits by p as in ``divide_by_p``.
    """
    ring, nvars = f.ring, f.nvars
    if not _is_lift_ring(ring):
        raise RingMismatch(f"{ring!r} has no division by p")
    if not len(first[0]) == len(second[0]) == nvars:
        raise ShapeError(f"need {nvars} images a side, got {len(first[0])} and {len(second[0])}")
    for img in (*first[0], *second[0]):
        f._compat(img)
    minuend = _substituted(f, *second, ring, nvars)
    fold, pk_slots = ring.fold, ring.pk_slots
    for m, n in _substituted(f, *first, ring, nvars).items():
        minuend[m] = fold(minuend.get(m, 0)) + pk_slots - fold(n)
    return _split_by_p(ring, nvars, minuend)


def _split_by_p(ring, nvars: int, acc: dict) -> Poly:
    """The residue-field g with p*g = sum of fold(acc[m])*x^m; NotDivisible unless p | each."""
    fold, split = ring.fold, ring.split_p
    terms = {}
    for m, n in acc.items():
        high, low = split(fold(n))
        if low:
            raise NotDivisible(f"coefficient at {m} is not divisible by p")
        if high:
            terms[m] = high
    return Poly._make(ring.residue_field, nvars, terms)


def reindex(f: Poly, slots: Sequence, nvars: int) -> Poly:
    """x_i -> x_slots[i] among nvars variables, or x_i -> 0 where slots[i] is None.

    The substitution by bare-variable and zero images, as an exponent map
    with no image built: a term with a positive exponent on a variable sent
    to 0 drops, and a negative one raises UnitError, as 0 is no unit.
    Terms that meet (two variables may share a slot) add up before the fold.
    """
    if len(slots) != f.nvars:
        raise ShapeError(f"need {f.nvars} slots, got {len(slots)}")
    _check_count(nvars)
    live = [(i, _check_index(s, nvars)) for i, s in enumerate(slots) if s is not None]
    dead = [i for i, s in enumerate(slots) if s is None]
    acc: dict = {}
    get = acc.get
    origin = [0] * nvars
    for m, c in f.terms.items():
        for i in dead:
            if m[i]:
                if any(m[j] < 0 for j in dead):
                    raise UnitError("not a unit: a variable sent to 0 has a negative exponent")
                break
        else:
            out = origin.copy()
            for i, s in live:
                out[s] += m[i]
            mono = tuple(out)
            acc[mono] = get(mono, 0) + c
    return _folded(f.ring, nvars, acc)


def flip_variable(f: Poly, i: int) -> Poly:
    """x_i -> 1/x_i: the substitution by monomial images, as an exponent negation."""
    _check_index(i, f.nvars)
    terms = {m[:i] + (-m[i],) + m[i + 1:]: c for m, c in f.terms.items()}
    return Poly._make(f.ring, f.nvars, terms)


def frobenius_substitute(f: Poly) -> Poly:
    """x_i -> x_i^p and c -> c^p; over F_q this equals f**p, computed directly."""
    p, frob, scale = f.ring.p, f.ring.frob_int, _kernels(f.nvars)[1]
    terms = {scale(p, m): frob(c) for m, c in f.terms.items()}
    return Poly._make(f.ring, f.nvars, terms)


def phi_derivation(f: Poly, values: Sequence[Poly]) -> Poly:
    """sum_i phi(df/dx_i) * values[i], phi = ``frobenius_substitute``, in one pass.

    A term c*x^m of f gives phi(c*m_i) * x^(p*(m - e_i)) times values[i]
    for each i, where phi(c*m_i) = frob(c)*m_i is folded first, so every
    accumulated product is one of two canonical ints.
    """
    if len(values) != f.nvars:
        raise ShapeError(f"need {f.nvars} values, got {len(values)}")
    for v in values:
        f._compat(v)
    ring, nvars = f.ring, f.nvars
    p, pk, fold, frob = ring.p, ring.pk, ring.fold, ring.frob_int
    add, scale = _kernels(nvars)
    # values[i] with its exponent shift -p*e_i
    live = [
        (i, (0,) * i + (-p,) + (0,) * (nvars - i - 1), v.terms.items())
        for i, v in enumerate(values)
        if v.terms
    ]
    acc: dict = {}
    get = acc.get
    for m, c in f.terms.items():
        c, pm = frob(c), scale(p, m)
        for i, drop, v_terms in live:
            k = m[i] % pk
            if not k:
                continue
            k = fold(c * k)
            if not k:  # only over a lift ring
                continue
            base = add(pm, drop)
            for vm, vc in v_terms:
                mono = add(base, vm)
                acc[mono] = get(mono, 0) + k * vc
    return _folded(ring, nvars, acc)


def partial_derivatives(f: Poly, columns: Sequence[int]) -> list:
    """[df/dx_j for j in columns] in one walk over f; exponents divisible by p die."""
    nvars = f.nvars
    out = [(_check_index(j, nvars), {}) for j in columns]  # (j, the terms of df/dx_j)
    fold, pk = f.ring.fold, f.ring.pk
    for m, c in f.terms.items():
        for j, terms in out:
            e = m[j]
            if e:  # lowering e_j != 0 keeps distinct monomials distinct
                n = fold(c * (e % pk))
                if n:
                    terms[m[:j] + (e - 1,) + m[j + 1:]] = n
    return [Poly._make(f.ring, nvars, terms) for _, terms in out]


def reduce_mod_p(f: Poly) -> Poly:
    """Coefficientwise reduction of a lift-ring polynomial to the residue field."""
    ring = f.ring
    if not _is_lift_ring(ring):
        raise RingMismatch(f"{ring!r} has no mod-p reduction")
    split = ring.split_p
    return f.map_coefficients(lambda n: split(n)[1], ring.residue_field)


def divide_by_p(f: Poly) -> Poly:
    """The unique g over the residue field with p*g = f.

    Every coefficient must lie in the ideal (p); the result does not
    depend on any choice of representatives.
    """
    if not _is_lift_ring(f.ring):
        raise RingMismatch(f"{f.ring!r} has no division by p")
    return _split_by_p(f.ring, f.nvars, f.terms)


def embed_times_p(f: Poly, lift_ring) -> Poly:
    """Image of a residue-field polynomial under multiplication by p in the lift."""
    if getattr(lift_ring, "residue_field", None) is not f.ring:  # a field has none
        raise RingMismatch("polynomial is not over the residue field of the target")
    return f.map_coefficients(lift_ring.times_p_int, lift_ring)


def canonical_lift(f: Poly, lift_ring) -> Poly:
    """Coefficientwise lift c -> (c, 0); a fixed section, not a ring map."""
    if getattr(lift_ring, "residue_field", None) is not f.ring:  # a field has none
        raise RingMismatch("polynomial is not over the residue field of the target")
    return f.map_coefficients(lift_ring.from_residue_int, lift_ring)


def invert_unit(f: Poly) -> Poly:
    """Exact inverse of a unit.

    A bare monomial x^M (coefficient 1) has the inverse x^-M in any ring.
    Over a field: f must be a single monomial with nonzero coefficient.
    Over a lift ring: the reduction mod p must be such a monomial m; then
    g0 = m^(-1), lifted, has f*g0 = 1 + p*r, and one Newton step
    g0*(2 - f*g0) = g0*(1 - p*r) is the inverse, as p^2 = 0.
    """
    ring = f.ring
    if not f.terms:
        raise UnitError("not a unit: the zero polynomial")
    scale = _kernels(f.nvars)[1]
    if len(f.terms) == 1:
        ((mono, c),) = f.terms.items()
        if c == 1:  # a bare monomial: its inverse is the negated monomial
            return Poly._make(ring, f.nvars, {scale(-1, mono): 1})
    if not _is_lift_ring(ring):
        if len(f.terms) != 1:
            raise UnitError("not a unit: more than one term")
        ((mono, c),) = f.terms.items()
        return Poly._make(ring, f.nvars, {scale(-1, mono): ring.inv_int(c)})
    split = ring.split_p
    residues = [(mono, low) for mono, c in f.terms.items() if (low := split(c)[1])]
    if len(residues) != 1:
        raise UnitError("not a unit: reduction mod p is not a monomial")
    ((mono, c),) = residues
    inv = ring.from_residue_int(ring.residue_field.inv_int(c))
    inv_mono = scale(-1, mono)
    if len(f.terms) == 1:  # the same step on the one coefficient d: inv*(2 - d*inv)
        fold = ring.fold
        step = fold(2 + ring.neg_int(fold(f.terms[mono] * inv)))
        return Poly._make(ring, f.nvars, {inv_mono: fold(inv * step)})
    g0 = Poly._make(ring, f.nvars, {inv_mono: inv})
    return g0 * (2 - f * g0)


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

    def determinant(self) -> Poly:
        """Exact determinant (square, size <= 4), each minor built at most once."""
        if self.rows != self.cols:
            raise ShapeError(f"determinant of a {self.rows}x{self.cols} matrix")
        if self.rows > 4:
            raise ShapeError("determinant restricted to size <= 4")
        if self.rows == 1:
            return self.entries[0][0]
        return _det(self.entries)

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols})"


def _det(rows) -> Poly:
    """Laplace expansion of a square list of rows from the last row up (module docstring)."""
    n, ring, nvars = len(rows), rows[0][0].ring, rows[0][0].nvars
    fold, neg, add = ring.fold, ring.neg_int, _kernels(nvars)[0]
    reach = [{(1 << n) - 1}]  # reach[r]: the column sets of the minors on rows r, ... to build
    for row in rows[:-2]:
        bits = [1 << j for j, e in enumerate(row) if e.terms]
        reach.append({mask ^ bit for mask in reach[-1] for bit in bits if mask & bit})
    # minors[S]: the terms of the nonzero minor of the rows below on the columns in S
    minors = {1 << j: e.terms for j, e in enumerate(rows[-1]) if e.terms}
    for r in range(n - 2, -1, -1):
        row = rows[r]
        grown = {}
        for mask in reach[r]:
            acc, odd = {}, False
            get = acc.get
            for j, e in enumerate(row):  # the columns of mask ascending, every other one negated
                bit = 1 << j
                if not mask & bit:
                    continue
                minor = minors.get(mask ^ bit)
                if minor is not None:
                    for m1, c1 in e.terms.items():
                        if odd:
                            c1 = neg(c1)
                        for m2, c2 in minor.items():
                            mono = add(m1, m2)
                            acc[mono] = get(mono, 0) + c1 * c2
                odd = not odd
            terms = {}
            for m, c in acc.items():
                c = fold(c)
                if c:
                    terms[m] = c
            if terms:
                grown[mask] = terms
        minors = grown
    return Poly._make(ring, nvars, minors.get((1 << n) - 1, {}))


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

# one token: a sign, '*', a variable power x<i>^<e>, or a coefficient literal
# (an integer, a slot list [..], or a pair (..) whose entries may be slot lists)
# (compiled on first parse, not at import; re caches the compiled form)
_TOKEN_PATTERN = (
    r"\s*(?:(?P<sign>[+-])|(?P<star>\*)|x(?P<var>\d*)(?:\^(?P<exp>-?\d+))?"
    r"|(?P<lit>\d[\d_]*|\[[^\[\]()]*\]|\((?:[^\[\]()]|\[[^\[\]()]*\])*\)))"
)


def poly_to_str(f: Poly) -> str:
    if not f.terms:
        return "0"
    parts = []
    ring = f.ring
    for mono in sorted(f.terms, reverse=True):
        factors = [ring.coeff_to_str(ring.wrap(f.terms[mono]))]
        factors.extend(f"x{i + 1}^{e}" for i, e in enumerate(mono) if e)
        parts.append("*".join(factors))
    return "+".join(parts)


def poly_from_str(ring, nvars: int, s: str) -> Poly:
    """Parse the grammar of the module docstring, one token at a time.

    A sign after a factor starts the next term, a sign before a factor
    negates it, and '*' stands between two factors.
    """
    token = re.compile(_TOKEN_PATTERN)
    result = Poly.zero(ring, nvars)
    coeff, exps, after_factor = ring.one, [0] * nvars, False
    pos, end = 0, len(s.rstrip())
    while pos < end:
        tok = token.match(s, pos)
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
            try:
                i, e = int(tok["var"] or 1) - 1, int(tok["exp"] or 1)
            except ValueError as exc:  # more digits than int() converts
                raise ParseError(f"bad variable power in {s!r}: {exc}") from exc
            if not 0 <= i < nvars:
                raise ParseError(f"variable x{i + 1} out of range in {s!r}")
            exps[i] += e
            after_factor = True
        else:
            coeff = coeff * ring.coeff_from_str(tok["lit"])
            after_factor = True
    if not after_factor:
        raise ParseError(f"{s!r} does not end in a factor")
    return result + Poly.monomial(ring, nvars, tuple(exps), coeff)
