"""Exact arithmetic in F_q, Z/p^2 and the length-2 Witt ring W2(F_q).

The three coefficient rings implemented here share a small informal
protocol used by the polynomial layer: ``zero``, ``one``, ``from_int``,
``coeff_to_str`` / ``coeff_from_str``.  The two "lift" rings (Zp2Ring and
WittRing) additionally expose the mod-p structure: ``residue_field``,
``reduce_p``, ``divisible_by_p``, ``divide_p``, ``times_p_embed`` and
``from_residue``.  ``times_p_embed`` realizes the multiplication-by-p
isomorphism from the residue field onto the ideal (p), and ``divide_p``
is its inverse.

W2(F_q) is stored in Witt coordinates (a0, a1).  The component formulas
for sum and product are the standard length-2 ones; they are never taken
on faith but validated against the independent Z/p^2 model (for q = p)
by the test suite.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

from .errors import CharMismatch, NotDivisible, ParseError, UnsupportedField

MAX_PRIME = 17

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17)

# Reduction rules x^m = r(x) for the fixed Conway-style moduli:
# F4: x^2+x+1, F8: x^3+x+1, F9: x^2+2x+2.  In all three cases x^m = x+1.
_MODULUS_TABLE = {
    (2, 2): (1, 1),
    (2, 3): (1, 1, 0),
    (3, 2): (1, 1),
}


def check_prime_char(p: int) -> int:
    """Validate a prime characteristic at desk scale (p prime, p <= 17)."""
    if p not in _SMALL_PRIMES:
        raise UnsupportedField(f"characteristic must be a prime <= {MAX_PRIME}, got {p}")
    return p


class FqElem:
    """Element of F_{p^m}, stored as a reduced coefficient tuple."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "FiniteField", coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other):
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, FqElem):
            if other.field != self.field:
                raise CharMismatch(f"elements of {self.field} and {other.field} combined")
            return other
        return None

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FqElem(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FqElem(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        f = self.field
        if f.m == 1:
            return FqElem(f, ((self.coeffs[0] * o.coeffs[0]) % f.p,))
        return FqElem(f, f._reduce_product(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        f = self.field
        if f.m == 1:
            if e < 0 and self.coeffs[0] == 0:
                raise ZeroDivisionError("inverse of zero in a finite field")
            return FqElem(f, (pow(self.coeffs[0], e if e >= 0 else e % (f.p - 1), f.p),))
        if e < 0:
            return self.inverse() ** (-e)
        result = f.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def frobenius(self):
        """p-power map; the identity when m = 1."""
        if self.field.m == 1:
            return self
        return self ** self.field.p

    def inv_frobenius(self):
        """Unique p-th root, i.e. the inverse of :meth:`frobenius`."""
        if self.field.m == 1:
            return self
        return self ** (self.field.p ** (self.field.m - 1))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FqElem):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.coeffs))

    def as_int(self) -> int:
        if self.field.m != 1:
            raise UnsupportedField("integer representative only defined for prime fields")
        return self.coeffs[0]

    def __repr__(self):
        return f"{self.field.coeff_to_str(self)}@F{self.field.q}"


class FiniteField:
    """F_{p^m} for p <= 17, m = 1, plus the fixed models of F_4, F_8, F_9."""

    def __init__(self, p: int, m: int = 1):
        check_prime_char(p)
        if m < 1:
            raise UnsupportedField("extension degree must be >= 1")
        if m > 1:
            if (p, m) not in _MODULUS_TABLE:
                raise UnsupportedField(f"no modulus fixed for q = {p}^{m}; supported: 4, 8, 9")
            self._reduction = _MODULUS_TABLE[(p, m)]
        else:
            self._reduction = None
        self.p = p
        self.m = m
        self.q = p ** m
        self.zero = FqElem(self, (0,) * m)
        self.one = FqElem(self, (1,) + (0,) * (m - 1))

    def __eq__(self, other):
        return isinstance(other, FiniteField) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self):
        return hash(("Fq", self.p, self.m))

    def __repr__(self):
        return f"F{self.q}" if self.m > 1 else f"F{self.p}"

    def elem(self, coeffs) -> FqElem:
        if isinstance(coeffs, int):
            return self.from_int(coeffs)
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.m:
            raise UnsupportedField(f"need {self.m} coefficients for an element of {self}")
        return FqElem(self, coeffs)

    def from_int(self, n: int) -> FqElem:
        return FqElem(self, (n % self.p,) + (0,) * (self.m - 1))

    def gen(self) -> FqElem:
        """x mod the modulus polynomial (a multiplicative generator for q in {4,8,9})."""
        if self.m == 1:
            raise UnsupportedField("prime field has no distinguished generator element")
        return FqElem(self, (0, 1) + (0,) * (self.m - 2))

    def elements(self) -> Iterator[FqElem]:
        from itertools import product

        for coeffs in product(range(self.p), repeat=self.m):
            yield FqElem(self, coeffs)

    def random(self, rng) -> FqElem:
        return FqElem(self, tuple(rng.randrange(self.p) for _ in range(self.m)))

    def _reduce_product(self, a: tuple, b: tuple) -> tuple:
        p, m = self.p, self.m
        raw = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    raw[i + j] += ai * bj
        red = self._reduction
        for k in range(2 * m - 2, m - 1, -1):
            c = raw[k] % p
            if c:
                for j, rj in enumerate(red):
                    raw[k - m + j] += c * rj
            raw[k] = 0
        return tuple(c % p for c in raw[:m])

    # -- text format -------------------------------------------------

    def coeff_to_str(self, c: FqElem) -> str:
        if self.m == 1:
            return str(c.coeffs[0])
        return "[" + ",".join(str(x) for x in c.coeffs) + "]"

    def coeff_from_str(self, s: str) -> FqElem:
        s = s.strip()
        try:
            if s.startswith("["):
                if not s.endswith("]"):
                    raise ValueError(s)
                return self.elem([int(x) for x in s[1:-1].split(",")])
            return self.from_int(int(s))
        except ValueError as exc:
            raise ParseError(f"bad {self} coefficient: {s!r}") from exc


@lru_cache(maxsize=None)
def GF(p: int, m: int = 1) -> FiniteField:
    """Cached field constructor."""
    return FiniteField(p, m)


class Zp2Elem:
    """Residue in Z/p^2, the independent model of W2(F_p)."""

    __slots__ = ("ring", "rep")

    def __init__(self, ring: "Zp2Ring", rep: int):
        self.ring = ring
        self.rep = rep % ring.p2

    def _check(self, other):
        if isinstance(other, int):
            return Zp2Elem(self.ring, other)
        if isinstance(other, Zp2Elem):
            if other.ring != self.ring:
                raise CharMismatch("Z/p^2 elements over different p combined")
            return other
        return None

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return Zp2Elem(self.ring, self.rep + o.rep)

    __radd__ = __add__

    def __neg__(self):
        return Zp2Elem(self.ring, -self.rep)

    def __sub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return Zp2Elem(self.ring, self.rep - o.rep)

    def __rsub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return Zp2Elem(self.ring, o.rep - self.rep)

    def __mul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return Zp2Elem(self.ring, self.rep * o.rep)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ZeroDivisionError("Z/p^2 is not a field; negative powers unsupported")
        return Zp2Elem(self.ring, pow(self.rep, e, self.ring.p2))

    def frobenius(self):
        # canonical Frobenius of W2(F_p) is the identity
        return self

    def is_zero(self) -> bool:
        return self.rep == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, int):
            other = Zp2Elem(self.ring, other)
        if not isinstance(other, Zp2Elem):
            return NotImplemented
        return self.ring == other.ring and self.rep == other.rep

    def __hash__(self):
        return hash(("Zp2", self.ring.p, self.rep))

    def __repr__(self):
        return f"{self.rep} (mod {self.ring.p}^2)"


class Zp2Ring:
    """Z/p^2 with the mod-p interface used by the polynomial layer."""

    def __init__(self, p: int):
        check_prime_char(p)
        self.p = p
        self.p2 = p * p
        self.zero = Zp2Elem(self, 0)
        self.one = Zp2Elem(self, 1)
        self.p_elem = Zp2Elem(self, p)
        self.residue_field = GF(p)

    def __eq__(self, other):
        return isinstance(other, Zp2Ring) and self.p == other.p

    def __hash__(self):
        return hash(("Zp2Ring", self.p))

    def __repr__(self):
        return f"Z/{self.p}^2"

    def from_int(self, n: int) -> Zp2Elem:
        return Zp2Elem(self, n)

    def random(self, rng) -> Zp2Elem:
        return Zp2Elem(self, rng.randrange(self.p2))

    def elements(self) -> Iterator[Zp2Elem]:
        for n in range(self.p2):
            yield Zp2Elem(self, n)

    # -- mod-p structure ----------------------------------------------

    def reduce_p(self, a: Zp2Elem) -> FqElem:
        return self.residue_field.from_int(a.rep)

    def divisible_by_p(self, a: Zp2Elem) -> bool:
        return a.rep % self.p == 0

    def divide_p(self, a: Zp2Elem) -> FqElem:
        if a.rep % self.p:
            raise NotDivisible(f"{a.rep} is not divisible by {self.p}")
        return self.residue_field.from_int(a.rep // self.p)

    def times_p_embed(self, c: FqElem) -> Zp2Elem:
        return Zp2Elem(self, self.p * c.as_int())

    def from_residue(self, c: FqElem) -> Zp2Elem:
        return Zp2Elem(self, c.as_int())

    # -- text format ---------------------------------------------------

    def coeff_to_str(self, c: Zp2Elem) -> str:
        return str(c.rep)

    def coeff_from_str(self, s: str) -> Zp2Elem:
        try:
            return self.from_int(int(s.strip()))
        except ValueError as exc:
            raise ParseError(f"bad Z/p^2 coefficient: {s!r}") from exc


class WittPair:
    """Element of W2(F_q) in Witt coordinates (a0, a1)."""

    __slots__ = ("ring", "a0", "a1")

    def __init__(self, ring: "WittRing", a0: FqElem, a1: FqElem):
        self.ring = ring
        self.a0 = a0
        self.a1 = a1

    def _check(self, other):
        if isinstance(other, int):
            return self.ring.from_int(other)
        if isinstance(other, WittPair):
            if other.ring != self.ring:
                raise CharMismatch("Witt pairs over different fields combined")
            return other
        return None

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return self.ring.add(self, o)

    __radd__ = __add__

    def __neg__(self):
        return self.ring.neg(self)

    def __sub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return self.ring.mul(self, o)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ZeroDivisionError("negative Witt powers unsupported")
        result = self.ring.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def frobenius(self):
        return WittPair(self.ring, self.a0.frobenius(), self.a1.frobenius())

    def is_zero(self) -> bool:
        return self.a0.is_zero() and self.a1.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, WittPair):
            return NotImplemented
        return self.ring == other.ring and self.a0 == other.a0 and self.a1 == other.a1

    def __hash__(self):
        return hash(("W2", self.ring.field.p, self.ring.field.m, self.a0.coeffs, self.a1.coeffs))

    def __repr__(self):
        return witt_to_str(self)


class WittRing:
    """W2(F_q) via the standard length-2 component formulas."""

    def __init__(self, field: FiniteField):
        self.field = field
        self.p = field.p
        # exact integer binomial quotients C(p,i)/p, reduced into F_q
        self._binq = tuple(
            field.from_int(math.comb(self.p, i) // self.p) for i in range(1, self.p)
        )
        self.zero = WittPair(self, field.zero, field.zero)
        self.one = WittPair(self, field.one, field.zero)
        self.p_elem = WittPair(self, field.zero, field.one)
        self.residue_field = field

    def __eq__(self, other):
        return isinstance(other, WittRing) and self.field == other.field

    def __hash__(self):
        return hash(("WittRing", self.field.p, self.field.m))

    def __repr__(self):
        return f"W2({self.field!r})"

    def pair(self, a0, a1) -> WittPair:
        return WittPair(self, self.field.elem(a0), self.field.elem(a1))

    def add(self, u: WittPair, v: WittPair) -> WittPair:
        a0, b0 = u.a0, v.a0
        carry = self.field.zero
        if not (a0.is_zero() or b0.is_zero()):
            for i in range(1, self.p):
                carry = carry + self._binq[i - 1] * (a0 ** i) * (b0 ** (self.p - i))
        return WittPair(self, a0 + b0, u.a1 + v.a1 - carry)

    def neg(self, u: WittPair) -> WittPair:
        b0 = -u.a0
        carry = self.field.zero
        if not u.a0.is_zero():
            for i in range(1, self.p):
                carry = carry + self._binq[i - 1] * (u.a0 ** i) * (b0 ** (self.p - i))
        return WittPair(self, b0, -u.a1 + carry)

    def mul(self, u: WittPair, v: WittPair) -> WittPair:
        # the p*a1*b1 term of the generic product vanishes in char p components
        return WittPair(
            self,
            u.a0 * v.a0,
            (u.a0 ** self.p) * v.a1 + (v.a0 ** self.p) * u.a1,
        )

    def from_int(self, n: int) -> WittPair:
        n %= self.p * self.p
        n0 = n % self.p
        n1 = (n - n0 ** self.p) // self.p
        return WittPair(self, self.field.from_int(n0), self.field.from_int(n1))

    def random(self, rng) -> WittPair:
        return WittPair(self, self.field.random(rng), self.field.random(rng))

    def elements(self) -> Iterator[WittPair]:
        for a0 in self.field.elements():
            for a1 in self.field.elements():
                yield WittPair(self, a0, a1)

    # -- mod-p structure ----------------------------------------------

    def reduce_p(self, u: WittPair) -> FqElem:
        return u.a0

    def divisible_by_p(self, u: WittPair) -> bool:
        return u.a0.is_zero()

    def divide_p(self, u: WittPair) -> FqElem:
        # p*(c, *) = (0, c^p), so division undoes a Frobenius on the second slot
        if not u.a0.is_zero():
            raise NotDivisible(f"{u!r} is not divisible by p")
        return u.a1.inv_frobenius()

    def times_p_embed(self, c: FqElem) -> WittPair:
        return WittPair(self, self.field.zero, c.frobenius())

    def from_residue(self, c: FqElem) -> WittPair:
        return WittPair(self, c, self.field.zero)

    # -- text format ---------------------------------------------------

    def coeff_to_str(self, u: WittPair) -> str:
        f = self.field
        return f"({f.coeff_to_str(u.a0)},{f.coeff_to_str(u.a1)})"

    def coeff_from_str(self, s: str) -> WittPair:
        s = s.strip()
        if not (s.startswith("(") and s.endswith(")")):
            try:
                return self.from_int(int(s))
            except ValueError as exc:
                raise ParseError(f"bad Witt coefficient: {s!r}") from exc
        body = s[1:-1]
        depth = 0
        for k, ch in enumerate(body):
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == "," and depth == 0:
                a0 = self.field.coeff_from_str(body[:k])
                a1 = self.field.coeff_from_str(body[k + 1:])
                return WittPair(self, a0, a1)
        raise ParseError(f"bad Witt coefficient: {s!r}")


@lru_cache(maxsize=None)
def W2(p: int, m: int = 1) -> WittRing:
    """Cached Witt-ring constructor over GF(p, m)."""
    return WittRing(GF(p, m))


@lru_cache(maxsize=None)
def _zp2(p: int) -> Zp2Ring:
    return Zp2Ring(p)


def witt_to_residue_ring(u: WittPair) -> Zp2Elem:
    """Independent model of W2(F_p): (a0, a1) -> a0^p + p*a1 in Z/p^2.

    Only defined over the prime field; the map being a ring isomorphism is
    established by the test suite, not assumed here.
    """
    field = u.ring.field
    if field.m != 1:
        raise UnsupportedField("residue-ring model only exists for q = p")
    p = field.p
    return Zp2Elem(_zp2(p), u.a0.as_int() ** p + p * u.a1.as_int())


def witt_to_str(u: WittPair) -> str:
    f = u.ring.field
    return f"{u.ring.coeff_to_str(u)}@{f.p}^{f.m}"


def witt_from_str(s: str) -> WittPair:
    s = s.strip()
    if "@" not in s:
        raise ParseError(f"missing @p^m suffix in {s!r}")
    body, tag = s.rsplit("@", 1)
    try:
        p_str, m_str = tag.split("^")
        ring = W2(int(p_str), int(m_str))
    except (ValueError, UnsupportedField) as exc:
        raise ParseError(f"bad field tag in {s!r}") from exc
    return ring.coeff_from_str(body)
