"""Exact arithmetic in F_q, Z/p^2 and W2(F_q) on one integer kernel.

Each coefficient ring is a Galois ring GR(p^k, m) = (Z/p^k)[xi]/(g)
(Wan, *Lectures on Finite Fields and Galois Rings*): F_q is k = 1, Z/p^2
is k = 2 with m = 1, and W2(F_q) is k = 2.  For m > 1 the modulus g in
``_MODULI`` is Teichmüller-compatible: it reduces mod p to the modulus of
F_q and divides x^q - x mod p^2, so xi is a Teichmüller element and the
Witt Frobenius is xi -> xi^p, as in Satoh's canonical-lift point counting
(Satoh 2000).  Over Z/p^2 these g are unique: x^2+x+1 over Z/4 (F4),
x^3+2x^2+x+3 over Z/4 (F8) and x^2+5x+8 over Z/9 (F9).  F_q itself uses
g mod p: x^2+x+1, x^3+x+1 and x^2+2x+2.

An element holds its ring and one int ``n``.  For m = 1 that is the
residue mod p^k, and every operation is integer arithmetic mod p^k.  For
m > 1 it packs the coefficients of 1, xi, ..., xi^(m-1), each in
[0, p^k), ``SHIFT`` bits apart.  A sum of up to 2^24 products of such
ints keeps each of its 2m-1 slots below 2^31 (the bound at ``SHIFT``), so
the polynomial layer adds up raw products and folds once per coefficient.
``fold`` works in one pass: it adds (slot mod p^k) * row_j for each high
slot m+j, where row_j is xi^(m+j) mod g packed once per ring, then takes
each of the m low slots mod p^k.  Frobenius, its inverse and the p-adic
split are dict lookups built once per ring, with q entries for F_q and
q^2 (16, 64 or 81) for W2(F_q).

W2(F_q) is read and written in Witt coordinates (a0, a1), which stand for
u = [a0] + p*lift(a1^(1/p)) with the Teichmüller lift [a] = lift(a)^q.
For q = p that is u = a0^p + p*a1 mod p^2.  Coordinates are computed only
at the text, JSON and ``.a0``/``.a1`` boundary.  The length-2 component
formulas are kept out of this module on purpose: they are the independent
models that check the kernel, for q = p in ``sweeps.sweep_witt`` and for
every q in ``tests/oracles.py``.

Ring protocol used by the polynomial layer: ``zero``, ``one``,
``from_int``, ``fold``, ``wrap``, ``coeff_to_str`` / ``coeff_from_str``.
The lift rings (Zp2Ring and WittRing) add the mod-p structure:
``residue_field``, ``reduce_p``, ``divisible_by_p``, ``divide_p``,
``times_p_embed`` and ``from_residue``.  ``times_p_embed`` realizes the
multiplication-by-p isomorphism from the residue field onto the ideal
(p), and ``divide_p`` is its inverse.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product
from typing import Iterator

from .errors import CharMismatch, NotDivisible, ParseError, UnitError, UnsupportedField

MAX_PRIME = 17

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17)

# Bits between the packed coefficients of an element with m > 1.  A product
# of canonical elements has slots <= m * (p^k - 1)^2 <= 2^7, so a sum of up
# to 2^24 products has slots <= 2^31.  ``fold`` cuts each high slot mod p^k
# before it multiplies its row, adding < 2^7 to a low slot: nothing carries.
SHIFT = 32
_MASK = (1 << SHIFT) - 1

# Teichmüller-compatible moduli x^m + g_(m-1) x^(m-1) + ... + g_0 over
# Z/p^2, stored as (g_0, ..., g_(m-1)) and keyed by (p, m).
_MODULI = {
    (2, 2): (1, 1),
    (2, 3): (3, 1, 2),
    (3, 2): (8, 5),
}

# "(a0,a1)": a0 runs to the first comma outside a slot list [..]
_PAIR_RE = re.compile(r"\(((?:\[[^\]]*\]|[^\[,])*),(.*)\)", re.S)


def check_prime_char(p: int) -> int:
    """Validate a prime characteristic at desk scale (p prime, p <= 17)."""
    if p not in _SMALL_PRIMES:
        raise UnsupportedField(f"characteristic must be a prime <= {MAX_PRIME}, got {p}")
    return p


def _pack(coeffs) -> int:
    return sum(c << (SHIFT * i) for i, c in enumerate(coeffs))


def _slots(n: int, count: int) -> list:
    return [(n >> (SHIFT * i)) & _MASK for i in range(count)]


def _slot_fold(m: int, pk: int, modulus: tuple):
    """The fold of GR(p^k, m): n of up to 2m-1 slots -> its canonical int."""
    low = [-c % pk for c in modulus]  # xi^m = -(g_0 + ... + g_(m-1) xi^(m-1))
    rows = [low]
    for _ in range(m - 2):
        row = rows[-1]
        rows.append([(a + row[-1] * b) % pk for a, b in zip([0] + row[:-1], low)])
    low_mask = (1 << (SHIFT * m)) - 1
    high = [(SHIFT * (m + j), _pack(row)) for j, row in enumerate(rows)]
    shifts = range(0, SHIFT * m, SHIFT)

    def fold(n: int) -> int:
        acc = n & low_mask
        for s, row in high:
            acc += (n >> s & _MASK) % pk * row
        out = 0
        for s in shifts:
            out |= (acc >> s & _MASK) % pk << s
        return out

    return fold


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class _Elem:
    """An element of a GaloisRing: the ring and its canonical int ``n``."""

    __slots__ = ("ring", "n")

    def __init__(self, ring, n: int):
        self.ring = ring
        self.n = n

    def _other(self, other):
        """other as an element of this ring; None for an operand of another type."""
        if isinstance(other, _Elem):
            if other.ring is not self.ring and other.ring != self.ring:
                raise CharMismatch(f"elements of {self.ring!r} and {other.ring!r} combined")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return None

    def __add__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return self.ring.add(self, o)

    __radd__ = __add__

    def __neg__(self):
        return self.ring.neg(self)

    def __sub__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return self.ring.add(self, self.ring.neg(o))

    def __rsub__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return self.ring.add(o, self.ring.neg(self))

    def __mul__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return self.ring.mul(self, o)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        ring = self.ring
        n = ring.inv_int(self.n) if e < 0 else self.n
        return ring.wrap(ring.pow_int(n, abs(e)))

    def frobenius(self):
        """The p-power Frobenius xi -> xi^p; the identity when m = 1."""
        return self.ring.wrap(self.ring.frob_int(self.n))

    def is_zero(self) -> bool:
        return not self.n

    def __bool__(self):
        return bool(self.n)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, _Elem):
            return NotImplemented
        return self.n == other.n and (self.ring is other.ring or self.ring == other.ring)

    def __hash__(self):
        return hash((self.ring.p, self.ring.k, self.ring.m, self.n))


def _own_operations(cls):
    """Bind every shared operation of ``_Elem`` in cls's own namespace.

    Each element class then owns its operators, so a wrapper put on one
    class's ``__mul__`` (perfbench's tracer does this) sees only that
    class's calls.
    """
    for name, value in vars(_Elem).items():
        if callable(value) and name not in vars(cls):
            setattr(cls, name, value)
    return cls


@_own_operations
class FqElem(_Elem):
    """Element of F_{p^m}; ``n`` packs its coefficients in the basis 1, x, ..., x^(m-1)."""

    __slots__ = ()

    @property
    def coeffs(self) -> tuple:
        return tuple(_slots(self.n, self.ring.m))

    def inverse(self):
        return self.ring.wrap(self.ring.inv_int(self.n))

    def inv_frobenius(self):
        """Unique p-th root, i.e. the inverse of :meth:`frobenius`."""
        return self.ring.wrap(self.ring.inv_frob_int(self.n))

    def as_int(self) -> int:
        if self.ring.m != 1:
            raise UnsupportedField("integer representative only defined for prime fields")
        return self.n

    def __repr__(self):
        return f"{self.ring.coeff_to_str(self)}@F{self.ring.q}"


@_own_operations
class Zp2Elem(_Elem):
    """Residue in Z/p^2; ``rep`` is the residue in [0, p^2)."""

    __slots__ = ()

    @property
    def rep(self) -> int:
        return self.n

    def __repr__(self):
        return f"{self.n} (mod {self.ring.p}^2)"


@_own_operations
class WittPair(_Elem):
    """Element of W2(F_q), shown in its Witt coordinates ``a0``, ``a1``."""

    __slots__ = ()

    @property
    def a0(self) -> FqElem:
        return self.ring.witt_coords(self)[0]

    @property
    def a1(self) -> FqElem:
        return self.ring.witt_coords(self)[1]

    def __repr__(self):
        return witt_to_str(self)


# ---------------------------------------------------------------------------
# the kernel and its three rings
# ---------------------------------------------------------------------------


class GaloisRing:
    """GR(p^k, m) = (Z/p^k)[xi]/(g) on ints: the kernel of every ring here.

    ``fold`` and the methods ending in ``_int`` take and return ints;
    ``wrap``, ``add``, ``neg`` and ``mul`` return elements.  ``fold``,
    ``pow_int``, ``frob_int``, ``inv_frob_int`` and ``_split_p`` (n div p
    and n mod p, slot by slot) are bound per ring when it is built.
    """

    element = _Elem  # the element class, set by each ring

    def __init__(self, p: int, k: int, m: int):
        check_prime_char(p)
        if m < 1:
            raise UnsupportedField("extension degree must be >= 1")
        if m > 1 and (p, m) not in _MODULI:
            raise UnsupportedField(f"no modulus fixed for q = {p}^{m}; supported: 4, 8, 9")
        self.p, self.k, self.m = p, k, m
        self.q = p ** m
        self.pk = pk = p ** k
        # p^k in every slot: subtracting an element from it cannot borrow
        self._pk_slots = _pack([pk] * m)
        if m == 1:
            self.fold = pk.__rmod__  # n -> n % p^k
            self.pow_int = lambda n, e: pow(n, e, pk)
            self.frob_int = self.inv_frob_int = lambda n: n
            self._split_p = p.__rdivmod__  # n -> (n // p, n % p)
        else:
            self.fold = _slot_fold(m, pk, _MODULI[(p, m)])
            self.pow_int = self._pow_folded
            self._build_tables()
        self.zero = self.wrap(0)
        self.one = self.wrap(1)

    def _build_tables(self):
        """Frobenius, its inverse and the p-adic split, one entry per element."""
        p, m, fold = self.p, self.m, self.fold
        elements = [_pack(c) for c in product(range(self.pk), repeat=m)]
        xi_p = [self.pow_int(1 << (SHIFT * i), p) for i in range(m)]
        frob = {n: fold(sum(c * img for c, img in zip(_slots(n, m), xi_p))) for n in elements}
        self.frob_int = frob.__getitem__
        self.inv_frob_int = {v: n for n, v in frob.items()}.__getitem__
        self._split_p = {
            n: (_pack(c // p for c in _slots(n, m)), _pack(c % p for c in _slots(n, m)))
            for n in elements
        }.__getitem__

    def __eq__(self, other):
        return type(other) is type(self) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self):
        return hash((self.p, self.k, self.m))

    # -- integer kernel ----------------------------------------------------

    def neg_int(self, n: int) -> int:
        return self.fold(self._pk_slots - n)

    def _pow_folded(self, n: int, e: int) -> int:
        fold = self.fold
        result = 1
        while e:
            if e & 1:
                result = fold(result * n)
            e >>= 1
            if e:
                n = fold(n * n)
        return result

    def inv_int(self, n: int) -> int:
        if self.k > 1:
            raise UnitError(f"{self!r} is not a field; negative powers unsupported")
        if not n:
            raise UnitError("inverse of zero in a finite field")
        return self.pow_int(n, self.q - 2)

    # -- elements ------------------------------------------------------------

    def wrap(self, n: int):
        return self.element(self, n)

    def add(self, u, v):
        return self.element(self, self.fold(u.n + v.n))

    def neg(self, u):
        return self.element(self, self.neg_int(u.n))

    def mul(self, u, v):
        return self.element(self, self.fold(u.n * v.n))

    def from_int(self, n: int):
        return self.element(self, n % self.pk)


class FiniteField(GaloisRing):
    """F_{p^m} for p <= 17, m = 1, plus the fixed models of F_4, F_8, F_9."""

    element = FqElem

    def __init__(self, p: int, m: int = 1):
        super().__init__(p, 1, m)

    def __repr__(self):
        return f"F{self.q}" if self.m > 1 else f"F{self.p}"

    def elem(self, coeffs) -> FqElem:
        if isinstance(coeffs, int):
            return self.from_int(coeffs)
        coeffs = [c % self.p for c in coeffs]
        if len(coeffs) != self.m:
            raise UnsupportedField(f"need {self.m} coefficients for an element of {self}")
        return self.wrap(_pack(coeffs))

    def gen(self) -> FqElem:
        """x mod the modulus polynomial (a multiplicative generator for q in {4,8,9})."""
        if self.m == 1:
            raise UnsupportedField("prime field has no distinguished generator element")
        return self.wrap(1 << SHIFT)

    def elements(self) -> Iterator[FqElem]:
        for coeffs in product(range(self.p), repeat=self.m):
            yield self.wrap(_pack(coeffs))

    def random(self, rng) -> FqElem:
        return self.wrap(self._random_int(rng))

    def _random_int(self, rng) -> int:
        if self.m == 1:
            return rng.randrange(self.p)
        return _pack([rng.randrange(self.p) for _ in range(self.m)])

    # -- text format -------------------------------------------------

    def coeff_to_str(self, c: FqElem) -> str:
        if self.m == 1:
            return str(c.n)
        return "[" + ",".join(str(x) for x in c.coeffs) + "]"

    def coeff_from_str(self, s: str) -> FqElem:
        s = s.strip()
        try:
            if s.startswith("["):
                if not s.endswith("]"):
                    raise ValueError(s)
                return self.elem([int(x) for x in s[1:-1].split(",")])
            return self.from_int(int(s))
        except (ValueError, UnsupportedField) as exc:  # UnsupportedField: wrong slot count
            raise ParseError(f"bad {self} coefficient: {s!r}") from exc


@lru_cache(maxsize=None)
def GF(p: int, m: int = 1) -> FiniteField:
    """Cached field constructor."""
    return FiniteField(p, m)


class _LiftRing(GaloisRing):
    """GR(p^2, m) with the mod-p maps to and from its residue field F_q."""

    def __init__(self, field: FiniteField):
        super().__init__(field.p, 2, field.m)
        self.residue_field = field
        self.p_elem = self.wrap(field.p)

    def reduce_p(self, u) -> FqElem:
        return self.residue_field.wrap(self._split_p(u.n)[1])

    def divisible_by_p(self, u) -> bool:
        return not self._split_p(u.n)[1]

    def divide_p(self, u) -> FqElem:
        high, low = self._split_p(u.n)
        if low:
            raise NotDivisible(f"{u!r} is not divisible by {self.p}")
        return self.residue_field.wrap(high)

    def times_p_embed(self, c: FqElem):
        # every slot of c is below p, so p times it stays below p^2
        return self.wrap(self.p * c.n)

    def from_residue(self, c: FqElem):
        """The lift whose slots are those of c."""
        return self.wrap(c.n)


class Zp2Ring(_LiftRing):
    """Z/p^2 with the mod-p interface used by the polynomial layer."""

    element = Zp2Elem

    def __init__(self, p: int):
        super().__init__(GF(p))
        self.p2 = p * p

    def __repr__(self):
        return f"Z/{self.p}^2"

    def random(self, rng) -> Zp2Elem:
        return self.wrap(rng.randrange(self.p2))

    def elements(self) -> Iterator[Zp2Elem]:
        for n in range(self.p2):
            yield self.wrap(n)

    # -- text format ---------------------------------------------------

    def coeff_to_str(self, c: Zp2Elem) -> str:
        return str(c.n)

    def coeff_from_str(self, s: str) -> Zp2Elem:
        try:
            return self.from_int(int(s.strip()))
        except ValueError as exc:
            raise ParseError(f"bad Z/p^2 coefficient: {s!r}") from exc


class WittRing(_LiftRing):
    """W2(F_q) as the Galois ring GR(p^2, m); Witt coordinates at the boundary."""

    element = WittPair
    # the Witt ring's own bindings of the kernel operations
    add, neg, mul = GaloisRing.add, GaloisRing.neg, GaloisRing.mul

    def __init__(self, field: FiniteField):
        super().__init__(field)
        self.field = field
        # Teichmüller lifts [c] = lift(c)^q, one per residue
        self._teich = {c.n: self.pow_int(c.n, self.q) for c in field.elements()}

    def __repr__(self):
        return f"W2({self.field!r})"

    def from_witt(self, a0: FqElem, a1: FqElem) -> WittPair:
        """The element with Witt coordinates (a0, a1): [a0] + p*lift(a1^(1/p))."""
        return self.wrap(self._from_witt_int(a0.n, a1.n))

    def _from_witt_int(self, a0: int, a1: int) -> int:
        return self.fold(self._teich[a0] + self.p * self.field.inv_frob_int(a1))

    def witt_coords(self, u: WittPair) -> tuple:
        """(a0, a1) with u = [a0] + p*lift(a1^(1/p))."""
        field = self.field
        a0 = self._split_p(u.n)[1]
        b = self._split_p(self.fold(u.n + self.neg_int(self._teich[a0])))[0]
        return field.wrap(a0), field.wrap(field.frob_int(b))

    def pair(self, a0, a1) -> WittPair:
        return self.from_witt(self.field.elem(a0), self.field.elem(a1))

    def random(self, rng) -> WittPair:
        a0 = self.field._random_int(rng)
        return self.wrap(self._from_witt_int(a0, self.field._random_int(rng)))

    def elements(self) -> Iterator[WittPair]:
        for a0 in self.field.elements():
            for a1 in self.field.elements():
                yield self.from_witt(a0, a1)

    def from_residue(self, c: FqElem) -> WittPair:
        """The Teichmüller lift [c], whose Witt coordinates are (c, 0)."""
        return self.wrap(self._teich[c.n])

    # -- text format ---------------------------------------------------

    def coeff_to_str(self, u: WittPair) -> str:
        f = self.field
        a0, a1 = self.witt_coords(u)
        return f"({f.coeff_to_str(a0)},{f.coeff_to_str(a1)})"

    def coeff_from_str(self, s: str) -> WittPair:
        pair = _PAIR_RE.fullmatch(s.strip())
        if pair:
            return self.from_witt(*map(self.field.coeff_from_str, pair.groups()))
        try:
            return self.from_int(int(s))
        except ValueError as exc:
            raise ParseError(f"bad Witt coefficient: {s!r}") from exc


@lru_cache(maxsize=None)
def W2(p: int, m: int = 1) -> WittRing:
    """Cached Witt-ring constructor over GF(p, m)."""
    return WittRing(GF(p, m))


@lru_cache(maxsize=None)
def _zp2(p: int) -> Zp2Ring:
    return Zp2Ring(p)


def witt_to_residue_ring(u: WittPair) -> Zp2Elem:
    """W2(F_p) -> Z/p^2, (a0, a1) -> a0^p + p*a1.

    Only defined over the prime field.  Both rings are GR(p^2, 1) on the
    same ints, so the map keeps ``n``; that it is the stated map of Witt
    coordinates is checked against the component formulas by the suite.
    """
    ring = u.ring
    if ring.m != 1:
        raise UnsupportedField("residue-ring model only exists for q = p")
    return _zp2(ring.p).wrap(u.n)


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
