"""Exact arithmetic in F_q and W2(F_q) on one integer kernel.

Each coefficient ring is a Galois ring GR(p^k, m) = (Z/p^k)[xi]/(g)
(Wan, *Lectures on Finite Fields and Galois Rings*): F_q is k = 1 and
W2(F_q) is k = 2.  W2(F_p) = GR(p^2, 1) is Z/p^2 (Serre, *Local Fields*,
II §6), whose ints are the residues mod p^2.  For m > 1 the modulus g in
``_MODULI`` is Teichmüller-compatible: it reduces mod p to the modulus of
F_q and divides x^q - x mod p^2, so xi is a Teichmüller element and the
Witt Frobenius is xi -> xi^p, as in Satoh's canonical-lift point counting
(Satoh 2000).  Over Z/p^2 these g are unique: x^2+x+1 over Z/4 (F4),
x^3+2x^2+x+3 over Z/4 (F8) and x^2+5x+8 over Z/9 (F9).  F_q itself uses
g mod p: x^2+x+1, x^3+x+1 and x^2+2x+2.

An element holds its ring and one canonical int ``n``.  For m = 1 that
is the residue mod p^k, and every operation is integer arithmetic mod
p^k.  For m > 1 it packs the coefficients of 1, xi, ..., xi^(m-1), each
in [0, p^k), ``SHIFT`` bits apart.  A sum of up to 2^24 products of such
ints keeps each of its 2m-1 slots below 2^31 (the bound at ``SHIFT``), so
the polynomial layer adds up raw products and folds once per coefficient.
For m > 1, ``fold`` is a lookup in the ring's fold table, a dict from
ints to canonical ints, prefilled with the identity on the canonical
ints.  A miss runs the slot arithmetic in one pass: it adds (slot mod
p^k) * row_j for each high slot m+j, where row_j is xi^(m+j) mod g packed
once per ring, then takes each of the m low slots mod p^k.  The result
is stored while the table holds fewer than ``_FOLD_TABLE_BOUND`` (2^14)
entries.  Folds repeat: over the 8 default-seed sweeps of perfbench's
eta-ext workload, 43,262 folds see 1,335 distinct ints, and 51% of them
are canonical already, 43% one product of two canonical ints, 3% a sum
of two and 2.5% anything else.  The table caches a pure function.  It
and the Witt coordinates ``_coords`` below are the only state a ring
gains after it is built.  ``_coords`` is a plain attribute set on first
use, not a ``functools.cached_property``: its first read would
materialize the ring's instance ``__dict__`` and slow every later
attribute load of the kernel (``self._elements``, ``self.fold``).
``GF(p, m)`` and ``W2(p, m)`` hand out one ring object per (p, m),
however m is passed, so ``W2(p).residue_field is GF(p)``; any p or m
that is not an int raises ``UnsupportedField``.  Frobenius, its inverse
and the p-adic split are dict lookups that every ring builds once, m = 1
too, with q entries for F_q and q^2 for W2(F_q): at most 289, for
W2(F_17).

Each ring builds its p^(k*m) elements once, with the ring, in one table
keyed by ``n``: at most 289, for W2(F_17) = Z/17^2.  ``wrap``,
``from_int`` and every operator return entries of that table, so no
element is allocated after its ring is built, and two elements of one
ring are equal exactly when they are the same object; so ``==`` is
``is``, after an int operand is read as an element.  ``wrap`` of an
int that is not canonical raises ``InvariantViolation``.

The element classes, ``FqElem`` and ``WittPair``, share one set of
operators, ``_Elem``'s, which ``_own_operations`` copies into each class.
``+``, ``-`` and ``*`` first test whether the other operand is an element
of the same class and the same ring object; then they go straight to the
ring's ``add``, ``neg`` or ``mul``.  Anything else goes through
``_other``, which reads an int or an element by ``from_int``, the one
rule of what a coefficient may be: an int, read mod p^k, or an element
of this very ring.  It raises ``CharMismatch`` for an element of any
other ring object: a ring built by its class is a ring of its own; only
``GF``/``W2`` rings combine.
An element of W2(F_p) is its residue mod p^2: its int ``n`` is
a0^p + p*a1 mod p^2, and the package reads it as ``u.n``.
``witt_to_residue_ring``, which checks that its argument is an element
of a W2(F_p) and returns it, is kept for perfbench and the tests.

W2(F_q) is read and written in Witt coordinates (a0, a1), which stand for
u = [a0] + p*lift(a1^(1/p)) with the Teichmüller lift [a] = lift(a)^q.
For q = p that is u = a0^p + p*a1 mod p^2.  Coordinates are read through
``witt_coords`` alone (the text format and ``sweeps.sweep_witt`` do),
from the table ``_coords``, n -> (a0, a1), built on first use.  The
length-2 component formulas are kept out of this module on purpose:
they are the independent models that check the kernel, for q = p in
``sweeps.sweep_witt`` and for every q in ``tests/oracles.py``.

Ring protocol used by the polynomial layer, whose coefficients are
canonical ints: ``fold``, ``neg_int``, ``inv_int``, ``frob_int``, ``pk``
and ``pk_slots`` (p^k in every slot, so that ``pk_slots - n`` folds to
-n and borrows between no slots) for arithmetic; ``from_int`` and
``wrap`` to read and build elements at the boundary; ``random_int`` (a
uniform element's int; ``random`` wraps it) for seeded inputs, drawn
through ``draw_below`` as ``random.Random.randrange`` draws: c_0 first,
then each higher slot in turn, one ``draw_below(rng, pk)`` per slot, the
order that keeps every seed's inputs (``WittRing`` draws its Witt
coordinates a0 and then a1 that way, over its residue field);
``coeff_to_str`` / ``coeff_from_str`` for text.  The lift ring
``WittRing`` adds the mod-p maps, each in its int form only, between
itself and its ``residue_field``: ``split_p`` (n -> (n div
p, n mod p), slot by slot: the second half is the reduction, and when it
is 0, n is divisible by p with quotient the first half), ``times_p_int``
(multiplication by p, an isomorphism from the residue field onto the
ideal (p), which ``split_p`` inverts) and ``from_residue_int`` (the
Teichmüller lift of a residue).
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product
from typing import Iterator

from .errors import (
    CharMismatch,
    InvariantViolation,
    ParseError,
    RingMismatch,
    ShapeError,
    UnitError,
    UnsupportedField,
)

MAX_PRIME = 17

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17)

# Bits between the packed coefficients of an element with m > 1.  A product
# of canonical elements has slots <= m * (p^k - 1)^2 <= 2^7, so a sum of up
# to 2^24 products has slots <= 2^31.  ``fold`` cuts each high slot mod p^k
# before it multiplies its row, adding < 2^7 to a low slot: nothing carries.
SHIFT = 32
_MASK = (1 << SHIFT) - 1

# Most entries a fold table stores; past it a miss is computed, not kept.
# After the whole test suite the largest, W2(F_9)'s, holds 3,300 to 3,600.
_FOLD_TABLE_BOUND = 1 << 14

# Teichmüller-compatible moduli x^m + g_(m-1) x^(m-1) + ... + g_0 over
# Z/p^2, stored as (g_0, ..., g_(m-1)) and keyed by (p, m).
_MODULI = {
    (2, 2): (1, 1),
    (2, 3): (3, 1, 2),
    (3, 2): (8, 5),
}

# "(a0,a1)": a0 runs to the first comma outside a slot list [..]; compiled
# with re.S on first parse, not at import
_PAIR_PATTERN = r"\(((?:\[[^\]]*\]|[^\[,])*),(.*)\)"


def check_prime_char(p: int) -> int:
    """Validate a prime characteristic at desk scale (an int, prime, <= 17)."""
    if type(p) is not int or p not in _SMALL_PRIMES:
        raise UnsupportedField(f"characteristic must be a prime <= {MAX_PRIME}, got {p!r}")
    return p


def _check_field(p: int, m: int) -> None:
    """Raise ``UnsupportedField`` unless F_{p^m} is one of the fields modelled here."""
    check_prime_char(p)
    if type(m) is not int or m < 1:
        raise UnsupportedField(f"extension degree must be an int >= 1, got {m!r}")
    if m > 1 and (p, m) not in _MODULI:
        raise UnsupportedField(f"no modulus fixed for q = {p}^{m}; supported: 4, 8, 9")


def draw_below(rng, n: int) -> int:
    """A uniform int in [0, n): the draw of ``rng.randrange(n)`` on a ``random.Random``.

    It draws the same ``getrandbits(n.bit_length())`` words and rejects
    the same ones, so the int and the generator's state after it are
    those of ``randrange(n)``, without its three Python frames per draw.
    Every random draw of the package goes through here.
    """
    if n <= 0:
        # getrandbits(0) is always 0, so the loop below would never end
        raise ValueError(f"empty range for draw_below: {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _pack(coeffs) -> int:
    return sum(c << (SHIFT * i) for i, c in enumerate(coeffs))


def _slots(n: int, count: int) -> list:
    return [(n >> (SHIFT * i)) & _MASK for i in range(count)]


class _FoldTable(dict):
    """n -> fold(n) for one ring; a miss runs the slot arithmetic ``slow``."""

    __slots__ = ("slow",)

    def __missing__(self, n):
        out = self.slow(n)
        if len(self) < _FOLD_TABLE_BOUND:
            self[n] = out
        return out


def _slot_fold(m: int, pk: int, modulus: tuple, ints: list):
    """The fold of GR(p^k, m): n of up to 2m-1 slots -> its canonical int.

    It is the lookup of a ``_FoldTable`` that starts as the identity on the
    canonical ``ints``.
    """
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

    table = _FoldTable(zip(ints, ints))
    table.slow = fold
    return table.__getitem__


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
        if isinstance(other, (int, _Elem)):
            return self.ring.from_int(other)
        return None

    def __add__(self, other):
        if other.__class__ is not self.__class__ or other.ring is not self.ring:
            other = self._other(other)
            if other is None:
                return NotImplemented
        return self.ring.add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return self.ring.neg(self)

    def __sub__(self, other):
        ring = self.ring
        if other.__class__ is not self.__class__ or other.ring is not ring:
            other = self._other(other)
            if other is None:
                return NotImplemented
        return ring.add(self, ring.neg(other))

    def __rsub__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return self.ring.add(o, self.ring.neg(self))

    def __mul__(self, other):
        if other.__class__ is not self.__class__ or other.ring is not self.ring:
            other = self._other(other)
            if other is None:
                return NotImplemented
        return self.ring.mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if type(e) is not int:  # bool and float too, as Poly powers reject them
            raise ShapeError(f"power {e!r} of an element is not an int")
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
        if isinstance(other, _Elem):
            return other is self
        if isinstance(other, int):
            return self.ring.from_int(other) is self
        return NotImplemented

    __hash__ = object.__hash__


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

    def as_int(self) -> int:
        if self.ring.m != 1:
            raise UnsupportedField("integer representative only defined for prime fields")
        return self.n

    def __repr__(self):
        return f"{self.ring.coeff_to_str(self)}@F{self.ring.q}"


@_own_operations
class WittPair(_Elem):
    """Element of W2(F_q), shown in its Witt coordinates (``ring.witt_coords``)."""

    __slots__ = ()

    def __repr__(self):
        return witt_to_str(self)


Zp2Elem = WittPair  # W2(F_p) is Z/p^2; perfbench's tracer wraps Zp2Elem.__add__ and __mul__


# ---------------------------------------------------------------------------
# the kernel and its two rings
# ---------------------------------------------------------------------------


class _Elements(dict):
    """A ring's elements keyed by their canonical ints; any other key raises."""

    __slots__ = ("ring",)

    def __missing__(self, n):
        raise InvariantViolation(f"{n!r} is not the int of an element of {self.ring!r}")


class GaloisRing:
    """GR(p^k, m) = (Z/p^k)[xi]/(g) on ints: the kernel of every ring here.

    ``fold`` and the methods ending in ``_int`` take and return ints;
    ``wrap``, ``add``, ``neg`` and ``mul`` return entries of the ring's
    element table.  ``wrap`` (the table's ``__getitem__``), ``fold``,
    ``pow_int``, ``frob_int``, ``inv_frob_int`` and ``split_p`` (n div p
    and n mod p, slot by slot) are bound per ring when it is built.
    """

    element = _Elem  # the element class, set by each ring

    def __init__(self, p: int, k: int, m: int):
        _check_field(p, m)
        self.p, self.k, self.m = p, k, m
        self.q = p ** m
        self.pk = pk = p ** k
        # p^k in every slot: subtracting an element from it cannot borrow
        self.pk_slots = _pack([pk] * m)
        if m == 1:
            ints = range(pk)
            self.fold = pk.__rmod__  # n -> n % p^k
            self.pow_int = lambda n, e: pow(n, e, pk)
        else:
            ints = [_pack(c) for c in product(range(pk), repeat=m)]
            self.fold = _slot_fold(m, pk, _MODULI[(p, m)], ints)
            self.pow_int = self._pow_folded
        self._build_tables(ints)
        # every element, in the order of the coefficient tuples (c_0, ..., c_(m-1))
        self._elements = table = _Elements((n, self.element(self, n)) for n in ints)
        table.ring = self
        self.wrap = table.__getitem__
        self.zero = self.wrap(0)
        self.one = self.wrap(1)

    def _build_tables(self, ints):
        """Frobenius, its inverse and the p-adic split, one entry per canonical int, for every m."""
        p, pk, m = self.p, self.pk, self.m

        def values(rows):  # sum of rows[i][c_i] for each (c_0, ..., c_(m-1)), as ints runs
            out = [0]
            for row in rows:
                out = [a + b for a in out for b in row]
            return out
        xi_p = [self.pow_int(1 << (SHIFT * i), p) for i in range(m)]
        frob = dict(zip(ints, map(self.fold, values([[c * x for c in range(pk)] for x in xi_p]))))
        self.frob_int = frob.__getitem__
        self.inv_frob_int = dict(zip(frob.values(), frob)).__getitem__
        shifts = range(0, SHIFT * m, SHIFT)  # Frobenius is Z/p^k-linear, the split slotwise
        high = values([[c // p << s for c in range(pk)] for s in shifts])
        low = values([[c % p << s for c in range(pk)] for s in shifts])
        self.split_p = dict(zip(ints, zip(high, low))).__getitem__

    # -- integer kernel ----------------------------------------------------

    def neg_int(self, n: int) -> int:
        return self.fold(self.pk_slots - n)

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

    def add(self, u, v):
        return self._elements[self.fold(u.n + v.n)]

    def neg(self, u):
        return self._elements[self.neg_int(u.n)]

    def mul(self, u, v):
        return self._elements[self.fold(u.n * v.n)]

    def from_int(self, n):
        """n as an element: an int read mod p^k, or an element of this very ring unchanged."""
        if isinstance(n, int):
            return self._elements[n % self.pk]
        if isinstance(n, _Elem) and n.ring is self:
            return n
        raise CharMismatch(f"{n!r} is no coefficient over {self!r}")

    def random_int(self, rng) -> int:
        """The canonical int of a uniform element: one ``draw_below(rng, pk)`` per slot.

        c_0 is drawn first, then c_1, ..., c_(m-1), each ORed into its slot
        as it is drawn: the order of ``randrange(pk)`` per coefficient, which
        keeps every seeded input.  For m = 1 that is the one draw of c_0.
        """
        pk = self.pk
        if self.m == 1:
            return draw_below(rng, pk)
        n = draw_below(rng, pk)
        for shift in range(SHIFT, SHIFT * self.m, SHIFT):
            n |= draw_below(rng, pk) << shift
        return n

    def random(self, rng):
        return self.wrap(self.random_int(rng))

    def elements(self) -> Iterator:
        return iter(self._elements.values())


class FiniteField(GaloisRing):
    """F_{p^m} for p <= 17, m = 1, plus the fixed models of F_4, F_8, F_9."""

    element = FqElem

    def __init__(self, p: int, m: int = 1):
        super().__init__(p, 1, m)

    def __repr__(self):
        return f"F{self.q}"

    def elem(self, coeffs) -> FqElem:
        if not isinstance(coeffs, (list, tuple)):
            return self.from_int(coeffs)
        coeffs = [self.from_int(c).n for c in coeffs]
        if len(coeffs) != self.m:
            raise UnsupportedField(f"need {self.m} coefficients for an element of {self}")
        return self.wrap(_pack(coeffs))

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


# GF and W2 cache each spelling of their arguments (GF(5), GF(5, 1), GF(5, m=1)),
# so that a hit is one lru_cache call; _field and _witt_ring, keyed by the
# normalized (p, m), make every spelling hand out the same ring object.  The
# outer caches are typed and check in their bodies, so GF(5.0) misses and
# raises however many times GF(5) has been built.
@lru_cache(maxsize=None, typed=True)
def GF(p: int, m: int = 1) -> FiniteField:
    """The field F_{p^m}: one object per (p, m), however m is passed.

    A ring built by its class is a ring of its own; only ``GF``/``W2`` rings combine.
    """
    _check_field(p, m)
    return _field(p, m)


@lru_cache(maxsize=None)
def _field(p: int, m: int) -> FiniteField:
    return FiniteField(p, m)


class WittRing(GaloisRing):
    """W2(F_q) as GR(p^2, m), with the mod-p maps to F_q and Witt coordinates at the boundary."""

    element = WittPair
    # the Witt ring's own bindings of the kernel operations
    add, neg, mul = GaloisRing.add, GaloisRing.neg, GaloisRing.mul

    def __init__(self, field: FiniteField):
        super().__init__(field.p, 2, field.m)
        self.residue_field = field
        self.p_elem = self.wrap(field.p)
        # the Teichmüller lift [c] = lift(c)^q, one entry per residue
        self.from_residue_int = {
            c.n: self.pow_int(c.n, self.q) for c in field.elements()
        }.__getitem__

    def __repr__(self):
        return f"W2({self.residue_field!r})"

    def times_p_int(self, c: int) -> int:
        # every slot of a residue is below p, so p times it stays below p^2
        return self.p * c

    def _pair_int(self, a0: int, a1: int) -> int:
        return self.fold(self.from_residue_int(a0) + self.p * self.residue_field.inv_frob_int(a1))

    def _coord_table(self) -> dict:
        """``_coords``, n -> (a0, a1), set on first use.

        It is inverted from (a0, a1) -> n as inv_frob_int is from frob_int.
        """
        try:
            return self._coords
        except AttributeError:
            pass
        elems = self.residue_field.elements
        table = {self._pair_int(a0.n, a1.n): (a0, a1) for a0 in elems() for a1 in elems()}
        if len(table) < self.q ** 2:
            raise InvariantViolation(f"Witt coordinates of {self!r} name {len(table)} elements")
        self._coords = table
        return table

    def witt_coords(self, u: WittPair) -> tuple:
        """(a0, a1) with u = [a0] + p*lift(a1^(1/p))."""
        return self._coord_table()[u.n]

    def pair(self, a0, a1) -> WittPair:
        """[a0] + p*lift(a1^(1/p)), each Witt coordinate read by ``residue_field.elem``."""
        elem = self.residue_field.elem
        return self.wrap(self._pair_int(elem(a0).n, elem(a1).n))

    def random_int(self, rng) -> int:
        """A uniform element drawn as its Witt coordinates, a0 and then a1."""
        a0 = self.residue_field.random_int(rng)
        return self._pair_int(a0, self.residue_field.random_int(rng))

    def elements(self) -> Iterator[WittPair]:
        """Every element, in the order of its Witt coordinates (a0, a1)."""
        return map(self.wrap, self._coord_table())

    # -- text format ---------------------------------------------------

    def coeff_to_str(self, u: WittPair) -> str:
        f = self.residue_field
        a0, a1 = self.witt_coords(u)
        return f"({f.coeff_to_str(a0)},{f.coeff_to_str(a1)})"

    def coeff_from_str(self, s: str) -> WittPair:
        pair = re.compile(_PAIR_PATTERN, re.S).fullmatch(s.strip())
        if pair:
            return self.pair(*map(self.residue_field.coeff_from_str, pair.groups()))
        try:
            return self.from_int(int(s))
        except ValueError as exc:
            raise ParseError(f"bad Witt coefficient: {s!r}") from exc


@lru_cache(maxsize=None, typed=True)
def W2(p: int, m: int = 1) -> WittRing:
    """The Witt ring W2(F_{p^m}) over GF(p, m): one object per (p, m), however m is passed.

    A ring built by its class is a ring of its own; only ``GF``/``W2`` rings combine.
    """
    _check_field(p, m)
    return _witt_ring(p, m)


@lru_cache(maxsize=None)
def _witt_ring(p: int, m: int) -> WittRing:
    return WittRing(GF(p, m))


def witt_to_residue_ring(u: WittPair) -> WittPair:
    """W2(F_p) -> Z/p^2, (a0, a1) -> a0^p + p*a1: the identity.

    Only defined over the prime field: an element of W2(F_q) with q > p
    raises ``UnsupportedField``, and anything but an element of a Witt
    ring raises ``RingMismatch``.  W2(F_p) is Z/p^2 and its ints are the
    residues mod p^2, so the image is u itself.  That ``n`` is the stated
    map of Witt coordinates is checked against the component formulas by
    ``sweeps.sweep_witt`` and the suite.
    """
    if u.__class__ is not WittPair:
        raise RingMismatch(f"{u!r} is not an element of W2(F_p)")
    if u.ring.m != 1:
        raise UnsupportedField("residue-ring model only exists for q = p")
    return u


def witt_to_str(u: WittPair) -> str:
    if u.__class__ is not WittPair:
        raise RingMismatch(f"{u!r} is not an element of a Witt ring")
    f = u.ring.residue_field
    return f"{u.ring.coeff_to_str(u)}@{f.p}^{f.m}"
