"""Liftability of the Frobenius over length-2 Witt vectors, by surface class.

``classify_surface`` is the classification theorem for minimal algebraic
surfaces as a total decision procedure: the verdict is the first clause
of ``CLAUSES`` for the descriptor's class whose condition holds.  It is
computed from descriptor flags only, never from geometry, and cites the
clause or table cell it encodes.

Rules encoded, each a run of clauses of ``CLAUSES``:

* Kodaira dimension >= 1 (properly elliptic, general type): never
  liftable (the divided differential would give a nonzero section of a
  negative power of the canonical bundle).
* K3, Enriques, quasi-hyperelliptic: never liftable (torsion canonical
  bundle forces the divided differential to be an isomorphism, which
  rational curves and nontrivial etale-trivializations rule out).
* Abelian: liftable exactly when ordinary.
* Hyperelliptic (quotient of a product of elliptic curves E0 x E1,
  types a-d): both curves must be ordinary and omega^(p-1) must be
  trivial; in characteristics 2 and 3 only type a survives.
* Rational: the plane and the Hirzebruch surfaces F_n, n != 1, are
  toric, hence liftable; F_1 is not minimal and out of scope.
* Ruled over a curve of genus g: liftable exactly when the base is the
  projective line or an ordinary elliptic curve.

Elliptic-curve ordinarity itself is decided here concretely, by the
Hasse invariant (coefficient of x^(p-1) in f(x)^((p-1)/2)) with an
exhaustive point count as the independent oracle.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    DescriptorError, InvariantViolation, SingularCurve, UnsupportedField, UnsupportedShape
)
from .polyalg import Poly, power_coefficient
from .witt2 import GF, FqElem, check_prime_char

HYPERELLIPTIC_TYPES = ("a", "b", "c", "d")

# surface class -> {descriptor key: the values it allows, or None for any value
# of the key's type}; a class needs each of its keys (base_is_ordinary only over
# an elliptic base) and takes no key of another class
CLASS_FLAGS = {
    "rational_P2": {},
    "rational_Fn": {"n": None},
    "ruled": {"base_genus": None, "base_is_ordinary": None},
    "abelian": {"is_ordinary": None},
    "K3": {},
    "enriques": {"variant": ("classical", "singular", "supersingular")},
    "hyperelliptic": {"type": HYPERELLIPTIC_TYPES, "E0_ordinary": None, "E1_ordinary": None,
                      "omega_pow_p_minus_1_trivial": None},
    "quasi_hyperelliptic": {},
    "properly_elliptic": {},
    "general_type": {},
}

LIFTABLE = "Liftable"
NOT_LIFTABLE = "NotLiftable"
OUT_OF_SCOPE = "OutOfScope"


class SurfaceDescriptor(NamedTuple):
    """Input of the decision procedure; minimality is assumed throughout."""

    surface_class: str
    p: int
    n: int = None  # rational_Fn twist
    base_genus: int = None  # ruled
    base_is_ordinary: bool = None  # ruled over an elliptic base
    is_ordinary: bool = None  # abelian
    variant: str = None  # enriques: classical / singular / supersingular
    hyperelliptic_type: str = None
    E0_ordinary: bool = None
    E1_ordinary: bool = None
    omega_pow_p_minus_1_trivial: bool = None

    # JSON key -> (attribute, value type); null stands for an absent flag
    _JSON_KEYS = {
        "class": ("surface_class", str),
        "p": ("p", int),
        "n": ("n", int),
        "base_genus": ("base_genus", int),
        "base_is_ordinary": ("base_is_ordinary", bool),
        "is_ordinary": ("is_ordinary", bool),
        "variant": ("variant", str),
        "type": ("hyperelliptic_type", str),
        "E0_ordinary": ("E0_ordinary", bool),
        "E1_ordinary": ("E1_ordinary", bool),
        "omega_pow_p_minus_1_trivial": ("omega_pow_p_minus_1_trivial", bool),
    }

    @classmethod
    def from_json_dict(cls, d) -> "SurfaceDescriptor":
        """The descriptor of a JSON object; ``validate`` checks its values."""
        if not isinstance(d, dict):
            raise DescriptorError(f"descriptor must be a JSON object, got {type(d).__name__}")
        kwargs = {}
        for key, value in d.items():
            if key not in cls._JSON_KEYS:
                raise DescriptorError(f"unknown descriptor key {key!r}")
            kwargs[cls._JSON_KEYS[key][0]] = value
        if "surface_class" not in kwargs or "p" not in kwargs:
            raise DescriptorError("descriptor needs the 'class' and 'p' keys")
        return cls(**kwargs)

    def to_json_dict(self) -> dict:
        return {
            key: value
            for key, (attr, _) in self._JSON_KEYS.items()
            if (value := getattr(self, attr)) is not None
        }

    def validate(self):
        # types first, so that no unhashable value reaches a table lookup;
        # exact types, as bool is a subclass of int
        for key, (attr, kind) in self._JSON_KEYS.items():
            value = getattr(self, attr)
            if value is not None and type(value) is not kind:
                raise DescriptorError(f"descriptor key {key!r} must be of type {kind.__name__}")
        c = self.surface_class
        if c not in CLASS_FLAGS:
            raise DescriptorError(f"unknown surface class {c!r}")
        try:
            check_prime_char(self.p)
        except UnsupportedField as exc:
            raise DescriptorError(str(exc)) from exc
        flags = CLASS_FLAGS[c]
        for key, (attr, _) in self._JSON_KEYS.items():
            value, allowed = getattr(self, attr), flags.get(key)
            if key not in flags and value is not None and key not in ("class", "p"):
                raise DescriptorError(f"{c} takes no {key!r} flag")
            if key in flags and value is None and key != "base_is_ordinary":
                raise DescriptorError(f"{c} needs the {key!r} flag")
            if allowed and value not in allowed:
                raise DescriptorError(f"{c} {key!r} must be one of {', '.join(allowed)}")
        if (self.n or 0) < 0 or (self.base_genus or 0) < 0:
            raise DescriptorError("the twist n and the base genus must be >= 0")
        if self.base_genus == 1 and self.base_is_ordinary is None:
            raise DescriptorError("ruled over an elliptic base needs base_is_ordinary")
        # Bombieri-Mumford: singular and supersingular Enriques surfaces, and
        # quasi-hyperelliptic ones, exist only in small characteristic
        if self.variant in ("singular", "supersingular") and self.p != 2:
            raise DescriptorError(f"{self.variant} Enriques surfaces occur only at p = 2")
        if c == "quasi_hyperelliptic" and self.p not in (2, 3):
            raise DescriptorError("quasi-hyperelliptic surfaces occur only at p in {2, 3}")


class Verdict(NamedTuple):
    outcome: str
    citation: str
    note: str = ""

    def to_json_dict(self) -> dict:
        out = {"outcome": self.outcome, "citation": self.citation}
        if self.note:
            out["note"] = self.note
        return out


# the citations two clauses share
_KAPPA = ("main theorem, kappa >= 1: a lift would give a nonzero section of "
          "omega^(1-p^n) for all n, impossible for positive Kodaira dimension")
_BASE_LIFT = ("base-lift proposition: the base must be the projective line or "
              "an ordinary elliptic curve; ")

# surface class -> its clauses (condition, outcome, citation, note) in the order
# they apply; a condition is a predicate on the descriptor, or None for always,
# and a citation is a str.format template over p, t (the hyperelliptic type) and n
CLAUSES = {
    "rational_P2": ((None, LIFTABLE, "main theorem (2)(a): the projective plane is toric", ""),),
    "rational_Fn": (
        (lambda d: d.n == 1, OUT_OF_SCOPE, "main theorem (2)(a): n = 1 excluded",
         "non-minimal, excluded by n != 1"),
        (None, LIFTABLE,
         "main theorem (2)(a): Hirzebruch surface F_{n} is toric (n >= 0, n != 1)", ""),
    ),
    "ruled": (
        (lambda d: d.base_genus == 0, LIFTABLE,
         "main theorem (2)(a): ruled over the projective line (toric)", ""),
        (lambda d: d.base_genus == 1 and d.base_is_ordinary, LIFTABLE,
         "main theorem (2)(b): ruled surfaces over an ordinary elliptic curve", ""),
        (lambda d: d.base_genus == 1, NOT_LIFTABLE,
         _BASE_LIFT + "a non-ordinary elliptic base fails", ""),
        (None, NOT_LIFTABLE, _BASE_LIFT + "genus >= 2 is excluded", ""),
    ),
    "abelian": (
        (lambda d: d.is_ordinary, LIFTABLE, "main theorem (1)(a): ordinary abelian surfaces", ""),
        (None, NOT_LIFTABLE, "main theorem (1)(a): a liftable Frobenius forces ordinarity, "
         "so non-ordinary abelian surfaces are excluded", ""),
    ),
    "K3": ((None, NOT_LIFTABLE, "torsion-canonical corollary (K3): a liftable surface contains "
            "no rational curves and has etale-trivializable cotangent bundle", ""),),
    "enriques": ((None, NOT_LIFTABLE, "torsion-canonical corollary (Enriques): every variant "
                  "carries rational curves, so no lift exists", ""),),
    "hyperelliptic": (
        (lambda d: not (d.E0_ordinary and d.E1_ordinary), NOT_LIFTABLE,
         "etale-cover necessity: both associated elliptic curves must be ordinary", ""),
        (lambda d: d.p in (2, 3) and d.hyperelliptic_type == "a" and d.omega_pow_p_minus_1_trivial,
         LIFTABLE, "main theorem (1)(b), liftability table row a, char {p}", ""),
        (lambda d: d.p in (2, 3) and d.hyperelliptic_type == "a", NOT_LIFTABLE,
         "main theorem (1)(b): omega^(p-1) triviality required, char {p}", ""),
        (lambda d: d.p in (2, 3), NOT_LIFTABLE, "liftability table row {t}, char {p}: one of the "
         "associated elliptic curves is supersingular, so no lift exists", ""),
        (lambda d: d.omega_pow_p_minus_1_trivial, LIFTABLE,
         "main theorem (1)(b), liftability table row {t}, char not in (2, 3) "
         "(omega condition read as binding for every type)", ""),
        (None, NOT_LIFTABLE,
         "main theorem (1)(b), liftability table row {t}: omega^(p-1) must be trivial", ""),
    ),
    "quasi_hyperelliptic": ((None, NOT_LIFTABLE, "torsion-canonical corollary "
                             "(quasi-hyperelliptic): the cuspidal rational fibration "
                             "rules out a lift", ""),),
    "properly_elliptic": ((None, NOT_LIFTABLE, _KAPPA, ""),),
    "general_type": ((None, NOT_LIFTABLE, _KAPPA, ""),),
}

def classify_surface(d: SurfaceDescriptor) -> Verdict:
    """Deterministic verdict for a valid descriptor."""
    if not isinstance(d, SurfaceDescriptor):
        raise DescriptorError(f"expected a SurfaceDescriptor, got {type(d).__name__}")
    d.validate()
    for condition, outcome, citation, note in CLAUSES[d.surface_class]:
        if condition is None or condition(d):
            return Verdict(outcome, citation.format(p=d.p, t=d.hyperelliptic_type, n=d.n), note)


# ---------------------------------------------------------------------------
# elliptic-curve ordinarity
# ---------------------------------------------------------------------------


class WeierstrassCurve:
    """y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 over F_p, nonsingular."""

    __slots__ = ("p", "field", "a1", "a2", "a3", "a4", "a6", "short")

    def __init__(self, p: int, a1=0, a2=0, a3=0, a4=0, a6=0):
        check_prime_char(p)
        self.p = p
        self.field = GF(p)
        f = self.field.from_int
        self.a1, self.a2, self.a3 = f(a1), f(a2), f(a3)
        self.a4, self.a6 = f(a4), f(a6)
        self.short = all(c.is_zero() for c in (self.a1, self.a2, self.a3))
        if self.discriminant().is_zero():
            raise SingularCurve(f"discriminant vanishes over F_{p}")

    @classmethod
    def short_form(cls, p: int, a: int, b: int) -> "WeierstrassCurve":
        if p < 3:
            raise SingularCurve("the short form is always singular in characteristic 2")
        return cls(p, a4=a, a6=b)

    def discriminant(self) -> FqElem:
        """-16(4a^3 + 27b^2) for a short form y^2 = x^3 + ax + b (Silverman III.1); else via b2..b8."""
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        if self.short:
            return -16 * (4 * a4 ** 3 + 27 * a6 * a6)
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return -(b2 * b2 * b8) - 8 * (b4 ** 3) - 27 * (b6 * b6) + 9 * b2 * b4 * b6

    def count_points(self) -> int:
        """#E(F_p), point at infinity included, in O(p) on the coefficient ints.

        For odd p, Y = 2y + a1*x + a3 is a bijection in y (2 is a unit), and
        it turns the equation into Y^2 = 4*(x^3 + a2*x^2 + a4*x + a6)
        + (a1*x + a3)^2.  So each x contributes the number of square roots of
        the right side, read from a table of square counts built once per
        call.  For p = 2 the four pairs (x, y) are enumerated.  Neither route
        uses the Hasse invariant, which this count checks.
        """
        p = self.p
        a1, a2, a3, a4, a6 = (c.n for c in (self.a1, self.a2, self.a3, self.a4, self.a6))
        if p == 2:
            return 1 + sum(
                (y * y + a1 * x * y + a3 * y - x * x * x - a2 * x * x - a4 * x - a6) % 2 == 0
                for x in (0, 1)
                for y in (0, 1)
            )
        roots = [0] * p
        for y in range(p):
            roots[y * y % p] += 1
        return 1 + sum(
            roots[(4 * (((x + a2) * x + a4) * x + a6) + (a1 * x + a3) ** 2) % p]
            for x in range(p)
        )

    def trace(self) -> int:
        return self.p + 1 - self.count_points()

    def __repr__(self):
        cs = ", ".join(
            f"a{k}={getattr(self, 'a' + str(k)).as_int()}" for k in (1, 2, 3, 4, 6)
        )
        return f"WeierstrassCurve(p={self.p}, {cs})"


def hasse_invariant(E: WeierstrassCurve) -> FqElem:
    """Coefficient of x^(p-1) in (x^3 + a*x + b)^((p-1)/2); zero means supersingular.

    Defined here for short-form curves with p >= 5 only; smaller
    characteristics go through the point-count oracle.  The one
    coefficient comes from ``polyalg.power_coefficient``; the power itself
    is never built.
    """
    if not isinstance(E, WeierstrassCurve):
        raise UnsupportedShape(f"expected a WeierstrassCurve, got {type(E).__name__}")
    if E.p < 5:
        raise UnsupportedField("the Hasse-invariant formula needs p >= 5")
    if not E.short:
        raise UnsupportedField("the Hasse-invariant formula needs the short form")
    field = E.field
    fx = Poly(field, 1, {(3,): field.one, (1,): E.a4, (0,): E.a6})
    return power_coefficient(fx, (E.p - 1) // 2, (E.p - 1,))


def is_ordinary_curve(E: WeierstrassCurve) -> bool:
    """Trace not divisible by p, by exhaustive point counting.

    For p >= 5 short-form curves the verdict must agree with the Hasse
    invariant; this is checked on every call.
    """
    if not isinstance(E, WeierstrassCurve):
        raise UnsupportedShape(f"expected a WeierstrassCurve, got {type(E).__name__}")
    ordinary = E.trace() % E.p != 0
    if E.p >= 5 and E.short and (not hasse_invariant(E).is_zero()) != ordinary:
        raise InvariantViolation(f"Hasse invariant and point count disagree on {E!r}")
    return ordinary


# ---------------------------------------------------------------------------
# golden table
# ---------------------------------------------------------------------------


def golden_table():
    """Frozen descriptor/verdict pairs covering every table cell and all clauses but one.

    Each descriptor is written as the JSON object ``frobctl classify --json``
    reads and goes through ``SurfaceDescriptor.from_json_dict``.  The expected
    citations are literal strings on purpose, so that any drift in ``CLAUSES``
    is caught; no row reaches type a's omega clause at p in {2, 3}.
    """
    hyp = {"E0_ordinary": True, "E1_ordinary": True, "omega_pow_p_minus_1_trivial": True}
    # (descriptor, outcome, citation[, note]); first the twelve hyperelliptic table cells
    rows = [
        ({"class": "hyperelliptic", "p": 5, "type": t, **hyp}, LIFTABLE,
         f"main theorem (1)(b), liftability table row {t}, char not in (2, 3) "
         "(omega condition read as binding for every type)")
        for t in HYPERELLIPTIC_TYPES
    ]
    for p in (3, 2):
        rows.append(({"class": "hyperelliptic", "p": p, "type": "a", **hyp}, LIFTABLE,
                     f"main theorem (1)(b), liftability table row a, char {p}"))
        rows += [
            ({"class": "hyperelliptic", "p": p, "type": t, **hyp}, NOT_LIFTABLE,
             f"liftability table row {t}, char {p}: one of the associated "
             "elliptic curves is supersingular, so no lift exists")
            for t in ("b", "c", "d")
        ]
    rows += [
        ({"class": "hyperelliptic", "p": 5, "type": "b", **hyp, "E1_ordinary": False},
         NOT_LIFTABLE, "etale-cover necessity: both associated elliptic curves must be ordinary"),
        ({"class": "hyperelliptic", "p": 7, "type": "c", **hyp,
          "omega_pow_p_minus_1_trivial": False}, NOT_LIFTABLE,
         "main theorem (1)(b), liftability table row c: omega^(p-1) must be trivial"),
        ({"class": "abelian", "p": 5, "is_ordinary": True}, LIFTABLE,
         "main theorem (1)(a): ordinary abelian surfaces"),
        ({"class": "abelian", "p": 3, "is_ordinary": False}, NOT_LIFTABLE,
         "main theorem (1)(a): a liftable Frobenius forces ordinarity, "
         "so non-ordinary abelian surfaces are excluded"),
        ({"class": "K3", "p": 5}, NOT_LIFTABLE,
         "torsion-canonical corollary (K3): a liftable surface contains no "
         "rational curves and has etale-trivializable cotangent bundle"),
        ({"class": "enriques", "p": 2, "variant": "classical"}, NOT_LIFTABLE,
         "torsion-canonical corollary (Enriques): every variant carries "
         "rational curves, so no lift exists"),
        ({"class": "quasi_hyperelliptic", "p": 3}, NOT_LIFTABLE,
         "torsion-canonical corollary (quasi-hyperelliptic): the cuspidal "
         "rational fibration rules out a lift"),
        *(({"class": c, "p": 5}, NOT_LIFTABLE,
           "main theorem, kappa >= 1: a lift would give a nonzero section of "
           "omega^(1-p^n) for all n, impossible for positive Kodaira dimension")
          for c in ("properly_elliptic", "general_type")),
        ({"class": "rational_P2", "p": 7}, LIFTABLE,
         "main theorem (2)(a): the projective plane is toric"),
        *(({"class": "rational_Fn", "p": 2, "n": n}, LIFTABLE,
           f"main theorem (2)(a): Hirzebruch surface F_{n} is toric (n >= 0, n != 1)")
          for n in (0, 2, 3)),
        ({"class": "rational_Fn", "p": 2, "n": 1}, OUT_OF_SCOPE,
         "main theorem (2)(a): n = 1 excluded", "non-minimal, excluded by n != 1"),
        ({"class": "ruled", "p": 5, "base_genus": 0}, LIFTABLE,
         "main theorem (2)(a): ruled over the projective line (toric)"),
        ({"class": "ruled", "p": 5, "base_genus": 1, "base_is_ordinary": True}, LIFTABLE,
         "main theorem (2)(b): ruled surfaces over an ordinary elliptic curve"),
        ({"class": "ruled", "p": 5, "base_genus": 1, "base_is_ordinary": False}, NOT_LIFTABLE,
         "base-lift proposition: the base must be the projective line or "
         "an ordinary elliptic curve; a non-ordinary elliptic base fails"),
        ({"class": "ruled", "p": 3, "base_genus": 2}, NOT_LIFTABLE,
         "base-lift proposition: the base must be the projective line or "
         "an ordinary elliptic curve; genus >= 2 is excluded"),
    ]
    return tuple((SurfaceDescriptor.from_json_dict(d), Verdict(*v)) for d, *v in rows)
