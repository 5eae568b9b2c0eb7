"""Exception types shared across the package."""


class AlgebraError(Exception):
    """Base class for every error raised by this package."""


class CharMismatch(AlgebraError):
    """Operands live over different characteristics or fields."""


class UnsupportedField(AlgebraError):
    """The requested field is outside the supported desk-scale range."""


class NotDivisible(AlgebraError):
    """A coefficient is not divisible by p where division by p was requested."""


class RingMismatch(AlgebraError):
    """Polynomials over different coefficient rings (or variable counts) were combined.

    Also raised for an element handed to a map that is not defined on its ring.
    """


class ShapeError(AlgebraError):
    """A matrix or argument sequence has the wrong shape."""


class UnsupportedShape(AlgebraError):
    """The input is structurally outside what the operation supports (e.g. Laurent input)."""


class RangeError(AlgebraError):
    """An exponent entry lies outside the required range."""


class DegreeTooHigh(AlgebraError):
    """The fiber degree exceeds the 2p bound, so no chart extension exists."""


class UnitError(AlgebraError):
    """Inversion was requested for an element that is not a unit."""


class InvariantViolation(AlgebraError):
    """A structural invariant that should always hold was observed to fail."""


class DescriptorError(AlgebraError):
    """A surface descriptor is malformed or internally inconsistent."""


class SingularCurve(AlgebraError):
    """The Weierstrass data defines a singular curve."""


class ParseError(AlgebraError):
    """A serialized polynomial or element could not be parsed."""
