"""Exception types shared across the library.

Decision procedures distinguish a *negative answer* (returned as None or
False) from a *failure to answer*.  Only the latter raises.
"""


class ZkitError(Exception):
    """Base class for all errors raised by this package."""

    @property
    def kind(self) -> str:
        return type(self).__name__


class RingMismatch(ZkitError):
    """Operands belong to different rings."""


class BaseMismatch(ZkitError):
    """Fractions over different base rings or denominator elements."""


class UnknownVariable(ZkitError):
    """An expression mentions a variable the ring does not declare."""


class NonInvertibleDenominator(ZkitError):
    """A rational coefficient whose denominator is not a unit here."""


class NotWellDefined(ZkitError):
    """A would-be homomorphism fails a relation or base-compatibility check."""


class InvalidRing(ZkitError, ValueError):
    """A ring description names no supported ring (a modulus below 2, a
    field size that is not prime, repeated variable names)."""


class InvariantViolated(ZkitError, AssertionError):
    """An internal consistency check failed: a witness the library built
    itself did not re-verify.  This is a bug in zkit, never in the input."""


class InvalidWitness(ZkitError):
    """A supplied witness (e.g. an inverse) does not verify."""


class UnsupportedBase(ZkitError):
    """The operation needs a polynomial presentation this ring lacks."""


class CodomainNotFinite(ZkitError):
    """Enumeration requested over a ring without a finite element set."""


class NotUnimodular(ZkitError):
    """The given elements do not generate the unit ideal."""


class IncompatibleFamily(ZkitError):
    """A family fails its pairwise compatibility conditions."""


class ResourceExceeded(ZkitError):
    """A configured work cap (pairs, basis size, exponent search) was hit."""


class ScriptSyntaxError(ZkitError):
    """Parse error in a script, with source position."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{line}:{column}: {message}" if line else message)
        self.line = line
        self.column = column


class UnknownName(ZkitError):
    """A script references a name that was never bound."""


class TypeMismatch(ZkitError):
    """A script applies an operation to a value of the wrong sort."""
