"""Exception types shared across the toolkit.

Every numerical-contract violation raises a subclass of NumericsError so
callers (in particular the CLI) can distinguish bad input from a genuine
numerical failure.
"""


class NumericsError(Exception):
    """Base class for all contract violations raised by this package."""


class ShapeMismatch(NumericsError):
    """Operands have incompatible dimensions."""


class BadDimension(NumericsError):
    """A size parameter is outside the valid range for the requested object."""


class RankDeficient(NumericsError):
    """A factorization found the input numerically rank deficient."""


class SingularTriangular(NumericsError):
    """A triangular solve met a diagonal entry too small to divide by."""


class DependentVectors(NumericsError):
    """Two vectors expected to be independent are numerically parallel."""


class NotSymmetric(NumericsError):
    """A matrix required to be symmetric is not, beyond round-off."""


class SingularCore(NumericsError):
    """The invertible core of a composed regularizer is numerically singular."""


class SingularSystem(NumericsError):
    """A dense linear system could not be solved reliably."""


class NoRoot(NumericsError):
    """A scalar root finder could not bracket the requested value."""


class OutOfRange(NumericsError):
    """A finite result lies beyond the largest float."""


class ParseError(NumericsError):
    """A text file does not conform to the matrix/vector format."""


class ConfigError(Exception):
    """Bad flags, config file, or argument combination (exit code 2)."""
