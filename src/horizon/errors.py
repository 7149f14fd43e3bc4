"""Exception and warning types shared across the package."""

from __future__ import annotations


class HorizonError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HorizonError, ValueError):
    """Evaluation outside the admissible domain (negative base under a
    fractional or negative exponent)."""


class ParseError(HorizonError, ValueError):
    """Malformed textual input.  Carries 1-based line/column positions, or
    ``line`` None for an error that belongs to no line."""

    def __init__(self, message: str, line: int | None = None, col: int = 1):
        super().__init__(message if line is None else f"line {line} col {col}: {message}")
        self.line = line
        self.col = col


class ParameterError(HorizonError, ValueError):
    """A case parameter that is unknown, mistyped or out of range."""


class NonPolynomialError(HorizonError, ValueError):
    """An operation requiring nonnegative integer exponents met a negative
    or fractional one."""


class ResidualSingularityError(HorizonError, ArithmeticError):
    """The field does not extend to the horizon: it is not asymptotically
    quasi-homogeneous of the type a chart uses (a type of the wrong length,
    a term above the type's degree, or no term reaching it; see
    :func:`horizon.structure.certify_type`), has no single type at infinity
    (:func:`horizon.structure.type_at_infinity`), or desingularization left
    a negative power of the radial variable."""


class ClosureError(HorizonError, ArithmeticError):
    """A quasi-polar pushforward could not be reduced to a polynomial in
    (r, Cs, Sn)."""


class SignError(HorizonError, ArithmeticError):
    """A time-rescale factor failed its positivity certificate on the declared
    domain sector."""


class DegenerateBeyondDegreeError(HorizonError, RuntimeError):
    """A center-manifold reduced flow vanished to the requested degree.

    The partially computed series is attached as ``series``.
    """

    def __init__(self, message: str, series=None):
        super().__init__(message)
        self.series = series


class StepBudgetError(HorizonError, RuntimeError):
    """An integration used its whole step budget before reaching tau_end."""


class AmbiguousTailError(HorizonError, RuntimeError):
    """Neither an exponential nor a power model fits the time-integrand tail."""


class InsufficientSpanError(HorizonError, ValueError):
    """Rate-fit samples do not span enough decades (or are too few)."""


class CollinearityWarning(UserWarning):
    """The log-log correction exponent q is indeterminate on this window."""
