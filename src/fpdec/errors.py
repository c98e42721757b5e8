"""Exception types shared across the package."""


class FpdecError(Exception):
    """Base class for all fpdec errors."""


class ParseError(FpdecError):
    """Syntax error in a polynomial expression.

    `position` is the 0-based character offset into the parsed text.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class ProblemFileError(FpdecError):
    """Malformed ideal/problem file. `line` and `column` are 1-based."""

    def __init__(self, message, line=None, column=None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + where)
        self.message = message
        self.line = line
        self.column = column


class NotZeroDimensionalError(FpdecError):
    """The quotient ring is not a finite-dimensional vector space."""


class UnitIdealError(FpdecError):
    """The ideal is the whole ring; there is nothing to decompose."""


class QuotientTooLargeError(FpdecError):
    """The quotient F_p[x]/I has more standard monomials than
    quotient.MAX_QUOTIENT_DIMENSION; the dense n x n matrices are never built."""


class ClosureError(FpdecError):
    """Internal consistency failure: a subspace expected to be closed under
    multiplication (and nilpotent-free) is not."""


class OracleBoundError(FpdecError):
    """A brute-force oracle was asked to enumerate beyond its configured ceiling."""
