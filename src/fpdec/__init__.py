"""fpdec: primary decomposition of zero-dimensional ideals over prime fields."""

__version__ = "0.1.0"

from .errors import (
    ClosureError,
    FpdecError,
    NotZeroDimensionalError,
    OracleBoundError,
    ParseError,
    ProblemFileError,
    QuotientTooLargeError,
    UnitIdealError,
)
from .gf import PrimeField
from .groebner import GroebnerBasis, Ideal, buchberger, ideal_equal
from .idempotents import invariant_subspace, split_algebra
from .mpoly import MonomialOrder, Polynomial, PolyRing
from .primdec import Decomposition, primary_decomposition, verify
from .quotient import macaulay_basis
from .univar import Factorization, factor

__all__ = [
    "ClosureError",
    "Decomposition",
    "Factorization",
    "FpdecError",
    "GroebnerBasis",
    "Ideal",
    "MonomialOrder",
    "NotZeroDimensionalError",
    "OracleBoundError",
    "ParseError",
    "PolyRing",
    "Polynomial",
    "PrimeField",
    "ProblemFileError",
    "QuotientTooLargeError",
    "UnitIdealError",
    "__version__",
    "buchberger",
    "factor",
    "ideal_equal",
    "invariant_subspace",
    "macaulay_basis",
    "primary_decomposition",
    "split_algebra",
    "verify",
]
