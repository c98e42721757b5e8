"""Univariate factorization over F_p through primary decomposition.

The primary components of <f> are powers of the distinct irreducible
factors of f, so decomposing <f> factors f into pairwise coprime primary
factors.  Powers are NOT split into repeated irreducibles; a factor here
is the monic generator of one primary component.
"""

from .errors import FpdecError
from .groebner import Ideal
from .primdec import primary_decomposition


class Factorization:
    """f = lead * product(factors) with monic pairwise-coprime factors."""

    __slots__ = ("input", "lead", "factors")

    def __init__(self, input_poly, lead, factors):
        self.input = input_poly
        self.lead = lead
        self.factors = tuple(factors)

    @property
    def t(self):
        return len(self.factors)

    def product(self):
        out = self.input.ring.constant(self.lead)
        for f in self.factors:
            out = out * f
        return out

    def __repr__(self):
        return "Factorization(" + format_factorization(self) + ")"


def factor(f):
    """Primary factors of a nonconstant univariate polynomial."""
    ring = f.ring
    if ring.nvars != 1:
        raise ValueError("factor() requires a univariate polynomial")
    if f.is_constant:
        raise ValueError("cannot factor a constant polynomial")
    lead = f.lc()
    decomposition = primary_decomposition(Ideal(ring, [f.monic()]))
    factors = []
    for comp in decomposition.components:
        gb = comp.groebner_basis()
        if len(gb) != 1:
            # impossible for a reduced univariate GB; guards internal breakage
            raise FpdecError("primary component of a principal ideal is not principal")
        factors.append(gb[0])
    factors.sort(key=lambda g: (g.total_degree(), str(g)))
    return Factorization(f, lead, factors)


def format_factorization(fact):
    parts = [f"({g})" for g in fact.factors]
    body = "*".join(parts)
    if fact.lead != 1:
        body = f"{fact.lead}*{body}"
    return body
