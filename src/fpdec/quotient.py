"""The quotient algebra F_p[x]/I as a finite-dimensional vector space.

Given a reduced Groebner basis of a zero-dimensional ideal, the standard
monomials (those divisible by no leading term) form a vector-space basis,
the Macaulay basis.  It is kept sorted descending in the active order, and
every matrix here is indexed by it: column j holds the coordinates of the
image of the j-th basis monomial.
"""

from .errors import NotZeroDimensionalError, QuotientTooLargeError
from .gf import Matrix
from .mpoly import Polynomial, monomial_divides

# Largest quotient dimension n accepted.  The pipeline builds dense n x n
# matrices over F_p and row-reduces them in pure Python: factoring a random
# degree-n polynomial over F_32003 took 0.9 s at n = 64, 4.8 s at n = 128
# and 38 s at n = 256 (one run each on a shared 2-vCPU host), so anything
# larger would run for minutes with no output.  Every test and benchmark
# input stays far below it.
MAX_QUOTIENT_DIMENSION = 256


def _pure_power_degrees(gb):
    """Minimal pure-power leading exponents per variable, or None if missing."""
    n = gb.ring.nvars
    degs = [None] * n
    for lm in gb.leading_monomials():
        nz = [i for i, e in enumerate(lm) if e]
        if len(nz) == 1:
            i = nz[0]
            if degs[i] is None or lm[i] < degs[i]:
                degs[i] = lm[i]
    return degs


def is_zero_dimensional(gb):
    """Every variable appears as a pure power among the leading terms.

    The unit ideal counts as zero-dimensional (empty quotient).
    """
    if gb.is_unit:
        return True
    if gb.is_zero:
        return False
    return all(d is not None for d in _pure_power_degrees(gb))


class QuotientBasis:
    """Macaulay basis of F_p[x]/I: standard monomials, descending."""

    __slots__ = ("gb", "monomials", "_index")

    def __init__(self, gb, monomials):
        self.gb = gb
        self.monomials = tuple(monomials)
        self._index = {m: i for i, m in enumerate(self.monomials)}

    @property
    def ring(self):
        return self.gb.ring

    @property
    def dimension(self):
        return len(self.monomials)

    def index_of(self, exps):
        return self._index[tuple(exps)]

    def monomial_poly(self, j):
        return Polynomial(self.ring, ((self.monomials[j], 1),))

    def __len__(self):
        return len(self.monomials)

    def __repr__(self):
        names = [str(self.monomial_poly(j)) for j in range(len(self))]
        return "QuotientBasis({" + ", ".join(names) + "})"


def macaulay_basis(gb):
    """All standard monomials of a zero-dimensional reduced GB.

    The unit ideal yields an empty basis; otherwise 1 is always a member.
    The standard monomials are closed under division, so they are grown
    from 1 by multiplying with one variable at a time; the walk stops with
    QuotientTooLargeError as soon as it passes MAX_QUOTIENT_DIMENSION.
    """
    if gb.is_unit:
        return QuotientBasis(gb, ())
    if not is_zero_dimensional(gb):
        raise NotZeroDimensionalError(
            "ideal is not zero-dimensional (missing pure-power leading term)"
        )
    leads = gb.leading_monomials()
    ring = gb.ring
    one = (0,) * ring.nvars
    standard = [one]
    seen = {one}
    for m in standard:  # grows while it is walked
        for k in range(ring.nvars):
            nxt = m[:k] + (m[k] + 1,) + m[k + 1 :]
            if nxt in seen:
                continue
            seen.add(nxt)
            if any(monomial_divides(lm, nxt) for lm in leads):
                continue
            standard.append(nxt)
            if len(standard) > MAX_QUOTIENT_DIMENSION:
                raise QuotientTooLargeError(
                    "quotient dimension exceeds MAX_QUOTIENT_DIMENSION = "
                    f"{MAX_QUOTIENT_DIMENSION}"
                )
    standard.sort(key=lambda e: ring.order.key(e), reverse=True)
    return QuotientBasis(gb, standard)


class QuotientElement:
    """An element of F_p[x]/I as a coordinate vector on the Macaulay basis."""

    __slots__ = ("basis", "coords")

    def __init__(self, basis, coords):
        coords = tuple(c % basis.ring.p for c in coords)
        if len(coords) != basis.dimension:
            raise ValueError("coordinate vector has the wrong length")
        self.basis = basis
        self.coords = coords

    @property
    def is_zero(self):
        return not any(self.coords)

    def to_polynomial(self):
        return from_coords(self.coords, self.basis)

    def __add__(self, other):
        p = self.basis.ring.p
        return QuotientElement(
            self.basis, [(a + b) % p for a, b in zip(self.coords, other.coords)]
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return QuotientElement(self.basis, [other * c for c in self.coords])
        prod = multiply_mod(self.to_polynomial(), other.to_polynomial(), self.basis)
        return to_coords(prod, self.basis)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, QuotientElement)
            and self.basis.monomials == other.basis.monomials
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"QuotientElement({self.to_polynomial()})"


def coords_vector(f, qb):
    """Raw coordinate list of NF(f) on the Macaulay basis."""
    nf = qb.gb.normal_form(f)
    v = [0] * qb.dimension
    for exps, c in nf.terms:
        v[qb.index_of(exps)] = c
    return v


def to_coords(f, qb):
    """Coordinates of NF(f) on the Macaulay basis."""
    return QuotientElement(qb, coords_vector(f, qb))


def from_coords(coords, qb):
    """Canonical representative polynomial of a coordinate vector."""
    if isinstance(coords, QuotientElement):
        coords = coords.coords
    if len(coords) != qb.dimension:
        raise ValueError("coordinate vector has the wrong length")
    return qb.ring.from_terms(
        [(qb.monomials[i], c) for i, c in enumerate(coords) if c % qb.ring.p]
    )


def multiply_mod(f, g, qb):
    """NF(f * g), staying inside span(B)."""
    return qb.gb.normal_form(f * g)


def pow_mod(f, e, qb):
    """NF(f^e) by left-to-right square-and-multiply, reducing after every
    product.  Every multiply step is by NF(f) itself, which is a one-term
    shift when f is a variable."""
    if e == 0:
        return qb.ring.one()
    base = qb.gb.normal_form(f)
    result = base
    for bit in bin(e)[3:]:
        result = qb.gb.normal_form(result * result)
        if bit == "1":
            result = qb.gb.normal_form(result * base)
    return result


def mult_matrix(f, qb):
    """Matrix of multiplication by f: column j = coords(f * B_j)."""
    n = qb.dimension
    fr = qb.gb.normal_form(f)
    cols = [coords_vector(fr * qb.monomial_poly(j), qb) for j in range(n)]
    return Matrix(
        qb.ring.field, [[cols[j][i] for j in range(n)] for i in range(n)], cols=n
    )


def frobenius_matrix(qb):
    """Matrix of f -> f^p - f on the Macaulay basis.

    f -> f^p is a ring map of F_p[x]/I, so (m * x_k)^p = m^p * x_k^p.  With
    x_k^p computed once per variable, the basis is visited by increasing
    total degree and each image is one product away from that of m / x_k,
    itself a standard monomial of lower degree.  With one variable this is
    Berlekamp's Q-matrix.
    """
    n = qb.dimension
    ring = qb.ring
    xp = [pow_mod(ring.variable(k), ring.p, qb) for k in range(ring.nvars)]
    image = {}
    for m in sorted(qb.monomials, key=sum):
        k = next((i for i, e in enumerate(m) if e), None)
        if k is None:
            image[m] = ring.one()
        else:
            prev = m[:k] + (m[k] - 1,) + m[k + 1 :]
            image[m] = qb.gb.normal_form(image[prev] * xp[k])
    cols = [
        coords_vector(image[m] - qb.monomial_poly(j), qb)
        for j, m in enumerate(qb.monomials)
    ]
    return Matrix(
        qb.ring.field, [[cols[j][i] for j in range(n)] for i in range(n)], cols=n
    )
