"""Frobenius-invariant subalgebra and its primitive idempotents.

V = Ker(f -> f^p - f) inside F_p[x]/I is a product of t copies of F_p,
where t is the number of primary components.  split_algebra breaks V into
its t one-dimensional pieces and returns the normalized idempotent of each
piece: for a piece spanned by g with g^2 = k*g, the idempotent is k^{-1}*g.

Splitting is deterministic: take the first basis element of a block (in
RREF row order) whose multiplication map on the block is not scalar and
cut the block into eigenspaces of that map.  Every element w of V
satisfies w^p = w, so each multiplication map is diagonalizable with all
eigenvalues in F_p and the recursion always terminates.
"""

from .errors import ClosureError
from .gf import Matrix, kernel_basis, mat_mul, row_space, solve
from .quotient import QuotientElement, coords_vector, frobenius_matrix, from_coords


class Subalgebra:
    """A multiplicatively closed subspace of F_p[x]/I, basis kept in RREF."""

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient, rows):
        self.ambient = ambient
        reduced = row_space([list(r) for r in rows], ambient.ring.field)
        self.rows = tuple(tuple(r) for r in reduced)
        self.pivots = tuple(next(j for j, v in enumerate(r) if v) for r in self.rows)

    @property
    def dimension(self):
        return len(self.rows)

    def element(self, i):
        return from_coords(self.rows[i], self.ambient)

    def elements(self):
        return [self.element(i) for i in range(self.dimension)]

    def coords_in(self, vec):
        """Coefficients of vec on the RREF rows; ClosureError if outside."""
        p = self.ambient.ring.p
        coeffs = [vec[pc] % p for pc in self.pivots]
        residual = list(vec)
        for c, row in zip(coeffs, self.rows):
            if c:
                residual = [(r - c * v) % p for r, v in zip(residual, row)]
        if any(residual):
            raise ClosureError("element falls outside the subalgebra")
        return coeffs

    def contains_vector(self, vec):
        try:
            self.coords_in(vec)
        except ClosureError:
            return False
        return True

    def __repr__(self):
        return f"Subalgebra(dim {self.dimension} of dim {self.ambient.dimension})"


class IdempotentSet:
    """The t primitive idempotents, sorted by their canonical polynomials."""

    __slots__ = ("elements",)

    def __init__(self, elements):
        self.elements = tuple(elements)

    def polynomials(self):
        return [e.to_polynomial() for e in self.elements]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def __repr__(self):
        return "IdempotentSet([" + ", ".join(str(p) for p in self.polynomials()) + "])"


def invariant_subspace(qb):
    """Ker(Psi_I) as a Subalgebra; its dimension is the component count."""
    return Subalgebra(qb, kernel_basis(frobenius_matrix(qb)))


def _mult_vec(u, v, qb):
    """Coordinates of the product of two coordinate vectors."""
    return coords_vector(from_coords(u, qb) * from_coords(v, qb), qb)


def _phi_matrix(w, rows, qb):
    """Matrix of multiplication by w on the block spanned by rows.

    Column j holds the coefficients of w * rows[j] on rows; a product
    escaping the block raises ClosureError.
    """
    field = qb.ring.field
    block = Matrix(field, [list(r) for r in rows], cols=qb.dimension).transpose()
    cols = []
    for row in rows:
        prod = _mult_vec(w, row, qb)
        c = solve(block, prod)
        if c is None:
            raise ClosureError("product escaped the block during splitting")
        cols.append(c)
    d = len(rows)
    return Matrix(field, [[cols[j][i] for j in range(d)] for i in range(d)], cols=d)


def restricted_mult_matrix(w, basis_polys, qb):
    """Matrix of multiplication by w on an explicit (not necessarily RREF)
    basis of a subalgebra; column convention as everywhere else."""
    rows = [tuple(coords_vector(b, qb)) for b in basis_polys]
    return _phi_matrix(coords_vector(w, qb), rows, qb)


def _is_scalar(m):
    lam = m.entries[0][0]
    n = m.rows
    return all(
        m.entries[i][j] == (lam if i == j else 0) for i in range(n) for j in range(n)
    )


def _normalize(row, qb):
    """Idempotent of the one-dimensional algebra spanned by row."""
    p = qb.ring.p
    field = qb.ring.field
    sq = _mult_vec(row, row, qb)
    j = next((i for i, v in enumerate(row) if v), None)
    if j is None or not any(sq):
        raise ClosureError("nilpotent element in a supposedly semisimple algebra")
    k = (sq[j] * field.inv(row[j])) % p
    if k == 0 or any((k * a) % p != b for a, b in zip(row, sq)):
        raise ClosureError("one-dimensional block is not closed under squaring")
    kinv = field.inv(k)
    return tuple((kinv * a) % p for a in row)


def _eigensplit(rows, a_mat, qb):
    """Cut a block along the eigenspaces of a non-scalar multiplication map."""
    p = qb.ring.p
    field = qb.ring.field
    d = len(rows)
    blocks = []
    found = 0
    for lam in _eigenvalues(a_mat, p):
        shifted = Matrix(
            field,
            [
                [(a_mat.entries[i][j] - (lam if i == j else 0)) % p for j in range(d)]
                for i in range(d)
            ],
            cols=d,
        )
        ker = kernel_basis(shifted)
        sub_rows = []
        for c in ker:
            vec = [0] * qb.dimension
            for ci, row in zip(c, rows):
                if ci:
                    vec = [(v + ci * r) % p for v, r in zip(vec, row)]
            sub_rows.append(vec)
        blocks.append(row_space(sub_rows, field))
        found += len(ker)
    if found != d:
        raise ClosureError("multiplication map failed to diagonalize")
    return blocks


def split_algebra(v):
    """Primitive idempotents of a semisimple subalgebra of F_p[x]/I."""
    qb = v.ambient
    idempotents = []
    stack = [list(v.rows)]
    while stack:
        rows = stack.pop()
        if len(rows) == 1:
            idempotents.append(_normalize(rows[0], qb))
            continue
        for w in rows:
            a_mat = _phi_matrix(w, rows, qb)
            if not _is_scalar(a_mat):
                stack.extend(_eigensplit(rows, a_mat, qb))
                break
        else:
            # every multiplication scalar on a 2+ dim block: not semisimple
            raise ClosureError("block admits no splitting element")
    elems = [QuotientElement(qb, h) for h in idempotents]
    elems.sort(key=lambda e: str(e.to_polynomial()))
    return IdempotentSet(elems)


# -- eigenvalue extraction ---------------------------------------------------
#
# Dense univariate helpers over F_p, ascending coefficient lists.  The sizes
# involved are the block dimension, never p.


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a, b, p):
    """Quotient and remainder of a by a nonzero trimmed b."""
    r = _poly_trim(list(a))
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(len(r) - db, 0)
    while len(r) - 1 >= db:
        c = (r[-1] * inv) % p
        shift = len(r) - 1 - db
        q[shift] = c
        for i, bi in enumerate(b):
            r[shift + i] = (r[shift + i] - c * bi) % p
        _poly_trim(r)
    return _poly_trim(q), r


def _poly_mulmod(a, b, m, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_divmod(out, m, p)[1]


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while _poly_trim(b):
        a, b = b, _poly_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _poly_powmod(base, e, m, p):
    result = [1]
    base = _poly_divmod(base, m, p)[1]
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, m, p)
        e >>= 1
        if e:
            base = _poly_mulmod(base, base, m, p)
    return result


def _minimal_polynomial(a_mat, p):
    """Minimal polynomial of a matrix via the first dependent power."""
    d = a_mat.rows
    field = a_mat.field
    powers = [Matrix.identity(field, d)]
    rows = [sum(powers[0].entries, [])]
    while True:
        nxt = mat_mul(powers[-1], a_mat)
        powers.append(nxt)
        rows.append(sum(nxt.entries, []))
        stacked = Matrix(field, [list(r) for r in rows], cols=d * d)
        ker = kernel_basis(stacked.transpose())
        if ker:
            c = ker[0]
            return _poly_trim([ci % p for ci in c])


def _roots(m, p):
    """All roots in F_p of a squarefree product of linear factors.

    Splits with gcd(m, (x+c)^((p-1)/2) - 1) for c = 0, 1, 2, ...; every
    root of m lies in F_p by construction so the recursion is total.
    """
    m = list(m)
    if len(m) - 1 <= 0:
        return []
    if p < 30:
        # tiny fields, p = 2 included: the split below needs odd p, and a
        # plain scan of the field is cheaper anyway
        return [a for a in range(p) if _horner(m, a, p) == 0]
    inv = pow(m[-1], p - 2, p)
    m = [(c * inv) % p for c in m]
    if len(m) == 2:
        return [-m[0] % p]
    if m[0] == 0:
        rest = _poly_trim(m[1:])
        return sorted([0] + _roots(rest, p))
    # about half of all shifts c split m, so this stops after a few tries
    for c in range(p):
        base = [c, 1]
        g = _poly_powmod(base, (p - 1) // 2, m, p)
        g = _poly_trim([(g[0] - 1) % p if g else p - 1] + g[1:])
        g = _poly_gcd(m, g, p)
        if 0 < len(g) - 1 < len(m) - 1:
            q = _poly_divmod(m, g, p)[0]
            return sorted(_roots(g, p) + _roots(q, p))
    raise ClosureError("root extraction failed to split")


def _horner(m, a, p):
    acc = 0
    for c in reversed(m):
        acc = (acc * a + c) % p
    return acc


def _eigenvalues(a_mat, p):
    """Distinct eigenvalues in F_p: the roots of gcd(min poly, x^p - x)."""
    m = _minimal_polynomial(a_mat, p)
    xp = _poly_powmod([0, 1], p, m, p)
    # x^p - x mod m
    diff = list(xp)
    while len(diff) < 2:
        diff.append(0)
    diff[1] = (diff[1] - 1) % p
    return _roots(_poly_gcd(m, _poly_trim(diff), p), p)
