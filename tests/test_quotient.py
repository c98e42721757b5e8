import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fpdec.errors import NotZeroDimensionalError, QuotientTooLargeError
from fpdec.gf import Matrix, mat_mul
from fpdec.groebner import Ideal, buchberger
from fpdec.mpoly import PolyRing, monomial_divides
from fpdec.quotient import (
    MAX_QUOTIENT_DIMENSION,
    QuotientElement,
    coords_vector,
    frobenius_matrix,
    from_coords,
    is_zero_dimensional,
    macaulay_basis,
    mult_matrix,
    multiply_mod,
    pow_mod,
    to_coords,
)

from conftest import random_polynomial

BIG_PRIME = 2**31 - 1

# (variables, generators).  The multivariate ideals have a mixed leading
# term such as x*y in most (order, p) pairs, the third in all of them, so
# their Macaulay basis is not the box below the pure powers.
RING_MAP_CASES = [
    ("x", ["x^6 + x^5 + x^4 + 2"]),
    ("x y", ["x^2 - y", "x*y - 1", "y^2 - x"]),
    ("x y", ["x^3 + y", "y^3 + x*y", "x^2*y^2"]),
    ("x y z", ["x^2 + y*z", "y^2 + x*z + 1", "z^2 + x*y"]),
]

# transformation f -> f^3 - f on the residue classes of
# x^5, x^4, x^3, x^2, x, 1 modulo x^6 + x^5 + x^4 + 2 over F_3
SEXTIC_FROBENIUS = [
    [0, 0, 2, 2, 0, 0],
    [0, 0, 2, 2, 0, 0],
    [2, 1, 0, 0, 1, 0],
    [0, 2, 2, 2, 0, 0],
    [1, 0, 0, 0, 2, 0],
    [0, 2, 1, 1, 0, 0],
]


def test_macaulay_basis_of_running_example(ring5, example1):
    qb = macaulay_basis(example1.groebner_basis())
    assert qb.dimension == 6
    assert qb.monomials == (
        (0, 1, 0),
        (0, 0, 4),
        (0, 0, 3),
        (0, 0, 2),
        (0, 0, 1),
        (0, 0, 0),
    )
    assert str(qb.monomial_poly(0)) == "y"
    assert qb.index_of((0, 0, 2)) == 3
    assert len(qb) == 6


def test_zero_dimensionality_detection(ring5, example1):
    assert is_zero_dimensional(example1.groebner_basis())
    curve = buchberger([ring5.parse("y^2 - x*z")])
    assert not is_zero_dimensional(curve)
    with pytest.raises(NotZeroDimensionalError):
        macaulay_basis(curve)
    assert not is_zero_dimensional(buchberger([ring5.zero()]))
    unit = buchberger([ring5.one()])
    assert is_zero_dimensional(unit)
    assert macaulay_basis(unit).dimension == 0


def test_single_point_quotient():
    r = PolyRing(5, ["x"], "lex")
    qb = macaulay_basis(buchberger([r.parse("x - 1")]))
    assert qb.monomials == ((0,),)
    assert coords_vector(r.parse("x^3 + x"), qb) == [2]


def test_frobenius_matrix_of_sextic(example3):
    qb = macaulay_basis(Ideal.of(example3).groebner_basis())
    assert frobenius_matrix(qb).entries == SEXTIC_FROBENIUS


def direct_frobenius(qb):
    """Column j = coords(b_j^p - b_j), one pow_mod per basis monomial."""
    n = qb.dimension
    cols = []
    for j in range(n):
        b = qb.monomial_poly(j)
        cols.append(coords_vector(pow_mod(b, qb.ring.p, qb) - b, qb))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def box_standard_monomials(gb):
    """Standard monomials found by scanning the whole exponent box."""
    leads = gb.leading_monomials()
    degs = [max(lm[i] for lm in leads) for i in range(gb.ring.nvars)]
    box = [()]
    for d in degs:
        box = [m + (e,) for m in box for e in range(d)]
    standard = [m for m in box if not any(monomial_divides(lm, m) for lm in leads)]
    return tuple(sorted(standard, key=gb.ring.order.key, reverse=True))


@pytest.mark.parametrize("p", [2, 7, BIG_PRIME])
@pytest.mark.parametrize("order", ["lex", "grevlex"])
@pytest.mark.parametrize("names,gens", RING_MAP_CASES)
def test_frobenius_matrix_matches_direct_definition(names, gens, order, p):
    ring = PolyRing(p, names.split(), order)
    gb = buchberger([ring.parse(g) for g in gens])
    qb = macaulay_basis(gb)
    assert qb.monomials == box_standard_monomials(gb)
    assert frobenius_matrix(qb).entries == direct_frobenius(qb)


def test_macaulay_basis_of_non_box_ideal():
    ring = PolyRing(7, ["x", "y"], "lex")
    qb = macaulay_basis(buchberger([ring.parse(g) for g in RING_MAP_CASES[2][1]]))
    assert qb.monomials == ((2, 0), (1, 0), (0, 1), (0, 0))


@st.composite
def small_ideals(draw):
    p = draw(st.sampled_from([2, 3, 101, BIG_PRIME]))
    nvars = draw(st.integers(2, 3))
    order = draw(st.sampled_from(["lex", "grevlex"]))
    ring = PolyRing(p, ["x", "y", "z"][:nvars], order)
    exps = st.tuples(*[st.integers(0, 4 - nvars)] * nvars)
    term = st.tuples(exps, st.integers(1, p - 1))
    poly = st.lists(term, min_size=2, max_size=4)
    gens = draw(st.lists(poly, min_size=nvars, max_size=nvars))
    return buchberger([ring.from_terms(terms) for terms in gens])


@settings(max_examples=40, deadline=None)
@given(small_ideals())
def test_frobenius_matrix_property(gb):
    assume(not gb.is_unit and is_zero_dimensional(gb))
    qb = macaulay_basis(gb)
    assert qb.monomials == box_standard_monomials(gb)
    assert frobenius_matrix(qb).entries == direct_frobenius(qb)


def test_quotient_dimension_bound():
    r1 = PolyRing(101, ["x"], "lex")
    r2 = PolyRing(101, ["x", "y"], "grevlex")
    assert MAX_QUOTIENT_DIMENSION == 256
    for ring, gens in ((r1, ["x^256 - x"]), (r2, ["x^16", "y^16"])):
        gb = buchberger([ring.parse(g) for g in gens])
        assert macaulay_basis(gb).dimension == 256
    for ring, gens in (
        (r1, ["x^257 - x"]),
        (r2, ["x^16", "y^17"]),
        (r2, ["x^3000", "y^3000", "x*y"]),
    ):
        with pytest.raises(QuotientTooLargeError):
            macaulay_basis(buchberger([ring.parse(g) for g in gens]))


def test_frobenius_matrix_is_the_frobenius_map(example1):
    qb = macaulay_basis(example1.groebner_basis())
    m = frobenius_matrix(qb)
    ring = qb.ring
    rng = random.Random(11)
    for _ in range(12):
        f = random_polynomial(ring, rng, max_exp=3, terms=4)
        image = pow_mod(f, ring.p, qb) - qb.gb.normal_form(f)
        v = coords_vector(f, qb)
        applied = [
            sum(m.entries[i][j] * v[j] for j in range(6)) % ring.p for i in range(6)
        ]
        assert applied == coords_vector(image, qb)


def test_frobenius_is_linear(example3):
    # additive, and scalars are fixed points of x -> x^p
    qb = macaulay_basis(Ideal.of(example3).groebner_basis())
    ring = qb.ring
    rng = random.Random(3)
    p = ring.p
    for _ in range(10):
        f = random_polynomial(ring, rng, max_exp=5, terms=3)
        g = random_polynomial(ring, rng, max_exp=5, terms=3)
        c = rng.randrange(1, p)
        psi = lambda h: pow_mod(h, p, qb) - qb.gb.normal_form(h)
        assert psi(f + g) == qb.gb.normal_form(psi(f) + psi(g))
        assert psi(f * c) == qb.gb.normal_form(psi(f) * c)


def test_mult_matrix_properties(example1):
    qb = macaulay_basis(example1.groebner_basis())
    ring = qb.ring
    field = ring.field
    assert mult_matrix(ring.one(), qb).entries == Matrix.identity(field, 6).entries
    assert all(
        not any(row) for row in mult_matrix(ring.parse("x + y + z - 1"), qb).entries
    )
    rng = random.Random(7)
    for _ in range(8):
        f = random_polynomial(ring, rng, max_exp=3, terms=3)
        g = random_polynomial(ring, rng, max_exp=3, terms=3)
        mf, mg = mult_matrix(f, qb), mult_matrix(g, qb)
        assert mult_matrix(f * g, qb).entries == mat_mul(mf, mg).entries
        # the matrix vanishes exactly when f lies in the ideal
        assert any(any(row) for row in mf.entries) == (not qb.gb.normal_form(f).is_zero)


def test_coordinate_roundtrip(example1):
    qb = macaulay_basis(example1.groebner_basis())
    ring = qb.ring
    rng = random.Random(23)
    for _ in range(15):
        f = random_polynomial(ring, rng, max_exp=4, terms=5)
        e = to_coords(f, qb)
        assert from_coords(e, qb) == qb.gb.normal_form(f)
        v = [rng.randrange(5) for _ in range(6)]
        assert coords_vector(from_coords(v, qb), qb) == v
    with pytest.raises(ValueError):
        from_coords([1, 2], qb)
    with pytest.raises(ValueError):
        QuotientElement(qb, [0, 1])


def test_quotient_element_arithmetic(example1):
    qb = macaulay_basis(example1.groebner_basis())
    ring = qb.ring
    a = to_coords(ring.parse("y + z"), qb)
    b = to_coords(ring.parse("z^4 + 2"), qb)
    assert (a + b).to_polynomial() == ring.parse("y + z^4 + z + 2")
    assert (3 * a).coords == tuple((3 * c) % 5 for c in a.coords)
    assert a * b == b * a
    assert (a * b).to_polynomial() == multiply_mod(
        ring.parse("y + z"), ring.parse("z^4 + 2"), qb
    )
    one = to_coords(ring.one(), qb)
    assert a * one == a
    assert hash(a) == hash(to_coords(ring.parse("y + z"), qb))
    assert not a.is_zero and to_coords(ring.zero(), qb).is_zero


def test_pow_mod_matches_repeated_multiplication(example3):
    qb = macaulay_basis(Ideal.of(example3).groebner_basis())
    ring = qb.ring
    f = ring.parse("x^2 + 2*x")
    square = multiply_mod(f, f, qb)
    assert pow_mod(f, 1, qb) == qb.gb.normal_form(f)
    assert pow_mod(f, 2, qb) == square
    assert pow_mod(f, 5, qb) == multiply_mod(
        multiply_mod(square, square, qb), f, qb
    )
    assert pow_mod(f, 0, qb) == ring.one()
    for e in (ring.p, 1000, 1024):
        plain = ring.one()
        for _ in range(e):
            plain = multiply_mod(plain, f, qb)
        assert pow_mod(f, e, qb) == plain
