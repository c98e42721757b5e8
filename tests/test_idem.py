import random

import pytest

from fpdec.errors import ClosureError
from fpdec.gf import row_space
from fpdec.groebner import Ideal
from fpdec.idempotents import (
    Subalgebra,
    invariant_subspace,
    restricted_mult_matrix,
    split_algebra,
)
from fpdec.mpoly import PolyRing
from fpdec.oracle import primitive_idempotents_bruteforce
from fpdec.quotient import (
    coords_vector,
    macaulay_basis,
    multiply_mod,
    pow_mod,
    to_coords,
)

# the four primitive idempotents of the running slice ideal over F_5
EXAMPLE1_IDEMPOTENTS = {
    "2*z^3 + 2*z",
    "3*z^4 + 2*z^3 + 4*z^2 + 2*z + 1",
    "3*z^4 + 3*z^3 + 2*z",
    "4*z^4 + 3*z^3 + z^2 + 4*z",
}

# and the three of F_3[x]/(x^6 + x^5 + x^4 + 2)
EXAMPLE3_IDEMPOTENTS = {
    "2*x^5 + x^3 + 2*x^2 + 2*x",
    "x^3 + 2*x^2 + 2",
    "x^5 + x^3 + 2*x^2 + x + 2",
}


@pytest.fixture
def qb1(example1):
    return macaulay_basis(example1.groebner_basis())


@pytest.fixture
def qb3(example3):
    return macaulay_basis(Ideal.of(example3).groebner_basis())


def _span(qb, texts):
    vecs = [coords_vector(qb.ring.parse(s), qb) for s in texts]
    return row_space(vecs, qb.ring.field)


def test_invariant_subspace_dimensions(qb1, qb3):
    assert invariant_subspace(qb1).dimension == 4
    assert invariant_subspace(qb3).dimension == 3
    r = PolyRing(5, ["x"], "lex")
    point = macaulay_basis(Ideal.of(r.parse("x - 2")).groebner_basis())
    v = invariant_subspace(point)
    assert v.dimension == 1
    assert [str(e) for e in v.elements()] == ["1"]


def test_invariant_subspace_spans(qb1, qb3):
    v1 = invariant_subspace(qb1)
    assert list(v1.rows) == [
        tuple(r) for r in _span(qb1, ["1", "z - z^2", "z^2 + z^3", "z^3 - 2*z^4"])
    ]
    v3 = invariant_subspace(qb3)
    assert list(v3.rows) == [
        tuple(r) for r in _span(qb3, ["1", "-x^3 + x^2", "x^5 + x"])
    ]


def test_invariant_subspace_is_closed(qb1):
    # a subalgebra: closed under products, and free of nilpotents
    v = invariant_subspace(qb1)
    rng = random.Random(31)
    p = qb1.ring.p
    for _ in range(10):
        a = [rng.randrange(p) for _ in range(v.dimension)]
        b = [rng.randrange(p) for _ in range(v.dimension)]
        fa = sum(
            (v.element(i) * c for i, c in enumerate(a)), qb1.ring.zero()
        )
        fb = sum(
            (v.element(i) * c for i, c in enumerate(b)), qb1.ring.zero()
        )
        prod = multiply_mod(fa, fb, qb1)
        assert v.contains_vector(coords_vector(prod, qb1))
        # g^p = g forces reduced: g^k = 0 implies g = 0
        assert pow_mod(fa, p, qb1) == qb1.gb.normal_form(fa)
        if not qb1.gb.normal_form(fa).is_zero:
            assert not pow_mod(fa, qb1.dimension + 1, qb1).is_zero


def test_restricted_mult_matrix_on_span(qb1, qb3):
    g = [qb1.ring.parse(s) for s in ["1", "z - z^2", "z^2 + z^3", "z^3 - 2*z^4"]]
    a = restricted_mult_matrix(g[3], g, qb1)
    assert a.entries == [
        [0, 0, 0, 0],
        [0, 2, 2, 4],
        [0, 2, 2, 4],
        [1, 3, 2, 1],
    ]
    h = [qb3.ring.parse(s) for s in ["1", "-x^3 + x^2", "x^5 + x"]]
    b = restricted_mult_matrix(h[2], h, qb3)
    assert b.entries == [[0, 2, 1], [0, 2, 1], [1, 2, 1]]


def test_restricted_mult_matrix_escape(qb1):
    # z itself is not Frobenius-fixed, so multiplying the span of {1, z}
    # by z escapes it
    polys = [qb1.ring.one(), qb1.ring.parse("z")]
    with pytest.raises(ClosureError):
        restricted_mult_matrix(qb1.ring.parse("z"), polys, qb1)


def test_split_running_example(qb1):
    idem = split_algebra(invariant_subspace(qb1))
    assert {str(e.to_polynomial()) for e in idem} == EXAMPLE1_IDEMPOTENTS


def test_split_sextic(qb3):
    idem = split_algebra(invariant_subspace(qb3))
    assert {str(e.to_polynomial()) for e in idem} == EXAMPLE3_IDEMPOTENTS


def test_idempotent_laws(qb1):
    idem = list(split_algebra(invariant_subspace(qb1)))
    one = to_coords(qb1.ring.one(), qb1)
    zero = to_coords(qb1.ring.zero(), qb1)
    total = zero
    for e in idem:
        assert e * e == e
        total = total + e
    assert total == one
    for i, e in enumerate(idem):
        for f in idem[i + 1 :]:
            assert e * f == zero


def test_split_trivial_algebra():
    r = PolyRing(7, ["x"], "lex")
    qb = macaulay_basis(Ideal.of(r.parse("x - 3")).groebner_basis())
    idem = split_algebra(invariant_subspace(qb))
    assert [str(e.to_polynomial()) for e in idem] == ["1"]


def test_split_agrees_with_bruteforce(qb1, qb3):
    for qb in (qb1, qb3):
        v = invariant_subspace(qb)
        assert set(split_algebra(v)) == primitive_idempotents_bruteforce(v)


def test_subalgebra_membership(qb1):
    v = invariant_subspace(qb1)
    assert v.contains_vector(coords_vector(qb1.ring.one(), qb1))
    assert not v.contains_vector(coords_vector(qb1.ring.parse("z"), qb1))
    with pytest.raises(ClosureError):
        v.coords_in(coords_vector(qb1.ring.parse("y"), qb1))
    e = v.element(0)
    assert v.coords_in(coords_vector(e, qb1)) == [1, 0, 0, 0]


def test_split_rejects_non_closed_span(qb1):
    # {1, z} is not multiplicatively closed in the quotient
    bad = Subalgebra(
        qb1,
        [
            coords_vector(qb1.ring.one(), qb1),
            coords_vector(qb1.ring.parse("z"), qb1),
        ],
    )
    with pytest.raises(ClosureError):
        split_algebra(bad)
