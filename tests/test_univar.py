import random

import pytest

from fpdec.mpoly import PolyRing
from fpdec.oracle import factor_bruteforce
from fpdec.univar import factor, format_factorization


def _grouped_bruteforce(f):
    """Oracle factors regrouped as irreducible^multiplicity strings."""
    return {str(g**m) for g, m in factor_bruteforce(f)}


def test_sextic_example(example3):
    fact = factor(example3)
    assert fact.t == 3
    assert [str(g) for g in fact.factors] == [
        "x + 1",
        "x^2 + x + 2",
        "x^3 + 2*x^2 + 1",
    ]
    assert fact.lead == 1
    assert fact.product() == example3
    assert format_factorization(fact) == "(x + 1)*(x^2 + x + 2)*(x^3 + 2*x^2 + 1)"


def test_repeated_factor_stays_primary():
    # x^2 + 1 = (x + 1)^2 over F_2: one primary factor, not two copies
    r = PolyRing(2, ["x"], "lex")
    fact = factor(r.parse("x^2 + 1"))
    assert fact.t == 1
    assert [str(g) for g in fact.factors] == ["x^2 + 1"]


def test_split_quadratic():
    r = PolyRing(3, ["x"], "lex")
    fact = factor(r.parse("x^2 - 1"))
    assert [str(g) for g in fact.factors] == ["x + 1", "x + 2"]


def test_irreducible_input():
    r = PolyRing(2, ["x"], "lex")
    fact = factor(r.parse("x^2 + x + 1"))
    assert fact.t == 1
    assert str(fact.factors[0]) == "x^2 + x + 1"


def test_leading_coefficient_preserved():
    r = PolyRing(5, ["x"], "lex")
    f = r.parse("3*x^2 - 3")
    fact = factor(f)
    assert fact.lead == 3
    assert fact.product() == f
    assert format_factorization(fact) == "3*(x + 1)*(x + 4)"


def test_product_identity_random():
    rng = random.Random(13)
    for p in (2, 3, 5):
        r = PolyRing(p, ["x"], "lex")
        for _ in range(12):
            deg = rng.randrange(1, 9)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [
                rng.randrange(1, p)
            ]
            f = r.from_terms([((e,), c) for e, c in enumerate(coeffs)])
            fact = factor(f)
            assert fact.product() == f
            assert all(g.lc() == 1 for g in fact.factors)


def test_factor_count_is_distinct_irreducible_count():
    rng = random.Random(29)
    for p in (2, 3):
        r = PolyRing(p, ["x"], "lex")
        for _ in range(10):
            deg = rng.randrange(1, 7 if p == 2 else 5)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
            f = r.from_terms([((e,), c) for e, c in enumerate(coeffs)])
            fact = factor(f)
            oracle = factor_bruteforce(f)
            assert fact.t == len(oracle)
            assert {str(g) for g in fact.factors} == _grouped_bruteforce(f)


def test_rejects_bad_inputs(ring5, ring3x):
    with pytest.raises(ValueError):
        factor(ring5.parse("x*y + 1"))
    with pytest.raises(ValueError):
        factor(ring3x.parse("2"))
    with pytest.raises(ValueError):
        factor(ring3x.zero())


def _irreducible_quadratic(ring, c):
    """x^2 + b*x + c for the least b >= 1 with a nonsquare discriminant."""
    p = ring.p
    b = next(b for b in range(1, p) if pow(b * b - 4 * c, (p - 1) // 2, p) == p - 1)
    return ring.parse(f"x^2 + {b}*x + {c}")


@pytest.mark.parametrize("p", [101, 32003, 2**31 - 1])
def test_gcd_root_splitting_fields(p):
    # for p >= 30 the eigenvalues come from gcd splitting, not a field scan
    ring = PolyRing(p, ["x"], "lex")
    x = ring.variable("x")
    factors = [
        x,
        x - ring.constant(3),
        x + ring.constant(7),
        _irreducible_quadratic(ring, 1),
        _irreducible_quadratic(ring, 2),
        (x - ring.constant(12)) ** 2,
    ]
    f = ring.one()
    for g in factors:
        f = f * g
    fact = factor(f)
    assert fact.product() == f
    assert {str(g) for g in fact.factors} == {str(g) for g in factors}
    assert fact.t == len(factors)
