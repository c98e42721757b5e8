import random

import pytest

from fpdec.errors import NotZeroDimensionalError, UnitIdealError
from fpdec.groebner import Ideal, ideal_equal, intersect_all
from fpdec.mpoly import PolyRing
from fpdec.oracle import maximal_ideal, point_ideal
from fpdec.primdec import Decomposition, primary_decomposition, verify

from conftest import random_points

EXAMPLE1_COMPONENTS = [
    ["x + 2", "y + 4", "z + 3"],
    ["x + 4", "y", "z"],
    ["x + 4*z + 3", "y + 2*z + 1", "z^2 + 4*z + 2"],
    ["x + y + 2", "y^2 + 3*y + 1", "z + 2"],
]


def _component_texts(d):
    return [[str(g) for g in c.groebner_basis()] for c in d.components]


def test_running_example_components(example1):
    d = primary_decomposition(example1)
    assert d.t == 4
    assert _component_texts(d) == EXAMPLE1_COMPONENTS
    assert d.component_dimensions() == [1, 1, 2, 2]
    assert len(d.idempotents) == 4
    assert d.input is example1


def test_components_pair_with_their_idempotents(example1):
    # each idempotent maps to 1 in its own component and to 0 in the others
    d = primary_decomposition(example1)
    for i, (comp, e) in enumerate(zip(d.components, d.idempotents)):
        h = e.to_polynomial()
        assert comp.contains(h - h.ring.one())
        for j, other in enumerate(d.components):
            if j != i:
                assert other.contains(h)


def test_intersection_recovers_input(example1):
    d = primary_decomposition(example1)
    assert ideal_equal(intersect_all(list(d.components)), example1)


def test_maximal_ideal_is_its_own_decomposition():
    r = PolyRing(7, ["x", "y"], "lex")
    m = maximal_ideal(r, (2, 5))
    d = primary_decomposition(m)
    assert d.t == 1
    assert _component_texts(d) == [["x + 5", "y + 2"]]
    assert [str(e.to_polynomial()) for e in d.idempotents] == ["1"]


def test_primary_but_not_prime_input():
    # <x^2> is already primary; the decomposition must return it unchanged
    r = PolyRing(5, ["x"], "lex")
    d = primary_decomposition(Ideal.of(r.parse("x^2")))
    assert d.t == 1
    assert _component_texts(d) == [["x^2"]]
    assert verify(d).passed


def test_rejects_unit_and_positive_dimension(ring5):
    with pytest.raises(UnitIdealError):
        primary_decomposition(Ideal.of(ring5.parse("x + 1"), ring5.parse("x + 2")))
    with pytest.raises(NotZeroDimensionalError):
        primary_decomposition(Ideal.of(ring5.parse("y^2 - x*z")))
    with pytest.raises(NotZeroDimensionalError):
        primary_decomposition(Ideal(ring5, []))


def test_verify_passes_on_honest_output(example1):
    rep = verify(primary_decomposition(example1))
    assert rep.passed
    assert rep.failures() == []
    d = rep.as_dict()
    assert set(d) == {
        "idempotent_squares",
        "idempotents_orthogonal",
        "idempotents_sum_to_one",
        "component_count",
        "intersection_equals_input",
        "pairwise_comaximal",
        "dimension_identity",
        "component_invariant_dimension",
        "input_contained_in_components",
    }
    assert all(d.values())
    assert "ok dimension_identity: 6 = 1 + 1 + 2 + 2" in str(rep)


def test_verify_flags_corrupted_component(example1, ring5):
    d = primary_decomposition(example1)
    tampered = list(d.components)
    tampered[0] = Ideal.of(ring5.parse("x + 1"), ring5.parse("y"), ring5.parse("z"))
    bad = Decomposition(d.input, d.basis, tampered, d.idempotents)
    rep = verify(bad)
    assert not rep.passed
    names = {r.name for r in rep.failures()}
    assert "intersection_equals_input" in names
    inter = next(r for r in rep.failures() if r.name == "intersection_equals_input")
    assert "lies in the" in inter.detail


def test_verify_flags_dropped_component(example1):
    d = primary_decomposition(example1)
    bad = Decomposition(d.input, d.basis, list(d.components)[1:], d.idempotents)
    rep = verify(bad)
    failed = {r.name for r in rep.failures()}
    assert "component_count" in failed
    assert "intersection_equals_input" in failed


def test_point_ideal_roundtrip():
    rng = random.Random(41)
    # F_101 splits eigenvalues by gcd; the smaller fields scan for roots
    for p, n, r in [(3, 2, 3), (5, 2, 4), (7, 3, 3), (2, 3, 2), (101, 3, 4)]:
        ring = PolyRing(p, [f"x{i}" for i in range(n)], "lex")
        points = random_points(rng, p, n, r)
        d = primary_decomposition(point_ideal(ring, points))
        assert d.t == r
        assert d.component_dimensions() == [1] * r
        expected = {
            tuple(str(g) for g in maximal_ideal(ring, pt).groebner_basis())
            for pt in points
        }
        got = {tuple(texts) for texts in _component_texts(d)}
        assert got == expected
        assert verify(d).passed


def test_decomposition_is_deterministic(example1):
    a = primary_decomposition(example1)
    b = primary_decomposition(example1)
    assert _component_texts(a) == _component_texts(b)
    assert [e.coords for e in a.idempotents] == [e.coords for e in b.idempotents]
