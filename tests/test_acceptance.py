"""Acceptance gate: the nine shipping criteria, one test each.

Every test asserts exact canonical-form equality (no tolerances) and a
generous wall-clock ceiling for a cold desk-scale run.  Criteria 5 and 6
share one module-scoped batch of decompositions: the two worked examples
plus fifty seeded random point-ideal instances.
"""

import json
import random
import time

import pytest

from fpdec.gf import row_space
from fpdec.groebner import Ideal, buchberger
from fpdec.idempotents import invariant_subspace, split_algebra
from fpdec.mpoly import PolyRing
from fpdec.oracle import (
    factor_bruteforce,
    point_ideal,
    primitive_idempotents_bruteforce,
)
from fpdec.primdec import primary_decomposition, verify
from fpdec.quotient import (
    coords_vector,
    frobenius_matrix,
    macaulay_basis,
    multiply_mod,
)
from fpdec.univar import factor

from conftest import DATA_DIR, EXAMPLE1_GENS, EXAMPLE3_POLY, random_points


def _ring5():
    return PolyRing(5, ["x", "y", "z"], "lex")


def _example1_ideal():
    ring = _ring5()
    return Ideal(ring, [ring.parse(s) for s in EXAMPLE1_GENS])


def _example3_ideal():
    ring = PolyRing(3, ["x"], "lex")
    return Ideal.of(ring.parse(EXAMPLE3_POLY))


def _budget(t0, limit):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"took {elapsed:.2f}s, budget {limit}s"


@pytest.fixture(scope="module")
def instance_batch():
    """(build_seconds, decompositions) shared by criteria 5 and 6."""
    t0 = time.perf_counter()
    batch = [
        ("slice ideal", primary_decomposition(_example1_ideal())),
        ("sextic", primary_decomposition(_example3_ideal())),
    ]
    rng = random.Random(20260815)
    while len(batch) < 52:
        p = rng.choice([3, 5, 7])
        n = rng.choice([1, 2, 3])
        r = rng.randrange(1, min(4, p**n) + 1)
        points = random_points(rng, p, n, r)
        ring = PolyRing(p, [f"x{i}" for i in range(n)], "lex")
        ideal = point_ideal(ring, points)
        batch.append((f"{r} points in F_{p}^{n}", primary_decomposition(ideal)))
    return time.perf_counter() - t0, batch


def test_criterion_1_groebner_basis_reproduction():
    t0 = time.perf_counter()
    gb = buchberger(list(_example1_ideal().generators))
    assert [str(g) for g in gb] == [
        "x + y + z + 4",
        "y^2 + 3*y + 3*z^4 + z^3 + 2*z^2 + z",
        "y*z + 2*y + 2*z^4 + 4*z^3 + 4*z^2 + 3*z",
        "z^5 + 4*z^4 + 3*z^3 + 4*z^2 + 2*z",
    ]
    assert all(g.lc() == 1 for g in gb)
    _budget(t0, 1)


def test_criterion_2_invariant_subspace():
    t0 = time.perf_counter()
    qb = macaulay_basis(_example1_ideal().groebner_basis())
    assert qb.monomials == (
        (0, 1, 0),
        (0, 0, 4),
        (0, 0, 3),
        (0, 0, 2),
        (0, 0, 1),
        (0, 0, 0),
    )
    v = invariant_subspace(qb)
    assert v.dimension == 4
    spanning = ["1", "z - z^2", "z^2 + z^3", "z^3 - 2*z^4"]
    expected = row_space(
        [coords_vector(qb.ring.parse(s), qb) for s in spanning], qb.ring.field
    )
    assert [list(r) for r in v.rows] == expected
    _budget(t0, 1)


def test_criterion_3_component_set():
    t0 = time.perf_counter()
    d = primary_decomposition(_example1_ideal())
    assert d.t == 4
    got = {tuple(str(g) for g in c.groebner_basis()) for c in d.components}
    assert got == {
        ("x + 4", "y", "z"),
        ("x + y + 2", "y^2 + 3*y + 1", "z + 2"),
        ("x + 4*z + 3", "y + 2*z + 1", "z^2 + 4*z + 2"),
        ("x + 2", "y + 4", "z + 3"),
    }
    _budget(t0, 2)


def test_criterion_4_sextic_factorization():
    t0 = time.perf_counter()
    ring = PolyRing(3, ["x"], "lex")
    fact = factor(ring.parse(EXAMPLE3_POLY))
    assert {str(g) for g in fact.factors} == {
        "x + 1",
        "x^2 + x + 2",
        "x^3 + 2*x^2 + 1",
    }
    qb = macaulay_basis(_example3_ideal().groebner_basis())
    assert frobenius_matrix(qb).entries == [
        [0, 0, 2, 2, 0, 0],
        [0, 0, 2, 2, 0, 0],
        [2, 1, 0, 0, 1, 0],
        [0, 2, 2, 2, 0, 0],
        [1, 0, 0, 0, 2, 0],
        [0, 2, 1, 1, 0, 0],
    ]
    _budget(t0, 1)


def test_criterion_5_idempotent_laws(instance_batch):
    build_time, batch = instance_batch
    t0 = time.perf_counter()
    assert len(batch) == 52
    for label, d in batch:
        qb = d.basis
        polys = [e.to_polynomial() for e in d.idempotents]
        for h in polys:
            assert multiply_mod(h, h, qb) == qb.gb.normal_form(h), label
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                assert multiply_mod(polys[i], polys[j], qb).is_zero, label
        total = qb.ring.zero()
        for h in polys:
            total = total + h
        assert qb.gb.normal_form(total) == qb.ring.one(), label
        assert d.t == invariant_subspace(qb).dimension == len(d.components), label
    assert build_time + (time.perf_counter() - t0) < 30


def test_criterion_6_structural_verifier(instance_batch):
    build_time, batch = instance_batch
    t0 = time.perf_counter()
    for label, d in batch:
        report = verify(d)
        assert report.passed, f"{label}: {report.failures()}"
    slice_d = batch[0][1]
    assert slice_d.basis.dimension == 6
    assert sorted(slice_d.component_dimensions()) == [1, 1, 2, 2]
    assert build_time + (time.perf_counter() - t0) < 30


def test_criterion_7_idempotent_oracle_equivalence():
    t0 = time.perf_counter()
    for ideal in (_example1_ideal(), _example3_ideal()):
        qb = macaulay_basis(ideal.groebner_basis())
        v = invariant_subspace(qb)
        assert set(split_algebra(v)) == primitive_idempotents_bruteforce(v)
    _budget(t0, 5)


def test_criterion_8_factoring_oracle_equivalence():
    t0 = time.perf_counter()
    for p, max_deg in ((2, 6), (3, 4)):
        ring = PolyRing(p, ["x"], "lex")
        for deg in range(1, max_deg + 1):
            for low in range(p**deg):
                coeffs, rest = [], low
                for _ in range(deg):
                    coeffs.append(rest % p)
                    rest //= p
                coeffs.append(1)
                f = ring.from_terms([((e,), c) for e, c in enumerate(coeffs)])
                grouped = {str(g**m) for g, m in factor_bruteforce(f)}
                assert {str(g) for g in factor(f).factors} == grouped, str(f)
    _budget(t0, 60)


def test_criterion_9_determinism(capsys):
    from fpdec.cli import main

    path = str(DATA_DIR / "example1.ideal")
    assert main(["decompose", path, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["decompose", path, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["t"] == 4
