"""Tests of the benchmark itself: generator, checker, tracer and report.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import contextlib
import io
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import fp  # noqa: E402
import problems  # noqa: E402
import run  # noqa: E402

import fpdec  # noqa: E402
import fpdec.cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _texts(workload, seed, count):
    return [problems.problem(workload, seed, i).text().encode() for i in range(count)]


@pytest.mark.parametrize("workload", sorted(problems.GENERATORS))
def test_generator_is_deterministic(workload):
    assert _texts(workload, 5, 6) == _texts(workload, 5, 6)
    assert _texts(workload, 5, 6) != _texts(workload, 6, 6)


def _has_root(q, p):
    return any(sum(c * pow(a, i, p) for i, c in enumerate(q)) % p == 0 for a in range(p))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_irreducibility_matches_root_search_up_to_degree_three(p):
    # a polynomial of degree 2 or 3 is irreducible exactly when it has no root
    for d in (2, 3):
        for low in itertools.product(range(p), repeat=d):
            q = list(low) + [1]
            assert fp.is_irreducible(q, p) == (not _has_root(q, p))


@pytest.mark.parametrize("workload", ["factor-p32003", "factor-bigp"])
def test_factor_problems_have_distinct_irreducible_factors(workload):
    for i in range(10):
        pb = problems.problem(workload, 1, i)
        qs = [list(q) for q, _ in pb.factors]
        assert len({tuple(q) for q in qs}) == len(qs) >= 2
        assert all(fp.is_irreducible(q, pb.p) for q in qs)
        prod = [pb.lead]
        for q, e in pb.factors:
            prod = fp.mul(prod, fp.power(list(q), e, pb.p), pb.p)
        assert prod == pb.f


def test_problems_have_the_workload_dimension():
    for i in range(20):
        pb = problems.problem("decompose-cli", 1, i)
        assert pb.dimension == problems.DECOMPOSE_DIM
        assert pb.order in ("lex", "grevlex")
        assert problems.problem("factor-bigp", 1, i).dimension == problems.BIGP_DEGREE


# -- checker -------------------------------------------------------------------


def _factor_answer(pb):
    ring = fpdec.PolyRing(pb.p, ["x"])
    return fpdec.factor(ring.from_terms([((k,), c) for k, c in enumerate(pb.f) if c]))


def test_checker_accepts_a_true_factorization_and_rejects_corruptions():
    pb = problems.problem("factor-bigp", 2, 0)
    fact = _factor_answer(pb)
    assert check.check_factor(pb, fact)
    dropped = fpdec.Factorization(fact.input, fact.lead, fact.factors[1:])
    assert not check.check_factor(pb, dropped)
    relead = fpdec.Factorization(fact.input, fact.lead % pb.p + 1, fact.factors)
    assert not check.check_factor(pb, relead)
    assert not check.check_factor(pb, None)


def _decompose_output(pb, tmp_path):
    path = tmp_path / "problem.ideal"
    path.write_text(pb.text())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fpdec.cli.main(["decompose", str(path), "--json"])
    return code, out.getvalue()


def test_checker_accepts_a_true_decomposition_and_rejects_corruptions(tmp_path):
    pb = problems.problem("decompose-cli", 2, 0)
    code, text = _decompose_output(pb, tmp_path)
    assert check.check_decompose(pb, (code, text))
    assert not check.check_decompose(pb, (1, text))
    assert not check.check_decompose(pb, None)

    payload = json.loads(text)
    other = problems.problem("decompose-cli", 2, 1)
    swapped = json.loads(_decompose_output(other, tmp_path)[1])
    payload["components"][0] = swapped["components"][0]
    assert not check.check_decompose(pb, (0, json.dumps(payload)))

    payload = json.loads(text)
    payload["components"].pop()
    payload["t"] -= 1
    assert not check.check_decompose(pb, (0, json.dumps(payload)))

    payload = json.loads(text)
    first = next(iter(payload["verify"]))
    payload["verify"][first] = False
    assert not check.check_decompose(pb, (0, json.dumps(payload)))


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def test_corrupted_answers_are_counted_in_failed_frac(monkeypatch):
    solve = run.FactorWorkload.solve

    def drop_a_factor(self, f):
        fact = solve(self, f)
        return fpdec.Factorization(fact.input, fact.lead, fact.factors[1:])

    monkeypatch.setattr(run.FactorWorkload, "solve", drop_a_factor)
    code, lines, result = _run(
        ["--workload", "factor-bigp", "--seed", "1", "--seconds", "0.3", "--trace", "0"]
    )
    assert code == 0
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert "failed_frac 1 ratio" in lines


# -- report --------------------------------------------------------------------


def _printed_units(lines):
    units = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3 and not line.startswith("#"):
            units[fields[0]] = fields[2]
    return units


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    code, lines, result = _run(
        ["--workload", "decompose-cli", "--seed", "1", "--seconds", "0.3",
         "--trace", str(trace)]
    )
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = _printed_units(lines)
    assert printed["failed_frac"] == "ratio"
    for name, unit in declared.items():
        assert printed[name] == unit
    assert any("backend=" in line and "nproc=" in line and "p=101" in line
               for line in lines)


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} == set(run._workloads())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decompose-cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
