import io
import json
import time

import pytest

from fpdec.cli import main, parse_problem
from fpdec.errors import ProblemFileError
from fpdec.groebner import Ideal, ideal_equal
from fpdec.mpoly import PolyRing
from fpdec.primdec import primary_decomposition, verify

from conftest import DATA_DIR

EXAMPLE1 = str(DATA_DIR / "example1.ideal")
EXAMPLE3 = str(DATA_DIR / "example3.ideal")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_problem(tmp_path, text, name="problem.ideal"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_problem_happy_path():
    problem = parse_problem(
        "# header comment\nfield 7\nvars a b\norder grevlex\nideal\na^2 - b # inline\nb - 3\n"
    )
    assert problem.p == 7
    assert problem.variables == ("a", "b")
    assert problem.order_name == "grevlex"
    assert [t for _, t in problem.generators] == ["a^2 - b", "b - 3"]
    assert [l for l, _ in problem.generators] == [6, 7]
    ring = problem.ring()
    assert ring.order.kind == "grevlex"
    assert problem.ring("lex").order.kind == "lex"


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("vars x\nideal\nx", "missing 'field'", None),
        ("field 5\nideal\nx", "missing 'vars'", None),
        ("field 5\nvars x\n", "missing 'ideal'", None),
        ("field 4\nvars x\nideal\nx", "modulus must be prime", 1),
        ("field x\nvars x\nideal\nx", "field needs one integer", 1),
        ("field 5\nvars x x\nideal\nx", "must be distinct", 2),
        ("field 5\nvars x\norder degrevlex\nideal\nx", "order must be one of", 3),
        ("field 5\nvars x\nbasis\nideal\nx", "unknown directive", 3),
        ("field 5\nvars x\nideal now\nx", "ideal takes no arguments", 3),
        ("field 2147483659\nvars x\nideal\nx", "exceeds the supported bound", 1),
        ("field 1000000000000000003\nvars x\nideal\nx", "exceeds the supported", 1),
        ("field 5\nvars 1x y\nideal\nx", "invalid variable name '1x'", 2),
    ],
)
def test_parse_problem_errors(text, fragment, line):
    with pytest.raises(ProblemFileError) as exc_info:
        parse_problem(text)
    assert fragment in str(exc_info.value)
    assert exc_info.value.line == line


def test_generator_parse_error_carries_position():
    problem = parse_problem("field 5\nvars x y\nideal\nx + y\nx + + y\n")
    with pytest.raises(ProblemFileError) as exc_info:
        problem.ideal()
    err = exc_info.value
    assert err.line == 5
    assert err.column == 5
    assert "line 5, column 5" in str(err)


def test_groebner_command_text(capsys):
    code, out, err = run(capsys, "groebner", EXAMPLE1)
    assert code == 0 and err == ""
    assert "reduced Groebner basis (lex, F_5[x, y, z]):" in out
    assert "  x + y + z + 4" in out
    assert "  z^5 + 4*z^4 + 3*z^3 + 4*z^2 + 2*z" in out


def test_groebner_command_json(capsys):
    code, out, err = run(capsys, "groebner", EXAMPLE1, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 5
    assert payload["vars"] == ["x", "y", "z"]
    assert payload["order"] == "lex"
    assert payload["groebner"][0] == "x + y + z + 4"


def test_groebner_order_override(capsys):
    code, out, _ = run(capsys, "groebner", EXAMPLE1, "--json", "--order", "grevlex")
    payload = json.loads(out)
    assert payload["order"] == "grevlex"
    # grevlex basis of the same ideal still generates it
    ring = PolyRing(5, ["x", "y", "z"], "grevlex")
    regen = Ideal(ring, [ring.parse(s) for s in payload["groebner"]])
    lex = ring.with_order("lex")
    original = Ideal(lex, [lex.parse("y^2 - x*z"), lex.parse("z^2 - x^2*y"),
                           lex.parse("x + y + z - 1")])
    assert ideal_equal(regen.with_order("lex"), original)


def test_decompose_text_output(capsys):
    code, out, err = run(capsys, "decompose", EXAMPLE1)
    assert code == 0 and err == ""
    assert "t = 4" in out
    assert "idempotents:" in out
    assert "component 1 (dim 1):" in out
    assert "component 4 (dim 2):" in out
    assert "verify:" not in out


def test_decompose_json_schema(capsys):
    code, out, _ = run(capsys, "decompose", EXAMPLE1, "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "p",
        "vars",
        "order",
        "t",
        "idempotents",
        "components",
        "verify",
    }
    assert payload["t"] == 4
    assert len(payload["idempotents"]) == 4
    assert [c["quotient_dim"] for c in payload["components"]] == [1, 1, 2, 2]
    assert all(payload["verify"].values())
    # the emitted generators reparse to ideals whose decomposition verifies
    ring = PolyRing(payload["p"], payload["vars"], payload["order"])
    reconstructed = [
        Ideal(ring, [ring.parse(s) for s in c["groebner"]])
        for c in payload["components"]
    ]
    original = Ideal(
        ring,
        [
            ring.parse("y^2 - x*z"),
            ring.parse("z^2 - x^2*y"),
            ring.parse("x + y + z - 1"),
        ],
    )
    d = primary_decomposition(original)
    assert verify(d).passed
    assert [
        [str(g) for g in c.groebner_basis()] for c in reconstructed
    ] == [[str(g) for g in c.groebner_basis()] for c in d.components]


def test_decompose_check_flag(capsys):
    code, out, _ = run(capsys, "decompose", EXAMPLE1, "--check")
    assert code == 0
    assert "verify:" in out
    assert "ok intersection_equals_input" in out


def test_verify_command(capsys):
    code, out, err = run(capsys, "verify", EXAMPLE1)
    assert code == 0 and err == ""
    assert "ok dimension_identity: 6 = 1 + 1 + 2 + 2" in out


def test_factor_command(capsys):
    code, out, err = run(capsys, "factor", EXAMPLE3)
    assert code == 0 and err == ""
    assert out.strip() == "f = (x + 1)*(x^2 + x + 2)*(x^3 + 2*x^2 + 1)"


def test_factor_json(capsys):
    code, out, _ = run(capsys, "factor", EXAMPLE3, "--json")
    payload = json.loads(out)
    assert payload["input"] == "x^6 + x^5 + x^4 + 2"
    assert payload["lead"] == 1
    assert payload["factors"] == ["x + 1", "x^2 + x + 2", "x^3 + 2*x^2 + 1"]


def test_factor_requires_single_univariate(capsys, tmp_path):
    path = write_problem(tmp_path, "field 5\nvars x y\nideal\nx*y - 1\n")
    code, _, err = run(capsys, "factor", path)
    assert code == 1
    assert "one variable" in err
    path = write_problem(tmp_path, "field 3\nvars x\nideal\nx\nx + 1\n")
    code, _, err = run(capsys, "factor", path)
    assert code == 2
    assert "single polynomial" in err


def test_exit_code_unit_ideal(capsys, tmp_path):
    path = write_problem(tmp_path, "field 5\nvars x\nideal\nx\nx + 1\n")
    code, out, err = run(capsys, "decompose", path)
    assert code == 1
    assert "error:" in err and out == ""


def test_exit_code_positive_dimension(capsys, tmp_path):
    path = write_problem(tmp_path, "field 5\nvars x y z\nideal\ny^2 - x*z\n")
    code, _, err = run(capsys, "decompose", path)
    assert code == 1
    assert "zero-dimensional" in err


@pytest.mark.parametrize(
    "command,text,fragment",
    [
        ("decompose", "vars x y\nideal\nx^3000\ny^3000\nx*y", "DIMENSION = 256"),
        ("decompose", "vars x\nideal\nx^1048576 - x", "DIMENSION = 256"),
        ("factor", "vars x\nideal\nx^1048576 - x", "DIMENSION = 256"),
        ("factor", "vars x\nideal\n2", "unit ideal"),
        ("factor", "vars x\nideal\n0", "not zero-dimensional"),
    ],
    ids=["box-3000", "x^2^20-decompose", "x^2^20-factor", "factor-2", "factor-0"],
)
def test_hostile_inputs_end_in_typed_errors(capsys, tmp_path, command, text, fragment):
    path = write_problem(tmp_path, "field 101\n" + text + "\n")
    start = time.perf_counter()
    code, out, err = run(capsys, command, path)
    assert time.perf_counter() - start < 5.0
    assert code == 1 and out == ""
    assert err.startswith("error:") and fragment in err
    assert "Traceback" not in err


def test_exit_code_parse_failure(capsys, tmp_path):
    path = write_problem(tmp_path, "field 4\nvars x\nideal\nx\n")
    code, _, err = run(capsys, "decompose", path)
    assert code == 2
    assert "modulus must be prime" in err


def test_exit_code_missing_file(capsys):
    code, _, err = run(capsys, "groebner", "/nonexistent/path.ideal")
    assert code == 2
    assert "cannot read" in err


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO("field 3\nvars x\nideal\nx^2 - 1\n")
    )
    code, out, _ = run(capsys, "factor", "-")
    assert code == 0
    assert out.strip() == "f = (x + 1)*(x + 2)"


def test_quiet_suppresses_stdout(capsys):
    code, out, _ = run(capsys, "decompose", EXAMPLE1, "--quiet")
    assert code == 0 and out == ""


def test_text_and_json_agree(capsys):
    _, text_out, _ = run(capsys, "decompose", EXAMPLE1)
    _, json_out, _ = run(capsys, "decompose", EXAMPLE1, "--json")
    payload = json.loads(json_out)
    for component in payload["components"]:
        for g in component["groebner"]:
            assert f"  {g}" in text_out
    for h in payload["idempotents"]:
        assert f"  {h}" in text_out


def test_json_output_is_stable(capsys):
    _, first, _ = run(capsys, "decompose", EXAMPLE1, "--json")
    _, second, _ = run(capsys, "decompose", EXAMPLE1, "--json")
    assert first == second
