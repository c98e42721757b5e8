"""Command-line front end.

Problem files are line oriented; `#` starts a comment anywhere:

    field 5
    vars x y z
    order lex
    ideal
    y^2 - x*z
    z^2 - x^2*y
    x + y + z - 1

Variable precedence is the listing order (first name is greatest).  The
`ideal` directive introduces the generators, one polynomial per line.

Exit codes: 0 success, 1 mathematical domain errors (unit ideal, not
zero-dimensional, quotient dimension above
quotient.MAX_QUOTIENT_DIMENSION = 256, failed --check), 2 problem-file or
polynomial parse errors.
"""

import argparse
import json
import sys

from .errors import (
    FpdecError,
    NotZeroDimensionalError,
    ParseError,
    ProblemFileError,
    UnitIdealError,
)
from .gf import MAX_MODULUS, is_prime
from .groebner import Ideal
from .mpoly import MonomialOrder, PolyRing, is_variable_name
from .primdec import primary_decomposition, verify
from .univar import factor, format_factorization

_ORDERS = ("lex", "grevlex")


class ProblemFile:
    """Parsed problem file: field, variables, order, generator texts."""

    __slots__ = ("p", "variables", "order_name", "generators")

    def __init__(self, p, variables, order_name, generators):
        self.p = p
        self.variables = tuple(variables)
        self.order_name = order_name
        self.generators = tuple(generators)  # (line_number, text) pairs

    def ring(self, order_override=None):
        name = order_override or self.order_name
        return PolyRing(self.p, self.variables, MonomialOrder(name))

    def ideal(self, order_override=None):
        ring = self.ring(order_override)
        polys = []
        for lineno, text in self.generators:
            try:
                polys.append(ring.parse(text))
            except ParseError as exc:
                raise ProblemFileError(
                    exc.message, line=lineno, column=exc.position + 1
                ) from exc
        return Ideal(ring, polys)


def parse_problem(text):
    p = None
    variables = None
    order_name = "lex"
    generators = []
    in_ideal = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if in_ideal:
            generators.append((lineno, line))
            continue
        fields = line.split()
        directive = fields[0]
        if directive == "field":
            if len(fields) != 2 or not fields[1].lstrip("+-").isdigit():
                raise ProblemFileError("field needs one integer argument", line=lineno)
            p = int(fields[1])
            # bound first: trial division of a huge modulus would not finish
            if p > MAX_MODULUS:
                raise ProblemFileError(
                    f"modulus exceeds the supported bound {MAX_MODULUS}", line=lineno
                )
            if p < 2 or not is_prime(p):
                raise ProblemFileError("modulus must be prime", line=lineno)
        elif directive == "vars":
            if len(fields) < 2:
                raise ProblemFileError("vars needs at least one name", line=lineno)
            variables = fields[1:]
            for name in variables:
                if not is_variable_name(name):
                    raise ProblemFileError(
                        f"invalid variable name {name!r}", line=lineno
                    )
            if len(set(variables)) != len(variables):
                raise ProblemFileError("variable names must be distinct", line=lineno)
        elif directive == "order":
            if len(fields) != 2 or fields[1] not in _ORDERS:
                raise ProblemFileError(
                    "order must be one of: " + ", ".join(_ORDERS), line=lineno
                )
            order_name = fields[1]
        elif directive == "ideal":
            if len(fields) != 1:
                raise ProblemFileError("ideal takes no arguments", line=lineno)
            in_ideal = True
        else:
            raise ProblemFileError(f"unknown directive {directive!r}", line=lineno)
    if p is None:
        raise ProblemFileError("missing 'field' directive")
    if variables is None:
        raise ProblemFileError("missing 'vars' directive")
    if not generators:
        raise ProblemFileError("missing 'ideal' section or no generators")
    return ProblemFile(p, variables, order_name, generators)


def _read_source(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc.strerror}") from exc


def _header(ideal):
    ring = ideal.ring
    return {
        "p": ring.p,
        "vars": list(ring.variables),
        "order": ring.order.kind,
    }


def _gb_strings(ideal):
    return [str(g) for g in ideal.groebner_basis()]


def _decomposition_payload(d, report):
    payload = _header(d.input)
    payload["t"] = d.t
    payload["idempotents"] = [str(e.to_polynomial()) for e in d.idempotents]
    payload["components"] = [
        {"groebner": _gb_strings(c), "quotient_dim": dim}
        for c, dim in zip(d.components, d.component_dimensions())
    ]
    payload["verify"] = report.as_dict()
    return payload


def _emit(text, quiet):
    if not quiet:
        print(text)


def _cmd_groebner(ideal, args):
    gb = ideal.groebner_basis()
    if args.json:
        payload = _header(ideal)
        payload["groebner"] = [str(g) for g in gb]
        _emit(json.dumps(payload, indent=2), args.quiet)
    else:
        ring = ideal.ring
        _emit(
            f"reduced Groebner basis ({ring.order.kind}, F_{ring.p}"
            f"[{', '.join(ring.variables)}]):",
            args.quiet,
        )
        for g in gb:
            _emit(f"  {g}", args.quiet)
    return 0


def _cmd_decompose(ideal, args, always_report=False):
    d = primary_decomposition(ideal)
    report = verify(d)
    if args.json:
        _emit(json.dumps(_decomposition_payload(d, report), indent=2), args.quiet)
    else:
        _emit(f"t = {d.t}", args.quiet)
        _emit("idempotents:", args.quiet)
        for e in d.idempotents:
            _emit(f"  {e.to_polynomial()}", args.quiet)
        for i, (c, dim) in enumerate(
            zip(d.components, d.component_dimensions()), start=1
        ):
            _emit(f"component {i} (dim {dim}):", args.quiet)
            for g in c.groebner_basis():
                _emit(f"  {g}", args.quiet)
        if always_report or args.check:
            _emit("verify:", args.quiet)
            for line in str(report).splitlines():
                _emit(f"  {line}", args.quiet)
    if (args.check or always_report) and not report.passed:
        failed = ", ".join(r.name for r in report.failures())
        print(f"error: verification failed: {failed}", file=sys.stderr)
        return 1
    return 0


def _cmd_factor(problem, args):
    ring = problem.ring(args.order)
    if ring.nvars != 1:
        raise NotZeroDimensionalError("factor requires exactly one variable")
    ideal = problem.ideal(args.order)
    if len(ideal.generators) != 1:
        raise ProblemFileError("factor expects a single polynomial in the ideal block")
    f = ideal.generators[0]
    if f.is_zero:
        raise NotZeroDimensionalError("the zero ideal is not zero-dimensional")
    if f.is_constant:
        raise UnitIdealError("a nonzero constant generates the unit ideal")
    fact = factor(f)
    if args.json:
        payload = _header(ideal)
        payload["input"] = str(f)
        payload["lead"] = fact.lead
        payload["factors"] = [str(g) for g in fact.factors]
        _emit(json.dumps(payload, indent=2), args.quiet)
    else:
        _emit(f"f = {format_factorization(fact)}", args.quiet)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fpdec",
        description="primary decomposition of zero-dimensional ideals over F_p",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("groebner", "print the reduced Groebner basis"),
        ("decompose", "compute the primary decomposition"),
        ("factor", "factor a univariate polynomial into primary factors"),
        ("verify", "decompose and print the verification report"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("path", help="problem file, or - for standard input")
        cmd.add_argument("--json", action="store_true", help="emit JSON")
        cmd.add_argument(
            "--order",
            choices=_ORDERS,
            help="override the monomial order of the problem file",
        )
        cmd.add_argument(
            "--quiet", action="store_true", help="suppress normal output"
        )
        cmd.add_argument(
            "--check",
            action="store_true",
            help="run the verifier and exit nonzero on any failed check",
        )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        problem = parse_problem(_read_source(args.path))
        if args.command == "factor":
            return _cmd_factor(problem, args)
        ideal = problem.ideal(args.order)
        if args.command == "groebner":
            return _cmd_groebner(ideal, args)
        if args.command == "decompose":
            return _cmd_decompose(ideal, args)
        return _cmd_decompose(ideal, args, always_report=True)
    except ProblemFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FpdecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
