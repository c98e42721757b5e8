"""Seeded problem generators with known answers.

Each workload draws an endless stream of problems; problem k of seed s
depends on (workload, s, k) only, so the same seed gives byte-identical
problem text.  Irreducibility is decided by the benchmark's own arithmetic
in `fp`, never by the program under test.
"""

import itertools
import random

import fp

P_SMALL = 32003  # Singular's default characteristic
P_BIG = 2**31 - 1
P_DECOMPOSE = 101


class FactorProblem:
    """f = lead * prod q_i^e_i over F_p with distinct monic irreducible q_i."""

    def __init__(self, p, lead, factors):
        self.p = p
        self.lead = lead
        self.factors = tuple((tuple(q), e) for q, e in factors)
        f = [lead]
        for q, e in self.factors:
            f = fp.mul(f, fp.power(list(q), e, p), p)
        self.f = f

    def expected_factors(self):
        return sorted(tuple(fp.power(list(q), e, self.p)) for q, e in self.factors)

    @property
    def dimension(self):
        return fp.degree(self.f)

    @property
    def t(self):
        return len(self.factors)

    def properties(self):
        return {
            "nonradical": any(e > 1 for _, e in self.factors),
            "nonrational": any(fp.degree(q) > 1 for q, _ in self.factors),
            "lex": True,
        }

    def text(self):
        return (
            f"field {self.p}\nvars x\norder lex\nideal\n"
            f"{fp.univariate_text(self.f)}\n"
        )


class DecomposeProblem:
    """<x - A(z), y - B(z), prod q_i(z)^e_i> hidden by z -> z + a*x + b*y.

    Component i is J_i = <x - A(z), y - B(z), q_i(z)^e_i>, moved by the
    same substitution; its quotient dimension is e_i * deg q_i.
    """

    def __init__(self, p, order, a, b, A, B, factors):
        self.p = p
        self.order = order
        self.a = a
        self.b = b
        self.A = list(A)
        self.B = list(B)
        self.factors = tuple((tuple(q), e) for q, e in factors)
        Q = [1]
        for q, e in self.factors:
            Q = fp.mul(Q, fp.power(list(q), e, p), p)
        lin = {(0, 0, 1): 1}
        if a:
            lin[(1, 0, 0)] = a
        if b:
            lin[(0, 1, 0)] = b
        self.generators = (
            fp.tri_add({(1, 0, 0): 1}, _neg(fp.tri_compose(self.A, lin, p), p), p),
            fp.tri_add({(0, 1, 0): 1}, _neg(fp.tri_compose(self.B, lin, p), p), p),
            fp.tri_compose(Q, lin, p),
        )

    @property
    def dimension(self):
        return sum(fp.degree(q) * e for q, e in self.factors)

    @property
    def t(self):
        return len(self.factors)

    def component_moduli(self):
        """(q_i^e_i, quotient dimension) per expected component."""
        return [
            (fp.power(list(q), e, self.p), fp.degree(q) * e) for q, e in self.factors
        ]

    def properties(self):
        return {
            "nonradical": any(e > 1 for _, e in self.factors),
            "nonrational": any(fp.degree(q) > 1 for q, _ in self.factors),
            "lex": self.order == "lex",
        }

    def text(self):
        lines = [f"field {self.p}", "vars x y z", f"order {self.order}", "ideal"]
        lines.extend(fp.tri_text(g) for g in self.generators)
        return "\n".join(lines) + "\n"


def _neg(a, p):
    return {e: (-c) % p for e, c in a.items()}


def _distinct_irreducibles(rng, degrees, p):
    seen = set()
    out = []
    for d in degrees:
        while True:
            q = tuple(fp.random_irreducible(rng, d, p))
            if q not in seen:
                seen.add(q)
                out.append(list(q))
                break
    return out


def _shape(rng, counts, max_q_degree, dimensions):
    """Degrees and exponents of t = choice(counts) factors, some squared,
    with total degree sum(d * e) in `dimensions`."""
    t = rng.choice(counts)
    while True:
        degrees = [rng.randint(1, max_q_degree) for _ in range(t)]
        exps = [2 if rng.random() < 0.3 else 1 for _ in range(t)]
        if sum(d * e for d, e in zip(degrees, exps)) in dimensions:
            return degrees, exps


def _factor_problem(rng, p, counts, dimensions):
    degrees, exps = _shape(rng, counts, 3, dimensions)
    qs = _distinct_irreducibles(rng, degrees, p)
    return FactorProblem(p, rng.randrange(1, p), list(zip(qs, exps)))


def _decompose_problem(rng):
    p = P_DECOMPOSE
    order = rng.choice(("lex", "grevlex"))
    degrees, exps = _shape(rng, (2, 3, 4), 2, (DECOMPOSE_DIM,))
    qs = _distinct_irreducibles(rng, degrees, p)
    A = [rng.randrange(p) for _ in range(DECOMPOSE_DIM)]
    B = [rng.randrange(p) for _ in range(DECOMPOSE_DIM)]
    a = rng.randrange(1, p)
    b = rng.randrange(1, p)
    return DecomposeProblem(p, order, a, b, fp.trim(A), fp.trim(B), list(zip(qs, exps)))


# Every problem of a workload has the same quotient dimension where the cost
# grows with it, so the median does not sit between two dimension clusters
# and jump with their mix.  The cost of the lex input basis of decompose-cli
# grows steeply with the dimension and has a long tail from 6 on.
DECOMPOSE_DIM = 5
BIGP_DEGREE = 8

GENERATORS = {
    # the eigenvalue scan, not the degree, sets the cost at p = 32003
    "factor-p32003": lambda rng: _factor_problem(rng, P_SMALL, (2,), range(2, 9)),
    "factor-bigp": lambda rng: _factor_problem(rng, P_BIG, (2, 3, 4), (BIGP_DEGREE,)),
    "decompose-cli": _decompose_problem,
}


def problem(workload, seed, index):
    """Problem number `index` of a workload's stream for `seed`."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return GENERATORS[workload](rng)


def stream(workload, seed):
    return (problem(workload, seed, index) for index in itertools.count())
