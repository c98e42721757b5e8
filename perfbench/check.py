"""Answer checks for every workload, run outside the timed region.

The checks use only the generator's known answer and the arithmetic in
`fp`; a returned answer is never re-verified with the program under test.
"""

import itertools
import json

import fp


def check_factor(problem, fact):
    """The primary factors are exactly {q_i^e_i} and the lead matches."""
    if fact is None or fact.lead != problem.lead:
        return False
    got = []
    for g in fact.factors:
        dense = [0] * (g.total_degree() + 1)
        for (k,), c in g.terms:
            dense[k] = c
        got.append(tuple(dense))
    return sorted(got) == problem.expected_factors()


def standard_monomial_count(leading):
    """Quotient dimension read off the leading monomials, or None if infinite."""
    nvars = len(leading[0])
    bounds = []
    for v in range(nvars):
        pure = [m[v] for m in leading if m[v] and sum(m) == m[v]]
        if not pure:
            return None
        bounds.append(min(pure))
    return sum(
        1
        for e in itertools.product(*(range(b) for b in bounds))
        if not any(all(x <= y for x, y in zip(m, e)) for m in leading)
    )


def _vanishes_on(terms, substitution, modulus, p):
    """Does sum c*X^i*Y^j*Z^k reduce to 0 modulo `modulus`?"""
    powers = []
    for base in substitution:
        top = max(e[len(powers)] for e, _ in terms)
        row = [[1]]
        for _ in range(top):
            row.append(fp.rem(fp.mul(row[-1], base, p), modulus, p))
        powers.append(row)
    acc = []
    for (i, j, k), c in terms:
        mono = fp.mul(fp.mul(powers[0][i], powers[1][j], p), powers[2][k], p)
        acc = fp.add(acc, fp.scale(fp.rem(mono, modulus, p), c, p), p)
    return not fp.rem(acc, modulus, p)


def check_decompose(problem, output):
    """Exit code 0, every verify entry true, and each expected component found.

    `output` is (exit code, stdout text).  A returned component C matches the
    expected component phi(J_i) when every basis element of C lies in
    phi(J_i) and C has the same quotient dimension (counted here from its
    leading terms), which together force C = phi(J_i).
    """
    if output is None:
        return False
    code, text = output
    if code != 0:
        return False
    try:
        payload = json.loads(text)
    except ValueError:
        return False
    verify = payload.get("verify") or {}
    if not verify or not all(v is True for v in verify.values()):
        return False
    components = payload.get("components", [])
    if payload.get("t") != problem.t or len(components) != problem.t:
        return False
    p = problem.p
    returned = []
    for comp in components:
        terms = [fp.parse_terms(g) for g in comp["groebner"]]
        dim = standard_monomial_count([t[0][0] for t in terms])
        if dim is None or dim != comp.get("quotient_dim"):
            return False
        returned.append((terms, dim))
    # phi^-1 sends z to z - a*x - b*y; modulo J_i, x = A(z) and y = B(z)
    unused = set(range(len(returned)))
    for modulus, dim in problem.component_moduli():
        x = fp.rem(problem.A, modulus, p)
        y = fp.rem(problem.B, modulus, p)
        z = fp.rem(
            fp.sub(fp.sub([0, 1], fp.scale(x, problem.a, p), p), fp.scale(y, problem.b, p), p),
            modulus,
            p,
        )
        match = next(
            (
                j
                for j in sorted(unused)
                if returned[j][1] == dim
                and all(_vanishes_on(g, (x, y, z), modulus, p) for g in returned[j][0])
            ),
            None,
        )
        if match is None:
            return False
        unused.discard(match)
    return True
