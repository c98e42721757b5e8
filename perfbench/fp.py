"""Dense F_p arithmetic owned by the benchmark.

The generator and the checker use these helpers instead of fpdec, so a bug
in the program under test cannot hide itself in its own answer key.

Univariate polynomials are ascending coefficient lists with no trailing
zeros (the zero polynomial is []).  Trivariate polynomials in x, y, z are
dicts {(i, j, k): c} with c in [1, p).
"""


def trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def degree(a):
    return len(a) - 1


def add(a, b, p):
    n = max(len(a), len(b))
    return trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                 for i in range(n)])


def sub(a, b, p):
    return add(a, [(-c) % p for c in b], p)


def scale(a, c, p):
    return trim([(c * v) % p for v in a])


def mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return trim([v % p for v in out])


def divmod_poly(a, b, p):
    """(quotient, remainder) of a by a nonzero b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    inv = pow(b[-1], p - 2, p)
    db = len(b) - 1
    q = [0] * max(len(r) - db, 0)
    while len(trim(r)) - 1 >= db:
        c = (r[-1] * inv) % p
        shift = len(r) - 1 - db
        q[shift] = c
        for i, bi in enumerate(b):
            r[shift + i] = (r[shift + i] - c * bi) % p
    return trim(q), r


def rem(a, b, p):
    return divmod_poly(a, b, p)[1]


def monic(a, p):
    return scale(a, pow(a[-1], p - 2, p), p) if a else []


def gcd(a, b, p):
    a, b = trim(list(a)), trim(list(b))
    while b:
        a, b = b, rem(a, b, p)
    return monic(a, p)


def powmod(a, e, m, p):
    result = [1]
    base = rem(a, m, p)
    while e:
        if e & 1:
            result = rem(mul(result, base, p), m, p)
        e >>= 1
        if e:
            base = rem(mul(base, base, p), m, p)
    return rem(result, m, p)


def power(a, e, p):
    result = [1]
    for _ in range(e):
        result = mul(result, a, p)
    return result


def is_irreducible(q, p):
    """Ben-Or's test: gcd(x^(p^i) - x, q) = 1 for every i <= deg q / 2."""
    d = degree(q)
    if d < 1:
        return False
    x = [0, 1]
    xpi = x
    for _ in range(d // 2):
        xpi = powmod(xpi, p, q, p)
        if degree(gcd(q, sub(xpi, x, p), p)) > 0:
            return False
    return True


def random_monic(rng, d, p):
    return [rng.randrange(p) for _ in range(d)] + [1]


def random_irreducible(rng, d, p):
    while True:
        q = random_monic(rng, d, p)
        if is_irreducible(q, p):
            return q


# -- trivariate sparse polynomials in x, y, z --------------------------------


def tri_add(a, b, p):
    out = dict(a)
    for e, c in b.items():
        v = (out.get(e, 0) + c) % p
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def tri_mul(a, b, p):
    out = {}
    for (i, j, k), c in a.items():
        for (u, v, w), d in b.items():
            e = (i + u, j + v, k + w)
            out[e] = (out.get(e, 0) + c * d) % p
    return {e: c for e, c in out.items() if c}


def tri_compose(g, lin, p):
    """g(lin) for univariate g, as a trivariate polynomial."""
    acc = {}
    for c in reversed(g):
        acc = tri_mul(acc, lin, p)
        if c:
            acc = tri_add(acc, {(0, 0, 0): c}, p)
    return acc


def tri_text(a, names=("x", "y", "z")):
    """fpdec problem-file syntax, terms in descending lex order."""
    if not a:
        return "0"
    parts = []
    for e in sorted(a, reverse=True):
        factors = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k]
        c = a[e]
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([str(c)] + factors))
    return " + ".join(parts)


def parse_terms(text, names=("x", "y", "z")):
    """Parse fpdec's printed form "3*x^2*y + z + 5" into [(exps, c)], in order."""
    index = {n: i for i, n in enumerate(names)}
    terms = []
    for part in text.split(" + "):
        exps = [0] * len(names)
        c = 1
        for factor in part.split("*"):
            name, _, power_text = factor.partition("^")
            if name.isdigit():
                c = int(name)
            else:
                exps[index[name]] += int(power_text) if power_text else 1
        terms.append((tuple(exps), c))
    return terms


def univariate_text(a, name="x"):
    return tri_text({(0, 0, i): c for i, c in enumerate(a) if c}, ("_", "_", name))
