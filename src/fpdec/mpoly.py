"""Sparse multivariate polynomials over F_p.

A polynomial is an immutable list of (exponent tuple, coefficient) terms,
coefficients in [1, p), sorted strictly descending in its ring's monomial
order.  Variable precedence is the ring's listing order: the first variable
is the greatest.

Text syntax (used by the CLI ideal files, whitespace insignificant):

    expr   := term (('+'|'-') term)*          leading '-' allowed
    term   := factor ('*' factor)*
    factor := integer | variable ('^' integer)?

Multiplication is always explicit: write x^2*y, never x^2y.
"""

import re

from . import kernels
from .errors import ParseError
from .gf import PrimeField

LEX = 0
GREVLEX = 1

_ORDER_CODES = {"lex": LEX, "grevlex": GREVLEX}

# exponent ceiling; keeps packed products inside machine range everywhere
MAX_DEGREE = 1 << 20


class MonomialOrder:
    """A monomial order: 'lex' or 'grevlex' plus a variable precedence.

    `precedence` lists variable indices from greatest to least; None means
    the identity (variable 0 greatest), fixed when the order is attached to
    a ring.
    """

    __slots__ = ("kind", "precedence")

    def __init__(self, kind, precedence=None):
        if kind not in _ORDER_CODES:
            raise ValueError(f"unknown monomial order {kind!r}")
        self.kind = kind
        self.precedence = None if precedence is None else tuple(precedence)

    @property
    def code(self):
        return _ORDER_CODES[self.kind]

    def resolved(self, nvars):
        if self.precedence is None:
            return MonomialOrder(self.kind, tuple(range(nvars)))
        if sorted(self.precedence) != list(range(nvars)):
            raise ValueError("precedence must be a permutation of the variable indices")
        return self

    def key(self, exps):
        perm = self.precedence or tuple(range(len(exps)))
        return kernels.sort_key(exps, self.code, perm)

    def compare(self, a, b):
        perm = self.precedence or tuple(range(len(a)))
        return kernels.monomial_cmp(a, b, self.code, perm)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.precedence == other.precedence
        )

    def __hash__(self):
        return hash((self.kind, self.precedence))

    def __repr__(self):
        return f"MonomialOrder({self.kind!r})"


def compare_monomials(a, b, order):
    """Total-order comparison of two exponent tuples; returns -1, 0 or 1."""
    if len(a) != len(b):
        raise ValueError("exponent tuples of different lengths")
    return order.compare(a, b)


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a, b):
    """Does x^a divide x^b?"""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def is_variable_name(name):
    """True if name is a letter or underscore followed by letters, digits, _."""
    return _NAME_RE.fullmatch(name) is not None


class PolyRing:
    """F_p[x_1, ..., x_n] with a fixed monomial order."""

    __slots__ = ("field", "variables", "order", "_var_index")

    def __init__(self, p, variables, order=None):
        self.field = p if isinstance(p, PrimeField) else PrimeField(p)
        self.variables = tuple(variables)
        if not self.variables:
            raise ValueError("at least one variable is required")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")
        for name in self.variables:
            if not is_variable_name(name):
                raise ValueError(f"invalid variable name {name!r}")
        if order is None:
            order = MonomialOrder("lex")
        elif isinstance(order, str):
            order = MonomialOrder(order)
        self.order = order.resolved(len(self.variables))
        self._var_index = {name: i for i, name in enumerate(self.variables)}

    @property
    def p(self):
        return self.field.p

    @property
    def nvars(self):
        return len(self.variables)

    def zero(self):
        return Polynomial(self, ())

    def one(self):
        return self.constant(1)

    def constant(self, c):
        c %= self.p
        if c == 0:
            return self.zero()
        return Polynomial(self, (((0,) * self.nvars, c),))

    def variable(self, which):
        """Polynomial for a single variable (by name or index)."""
        i = self._var_index[which] if isinstance(which, str) else which
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, ((exps, 1),))

    def gens(self):
        return [self.variable(i) for i in range(self.nvars)]

    def monomial(self, exps, coeff=1):
        return self.from_terms([(tuple(exps), coeff)])

    def from_terms(self, terms):
        """Canonicalize arbitrary (exponents, coefficient) pairs."""
        acc = {}
        for exps, c in terms:
            exps = tuple(exps)
            if len(exps) != self.nvars:
                raise ValueError("wrong exponent tuple length")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            if any(e > MAX_DEGREE for e in exps):
                raise OverflowError("exponent exceeds MAX_DEGREE")
            c = c % self.p
            if c:
                acc[exps] = (acc.get(exps, 0) + c) % self.p
        canon = [(e, c) for e, c in acc.items() if c]
        canon.sort(key=lambda t: self.order.key(t[0]), reverse=True)
        return Polynomial(self, tuple(canon))

    def parse(self, text):
        return _parse_poly(text, self)

    def with_order(self, order):
        return PolyRing(self.field, self.variables, order)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.variables == other.variables
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.field, self.variables, self.order))

    def __repr__(self):
        return f"PolyRing(F_{self.p}, vars={list(self.variables)}, order={self.order.kind})"


class Polynomial:
    """Immutable sparse polynomial bound to a PolyRing."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = tuple(terms)

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_constant(self):
        return not self.terms or not any(self.terms[0][0])

    def lm(self):
        """Leading monomial (exponent tuple); zero polynomial has none."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][0]

    def lc(self):
        if not self.terms:
            return 0
        return self.terms[0][1]

    def constant_value(self):
        if self.is_zero:
            return 0
        if not self.is_constant:
            raise ValueError("not a constant")
        return self.terms[0][1]

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    def degree_in(self, var):
        i = self.ring._var_index[var] if isinstance(var, str) else var
        if not self.terms:
            return -1
        return max(e[i] for e, _ in self.terms)

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def _kern_args(self):
        o = self.ring.order
        return self.ring.p, o.code, o.precedence

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check_ring(other)
        p, kind, perm = self._kern_args()
        return Polynomial(self.ring, kernels.poly_add(self.terms, other.terms, p, kind, perm))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, kernels.poly_neg(self.terms, self.ring.p))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other %= self.ring.p
            if other == 0:
                return self.ring.zero()
            p, kind, perm = self._kern_args()
            zero = (0,) * self.ring.nvars
            return Polynomial(
                self.ring, kernels.poly_mul_term(self.terms, other, zero, p, kind, perm)
            )
        self._check_ring(other)
        if self.total_degree() + other.total_degree() > MAX_DEGREE:
            raise OverflowError("product degree exceeds MAX_DEGREE")
        p, kind, perm = self._kern_args()
        return Polynomial(self.ring, kernels.poly_mul(self.terms, other.terms, p, kind, perm))

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base_needed = e > 1
            e >>= 1
            if base_needed and e:
                base = base * base
        return result

    def monic(self):
        if self.is_zero:
            return self
        inv = self.ring.field.inv(self.lc())
        return self * inv

    # -- comparison / presentation ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ring.constant(other)
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        names = self.ring.variables
        for exps, c in self.terms:
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(c)] + factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} over F_{self.ring.p}>"


# -- parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^]))"
)


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(
                f"unexpected character {stripped[0]!r}", len(text) - len(stripped)
            )
        if m.lastgroup == "int":
            tokens.append(("int", m.group("int"), m.start("int")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, ring):
        self.tokens = _tokenize(text)
        self.i = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self):
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val in "+-":
            self.advance()
            sign = -1 if val == "-" else 1
        poly = self.term() * sign
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                nxt = self.term()
                poly = poly - nxt if val == "-" else poly + nxt
            else:
                return poly

    def term(self):
        poly = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                poly = poly * self.factor()
            else:
                return poly

    def factor(self):
        kind, val, pos = self.advance()
        if kind == "int":
            return self.ring.constant(int(val))
        if kind == "name":
            if val not in self.ring._var_index:
                raise ParseError(f"unknown variable {val!r}", pos)
            v = self.ring.variable(val)
            kind, nval, npos = self.peek()
            if kind == "op" and nval == "^":
                self.advance()
                ekind, eval_, epos = self.advance()
                if ekind != "int":
                    raise ParseError("expected integer exponent after '^'", epos)
                e = int(eval_)
                if e > MAX_DEGREE:
                    raise ParseError("exponent too large", epos)
                return v**e
            return v
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected {val!r}", pos)


def _parse_poly(text, ring):
    parser = _Parser(text, ring)
    poly = parser.expr()
    kind, val, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected {val!r}", pos)
    return poly


def parse_poly(text, ring):
    """Parse text into a canonical Polynomial; raises ParseError with position."""
    return _parse_poly(text, ring)
