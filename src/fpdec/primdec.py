"""End-to-end primary decomposition of zero-dimensional ideals.

Pipeline: reduced GB and Macaulay basis, then the Frobenius-invariant
subalgebra V (its dimension t is the component count), then the t
primitive idempotents of V, then one saturation per idempotent.  Each
component is I : <h_i>^infinity for an idempotent h_i; components keep
their producing idempotent at the same index and both lists are sorted by
the component's canonical basis text.

verify() re-checks the structural identities on a finished decomposition
with exact arithmetic and reports failures with witnesses instead of
raising.
"""

from .errors import NotZeroDimensionalError, UnitIdealError
from .groebner import Ideal, buchberger, intersect_all
from .idempotents import IdempotentSet, invariant_subspace, split_algebra
from .quotient import is_zero_dimensional, macaulay_basis, multiply_mod


class Decomposition:
    """An irredundant primary decomposition with its supporting artifacts."""

    __slots__ = ("input", "basis", "components", "idempotents")

    def __init__(self, input_ideal, basis, components, idempotents):
        self.input = input_ideal
        self.basis = basis
        self.components = tuple(components)
        self.idempotents = idempotents

    @property
    def t(self):
        return len(self.components)

    def component_dimensions(self):
        return [macaulay_basis(c.groebner_basis()).dimension for c in self.components]

    def __repr__(self):
        return f"Decomposition(t={self.t} of dim {self.basis.dimension})"


def _component_key(component):
    return tuple(str(g) for g in component.groebner_basis())


def primary_decomposition(ideal):
    """Irredundant primary decomposition I = I_1 ∩ ... ∩ I_t.

    Raises UnitIdealError for <1> and NotZeroDimensionalError when some
    variable has no pure-power leading term.
    """
    gb = ideal.groebner_basis()
    if gb.is_unit:
        raise UnitIdealError("the unit ideal has no primary decomposition")
    if not is_zero_dimensional(gb):
        raise NotZeroDimensionalError(
            "primary decomposition requires a zero-dimensional ideal"
        )
    qb = macaulay_basis(gb)
    subalgebra = invariant_subspace(qb)
    idempotents = split_algebra(subalgebra)
    base = Ideal.from_groebner(gb)
    components = [base.saturate(e.to_polynomial()) for e in idempotents]
    pairs = sorted(zip(components, idempotents), key=lambda t: _component_key(t[0]))
    return Decomposition(
        ideal,
        qb,
        [c for c, _ in pairs],
        IdempotentSet([e for _, e in pairs]),
    )


class CheckResult:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name, passed, detail=""):
        self.name = name
        self.passed = passed
        self.detail = detail

    def __repr__(self):
        status = "ok" if self.passed else "FAIL"
        return f"{status} {self.name}" + (f": {self.detail}" if self.detail else "")


class VerificationReport:
    """Outcome of every structural check; failures carry witnesses."""

    __slots__ = ("results",)

    def __init__(self, results):
        self.results = tuple(results)

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def as_dict(self):
        return {r.name: r.passed for r in self.results}

    def failures(self):
        return [r for r in self.results if not r.passed]

    def __str__(self):
        return "\n".join(repr(r) for r in self.results)


def _first_witness(target, other):
    """A generator of `target`'s GB that other does not contain, if any."""
    for g in target.groebner_basis():
        if not other.contains(g):
            return g
    return None


def verify(decomposition):
    """Exact structural audit of a Decomposition."""
    d = decomposition
    qb = d.basis
    ring = qb.ring
    results = []

    polys = [e.to_polynomial() for e in d.idempotents]
    bad = [
        str(h)
        for h in polys
        if multiply_mod(h, h, qb) != qb.gb.normal_form(h)
    ]
    results.append(
        CheckResult(
            "idempotent_squares",
            not bad,
            "" if not bad else f"h^2 != h for {bad[0]}",
        )
    )

    witness = ""
    ortho = True
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if not multiply_mod(polys[i], polys[j], qb).is_zero:
                ortho = False
                witness = f"h_{i} * h_{j} != 0"
                break
        if not ortho:
            break
    results.append(CheckResult("idempotents_orthogonal", ortho, witness))

    total = ring.zero()
    for h in polys:
        total = total + h
    sums_to_one = qb.gb.normal_form(total) == ring.one()
    results.append(
        CheckResult(
            "idempotents_sum_to_one",
            sums_to_one,
            "" if sums_to_one else f"sum = {qb.gb.normal_form(total)}",
        )
    )

    count_ok = len(d.components) == len(polys)
    results.append(
        CheckResult(
            "component_count",
            count_ok,
            f"t = {len(d.components)}",
        )
    )

    intersection = intersect_all(list(d.components))
    inter_ok = intersection.groebner_basis().polys == d.input.groebner_basis().polys
    witness = ""
    if not inter_ok:
        w = _first_witness(d.input, intersection)
        if w is not None:
            witness = f"{w} lies in the input but not in the intersection"
        else:
            w = _first_witness(intersection, d.input)
            witness = f"{w} lies in the intersection but not in the input"
    results.append(CheckResult("intersection_equals_input", inter_ok, witness))

    comax = True
    witness = ""
    for i in range(len(d.components)):
        for j in range(i + 1, len(d.components)):
            joined = buchberger(
                list(d.components[i].generators) + list(d.components[j].generators)
            )
            if not joined.is_unit:
                comax = False
                witness = f"components {i} and {j} are not comaximal"
                break
        if not comax:
            break
    results.append(CheckResult("pairwise_comaximal", comax, witness))

    dims = d.component_dimensions()
    dim_ok = qb.dimension == sum(dims)
    results.append(
        CheckResult(
            "dimension_identity",
            dim_ok,
            f"{qb.dimension} = " + " + ".join(str(v) for v in dims),
        )
    )

    invariant_ok = True
    witness = ""
    for i, comp in enumerate(d.components):
        sub = invariant_subspace(macaulay_basis(comp.groebner_basis()))
        if sub.dimension != 1:
            invariant_ok = False
            witness = f"component {i} has invariant dimension {sub.dimension}"
            break
    results.append(
        CheckResult("component_invariant_dimension", invariant_ok, witness)
    )

    contained = True
    witness = ""
    for g in d.input.generators:
        for i, comp in enumerate(d.components):
            if not comp.contains(g):
                contained = False
                witness = f"{g} is not in component {i}"
                break
        if not contained:
            break
    results.append(CheckResult("input_contained_in_components", contained, witness))

    return VerificationReport(results)
