"""Per-layer tracing by wrapping fpdec's public functions from outside.

`from module import name` copies the binding, so every fpdec module that
holds a traced function under some name gets the wrapper, for example
`fpdec.primdec.split_algebra` as well as `fpdec.idempotents.split_algebra`.
Layer entry points become spans (name, start, end, parent id) kept in
memory; kernel-level calls are only counted and timed in aggregate.
"""

import json
import sys
import time
from collections import defaultdict

# (module, function) -> span name
SPANS = {
    ("cli", "main"): "cli.main",
    ("univar", "factor"): "univar.factor",
    ("primdec", "primary_decomposition"): "primdec.decompose",
    ("primdec", "verify"): "primdec.verify",
    ("groebner", "buchberger"): "groebner.buchberger",
    ("groebner", "saturate"): "groebner.saturate",
    ("groebner", "intersect"): "groebner.intersect",
    ("quotient", "macaulay_basis"): "quotient.macaulay",
    ("quotient", "frobenius_matrix"): "quotient.frobenius",
    ("idempotents", "invariant_subspace"): "idempotents.invariant",
    ("idempotents", "split_algebra"): "idempotents.split",
}

# kernels counted with their busy time
TIMED_COUNTERS = ("poly_mul", "normal_form", "rref")

# the span that encloses a Buchberger run names its purpose
_BUCHBERGER_PARENTS = {
    "groebner.saturate": "saturate",
    "groebner.intersect": "intersect",
    "primdec.verify": "comaximal",
}
BUCHBERGER_KINDS = ("input", "saturate", "intersect", "comaximal", "other")

_INPUT_GB = "input-gb"  # marks the reduced basis of the decomposed ideal
_OTHER_GB = "other-gb"


class Tracer:
    """Installs wrappers on fpdec and accumulates spans and counters."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end, problem ordinal)
        self.counts = defaultdict(int)
        self.busy = defaultdict(float)
        self.problem = -1  # ordinal of the request a span belongs to
        self._stack = []  # frames: (name, span id or None)
        self._inputs = []  # ideals handed to primary_decomposition
        self._last_spoly = None
        self._patches = []

    # -- installation --------------------------------------------------------

    def install(self):
        import fpdec.groebner

        for (module, attr), name in SPANS.items():
            self._rebind(module, attr, self._span_wrapper(name))
        for attr in TIMED_COUNTERS:
            self._rebind("kernels", attr, self._kernel_wrapper(attr))
        self._rebind("gf", "kernel_basis", self._kernel_basis_wrapper)
        self._rebind("groebner", "spoly", self._spoly_wrapper)
        self._rebind("groebner", "normal_form", self._normal_form_wrapper)
        ideal = fpdec.groebner.Ideal
        original = ideal.groebner_basis
        self._patches.append((ideal, "groebner_basis", original))
        ideal.groebner_basis = self._ideal_gb_wrapper(original)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _rebind(self, module, attr, make_wrapper):
        original = getattr(sys.modules[f"fpdec.{module}"], attr)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "fpdec" and not mod_name.startswith("fpdec."):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    # -- wrappers --------------------------------------------------------------

    def _parent_id(self):
        for _, span_id in reversed(self._stack):
            if span_id is not None:
                return span_id
        return None

    def _span_wrapper(self, name):
        def make(original):
            def wrapper(*args, **kwargs):
                span_id = len(self.spans)
                parent = self._parent_id()
                if not self._stack:  # a root span starts the next request
                    self.problem += 1
                self.spans.append(None)  # reserve the id; filled on exit
                if name == "groebner.buchberger":
                    top = self._stack[-1][0] if self._stack else None
                    kind = "input" if top == _INPUT_GB else _BUCHBERGER_PARENTS.get(top, "other")
                if name == "primdec.decompose":
                    self._inputs.append(args[0] if args else kwargs.get("ideal"))
                self._stack.append((name, span_id))
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    if name == "primdec.decompose":
                        self._inputs.pop()
                    label = name
                    if name == "groebner.buchberger":
                        label = f"{name}.{kind}"
                    self.spans[span_id] = (span_id, parent, label, start, end, self.problem)

            return wrapper

        return make

    def _kernel_wrapper(self, attr):
        def make(original):
            counts, busy = self.counts, self.busy

            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                out = original(*args, **kwargs)
                busy[attr] += time.perf_counter() - start
                counts[attr] += 1
                if attr == "rref":
                    rows = args[0]
                    if rows:
                        counts["rref_ops"] += len(rows) * len(rows[0]) * len(out[1])
                return out

            return wrapper

        return make

    def _kernel_basis_wrapper(self, original):
        def wrapper(m):
            out = original(m)
            self.counts["kernel_basis"] += 1
            if any(name == "idempotents.split" for name, _ in self._stack):
                self.counts["eigen_probes"] += 1
                if out:
                    self.counts["eigen_hits"] += 1
            return out

        return wrapper

    def _spoly_wrapper(self, original):
        def wrapper(f, g):
            out = original(f, g)
            self.counts["spairs"] += 1
            self._last_spoly = out
            return out

        return wrapper

    def _normal_form_wrapper(self, original):
        def wrapper(f, gb):
            out = original(f, gb)
            if f is self._last_spoly:
                self._last_spoly = None
                if out.is_zero:
                    self.counts["spair_zero"] += 1
            return out

        return wrapper

    def _ideal_gb_wrapper(self, original):
        def wrapper(ideal):
            is_input = bool(self._inputs) and ideal is self._inputs[-1]
            self._stack.append((_INPUT_GB if is_input else _OTHER_GB, None))
            try:
                return original(ideal)
            finally:
                self._stack.pop()

        return wrapper

    # -- results ---------------------------------------------------------------

    def span_totals(self):
        """Inclusive seconds per span label, and cli.main self time."""
        totals = defaultdict(float)
        calls = defaultdict(int)
        child_time = defaultdict(float)
        for span_id, parent, label, start, end, _ in self.spans:
            totals[label] += end - start
            calls[label] += 1
            if parent is not None:
                child_time[parent] += end - start
        cli_self = sum(
            (end - start) - child_time[span_id]
            for span_id, _, label, start, end, _ in self.spans
            if label == "cli.main"
        )
        return totals, calls, cli_self

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, label, start, end, problem in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": label,
                         "start": start, "end": end, "problem": problem}
                    )
                    + "\n"
                )
