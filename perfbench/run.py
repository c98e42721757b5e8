"""End-to-end benchmark of fpdec.

    python3 perfbench/run.py --workload factor-p32003 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; fpdec is imported from ./src as it
stands (whichever kernel backend imports there, nothing is built).  One
process, one closed-loop client: each problem is sent only after the
previous one has returned.  Problems come from the seed alone and every
answer is checked against the generator's known answer outside the timed
region.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each batch of
problems twice, plain and with every fpdec layer wrapped, prints the
per-layer metrics of the wrapped pass, and writes its spans to
perfbench/out/.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import check
import problems
import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# problems prepared, solved and checked together
BATCH = 8
# fresh interpreters timed for setup_s
SETUP_RUNS = 15

# prints the import time and then the reference time of the same interpreter
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "start = time.perf_counter()\n"
    "import fpdec, fpdec.cli\n"
    "print(time.perf_counter() - start)\n"
    "import speed\n"
    "print(min(speed.reference_seconds() for _ in range(3)))\n"
)


class FactorWorkload:
    """fpdec.factor(f) on a univariate f over F_p."""

    def __init__(self, name, p):
        self.name = name
        self.p = p
        self._ring = None

    def prepare(self, problem, slot, workdir):
        import fpdec

        if self._ring is None:
            self._ring = fpdec.PolyRing(self.p, ["x"])
        return self._ring.from_terms([((k,), c) for k, c in enumerate(problem.f) if c])

    def solve(self, f):
        import fpdec

        return fpdec.factor(f)

    def check(self, problem, output):
        return check.check_factor(problem, output)


class CliWorkload:
    """fpdec.cli.main(["decompose", path, "--json"]) on a problem file."""

    def __init__(self, name, p):
        self.name = name
        self.p = p

    def prepare(self, problem, slot, workdir):
        path = workdir / f"problem-{slot}.ideal"
        path.write_text(problem.text(), encoding="utf-8")
        return str(path)

    def solve(self, path):
        import fpdec.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = fpdec.cli.main(["decompose", path, "--json"])
        return code, out.getvalue()

    def check(self, problem, output):
        return check.check_decompose(problem, output)


def _workloads():
    return {
        "factor-p32003": FactorWorkload("factor-p32003", problems.P_SMALL),
        "factor-bigp": FactorWorkload("factor-bigp", problems.P_BIG),
        "decompose-cli": CliWorkload("decompose-cli", problems.P_DECOMPOSE),
    }


class InputMix:
    """Shares of input properties and mean size over the problems solved."""

    def __init__(self):
        self.n = 0
        self.props = Counter()
        self.dimension = 0
        self.t = 0

    def add(self, solved):
        for pb in solved:
            self.n += 1
            self.props.update(k for k, v in pb.properties().items() if v)
            self.dimension += pb.dimension
            self.t += pb.t

    def shares(self):
        n = max(self.n, 1)
        return {
            f"input.{key}_frac": self.props[key] / n
            for key in ("nonradical", "nonrational", "lex")
        }


class Pass:
    """Timings and verdicts of one sequence of solves."""

    def __init__(self):
        self.times = []  # raw seconds per solve
        self.scaled = []  # the same at the reference speed
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self._tracebacks = 0

    def run(self, workload, batch, inputs, budget):
        """Solve in order until the batch or the time budget runs out."""
        outputs = []
        before = speed.reference_seconds()
        for prepared in inputs:
            if self.wall >= budget:
                break
            t0 = time.perf_counter()
            try:
                out = workload.solve(prepared)
            except Exception:  # a failed solve is counted, the run goes on
                out = None
                if not self._tracebacks:
                    traceback.print_exc(file=sys.stderr)
                self._tracebacks += 1
            elapsed = time.perf_counter() - t0
            after = speed.reference_seconds()
            self.times.append(elapsed)
            self.scaled.append(speed.at_reference_speed(elapsed, before, after))
            before = after
            self.wall += elapsed
            outputs.append(out)
        self.attempted += len(outputs)
        self.failed += sum(
            not workload.check(pb, out) for pb, out in zip(batch, outputs)
        )
        return len(outputs)

    def factor(self):
        """Scaled over raw seconds, weighted by time."""
        return sum(self.scaled) / sum(self.times)


def measure(workload, seed, seconds, tracer=None):
    """Closed loop over the seed's problem stream for `seconds` of solving.

    With a tracer, each batch is solved plain and then again traced, so
    both passes see the same problems.
    """
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        warm = problems.problem(workload.name, seed, -1)
        with contextlib.suppress(Exception):  # a failure here shows in the loop
            workload.solve(workload.prepare(warm, 0, workdir))
        plain, traced = Pass(), Pass()
        mix = InputMix()
        stream = problems.stream(workload.name, seed)
        while plain.wall + traced.wall < seconds:
            batch = [next(stream) for _ in range(BATCH)]
            inputs = [workload.prepare(pb, slot, workdir) for slot, pb in enumerate(batch)]
            budget = seconds - traced.wall
            done = plain.run(workload, batch, inputs, budget)
            mix.add(batch[:done])
            if tracer is not None and done:
                with tracer:
                    traced.run(workload, batch[:done], inputs[:done], float("inf"))
        return plain, traced, mix
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_seconds():
    """Median time for a fresh interpreter to import fpdec and fpdec.cli.

    Each interpreter also times the speed reference, and its import time is
    scaled to the reference speed.  Returns (scaled median, raw median).
    """
    cmd = [sys.executable, "-I", "-c", _IMPORT_PROBE, str(SRC), str(HERE)]
    env = {k: v for k, v in os.environ.items() if not k.startswith("FPDEC_")}
    raw, scaled = [], []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True
        )
        if i:  # the first run may still be writing bytecode caches
            import_s, reference_s = map(float, done.stdout.split())
            raw.append(import_s)
            scaled.append(speed.at_reference_speed(import_s, reference_s, reference_s))
    return statistics.median(scaled), statistics.median(raw)


def end_to_end_metrics(plain, setup_s):
    """Times at the reference speed (see speed.py)."""
    times = plain.scaled
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
    correct = plain.attempted - plain.failed
    return {
        "solve_s_p50": (statistics.median(times), "s"),
        "solve_s_p90": (p90, "s"),
        "problems_per_s": (correct / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer_metrics(plain, traced, mix, tracer):
    """Per-problem layer figures of the traced pass.

    Seconds are scaled by the traced pass's own speed factor.
    """
    factor = traced.factor()
    n = max(traced.attempted, 1)
    totals, calls, cli_self = tracer.span_totals()
    counts, busy = tracer.counts, tracer.busy
    probes = counts["eigen_probes"]
    spairs = counts["spairs"]

    def per(x):
        return x / n

    metrics = {
        "idempotents.split_s": (per(totals["idempotents.split"]), "s/problem"),
        "idempotents.eigen_probes": (per(probes), "count/problem"),
        "idempotents.eigen_hit_ratio": (counts["eigen_hits"] / probes if probes else 0.0, "ratio"),
        "gf.kernel_basis_calls": (per(counts["kernel_basis"]), "count/problem"),
        "kernels.rref_calls": (per(counts["rref"]), "count/problem"),
        "kernels.rref_s": (per(busy["rref"]), "s/problem"),
        "kernels.rref_ops": (per(counts["rref_ops"]), "count/problem"),
        "quotient.frobenius_s": (per(totals["quotient.frobenius"]), "s/problem"),
        "idempotents.invariant_s": (per(totals["idempotents.invariant"]), "s/problem"),
        "kernels.poly_mul_calls": (per(counts["poly_mul"]), "count/problem"),
        "kernels.poly_mul_s": (per(busy["poly_mul"]), "s/problem"),
        "kernels.normal_form_calls": (per(counts["normal_form"]), "count/problem"),
        "kernels.normal_form_s": (per(busy["normal_form"]), "s/problem"),
        "groebner.buchberger_calls": (
            per(sum(calls[f"groebner.buchberger.{k}"] for k in tracing.BUCHBERGER_KINDS)),
            "count/problem",
        ),
        "groebner.buchberger_s": (
            per(sum(totals[f"groebner.buchberger.{k}"] for k in tracing.BUCHBERGER_KINDS)),
            "s/problem",
        ),
    }
    for kind in tracing.BUCHBERGER_KINDS:
        metrics[f"groebner.buchberger_s.{kind}"] = (
            per(totals[f"groebner.buchberger.{kind}"]),
            "s/problem",
        )
    metrics.update({
        "groebner.spairs": (per(spairs), "count/problem"),
        "groebner.spair_zero_ratio": (counts["spair_zero"] / spairs if spairs else 0.0, "ratio"),
        "primdec.verify_s": (per(totals["primdec.verify"]), "s/problem"),
        "groebner.intersect_s": (per(totals["groebner.intersect"]), "s/problem"),
        "groebner.saturate_s": (per(totals["groebner.saturate"]), "s/problem"),
        "groebner.saturate_calls": (per(calls["groebner.saturate"]), "count/problem"),
        "quotient.macaulay_s": (per(totals["quotient.macaulay"]), "s/problem"),
        "primdec.decompose_s": (per(totals["primdec.decompose"]), "s/problem"),
        "univar.factor_s": (per(totals["univar.factor"]), "s/problem"),
        "cli.self_s": (per(cli_self), "s/problem"),
        "quotient.dim_mean": (mix.dimension / max(mix.n, 1), "dim"),
        "idempotents.t_mean": (mix.t / max(mix.n, 1), "count"),
        "trace.overhead_frac": (sum(traced.scaled) / sum(plain.scaled) - 1.0, "ratio"),
    })
    metrics.update((k, (v, "ratio")) for k, v in mix.shares().items())
    return {
        name: (value * factor if unit == "s/problem" else value, unit)
        for name, (value, unit) in metrics.items()
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fpdec" / "__init__.py").is_file():
        print(f"error: no fpdec sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in ("FPDEC_BACKEND", "FPDEC_PARALLEL"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    import fpdec
    import fpdec.cli  # noqa: F401  (the traced run wraps it)
    import fpdec.kernels

    if not Path(fpdec.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported fpdec from {fpdec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workloads = _workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choices: {sorted(workloads)}",
              file=sys.stderr)
        return 2
    workload = workloads[args.workload]

    labels = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": fpdec.kernels.backend_name(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "p": workload.p,
    }
    print("# " + " ".join(f"{k}={v}" for k, v in labels.items()))

    if args.trace:
        tracer = tracing.Tracer()
        plain, traced, mix = measure(workload, args.seed, args.seconds, tracer)
        metrics = per_layer_metrics(plain, traced, mix, tracer)
        tracer.write(OUT / f"trace-{workload.name}-seed{args.seed}.jsonl")
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
    else:
        setup_s, setup_raw = setup_seconds()
        plain, _, mix = measure(workload, args.seed, args.seconds)
        metrics = end_to_end_metrics(plain, setup_s)
        attempted, failed = plain.attempted, plain.failed
        print(f"# raw solve_s_p50={statistics.median(plain.times):.6g} setup_s={setup_raw:.6g}")

    print(f"# speed factor={plain.factor():.4f}: seconds below are at the reference speed, "
          f"raw seconds times about this factor")
    print(f"# samples={plain.attempted} (solve_s_p90 has {plain.attempted // 10} beyond it)")
    for name, value in mix.shares().items():
        print(f"# {name}={value:.3f}")
    print(f"failed_frac {failed / attempted:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
