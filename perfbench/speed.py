"""Machine-speed reference for normalizing times.

The benchmark shares its host: the speed of one core swings by a factor
of about 1.4 within seconds as neighbours come and go.  A fixed routine
built from the benchmark's own pure-Python arithmetic (dense and sparse
polynomial work, the kind of code fpdec's kernels run) is timed right
before and right after each problem, and the problem's time is reported
at the reference speed: raw * REFERENCE_S / mean(the two reference times).
A run on a busy host and a run on a quiet one then read alike.
"""

import time

import fp

# duration of reference_work() on a quiet 2 GHz core
REFERENCE_S = 0.0012

_Q = [5, 0, 17, 3, 0, 1, 1]  # degree-6 modulus for the dense part
_A = [7, 3, 0, 11, 2, 9]
_LIN = {(0, 0, 1): 1, (1, 0, 0): 45, (0, 1, 0): 12}


def reference_work():
    total = 0
    for _ in range(4):
        total += len(fp.powmod([0, 1], 32003, _Q, 32003))
        total += len(fp.tri_compose(_A, _LIN, 101))
    return total


def reference_seconds():
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def at_reference_speed(raw, before, after):
    """`raw` seconds measured between two reference samples, at the reference speed."""
    return raw * REFERENCE_S * 2 / (before + after)
