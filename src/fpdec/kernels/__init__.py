"""Arithmetic kernel selection.

The package ships two interchangeable implementations of the hot inner
loops (polynomial term merging, division, dense mod-p row reduction): a
compiled Cython extension and a pure-Python fallback.  The compiled one is
used when importable; set FPDEC_BACKEND=python (or =c) to force a choice,
or call `use_backend` at runtime (tests/test_kernels.py does).
"""

import os

from . import pykernel

_BACKENDS = {"python": pykernel}

try:
    from . import _ckernel

    _BACKENDS["c"] = _ckernel
except ImportError:
    _ckernel = None

_env = os.environ.get("FPDEC_BACKEND")
if _env is not None and _env not in _BACKENDS:
    raise ImportError(
        f"FPDEC_BACKEND={_env!r} is not available; choices: {sorted(_BACKENDS)}"
    )
_active = _BACKENDS[_env or ("c" if "c" in _BACKENDS else "python")]


def backend_name():
    """Name of the active backend: 'c' or 'python'."""
    return _active.BACKEND


def available_backends():
    return sorted(_BACKENDS)


def use_backend(name):
    """Switch backends at runtime; returns the previously active name."""
    global _active
    if name not in _BACKENDS:
        raise ValueError(f"unknown backend {name!r}; choices: {sorted(_BACKENDS)}")
    previous = _active.BACKEND
    _active = _BACKENDS[name]
    return previous


def monomial_cmp(ea, eb, kind, perm):
    return _active.monomial_cmp(ea, eb, kind, perm)


def sort_key(exps, kind, perm):
    return _active.sort_key(exps, kind, perm)


def poly_neg(ta, p):
    return _active.poly_neg(ta, p)


def poly_add(ta, tb, p, kind, perm):
    return _active.poly_add(ta, tb, p, kind, perm)


def poly_mul_term(ta, c, m, p, kind, perm):
    return _active.poly_mul_term(ta, c, m, p, kind, perm)


def poly_submul(ta, c, m, tb, p, kind, perm):
    return _active.poly_submul(ta, c, m, tb, p, kind, perm)


def poly_mul(ta, tb, p, kind, perm):
    return _active.poly_mul(ta, tb, p, kind, perm)


def normal_form(tf, divisors, p, kind, perm):
    return _active.normal_form(tf, divisors, p, kind, perm)


def rref(rows, p):
    return _active.rref(rows, p)
