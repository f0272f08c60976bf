"""Test-session setup: single-threaded BLAS, and the session's registry runs.

The determinism test in ``test_acceptance.py`` runs ``pairpack verify`` in a
fresh process beside the in-process checks.  With a multi-threaded BLAS in
each, the two processes oversubscribe the cores (3x slower on 2 cores).  The
fresh process inherits this environment, so both use the same BLAS thread
count, on which the last digits of the report depend.  A count the caller
set is kept, and nothing is set once numpy is loaded, when it could no
longer apply to this process.

Each check of ``pairpack.verify`` runs at most once per session
(``check_outcome``); the acceptance tests and the unit tests whose property
a registry check holds (``registry_test``) read the same outcome.

``integrate_with_kink`` is the brute-force quadrature oracle of the unit
tests: adaptive Gauss-Legendre integration, independent of every closed form.
"""

import functools
import os
import sys
import time

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from pairpack.quadrature import gauss_legendre  # noqa: E402
from pairpack.verify import CHECKS  # noqa: E402  (after the BLAS setting)

BY_NAME = {check.name: check for check in CHECKS}


@functools.cache
def check_outcome(name):
    """(passed, report line, seconds) of the named registry check."""
    t0 = time.perf_counter()
    passed, line = BY_NAME[name].run()
    return passed, line, time.perf_counter() - t0


def registry_test(*names):
    """A test method that passes when the named registry checks pass."""
    def test(self):
        for name in names:
            passed, line, _ = check_outcome(name)
            assert passed, line
    test.__doc__ = f"Registry check(s) {', '.join(names)}."
    return test


def adaptive_quad(f, a: float, b: float, tol: float = 1e-12,
                  max_depth: int = 40) -> float:
    """Adaptive Gauss-Legendre integration of a vectorized callable.

    Each subinterval is integrated with 20- and 40-point rules; the
    difference drives bisection.  ``tol`` is an absolute tolerance on the
    whole interval, distributed over subintervals.
    """
    def recurse(lo, hi, tol_loc, depth):
        x1, w1 = gauss_legendre(20, lo, hi)
        x2, w2 = gauss_legendre(40, lo, hi)
        i1 = np.dot(w1, f(x1))
        i2 = np.dot(w2, f(x2))
        if abs(i2 - i1) <= tol_loc or depth >= max_depth:
            return i2
        mid = 0.5 * (lo + hi)
        return (recurse(lo, mid, tol_loc / 2, depth + 1)
                + recurse(mid, hi, tol_loc / 2, depth + 1))

    if b <= a:
        return 0.0
    return recurse(a, b, tol, 0)


def integrate_with_kink(f, a: float, b: float, kink: float = 0.0,
                        tol: float = 1e-12) -> float:
    """Adaptive integration of ``f`` on [a, b], splitting at one interior
    kink so each piece is smooth."""
    if a < kink < b:
        return adaptive_quad(f, a, kink, tol / 2) + adaptive_quad(f, kink, b, tol / 2)
    return adaptive_quad(f, a, b, tol)
