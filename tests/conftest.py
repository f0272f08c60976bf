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
"""

import functools
import os
import sys
import time

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
