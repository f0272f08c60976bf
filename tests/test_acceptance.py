"""Acceptance gate: every check of the registry in ``pairpack.verify`` at its
tolerance, the time budgets of the acceptance criteria, and byte-identical
determinism of ``pairpack verify`` across processes.

``pytest tests/test_acceptance.py -v`` lists one test per check, named after
its verify line; ``pytest -k k0z_vs_oracle`` runs those checks alone.  Each
check runs once per session: the determinism test, the budgets, the
parametrized test and the unit tests that name a check share its outcome.
"""

import subprocess
import sys
import time

import pytest
from conftest import BY_NAME, check_outcome

from pairpack.bounds import s0_point
from pairpack.measures import sup_g_point
from pairpack.verify import CHECKS, run_suite


def _seconds(*names):
    return sum(check_outcome(name)[2] for name in names)


def test_criterion_13_determinism():
    # first in the module, so the checks below reuse its in-process outcomes;
    # the fresh process starts before them and runs on the second core
    with subprocess.Popen([sys.executable, "-m", "pairpack.cli", "verify", "--suite", "all"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        report = run_suite("all", outcome=lambda check: check_outcome(check.name)[:2])
        out, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, err
    assert out == "\n".join(report.lines) + "\n"
    assert report.all_passed


@pytest.mark.parametrize("check", CHECKS, ids=[check.name for check in CHECKS])
def test_check(check):
    passed, line, _ = check_outcome(check.name)
    assert passed, line


def test_criterion_01_constants():
    # s0 and sup G from cold caches
    s0_point.cache_clear()
    sup_g_point.cache_clear()
    t0 = time.perf_counter()
    for name in ("s0_value", "sup_g_value"):
        BY_NAME[name].run()
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_corollary11_two_routes():
    assert _seconds("corollary11_upper", "corollary11_lower", "k00_vs_oracle_c3zero") < 5.0


def test_criterion_03_oracle_equivalence_c3zero():
    assert _seconds("nystrom_vs_closed_form") < 60.0


def test_criterion_04_oracle_equivalence_c3pos():
    assert _seconds("k0z_vs_oracle_random") < 60.0


def test_criterion_07_divisor_nonvanishing_grid():
    assert _seconds("script_L_nonvanishing", "script_L_det_real", "script_L_case_signs") < 30.0


def test_criterion_14_uniqueness_certificate():
    # four measures up to c3 Delta = 10^4 (48000 nodes) by Lanczos through
    # the panel solve: about 0.2 s on 2 vCPUs, whose speed drifts by 2x
    assert _seconds("uniqueness_a_sq_over_sigma_min") < 2.0
