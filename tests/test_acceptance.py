"""Acceptance gate: every check of the registry in ``pairpack.verify`` at its
tolerance, the time budgets of the acceptance criteria, and byte-identical
determinism of ``pairpack verify`` across processes.

``pytest tests/test_acceptance.py -v`` lists one test per check, named after
its verify line; ``pytest -k k0z_vs_oracle`` runs those checks alone.  Each
check runs once per session: the determinism test, the budgets, the
parametrized test and the unit tests that name a check share its outcome.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import check_outcome

from pairpack import Measure, average_bounds, kernel_k0z_grid, script_L
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
    # the interval certificates of s0, sup G and their literals, from scratch
    pytest.importorskip("mpmath")
    from test_constants import CERTIFICATES, prove_constants
    t0 = time.perf_counter()
    exact = prove_constants()
    assert all(certificate(literal, exact) for literal, certificate in CERTIFICATES.values())
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


def _fresh_measures(seed, shares, n=500):
    """n admissible measures drawn as the benchmark's sweep draws them, in
    its shares: c3 = 0; generic roots of both cases; near the degenerate
    line (off it); c3 Delta in [20, 500]."""
    rng = np.random.default_rng(seed)
    kinds = list(shares)
    p = np.array([shares[k] for k in kinds])
    rows = []
    for kind in rng.choice(kinds, n, p=p / p.sum()):
        c1, delta = rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.2)
        lam = rng.uniform(0.05, 1.66) / delta ** 2
        c3 = {"c3zero": 0.0,
              "generic": rng.choice([rng.uniform(0.08, 0.92), rng.uniform(1.08, 3.0)])
              * math.sqrt(lam) / 2.0,
              "near": math.sqrt(lam / (4.0 * (1.0 + rng.choice([-1, 1])
                                              * 10.0 ** rng.uniform(-12, -2)))),
              "large": math.exp(rng.uniform(math.log(20.0), math.log(500.0))) / delta}[kind]
        rows.append((float(c1), float(lam * c1), float(c3), float(delta)))
    return rows


_Z65 = np.concatenate([np.linspace(-4.0, 4.0, 64), [0.0]])


def _sweep_seconds(rows):
    # what one closed-sweep request does with each fresh measure
    t0 = time.perf_counter()
    for row in rows:
        m = Measure(*row)
        average_bounds(m)
        kernel_k0z_grid(m, _Z65)
        if m.c3 > 0.0:
            script_L(m)
    return time.perf_counter() - t0


def test_criterion_15_fresh_measure_budget_c3pos():
    # 500 fresh c3 > 0 measures: 0.13-0.17 s on 2 vCPUs whose speed drifts
    # by 2x; the per-call cost of one fresh measure is what this bounds
    rows = _fresh_measures(2115, {"generic": 0.45, "near": 0.10, "large": 0.20})
    assert _sweep_seconds(rows) < 0.5


def test_criterion_16_fresh_measure_budget_c3zero():
    # 500 fresh c3 = 0 measures: 0.045-0.055 s on the same host
    rows = _fresh_measures(2116, {"c3zero": 1.0})
    assert _sweep_seconds(rows) < 0.15
