"""Show that every per-op check can fail.

    python3 bench/selftest.py

Runs real ops of each workload, confirms that their outputs pass, then
plants one wrong value at a time into a copy of the output and confirms
that the workload's own ``check`` rejects it with the expected check name.
pairpack itself is not modified.  Exits 1 if any planted value is accepted.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def passing_op(wl, want=lambda inputs: True, tries: int = 200):
    """The first op whose inputs satisfy ``want`` and whose output passes."""
    for _ in range(tries):
        inputs = wl.next_inputs()
        if not want(inputs):
            continue
        out = wl.run(inputs)
        try:
            wl.check(inputs, out)
        except checks.CheckFailed:
            continue
        return inputs, out
    raise RuntimeError(f"no passing {wl.name} op found")


def sweep_cases(wl):
    inputs, out = passing_op(wl)
    rows, per = out
    i = next(k for k, (_r, _kz, div) in enumerate(per) if div is not None)

    def with_measure(fn):
        o = copy.deepcopy(out)
        o[1][i] = fn(*o[1][i])
        return o

    def rows_edit(fn):
        o = copy.deepcopy(out)
        fn(o[0])
        return o

    def bump(kz, k, delta):
        kz = kz.copy()
        kz[k] += delta
        return kz

    return inputs, out, [
        ("k00_positive", with_measure(lambda r, kz, d: (
            dataclasses.replace(r, upper=-r.upper), kz, d))),
        ("grid_matches_diagonal", with_measure(lambda r, kz, d: (
            r, bump(kz, -1, 1e-9 * abs(kz[-1])), d))),
        ("section_even", with_measure(lambda r, kz, d: (r, bump(kz, 0, 1e-8), d))),
        ("section_real", with_measure(lambda r, kz, d: (
            r, bump(bump(kz, 5, 1e-9j), len(kz) - 7, 1e-9j), d))),
        ("divisor_sign", with_measure(lambda r, kz, d: (r, kz, -d))),
        ("bounds_ordered", rows_edit(lambda rows: rows.__setitem__(
            0, (rows[0][0], rows[0][2] * 1.01, rows[0][2])))),
        ("figure1_rows", rows_edit(lambda rows: rows.pop())),
    ]


def oracle_cases(wl):
    cases = []
    for c3zero in (True, False):
        inputs, out = passing_op(wl, lambda inp: (inp.dm.measure.c3 == 0.0) == c3zero)
        sols, k_oracle, closed_k, closed_u, herm, ode, residual = out
        k = copy.deepcopy(closed_k)
        tol = checks.TOL_C3ZERO_ORACLE if c3zero else checks.TOL_K0Z_ORACLE
        k[0][0] += 10 * tol
        cases.append((inputs, out, "kernel_vs_oracle",
                      (sols, k_oracle, k, closed_u, herm, ode, residual)))
        if c3zero:
            u = [closed_u[0] + 10 * checks.TOL_U_CLOSED_FORM] + closed_u[1:]
            cases.append((inputs, out, "u_vs_closed_form",
                          (sols, k_oracle, closed_k, u, herm, ode, residual)))
        else:
            h = [(herm[0][0], herm[0][1] + 10 * checks.TOL_K0Z_ORACLE)] + herm[1:]
            cases.append((inputs, out, "kernel_vs_oracle_hermitian",
                          (sols, k_oracle, closed_k, closed_u, h, ode, residual)))
        cases.append((inputs, out, "system_residual",
                      (sols, k_oracle, closed_k, closed_u, herm, ode,
                       10 * checks.TOL_SYSTEM_RESIDUAL)))
    return cases


def formfactor_cases(wl):
    inputs, out = passing_op(wl)
    return inputs, out, [
        ("formfactor_nonnegative", -1e-6),
        ("formfactor_reference", out * (1 + 1e-6) + 1e-6),
    ]


def expect_rejected(wl, inputs, bad, name: str) -> bool:
    try:
        wl.check(inputs, bad)
    except checks.CheckFailed as exc:
        ok = exc.check == name
        print(f"{'PASS' if ok else 'FAIL'} {wl.name}: planted {name} -> rejected by "
              f"{exc.check}")
        return ok
    print(f"FAIL {wl.name}: planted {name} -> accepted")
    return False


def main() -> int:
    workdir = ROOT / ".bench_work"
    results = []
    wl = workloads.ClosedSweep(7, workdir)
    inputs, _out, cases = sweep_cases(wl)
    results += [expect_rejected(wl, inputs, bad, name) for name, bad in cases]

    wl = workloads.OracleXcheck(7, workdir)
    results += [expect_rejected(wl, inputs, bad, name)
                for inputs, _out, name, bad in oracle_cases(wl)]

    wl = workloads.FormfactorScan(7, workdir)
    inputs, _out, cases = formfactor_cases(wl)
    results += [expect_rejected(wl, inputs, bad, name) for name, bad in cases]

    # the check functions on their own, at the edge of each condition
    direct = [
        ("k00_positive", lambda: checks.k00_positive(float("nan"))),
        ("divisor_sign", lambda: checks.divisor_sign(True, -1.0 + 1e-3j)),
        ("divisor_sign", lambda: checks.divisor_sign(False, 1e-3 - 1.0j)),
        ("within", lambda: checks.within("within", float("nan"), 1.0)),
        ("section_even", lambda: checks.section_even(np.array([1.0, np.inf, 1.0]))),
    ]
    for name, fn in direct:
        try:
            fn()
        except checks.CheckFailed as exc:
            ok = exc.check == name
            print(f"{'PASS' if ok else 'FAIL'} direct: {name} rejects an edge value")
            results.append(ok)
        else:
            print(f"FAIL direct: {name} accepted an edge value")
            results.append(False)
    print(f"{sum(results)}/{len(results)} planted values rejected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
