"""Regenerate the ROADMAP baseline rows that the benchmark's workloads cover.

    python3 bench/run.py --baseline

Prints markdown table rows, best of 3 (best of 5 for the scalar kernel),
for the scalar kernel diagonal, the n = 200 oracle solve and its parts, one
form-factor alpha on synthetic tables of 1000 and 4000 ordinates, and a
cold ``import pairpack.cli`` in a fresh interpreter.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import envinfo  # noqa: E402
from pairpack import formfactor, fredholm, kernels, quadrature  # noqa: E402
from pairpack.measures import Measure  # noqa: E402
from workloads import synthetic_ordinates  # noqa: E402


def best_ms(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times) * 1e3


def cold_import_ms() -> float:
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import pairpack.cli; print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                                  capture_output=True, text=True).stdout)
             for _ in range(3)]
    return min(times) * 1e3


def main() -> int:
    m = Measure(1.0, 1.0, 1.0, 0.5)
    kernels.kernel_k00(m)                       # fill the lru caches first
    k00 = best_ms(lambda: kernels.kernel_k00(m), repeats=5)

    nodes, _ = quadrature.gauss_legendre(200, -m.delta / 2, m.delta / 2)
    bary_w = quadrature.barycentric_weights(nodes)
    t_bary = best_ms(lambda: quadrature.barycentric_weights(nodes))
    t_asm = best_ms(lambda: fredholm._assemble_matrix(m, nodes, bary_w))
    t_solve = best_ms(lambda: fredholm.solve_integral_eq(m, 0.3, n=200))

    ff = []
    for n in (1000, 4000):
        g = synthetic_ordinates(np.random.default_rng(0), n)
        ds = formfactor.ZeroDataset(ordinates=g, lam=1.0)
        ff.append(best_ms(lambda: formfactor.form_factor(ds, float(g[-1]), 0.7)))

    print("# env " + json.dumps(envinfo.collect(), sort_keys=True))
    print("| layer / command | now |")
    print("|---|---|")
    print(f"| `kernel_k00`, c3 > 0 (scalar) | {k00:.3g} ms |")
    print(f"| `barycentric_weights` / `_assemble_matrix` / `solve_integral_eq`, n=200 "
          f"| {t_bary:.3g} / {t_asm:.3g} / {t_solve:.3g} ms |")
    print(f"| `form_factor` one alpha, N=1000 / 4000 | {ff[0]:.3g} / {ff[1]:.3g} ms |")
    print(f"| cold `import pairpack.cli` | {cold_import_ms() / 1e3:.3g} s |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
