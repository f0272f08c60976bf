"""Machine-speed probes.

Identical work on a shared host was measured to run up to 2x slower for
seconds at a time, so the benchmark times a fixed probe between consecutive
ops and reports each op's latency multiplied by (reference probe time) /
(mean of the probes before and after it): its latency at the probe speed of
the reference machine (2-vCPU x86_64, Python 3.11, numpy 2.4).

Different kinds of work slow down by different amounts, so there are two
probes and each workload times the kind its ops do.  Neither calls pairpack,
so a change to pairpack moves the op latencies and not the probes.
"""

from __future__ import annotations

import time

import numpy as np

_X = np.linspace(0.1, 1.0, 8).astype(complex)
_G = np.sort(np.random.default_rng(0).uniform(10.0, 800.0, 500))
_PHASE = np.exp(0.37j * _G)


def interpreter_ms() -> float:
    """Bytecode loops and numpy calls on 8-element arrays, like the closed
    forms."""
    t0 = time.perf_counter()
    acc = 0.0
    for j in range(60):
        for k in range(160):
            acc += (j * k * 7) % 13
        s = _X * (0.5 + j * 1e-3)
        big = np.abs(s) >= 0.5
        out = np.zeros_like(s)
        out[big] = (np.exp(s[big]) - 1.0) / s[big]
        acc += float(out.real.sum())
    return (time.perf_counter() - t0) * 1e3


def array_ms() -> float:
    """Elementwise arithmetic on 48 x 500 complex blocks, like a pair sum."""
    t0 = time.perf_counter()
    total = 0j
    for lo in range(0, 192, 48):
        d = _G[lo:lo + 48, None] - _G[None, :]
        total += np.sum(_PHASE[lo:lo + 48, None] * np.conj(_PHASE)[None, :]
                        * (4.0 / (4.0 + d * d)))
    return (time.perf_counter() - t0) * 1e3


PROBES = {"interpreter": (interpreter_ms, 1.5), "array": (array_ms, 0.75)}


class Probe:
    """The sum of the named probes, and its time on the reference machine."""

    def __init__(self, kinds):
        self.fns = [PROBES[k][0] for k in kinds]
        self.ref_ms = sum(PROBES[k][1] for k in kinds)

    def __call__(self) -> float:
        return sum(fn() for fn in self.fns)
