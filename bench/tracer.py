"""Span tracing at pairpack's module boundaries, installed from outside.

``Tracer.install`` replaces every function (and every method of every class)
defined in a layer module by a wrapper that records a span.  Because
pairpack modules import names directly (``from .special import sin_quot``),
the copies held by the other pairpack modules are replaced too.  numpy's
``linalg`` entry points, which only the oracle calls, form the ``linalg``
layer.  ``uninstall`` puts every original back.

A span is recorded only when a call crosses from one layer into another
inside an op; calls within a layer and calls outside any op run straight
through.  A layer's self time is the sum of its spans' durations minus the
time covered by their child spans.  Spans are kept in memory and written
out once, after the traced phase.
"""

from __future__ import annotations

import enum
import gzip
import inspect
import math
import sys
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("special", "measures", "kernels", "bounds", "quadrature",
          "fredholm", "formfactor")
LINALG = ("solve", "cond", "norm", "lstsq", "inv", "svd", "eigvals", "det", "qr")
BENCH = "bench"


def _work_counters(orig_in_window, totals):
    """Work counts taken from a boundary call's arguments, keyed by span
    name.  They are computed before the span's clock starts.  The pair
    terms of a windowed average go to ``totals``."""
    window_sizes = {}

    def z_points(args, kwargs):
        return float(np.size(kwargs.get("z", args[1] if len(args) > 1 else 0)))

    def bary_rows(args, kwargs):
        return float(np.size(kwargs.get("targets", args[2])))

    def measures_in_sweep(args, kwargs):
        return float(kwargs.get("steps", args[2]) + 1)

    def alphas(args, kwargs):
        ds, T, _b, ell, step = args[:5]
        key = (id(ds), T)
        if key not in window_sizes:
            window_sizes[key] = len(orig_in_window(ds, T))
        n_alpha = math.ceil(ell / step) + 1
        totals["formfactor.pair_terms"] += n_alpha * float(window_sizes[key]) ** 2
        return float(n_alpha)

    one = lambda args, kwargs: 1.0
    return {
        "kernels.kernel_k0z_grid": z_points,
        "kernels.kernel_k0z": one,
        "kernels.kernel_c3zero": one,
        "quadrature.barycentric_matrix": bary_rows,
        "bounds.figure1_data": measures_in_sweep,
        "bounds.average_bounds": one,
        "bounds.reim_zeta_bounds": one,
        "formfactor.windowed_average": alphas,
    }


class Tracer:
    def __init__(self):
        # span: [parent, op, layer, name, t0_ns, t1_ns, work]
        self.spans: list = []
        self.stack: list = []          # (span index, layer)
        self.op = 0
        self.totals = defaultdict(float)
        self._patched: list = []       # (owner, attribute, original)

    # -- ops ------------------------------------------------------------
    def begin_op(self, op: int) -> None:
        self.op = op
        self.spans.append([-1, op, BENCH, "bench.op", time.perf_counter_ns(), 0, 0.0])
        self.stack.append((len(self.spans) - 1, BENCH))

    def end_op(self) -> None:
        idx, _ = self.stack.pop()
        self.spans[idx][5] = time.perf_counter_ns()

    # -- wrappers -------------------------------------------------------
    def _wrap(self, layer: str, name: str, fn, counter=None):
        stack, spans, clock = self.stack, self.spans, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not stack or stack[-1][1] == layer:
                return fn(*args, **kwargs)
            work = counter(args, kwargs) if counter is not None else 0.0
            span = [stack[-1][0], self.op, layer, name, 0, 0, work]
            spans.append(span)
            stack.append((len(spans) - 1, layer))
            span[4] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        from pairpack.formfactor import ZeroDataset
        counters = _work_counters(ZeroDataset.in_window, self.totals)
        wrappers = {}                      # id(original) -> (original, wrapper)
        for layer in LAYERS:
            modname = f"pairpack.{layer}"
            mod = sys.modules[modname]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isclass(obj):
                    if issubclass(obj, (enum.Enum, BaseException)):
                        continue
                    for mname, fn in list(vars(obj).items()):
                        if isinstance(fn, types.FunctionType) and (
                                not mname.startswith("__") or mname == "__post_init__"):
                            name = f"{layer}.{obj.__name__}.{mname}"
                            self._patch(obj, mname, self._wrap(layer, name, fn))
                elif callable(obj):
                    name = f"{layer}.{attr}"
                    w = self._wrap(layer, name, obj, counters.get(name))
                    wrappers[id(obj)] = (obj, w)
                    self._patch(mod, attr, w)
        for modname, mod in list(sys.modules.items()):
            if modname != "pairpack" and not modname.startswith("pairpack."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for attr in LINALG:
            fn = getattr(np.linalg, attr)
            self._patch(np.linalg, attr, self._wrap("linalg", f"linalg.{attr}", fn))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------
    def summary(self, ops: int) -> dict:
        """Per-op totals of every layer plus the derived ratios."""
        n = len(self.spans)
        child_ns = [0] * n
        for s in self.spans:
            if s[0] >= 0:
                child_ns[s[0]] += s[5] - s[4]
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        by_name_ns = defaultdict(int)
        by_name_calls = defaultdict(int)
        by_name_work = defaultdict(float)
        k00_under_bounds = 0
        bary_rows_in_solve = 0.0
        for i, s in enumerate(self.spans):
            parent, _op, layer, name, t0, t1, work = s
            dur = t1 - t0
            calls[layer] += 1
            self_ns[layer] += dur - child_ns[i]
            by_name_ns[name] += dur
            by_name_calls[name] += 1
            by_name_work[name] += work
            if name == "kernels.kernel_k00" and self.spans[parent][2] == "bounds":
                k00_under_bounds += 1
            if name == "quadrature.barycentric_matrix" \
                    and self.spans[parent][3] == "fredholm.solve_integral_eq":
                bary_rows_in_solve += work

        per_op = lambda x: x / max(ops, 1)
        ms = lambda ns: per_op(ns) / 1e6
        out = {}
        for layer in LAYERS + ("linalg",):
            if layer != "fredholm":          # the oracle reports solves instead
                out[f"{layer}.calls"] = per_op(calls[layer])
            out[f"{layer}.self_ms"] = ms(self_ns[layer])
        out["bench.self_ms"] = ms(self_ns[BENCH])
        out["kernels.z_points"] = per_op(sum(by_name_work[k] for k in (
            "kernels.kernel_k0z_grid", "kernels.kernel_k0z", "kernels.kernel_c3zero")))
        bounds_measures = sum(by_name_work[k] for k in (
            "bounds.figure1_data", "bounds.average_bounds", "bounds.reim_zeta_bounds"))
        out["bounds.k00_per_measure"] = k00_under_bounds / bounds_measures \
            if bounds_measures else 0.0
        out["quadrature.bary_rows"] = per_op(
            by_name_work["quadrature.barycentric_matrix"])
        solves = by_name_calls["fredholm.solve_integral_eq"]
        out["fredholm.solves"] = per_op(solves)
        out["fredholm.transform_ms"] = ms(by_name_ns["fredholm.k_from_u"])
        out["fredholm.residual_ms"] = ms(by_name_ns["fredholm.system_residual"]
                                         + by_name_ns["fredholm.ode_residual"])
        out["fredholm.bary_rows_per_solve"] = (bary_rows_in_solve / solves
                                               if solves else 0.0)
        out["formfactor.alphas"] = per_op(by_name_work["formfactor.windowed_average"])
        pair_terms = self.totals["formfactor.pair_terms"]
        out["formfactor.pair_terms"] = per_op(pair_terms)
        ff_self_s = self_ns["formfactor"] / 1e9
        out["formfactor.pair_terms_per_s"] = (pair_terms / ff_self_s
                                              if ff_self_s else 0.0)
        out["trace.spans"] = per_op(n)
        return out

    def write(self, path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tparent\top\tlayer\tname\tstart_ns\tend_ns\twork\n")
            for i, s in enumerate(self.spans):
                fh.write("\t".join(map(str, [i] + s[:6])) + f"\t{s[6]:g}\n")
