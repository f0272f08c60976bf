"""Command-line front end.

Subcommands expose every computation with CSV or JSON output:

    kernel      diagonal kernel value, roots, divisor, optional z-grid
    bounds      bound constants for a measure or the named applications
    figure1     (c, lower, upper) sweep of the shifted-line bounds
    formfactor  empirical form factor of a zero dataset, plus averages
    oracle      integral-equation solve summary and transform values
    verify      the check registry of pairpack.verify, one line per check,
                by suite; exit 3 on any failure

Output is deterministic for a fixed OPENBLAS_NUM_THREADS: fixed
12-significant-digit formatting, fixed summation and block orders, fixed
seeds inside every verify check.  The BLAS thread count can move the last
bits of a matrix product or a long dot product (the Nystrom solves, the
form-factor GEMM and its positive-definite route), so reports compare byte
for byte only at the same count.  Data goes to stdout (or --out),
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .bounds import (average_bounds, dedekind_bounds, figure1_data,
                     reim_zeta_bounds, selberg_bounds)
from .errors import NotAdmissible, PairpackError
from .formfactor import (Window, form_factor, load_zeros, windowed_average)
from .kernels import (kernel_k00, kernel_k0z_grid, quartic_roots, script_L)
from .measures import Measure, norm_bounds
from . import verify as verify_mod

MAX_POINTS = 10 ** 6    # largest --grid / --alpha range and figure1 --steps + 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # exit code 1 for bad flags (argparse default would be 2)
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_points(count: float, what: str) -> None:
    if count > MAX_POINTS:
        raise ValueError(f"{what} asks for {count:.6g} points; the cap is {MAX_POINTS}")


def _parse_range(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:step, got {spec!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise ValueError(f"bad range {spec!r}")
    _check_points((stop - start) / step + 1, f"range {spec!r}")
    n = int(round((stop - start) / step))
    return np.linspace(start, start + n * step, n + 1)


def _measure_from(args) -> Measure:
    return Measure(c1=args.c1, c2=args.c2, c3=args.c3, delta=args.delta)


def _add_measure_flags(p):
    p.add_argument("--c1", type=float, default=1.0, help="Dirac atom mass (> 0)")
    p.add_argument("--c2", type=float, default=1.0, help="density coefficient (>= 0)")
    p.add_argument("--c3", type=float, default=0.0, help="exponential decay rate (>= 0)")
    p.add_argument("--delta", type=float, default=0.5, help="support half-length (> 0)")
    p.add_argument("--extended", action="store_true",
                   help="use the extended admissibility gate sigma < 1/sup G")


def cmd_kernel(args) -> int:
    m = _measure_from(args)
    zs = _parse_range(args.grid) if args.grid else None
    k00 = kernel_k00(m, extended=args.extended)
    nb = norm_bounds(m, extended=args.extended)
    payload = {
        "c1": m.c1, "c2": m.c2, "c3": m.c3, "delta": m.delta,
        "sigma": m.sigma(),
        "admissible": m.is_admissible(),
        "extended_admissible": m.is_extended_admissible(),
        "K00": k00, "inv_K00": 1.0 / k00,
        "a_sq": nb.a_sq, "b_sq": nb.b_sq,
    }
    if m.c3 > 0.0 and m.c2 > 0.0:
        roots = quartic_roots(m)
        payload.update({
            "eta1": [roots.eta1.real, roots.eta1.imag],
            "eta2": [roots.eta2.real, roots.eta2.imag],
            "case": roots.case_tag.value,
            "degenerate": bool(roots.degenerate),
        })
        if not roots.degenerate:
            sl = script_L(m)
            payload["script_L"] = [sl.real, sl.imag]
    if args.format == "json":
        _emit([json.dumps(payload, sort_keys=True)], args.out)
    else:
        lines = []
        for key, val in payload.items():
            if isinstance(val, bool):
                lines.append(f"{key},{str(val).lower()}")
            elif isinstance(val, list):
                lines.append(f"{key}," + ",".join(_fmt(v) for v in val))
            elif isinstance(val, float):
                lines.append(f"{key},{_fmt(val)}")
            else:
                lines.append(f"{key},{val}")
        _emit(lines, args.out)
    if zs is not None:
        kv = np.real(kernel_k0z_grid(m, zs.astype(complex), extended=args.extended))
        lines = ["z,K0z"] + [f"{_fmt(z)},{_fmt(v)}" for z, v in zip(zs, kv)]
        _emit(lines, args.grid_out)
    return 0


def cmd_bounds(args) -> int:
    if args.selberg_degree is not None:
        lo, up = selberg_bounds(args.selberg_degree)
        _emit(["degree,lower,upper",
               f"{args.selberg_degree},{_fmt(lo)},{_fmt(up)}"], args.out)
        return 0
    if args.dedekind_degree is not None:
        lo, up = dedekind_bounds(args.dedekind_degree)
        _emit(["degree,lower,upper",
               f"{args.dedekind_degree},{_fmt(lo)},{_fmt(up)}"], args.out)
        return 0
    if args.reim_c is not None:
        lo, up = reim_zeta_bounds(args.reim_c)
        _emit(["c,lower,upper",
               f"{_fmt(args.reim_c)},{_fmt(lo)},{_fmt(up)}"], args.out)
        return 0
    m = _measure_from(args)
    rep = average_bounds(m, extended=args.extended)
    payload = {
        "c_nu_upper": rep.c_nu_upper,
        "lower_thm1": rep.lower_thm1,
        "lower_cor8": rep.lower_cor8,
        "lower_thm2": rep.lower_thm2,
        "upper": rep.upper,
        "clamp_active": rep.clamp_active,
    }
    if args.format == "json":
        _emit([json.dumps(payload, sort_keys=True)], args.out)
    else:
        lines = [f"{k},{_fmt(v) if isinstance(v, float) else str(v).lower()}"
                 for k, v in payload.items()]
        _emit(lines, args.out)
    return 0


def cmd_figure1(args) -> int:
    _check_points(args.steps + 1, f"--steps {args.steps}")
    rows = figure1_data(args.c_min, args.c_max, args.steps)
    lines = ["c,lower,upper"]
    lines += [f"{_fmt(c)},{_fmt(lo)},{_fmt(up)}" for (c, lo, up) in rows]
    _emit(lines, args.out)
    return 0


def cmd_formfactor(args) -> int:
    window = Window(args.window)
    ds = load_zeros(args.zeros, lam=args.lam, window=window)
    if args.T == "auto":
        T = float(ds.ordinates[-1])
    else:
        T = float(args.T)
    blocks = []
    if args.alpha:
        alphas = _parse_range(args.alpha)
        vals = form_factor(ds, T, alphas)
        blocks.append(["alpha,F"] + [f"{_fmt(a)},{_fmt(v)}"
                                     for a, v in zip(alphas, vals)])
    if args.avg:
        try:
            b, ell = (float(p) for p in args.avg.split(":"))
        except ValueError:      # a count other than two, or not a number
            raise ValueError(f"--avg must be b:ell, got {args.avg!r}") from None
        avg = windowed_average(ds, T, b, ell, args.grid_step)
        blocks.append(["b,ell,grid_step,average",
                       f"{_fmt(b)},{_fmt(ell)},{_fmt(args.grid_step)},{_fmt(avg)}"])
    if not blocks:
        raise ValueError("nothing to do: pass --alpha and/or --avg")
    lines = []
    for i, blk in enumerate(blocks):
        if i:
            lines.append("")
        lines.extend(blk)
    _emit(lines, args.out)
    sys.stderr.write(f"# {ds.summary()}, T={_fmt(T)}\n")
    return 0


def cmd_oracle(args) -> int:
    from .fredholm import k_from_u, solve_integral_eq, system_residual
    m = _measure_from(args)
    w = complex(args.w_re, args.w_im)
    sol = solve_integral_eq(m, w, n=args.n)
    lines = [
        f"n,{len(sol.nodes)}",
        f"condition,{_fmt(sol.condition_estimate)}",
        f"residual,{_fmt(system_residual(sol))}",
    ]
    if args.z:
        zs = [complex(float(p), 0.0) for p in args.z.split(",")]
        lines.append("z_re,z_im,k_re,k_im")
        for z in zs:
            kv = k_from_u(sol, z)
            lines.append(f"{_fmt(z.real)},{_fmt(z.imag)},{_fmt(kv.real)},{_fmt(kv.imag)}")
    _emit(lines, args.out)
    return 0


def cmd_verify(args) -> int:
    report = verify_mod.run_suite(args.suite)
    _emit(report.lines, args.out)
    return 0 if report.all_passed else 3


def build_parser() -> _Parser:
    p = _Parser(prog="pairpack",
                description="Weighted Paley-Wiener reproducing kernels and "
                            "pair-correlation form-factor bounds")
    p.add_argument("--version", action="version", version=f"pairpack {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pk = sub.add_parser("kernel", help="kernel values and root data")
    _add_measure_flags(pk)
    pk.add_argument("--grid", help="real z grid start:stop:step for K(0,z) CSV")
    pk.add_argument("--grid-out", help="file for the grid CSV (default stdout)")
    pk.add_argument("--format", choices=("csv", "json"), default="csv")
    pk.add_argument("--out", help="output file (default stdout)")
    pk.set_defaults(func=cmd_kernel)

    pb = sub.add_parser("bounds", help="bound constants")
    _add_measure_flags(pb)
    pb.add_argument("--selberg-degree", type=int, default=None,
                    help="degree-m primitive L-function bounds")
    pb.add_argument("--dedekind-degree", type=int, default=None,
                    help="degree-n Dedekind zeta bounds")
    pb.add_argument("--reim-c", type=float, default=None,
                    help="Re/Im zeta bounds at shift parameter c")
    pb.add_argument("--format", choices=("csv", "json"), default="csv")
    pb.add_argument("--out")
    pb.set_defaults(func=cmd_bounds)

    pf = sub.add_parser("figure1", help="(c, lower, upper) sweep")
    pf.add_argument("--c-min", type=float, default=0.0)
    pf.add_argument("--c-max", type=float, default=2.0)
    pf.add_argument("--steps", type=int, default=200)
    pf.add_argument("--out")
    pf.set_defaults(func=cmd_figure1)

    pff = sub.add_parser("formfactor", help="empirical form factor")
    pff.add_argument("--zeros", required=True, help="ordinate file, one per line")
    pff.add_argument("--lam", type=float, default=None,
                     help="density parameter (falls back to '# lambda=' header)")
    pff.add_argument("--T", default="auto", help="cutoff T, or 'auto' for the largest ordinate")
    pff.add_argument("--alpha", help="alpha grid start:stop:step")
    pff.add_argument("--avg", help="window b:ell for the averaged form factor")
    pff.add_argument("--grid-step", type=float, default=1.0 / 64.0)
    pff.add_argument("--window", choices=[w.value for w in Window],
                     default=Window.ZERO_TO_T.value)
    pff.add_argument("--out")
    pff.set_defaults(func=cmd_formfactor)

    po = sub.add_parser("oracle", help="integral-equation solve")
    _add_measure_flags(po)
    po.add_argument("--w-re", type=float, default=0.0)
    po.add_argument("--w-im", type=float, default=0.0)
    po.add_argument("--n", type=int, default=200,
                    help="nodes (>= 16), split over max(ceil(c3*delta/5), ceil(n/40)) panels "
                         "of at least 24; over 2048 panels (c3*delta > 10240 or n > 81920) "
                         "exits 1")
    po.add_argument("--z", help="comma-separated real z values for k_w(z)")
    po.add_argument("--out")
    po.set_defaults(func=cmd_oracle)

    pv = sub.add_parser("verify", help="self-checking suites")
    pv.add_argument("--suite", default="all", choices=("all",) + verify_mod.SUITES)
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotAdmissible as exc:
        sys.stderr.write(f"not admissible: {exc}\n")
        return 2
    except (PairpackError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
