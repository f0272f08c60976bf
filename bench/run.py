"""pairpack benchmark: one command per workload, timed end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --baseline

Workloads (see workloads.py for the input mixes and why each was chosen):

    closed_sweep     closed forms: figure-1 window + 16 fresh measures per op
    oracle_xcheck    Nystrom oracle: 4 solves of one fresh measure per op,
                     each cross-checked against a closed form or ODE residual
    formfactor_scan  one windowed form-factor average per op on a fixed
                     500-ordinate synthetic table

Each workload runs in fresh processes started from this one: SETUP_SAMPLES - 1
processes that only set up (import pairpack.cli, build inputs, one warm-up
op), then one that sets up and runs ops in a closed loop with one client
(one process, one Python thread, BLAS threads capped at the usable CPU
count).  Every op's output is checked; a failed check fails the op.

--trace 0 prints the end-to-end metrics: ops_per_s, op_p50_ms, op_p90_ms,
setup_s (median over the set-up samples) and peak_rss_mb.  Latencies and
set-up times are corrected for machine-speed drift by a speed probe timed
next to them (probe.py); the report lines give the uncorrected values too.
--trace 1 runs
the loop untraced for S/2 seconds and then with span wrappers at every
pairpack module boundary for S/2 seconds, and prints the per-layer metrics.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report.

--baseline prints the rows of the ROADMAP baseline table these workloads
cover (scalar kernel_k00, solve_integral_eq n=200, form_factor per alpha,
cold import), best of 3.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 175.0      # every worker of one run has ended by then

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "special.calls": "count/op", "special.self_ms": "ms/op",
    "measures.calls": "count/op", "measures.self_ms": "ms/op",
    "kernels.calls": "count/op", "kernels.self_ms": "ms/op",
    "kernels.z_points": "count/op",
    "bounds.calls": "count/op", "bounds.self_ms": "ms/op",
    "bounds.k00_per_measure": "count/measure",
    "quadrature.calls": "count/op", "quadrature.self_ms": "ms/op",
    "quadrature.bary_rows": "count/op",
    "linalg.calls": "count/op", "linalg.self_ms": "ms/op",
    "fredholm.solves": "count/op", "fredholm.self_ms": "ms/op",
    "fredholm.transform_ms": "ms/op", "fredholm.residual_ms": "ms/op",
    "fredholm.bary_rows_per_solve": "count/solve",
    "fredholm.cond_max": "1", "fredholm.matrix_bytes": "bytes",
    "fredholm.gap_max": "1", "fredholm.ode_residual_max": "1",
    "formfactor.calls": "count/op", "formfactor.self_ms": "ms/op",
    "formfactor.alphas": "count/op", "formfactor.pair_terms": "count/op",
    "formfactor.pair_terms_per_s": "1/s", "formfactor.load_ms": "ms",
    "setup.import_ms": "ms", "setup.import_scipy_ms": "ms",
    "setup.warmup_ms": "ms",
    "bench.self_ms": "ms/op", "bench.gen_ms": "ms/op",
    "trace.spans": "count/op", "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONPATH", None)
    return env


def _spawn(args, mode: str, deadline: float, importtime: bool = False) -> tuple:
    """Run one worker process; return (spawn time, result, stderr)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=_child_env(), timeout=max(deadline - t_spawn, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = "\n".join(l for l in proc.stderr.splitlines()
                         if not l.startswith("import time:"))[-2000:]
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{tail}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def scipy_import_ms(importtime_log: str) -> float:
    """Cumulative import time of the outermost scipy modules in a
    ``-X importtime`` log, which lists a module after everything it imported,
    indented one level deeper."""
    pending = []            # (depth, scipy time counted inside the subtree, us)
    for line in importtime_log.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        cum, depth, name = int(m.group(1)), len(m.group(2)), m.group(3)
        inner = 0
        while pending and pending[-1][0] > depth:
            inner += pending.pop()[1]
        top_scipy = name == "scipy" or name.startswith("scipy.")
        pending.append((depth, cum if top_scipy else inner))
    return sum(p[1] for p in pending) / 1e3


def ops_per_s(lat_ms) -> float:
    """Completed ops over the time spent in them (closed loop, no think time)."""
    return len(lat_ms) / (sum(lat_ms) / 1e3)


def latency_metrics(lat_ms) -> dict:
    lat = sorted(lat_ms)
    return {"ops_per_s": ops_per_s(lat),
            "op_p50_ms": statistics.median(lat),
            "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8]}


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return "none (not a git checkout)"


def run_workload(args) -> tuple:
    """Return (metrics, attempted, failed, report lines)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = [_spawn(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
    t_spawn, main, log = _spawn(args, "trace" if args.trace else "run", deadline,
                                importtime=bool(args.trace))
    lines = [f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
             f"trace {args.trace}",
             f"# why: {main['why']}; input reuse: {main['reuse']}"]

    if not args.trace:
        samples = [(t0, res) for t0, res, _ in setups] + [(t_spawn, main)]
        raw_setup_s = [res["t_first_op"] - t0 for t0, res in samples]
        setup_s = [s * res["setup_probe_ref_ms"] / res["setup_probe_ms"]
                   for s, (_, res) in zip(raw_setup_s, samples)]
        run = main["run"]
        if len(run["corrected_ms"]) < 2:
            raise BenchError(f"only {len(run['corrected_ms'])} ops completed")
        metrics = dict(latency_metrics(run["corrected_ms"]),
                       setup_s=_median(setup_s), peak_rss_mb=main["rss_mb"])
        raw = latency_metrics(run["latencies_ms"])
        units = END_TO_END
        attempted, failed = run["attempted"], run["failed"]
        errors = run["errors"]
        env = dict(main["env"], seed=args.seed, git_commit=_git_commit())
        lines.append("# env " + json.dumps(env, sort_keys=True))
        lines.append(f"# ops completed {len(run['latencies_ms'])} (p90 over that many "
                     f"samples), loop wall {run['wall_s']:.2f} s")
        lines.append("# setup samples s: " + ", ".join(f"{s:.4f}" for s in setup_s)
                     + "; uncorrected: " + ", ".join(f"{s:.4f}" for s in raw_setup_s))
        observations = run["observations"]
        gaps = [o["gap"] for o in observations if "gap" in o]
        if gaps:
            lines.append(f"# closed-vs-oracle gap max {max(gaps):.3e} at op_p50_ms "
                         f"{metrics['op_p50_ms']:.6g}")
        lines.append(f"# speed probe median {_median(run['probe_ms']):.4f} ms "
                     f"(reference {run['probe_ref_ms']} ms); uncorrected: "
                     + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    else:
        plain, traced = main["plain"], main["traced"]
        observations = plain["observations"] + traced["observations"]
        worst = lambda key: max((o.get(key, 0.0) for o in observations), default=0.0)
        metrics = dict(main["layers"])
        metrics.update({
            "fredholm.cond_max": worst("cond"),
            "fredholm.matrix_bytes": worst("matrix_bytes"),
            "fredholm.gap_max": worst("gap"),
            "fredholm.ode_residual_max": worst("ode"),
            "formfactor.load_ms": _median([r["load_ms"] for _, r, _ in setups]),
            "setup.import_ms": _median([r["import_ms"] for _, r, _ in setups]),
            "setup.import_scipy_ms": scipy_import_ms(log),
            "setup.warmup_ms": _median([r["warmup_ms"] for _, r, _ in setups]),
            "trace.overhead_ratio": (ops_per_s(plain["corrected_ms"])
                                     / ops_per_s(traced["corrected_ms"])),
        })
        units = PER_LAYER
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        errors = plain["errors"] + traced["errors"]
        lines.append(f"# traced ops {traced['attempted']}, untraced ops "
                     f"{plain['attempted']}, traced wall {traced['wall_s']:.2f} s")
        lines.append(f"# oracle accuracy next to its timings: fredholm.gap_max="
                     f"{metrics['fredholm.gap_max']:.3e} with fredholm.self_ms="
                     f"{metrics['fredholm.self_ms']:.3f} linalg.self_ms="
                     f"{metrics['linalg.self_ms']:.3f}")

    ode_solves = sum(o.get("ode_solves", 0) for o in observations)
    if ode_solves:
        over = sum(o["ode_over_tol"] for o in observations)
        lines.append(f"# ode_residual (reported, not gated): max "
                     f"{max(o['ode'] for o in observations):.3e}, {over} of "
                     f"{ode_solves} solves over the verify tolerance 1e-6")
    lines.append(f"# attempted {attempted} failed {failed} "
                 f"fail_ratio {failed / max(attempted, 1):.6g}")
    lines.extend(f"# failure {e}" for e in errors)
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not produced: {sorted(missing)}")
    out = {k: {"value": float(metrics[k]), "unit": units[k]} for k in units}
    lines.extend(f"{k} {v['value']:.6g} {v['unit']}" for k, v in out.items())
    return out, attempted, failed, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pairpack benchmark")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", action="store_true",
                    help="print the ROADMAP baseline rows these workloads cover")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pairpack" / "__init__.py").is_file():
        print(f"error: no pairpack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.baseline:
        return subprocess.run([sys.executable, str(HERE / "baseline.py")],
                              cwd=ROOT, env=_child_env()).returncode
    if not args.workload:
        ap.error("--workload is required")
    try:
        metrics, attempted, failed, lines = run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
