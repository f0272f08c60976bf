"""One workload process: set up, warm up, then run ops in a closed loop.

Started by ``run.py`` in a fresh interpreter, one per setup sample and one
for the measured run.  It prints one JSON object on stdout.

    python3 bench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|run|trace

setup  import pairpack.cli, build the inputs, run one warm-up op, report
       the monotonic time at which the first timed op would start.
run    the same, then ops for S seconds (and until MIN_OPS ops have
       passed), untraced.
trace  the same set-up, then S/2 seconds untraced and S/2 seconds traced.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from probe import Probe

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100              # op_p90_ms needs ten samples beyond the percentile
MAX_LOOP_SECONDS = 120.0   # hard stop for one measuring loop
MAX_ERRORS_KEPT = 5
def _import_pairpack() -> float:
    """Import pairpack.cli from the checkout's src/ and return the time it took."""
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import pairpack.cli  # noqa: F401
    import_ms = (time.perf_counter() - t0) * 1e3
    import pairpack
    if Path(pairpack.__file__).resolve().parent != ROOT / "src" / "pairpack":
        raise SystemExit(f"pairpack imported from {pairpack.__file__}, "
                         "not from the checkout")
    return import_ms


def measure(wl, seconds: float, min_ops: int, first_op: int, tracer=None) -> dict:
    """Closed loop, one client: the next op starts when the previous one has
    been checked.  Only the pairpack calls of an op are timed; each latency
    is also reported corrected by the workload's speed probe."""
    probe = Probe(wl.PROBES)
    latencies, corrected, observations, errors = [], [], [], []
    attempted = failed = 0
    gen_s = 0.0
    probes = [probe()]
    t_begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_begin
        if elapsed >= MAX_LOOP_SECONDS or (elapsed >= seconds
                                           and len(latencies) >= min_ops):
            break
        tg = time.perf_counter()
        inputs = wl.next_inputs()
        gen_s += time.perf_counter() - tg
        attempted += 1
        lat = None
        if tracer is not None:
            tracer.begin_op(first_op + attempted)
        try:
            t0 = time.perf_counter_ns()
            out = wl.run(inputs)
            t1 = time.perf_counter_ns()
            observations.append(wl.check(inputs, out))
            lat = (t1 - t0) / 1e6
        except Exception as exc:     # a failed op is counted, the loop goes on
            failed += 1
            if len(errors) < MAX_ERRORS_KEPT:
                errors.append(f"op {first_op + attempted}: {type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.end_op()
        probes.append(probe())
        if lat is not None:
            latencies.append(lat)
            corrected.append(lat * probe.ref_ms / (0.5 * (probes[-2] + probes[-1])))
    wall_s = time.perf_counter() - t_begin
    return {"latencies_ms": latencies, "corrected_ms": corrected,
            "observations": observations, "attempted": attempted, "failed": failed,
            "errors": errors, "gen_s": gen_s, "probe_s": sum(probes[1:]) / 1e3,
            "probe_ms": probes, "probe_ref_ms": probe.ref_ms, "wall_s": wall_s}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args(argv)

    import_ms = _import_pairpack()
    import envinfo
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    workdir = ROOT / ".bench_work"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tw = time.perf_counter()
    wl.run(wl.warmup_inputs())
    warmup_ms = (time.perf_counter() - tw) * 1e3
    t_first_op = time.monotonic()
    # set-up is mostly interpreter work: import, input generation, warm-up
    setup_probe = Probe(("interpreter",))
    result = {"t_first_op": t_first_op, "import_ms": import_ms,
              "warmup_ms": warmup_ms,
              "setup_probe_ms": sorted(setup_probe() for _ in range(3))[1],
              "setup_probe_ref_ms": setup_probe.ref_ms,
              "load_ms": getattr(wl, "load_ms", 0.0),
              "why": wl.why, "reuse": wl.reuse}

    if args.mode == "run":
        result["run"] = measure(wl, args.seconds, MIN_OPS, 0)
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["env"] = envinfo.collect()
    elif args.mode == "trace":
        from tracer import Tracer
        half = args.seconds / 2.0
        plain = measure(wl, half, 1, 0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(wl, half, 1, plain["attempted"], tracer)
        finally:
            tracer.uninstall()
        ops = traced["attempted"]
        layers = tracer.summary(ops)
        span_s = sum(s[5] - s[4] for s in tracer.spans if s[0] < 0) / 1e9
        layers["trace.accounted_ratio"] = (
            span_s + traced["gen_s"] + traced["probe_s"]) / traced["wall_s"]
        layers["bench.gen_ms"] = traced["gen_s"] * 1e3 / max(ops, 1)
        workdir.mkdir(parents=True, exist_ok=True)
        tracer.write(workdir / f"trace-{args.workload}-{args.seed}.tsv.gz")
        result.update(plain=plain, traced=traced, layers=layers)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
