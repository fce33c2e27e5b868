"""One workload process: set up, then measure (untraced) or trace.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/ and BLAS threads pinned to 1. Prints one JSON line.

  --mode setup    import trispin, generate inputs, run the warm-up op, exit
  --mode measure  then run ops closed-loop until --seconds of timed op time
  --mode trace    then alternate untraced and traced passes over a fixed
                  op list for --seconds
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import trispin
import trispin.cli as cli

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile


def main_entry(argv):
    # looked up on every call so that the tracer's wrapper is used when installed
    return cli.main(argv)


def run_checked(wl, i, op, failures, tracer=None):
    """Run op i; returns (seconds, work units, result).

    Checks are neither timed nor traced.
    """
    if tracer is not None:
        tracer.op = i
        tracer.install()
    try:
        t0 = time.perf_counter()
        res = wl.run(main_entry, op)
        dt = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    wl.finish(op, res)
    problems = wl.check(i, op, res)
    if problems:
        failures.append({"op": i, "params": [list(kv) for kv in op.params], "problems": problems[:5]})
        return dt, 0, res
    return dt, wl.units(op, res), res


def measure(wl, seconds, failures):
    lat, units, busy, i = [], 0, 0.0, 0
    ops = wl.stream()
    while busy < seconds or i < MIN_OPS:
        dt, n, _ = run_checked(wl, i, next(ops), failures)
        lat.append(dt)
        units += n
        busy += dt
        i += 1
    p90 = statistics.quantiles(lat, n=10)[8]
    return {
        "attempted": i,
        "work_unit": wl.unit,
        "busy_s": busy,
        "units": units,
        "throughput_per_s": units / busy,
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * p90,
        "latency_samples": len(lat),
        "samples_beyond_p90": sum(1 for x in lat if x > p90),
    }


def trace(wl, seconds, failures, spans_path):
    """Passes over the first trace_ops ops; each op runs untraced and traced.

    The two runs of an op are adjacent, in alternating order, so a slow host
    phase hits both sides of the tracing-overhead ratio alike.
    """
    ops = wl.ops[: wl.trace_ops]
    plain_s, traced_s, selfs, counts, problems = [], [], [], None, []
    t_end = time.monotonic() + seconds
    k = 0
    while time.monotonic() < t_end or k < 2:
        tracer = Tracer()
        busy = {False: 0.0, True: 0.0}
        for i, op in enumerate(ops):
            outs = {}
            for traced in ((False, True) if (i + k) % 2 == 0 else (True, False)):
                dt, _, res = run_checked(wl, i, op, failures, tracer if traced else None)
                busy[traced] += dt
                outs[traced] = [(c[1], c[2]) for c in res.calls] + [res.file]
                if traced:
                    tracer.counts["cli.stdout_bytes"] += sum(len(c[1]) for c in res.calls)
            if outs[True] != outs[False]:
                problems.append(f"op {i}: traced output differs from untraced output")
        plain_s.append(busy[False])
        traced_s.append(busy[True])
        self_s, pass_counts = tracer.summary()
        selfs.append(self_s)
        if counts is None:
            counts = pass_counts
            spans_path.write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.span_rows()}))
        elif pass_counts != counts:
            problems.append(f"traced pass {k} counters differ from the first traced pass")
        k += 1
    return {
        "attempted": 2 * k * len(ops),
        "passes": k,
        "ops_per_pass": len(ops),
        "untraced_pass_s": statistics.median(plain_s),
        "traced_pass_s": statistics.median(traced_s),
        "overhead_frac": statistics.median(t / p for t, p in zip(traced_s, plain_s)) - 1.0,
        "self_s": {key: statistics.median(s.get(key, 0.0) for s in selfs)
                   for key in set().union(*selfs)},
        "counts": counts,
        "problems": problems,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(trispin.__file__).resolve().parents:
        sys.exit(f"trispin imported from {trispin.__file__}, not from {src}")
    out_dir = Path(args.out_dir)
    failures: list = []
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        refs = None
        if args.seed == workloads.DEFAULT_SEED:
            refs = workloads.load_references(args.workload)
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(scratch), refs)
        run_checked(wl, 0, wl.ops[0], failures)  # warm-up op
        result = {"ready_monotonic": time.monotonic(), "attempted": 0}
        if args.mode == "measure":
            result.update(measure(wl, args.seconds, failures))
        elif args.mode == "trace":
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
            result.update(trace(wl, args.seconds, failures, spans))
    result["attempted"] += 1  # the warm-up op
    result["failures"] = failures
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
