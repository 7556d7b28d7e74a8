"""Benchmark of dlagraph: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload theorem_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; dlagraph is imported from ./src.
The loop is closed: each operation starts when the previous one returns.
A run times whole passes over the seeded operation list, and starts no pass
that would end after --seconds once MIN_OPS operations were timed, so every
run times the same multiset of operations.  Outputs are checked outside the
timed windows.  ops_per_s is the median over passes of the operations per
second of timed work; the latency percentiles pool every pass.

The last line of stdout is one JSON object.  With --trace 0 its metrics are
the end-to-end ones.  With --trace 1 it runs exactly three passes (a
warm-up, an untraced baseline and a traced pass, whatever --seconds says),
writes the spans to .bench_trace/, and its metrics are the per-layer ones.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MIN_OPS = 100  # leaves at least ten operations beyond the 90th percentile


def import_dlagraph() -> float:
    """Import dlagraph from ./src and return the seconds the CLI import took."""
    src = ROOT / "src"
    if not (src / "dlagraph" / "cli.py").is_file():
        sys.exit(f"error: no dlagraph sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import dlagraph.cli  # noqa: F401

    if Path(dlagraph.cli.__file__).resolve().parent.parent != src:
        sys.exit(f"error: dlagraph was imported from {dlagraph.cli.__file__}, not {src}")
    return time.perf_counter() - started


def run_pass(ops, latencies, problems, failures, op_span=None):
    """Run every operation once; an operation that raises counts as failed."""
    for op in ops:
        try:
            if op_span is None:
                t0 = time.perf_counter()
                out = op.run()
                latencies.append(time.perf_counter() - t0)
            else:
                with op_span(f"op.{op.kind}") as row:
                    out = op.run()
                latencies.append(row[2] - row[1])
        except Exception as exc:  # noqa: BLE001 - reported as a failed operation
            failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            continue
        bad = op.check(out)
        if bad:
            problems.append(bad)


def nearest_rank(sorted_values, q):
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_dlagraph()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    setup = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None

    # set-up is repeated and its median taken; the import happens once
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = (time.perf_counter() - PROCESS_START) - sum(setup_times) + statistics.median(setup_times)

    latencies: list[float] = []
    problems: list[str] = []
    failures: list[str] = []
    if tracer is None:
        started = time.perf_counter()
        pass_rates = []
        passes = 0
        while True:
            done = len(latencies)
            run_pass(ops, latencies, problems, failures)
            passes += 1
            if len(latencies) > done:
                pass_rates.append((len(latencies) - done) / sum(latencies[done:]))
            elapsed = time.perf_counter() - started
            # stop before a pass that would run past --seconds
            if elapsed * (passes + 1) / passes > args.seconds and len(latencies) + len(failures) >= MIN_OPS:
                break
        ordered = sorted(latencies)
        metrics = {
            "ops_per_s": (statistics.median(pass_rates), "1/s"),
            "op_p50_ms": (nearest_rank(ordered, 0.5) * 1e3, "ms"),
            "op_p90_ms": (nearest_rank(ordered, 0.9) * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        # the first pass warms up; the second is the untraced baseline
        run_pass(ops, latencies, problems, failures)
        done = len(latencies)
        run_pass(ops, latencies, problems, failures)
        untraced = sum(latencies[done:])
        tracer.install()
        try:
            with tracer.span("setup"):
                ops = setup(args.seed)
            done = len(latencies)
            run_pass(ops, latencies, problems, failures, op_span=tracer.span)
            traced = sum(latencies[done:])
            tracing.split_closure(tracer)
            probes = tracing.run_probes(tracer)
        finally:
            tracer.remove()
        overhead_pct = (traced - untraced) / untraced * 100
        metrics = tracing.layer_metrics(tracer, import_s, overhead_pct)
        tracing.write_trace(
            ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.json", tracer,
            {"workload": args.workload, "seed": args.seed, "probes": probes,
             "operations": len(ops), "untraced_s": untraced, "traced_s": traced},
        )

    for bad in failures[:20]:
        print(f"operation failed: {bad}", file=sys.stderr)
    for bad in problems[:20]:
        print(f"check failed: {bad}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(latencies) + len(failures),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
