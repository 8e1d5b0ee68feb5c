"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload casestudy_full --seed 45 --seconds 5 --trace 0

Run from the repository root; the program is imported from ``src/``.
The report names every metric with its unit and sample count; the last
line of standard output is one JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
shims installed. With ``--trace 1`` the run installs the timing shims of
``tracing.py`` and reports the per-layer metrics instead; it also fails
when a layer does not fire where it should, fires where it should read
zero, or when top-level spans leave more than 5% of a timed region dark.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAMES = ("casestudy_full", "serve_mixed", "block_scale")

#: end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "work_s": "s",
    "quality": "ratio",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if "_ms_per_record_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "coverage", "per_true_match")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    status = 0
    for name in NAMES:
        status |= subprocess.call([
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ])
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="repeat each workload's unit of work until this "
                             "much of it has been timed (at least once)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to benchmark: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracing

    tracer = None
    if args.trace:
        # before the workloads import their bindings, so theirs are shims too
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import workloads

    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    outcome.samples["peak_rss_mb"] = [workloads.peak_rss_mb()]

    print(f"== {args.workload}  seed={args.seed}  trace={args.trace}")
    print("end-to-end (median of n samples):")
    for name, unit in END_TO_END.items():
        values = outcome.samples[name]
        print(f"  {name:<22} {statistics.median(values):>12.4f} {unit:<6} n={len(values)}")
    for name, (value, unit, n) in outcome.detail.items():
        print(f"  {name:<22} {value:>12.4f} {unit:<6} n={n}")
    error_rate = outcome.failed / max(outcome.attempted, 1)
    print(f"  {'error_rate':<22} {error_rate:>12.4f} {'ratio':<6} n={outcome.attempted}")

    if tracer is not None:
        wall = sum(end - start for start, end in outcome.windows)
        covered = sum(tracer.covered_s(start, end) for start, end in outcome.windows)
        outcome.extra["coverage"] = covered / wall
        metrics = tracing.layer_metrics(tracer, outcome.extra)
        print(f"per-layer spans (timed regions: {wall:.3f} s; self time is "
              "busy time minus child spans; pool-worker time shows as "
              "runtime.pool_wait):")
        print(f"  {'span':<22} {'busy_s':>10} {'self_s':>10} {'share':>7} "
              f"{'calls':>8} {'items':>10}")
        for name, row in sorted(tracer.layer_totals().items(),
                                key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:<22} {row['busy_s']:>10.3f} {row['self_s']:>10.3f} "
                  f"{row['self_s'] / wall:>7.1%} {row['calls']:>8} {row['items']:>10}")
        print("per-layer metrics:")
        for name, value in metrics.items():
            print(f"  {name:<38} {value:>14.6g} {layer_unit(name)}")
        for failure in tracing.coverage_failures(args.workload, metrics):
            outcome.check(False, f"layer coverage: {failure}")
        tracer.dump(os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json"))
        reported = {name: (value, layer_unit(name)) for name, value in metrics.items()}
    else:
        reported = {
            name: (statistics.median(outcome.samples[name]), unit)
            for name, unit in END_TO_END.items()
        }

    print("checks:")
    for ok, what in outcome.checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    correct = outcome.failed == 0 and all(ok for ok, _ in outcome.checks)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in reported.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
