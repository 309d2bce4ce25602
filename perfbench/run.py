"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload stt-extract --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same workload once untraced and once traced and
prints the per-layer table (and the tracing overhead) instead. The last
line of standard output is always the JSON result; correctness gates
run outside the timed regions and any failure makes the exit code 1.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    BENCH_DIR, LayoutError, Report, emit, ensure_layout, host_reference_ms, stamp,
)

WORKLOADS = ("stt-extract", "stt-match", "stt-serve-mixed")


def _metric_names(trace: bool):
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        ensure_layout()
    except LayoutError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    names = _metric_names(bool(args.trace))
    # A terminated run unwinds like Ctrl-C, so every server it started
    # is stopped and its scratch directory removed.
    signal.signal(signal.SIGTERM, _terminate)

    import wl_extract
    import wl_match
    import wl_serve

    module = {
        "stt-extract": wl_extract,
        "stt-match": wl_match,
        "stt-serve-mixed": wl_serve,
    }[args.workload]
    report = Report(args.workload, args.seed, bool(args.trace))
    host_before = host_reference_ms()
    module.run(args.seed, args.seconds, bool(args.trace), report)
    host_ms = (host_before + host_reference_ms()) / 2
    report.stamp = stamp(report.stamp.get("refinement", "n/a"), host_ms)
    emit(report, names)
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
