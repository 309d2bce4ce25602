"""Per-layer metrics derived from a traced run.

Span names are ``<layer>.<call>``; layer names are the program's module
names. Time metrics are self times (a span's duration minus its
children), so they partition the traced wall time; the spans of the
benchmark's own loop (``bench.*``, ``client.request``) hold the rest.
Every traced run prints every metric below: a layer the workload does
not exercise reads 0, and a wrap point that no longer exists in the
program is listed as absent.

The prediction table (which end-to-end metric each row should move, on
which workload) lives in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from common import TRACE_ROOT, Report, fmt, table
from tracer import Span, SpanTable

#: (metric, unit) in the order BENCHMARK.json lists them.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("index.range_query_s", "s"),
    ("index.insert_s", "s"),
    ("index.remove_s", "s"),
    ("index.probes", "count"),
    ("index.candidates", "count"),
    ("index.neighbors", "count"),
    ("index.neighbor_yield", "ratio"),
    ("core.careers_s", "s"),
    ("core.advance_s", "s"),
    ("core.emit_s", "s"),
    ("core.clusters", "count"),
    ("core.sgs_cells", "count"),
    ("core.state_entries", "count"),
    ("archive.archive_s", "s"),
    ("archive.add_s", "s"),
    ("archive.patterns", "count"),
    ("archive.load_s", "s"),
    ("store.hydrations", "count"),
    ("store.cache_hits", "count"),
    ("store.hit_ratio", "ratio"),
    ("retrieval.plan_s", "s"),
    ("retrieval.gather_s", "s"),
    ("retrieval.screen_s", "s"),
    ("retrieval.engine_self_s", "s"),
    ("retrieval.gathered", "count"),
    ("retrieval.screened", "count"),
    ("retrieval.coarse_rejected", "count"),
    ("matching.feature_filter_s", "s"),
    ("matching.refine_s", "s"),
    ("matching.refined", "count"),
    ("matching.cell_distance_evals", "count"),
    ("matching.feature_pass", "ratio"),
    ("matching.match_yield", "ratio"),
    ("multiplex.feed_s", "s"),
    ("multiplex.range_query_s", "s"),
    ("multiplex.windows", "count"),
    ("multiplex.range_queries", "count"),
    ("serving.match_call_s", "s"),
    ("serving.stream_call_s", "s"),
    ("serving.engine_s", "s"),
    ("serving.wait_s", "s"),
    ("serving.http_s", "s"),
    ("client.codec_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.self_sum_share", "ratio"),
    ("trace.overhead", "ratio"),
)

#: Time metrics: the span names whose self time each one sums.
SELF_TIME: Dict[str, Tuple[str, ...]] = {
    "index.range_query_s": ("index.range_query_many", "index.range_query"),
    "index.insert_s": ("index.insert",),
    "index.remove_s": ("index.remove",),
    "core.careers_s": ("core.insert_batch", "core.shared_ingest"),
    "core.advance_s": ("core.begin_window", "core.shared_begin_window"),
    "core.emit_s": ("core.process_batch", "core.shared_emit"),
    "archive.archive_s": ("archive.archive_output",),
    "archive.add_s": ("archive.add",),
    "archive.load_s": ("archive.load_pattern_base",),
    "retrieval.plan_s": ("retrieval.plan_query",),
    "retrieval.gather_s": ("retrieval.gather", "retrieval.survivors"),
    "retrieval.screen_s": ("retrieval.screen",),
    "retrieval.engine_self_s": ("retrieval.match",),
    "matching.feature_filter_s": ("matching.cluster_feature_distance",),
    "matching.refine_s": (
        "matching.anytime_alignment_search",
        "matching.cell_level_distance",
    ),
    "multiplex.feed_s": ("multiplex.feed",),
    "multiplex.range_query_s": ("multiplex.batch_neighborhoods",),
    "serving.wait_s": ("serving.match_call", "serving.stream_call"),
    "serving.http_s": ("client.request",),
    "client.codec_s": ("client.codec",),
}

#: Time metrics that are inclusive (the whole call, children included).
TOTAL_TIME: Dict[str, Tuple[str, ...]] = {
    "serving.match_call_s": ("serving.match_call",),
    "serving.stream_call_s": ("serving.stream_call",),
    "serving.engine_s": ("serving.engine",),
}

#: Counters read straight from the trace's counter table.
COUNTERS = (
    "index.probes",
    "index.candidates",
    "index.neighbors",
    "core.clusters",
    "core.sgs_cells",
    "core.state_entries",
    "archive.patterns",
    "store.hydrations",
    "store.cache_hits",
    "retrieval.gathered",
    "retrieval.screened",
    "retrieval.coarse_rejected",
    "matching.refined",
    "matching.cell_distance_evals",
    "multiplex.windows",
    "multiplex.range_queries",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Iterable[Span],
    counters: Mapping[str, float],
    traced_wall: float,
    overhead: float,
) -> Tuple[Dict[str, float], SpanTable]:
    """Every per-layer metric from one traced run's spans and counters."""
    spans = list(spans)
    spans_table = SpanTable(spans)
    values: Dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        values[metric] = spans_table.self_of(*names)
    for metric, names in TOTAL_TIME.items():
        values[metric] = spans_table.total_of(*names)
    for name in COUNTERS:
        values[name] = float(counters.get(name, 0.0))
    values["index.neighbor_yield"] = _ratio(
        values["index.neighbors"], values["index.candidates"]
    )
    values["store.hit_ratio"] = _ratio(
        values["store.cache_hits"],
        values["store.cache_hits"] + values["store.hydrations"],
    )
    values["matching.feature_pass"] = _ratio(
        counters.get("matching.feature_filtered", 0.0),
        values["retrieval.screened"],
    )
    values["matching.match_yield"] = _ratio(
        counters.get("matching.matches", 0.0), values["matching.refined"]
    )
    self_sum = sum(spans_table.self_time.values())
    values["trace.wall_s"] = traced_wall
    values["trace.unattributed_s"] = sum(
        seconds
        for name, seconds in spans_table.self_time.items()
        if name.startswith("bench.")
    )
    values["trace.self_sum_share"] = _ratio(self_sum, traced_wall)
    values["trace.overhead"] = overhead
    return values, spans_table


def finish_trace(
    report: Report,
    spans: Sequence[Span],
    counters: Mapping[str, float],
    absent: Sequence[str],
    traced_wall: float,
    overhead: float,
    seed: int,
) -> None:
    """Fill ``report`` with every per-layer metric, print the layer
    table, and write the spans out."""
    values, spans_table = layer_metrics(spans, counters, traced_wall, overhead)
    units = dict(PER_LAYER)
    for name, unit in PER_LAYER:
        report.metric(name, values[name], unit)

    lines: List[str] = [f"## {report.workload} traced spans (self time partitions the traced wall)"]
    lines.append(f"  {'span':<40} {'calls':>9} {'total_s':>10} {'self_s':>10} {'share':>7}")
    for name, calls, total, own in spans_table.rows():
        share = own / traced_wall if traced_wall else 0.0
        lines.append(f"  {name:<40} {calls:>9} {total:>10.4f} {own:>10.4f} {share:>6.1%}")
    report.lines += lines
    rows = []
    for name, _ in PER_LAYER:
        note = units[name]
        rows.append((name, fmt(values[name]), note))
    for name in sorted(set(absent)):
        rows.append((name, "absent", "wrap point missing in this program"))
    report.lines += table(rows, f"{report.workload} per-layer metrics")
    report.line(
        f"self-time sum {values['trace.self_sum_share']:.4f} x traced wall "
        f"({traced_wall:.3f} s); tracing overhead {overhead:.3f} x untraced"
    )
    os.makedirs(TRACE_ROOT, exist_ok=True)
    path = os.path.join(TRACE_ROOT, f"{report.workload}-seed{seed}.json")
    with open(path, "w") as handle:
        json.dump(
            {
                "workload": report.workload,
                "seed": seed,
                "stamp": report.stamp,
                "spans": list(spans),
                "counters": dict(counters),
                "absent": sorted(set(absent)),
                "metrics": values,
            },
            handle,
        )
    report.line(f"spans written to {os.path.relpath(path, os.getcwd())}")
