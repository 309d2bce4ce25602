"""Workload ``stt-match``: Cluster Matching Queries over a loaded archive.

One closed-loop client sends the seeded block of queries (every pool
cluster once; see ``inputs.query_block``) through ``MatchEngine.match``,
in whole passes, over a format-v3 archive loaded during setup (in
memory: the whole archive is resident). Three queries in four run at
coarse level 0; a quarter are top-k queries at coarse level 1, screened
through the inverted index.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from typing import List, Sequence, Tuple

import inputs
from common import (
    Deadline, Report, fmt, host_reading, host_scaled, host_scaled_one,
    percentile, table, vm_hwm_mb,
)
from tracer import Tracer

#: Fewest passes over the whole query block in one run.
MIN_PASSES = 3
#: Distances recomputed by the gate may differ from the engine's only by
#: summation order.
DISTANCE_TOLERANCE = 1e-9


def setup_engine(archive_path: str):
    """Load the archive, build the engine and the inverted index."""
    from repro.archive import persistence
    from repro.retrieval.engine import MatchEngine

    start = time.perf_counter()
    base = persistence.load_pattern_base(archive_path)
    engine = MatchEngine(base)
    base.enable_inverted([inputs.COARSE_LEVEL])
    return engine, time.perf_counter() - start


def build_queries(payloads: Sequence[dict], spec) -> list:
    from repro.core.serialize import sgs_from_dict
    from repro.retrieval.queries import MatchQuery

    return [
        MatchQuery(
            sgs=sgs_from_dict(p["sgs"]),
            threshold=p["threshold"],
            top_k=p["top_k"],
            metric=spec,
            coarse_level=p["coarse_level"],
        )
        for p in payloads
    ]


def answer_key(results) -> List[Tuple[int, float, tuple]]:
    return [
        (r.pattern.pattern_id, r.distance, tuple(r.alignment))
        for r in results
    ]


def check_answer(query, results, where: str, report: Report) -> bool:
    """Every result re-verifies: its cell-level distance under the
    reported alignment equals the reported distance and is within the
    threshold; results are ordered by (distance, pattern id) and cut at
    top-k."""
    from repro.matching.cell_match import cell_level_distance

    problems = []
    keys = [(r.distance, r.pattern.pattern_id) for r in results]
    if keys != sorted(keys):
        problems.append("results not ordered by (distance, pattern_id)")
    if query.top_k is not None and len(results) > query.top_k:
        problems.append(f"{len(results)} results exceed top_k={query.top_k}")
    for r in results:
        recomputed = cell_level_distance(
            query.sgs, r.pattern.sgs, query.metric, r.alignment
        )
        if abs(recomputed - r.distance) > DISTANCE_TOLERANCE:
            problems.append(
                f"pattern {r.pattern.pattern_id}: reported {r.distance!r}, "
                f"recomputed {recomputed!r}"
            )
        if r.distance > query.threshold:
            problems.append(
                f"pattern {r.pattern.pattern_id}: distance {r.distance} "
                f"above threshold {query.threshold}"
            )
    if problems:
        report.fail(f"{where}: " + "; ".join(problems))
        return False
    return True


def instrument(tracer: Tracer, engine) -> None:
    """Wrap the retrieval and matching call points the engine uses."""
    from repro.matching import alignment
    from repro.retrieval import engine as engine_module
    from repro.retrieval import inverted, planner

    tracer.wrap(engine, "match", "retrieval.match")
    tracer.wrap(planner, "plan_query", "retrieval.plan_query")
    tracer.wrap(planner, "gather", "retrieval.gather")
    tracer.wrap(planner, "screen", "retrieval.screen")
    tracer.wrap(
        getattr(inverted, "InvertedScreen", None), "survivors",
        "retrieval.survivors",
    )
    tracer.wrap(
        engine_module, "cluster_feature_distance",
        "matching.cluster_feature_distance",
    )
    tracer.wrap(
        engine_module, "anytime_alignment_search",
        "matching.anytime_alignment_search",
    )
    tracer.wrap(
        engine_module, "cell_level_distance", "matching.cell_level_distance"
    )
    tracer.count_calls(
        alignment, "cell_level_distance", "matching.cell_distance_evals"
    )


def count_stats(tracer: Tracer, stats) -> None:
    """Accumulate one query's engine accounting."""
    tracer.count("retrieval.gathered", stats.gathered)
    tracer.count("retrieval.screened", stats.screened)
    tracer.count("retrieval.coarse_rejected", stats.coarse_rejected)
    tracer.count("matching.feature_filtered", stats.feature_filtered)
    tracer.count("matching.refined", stats.refined)
    tracer.count("matching.matches", stats.matches)


def run_queries(engine, queries, deadline: Deadline, tracer: Tracer = None, readings=None):
    """The closed loop: one query after the other, each timed. With a
    ``readings`` list, the host's speed is read before each query and
    after the last."""
    latencies: List[float] = []
    answers = []
    for query in queries:
        if deadline.passed():
            break
        if readings is not None:
            readings.append(host_reading())
        token = tracer.begin() if tracer is not None else None
        start = time.perf_counter()
        results, stats = engine.match(query)
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end("bench.query", token)
            count_stats(tracer, stats)
        answers.append(results)
    if readings is not None:
        readings.append(host_reading())
    return latencies, answers


def run(seed: int, seconds: float, trace: bool, report: Report) -> None:
    from repro.geometry.coordstore import resolve_refinement

    deadline = Deadline(150.0)
    history = inputs.history()
    archive_path = os.path.join(history, "archive.sgsa")
    payloads = inputs.load_queries(history, seed)
    report.stamp["refinement"] = resolve_refinement(None)
    if trace:
        run_traced(archive_path, payloads, seed, deadline, report)
        return
    gc.collect()
    before = host_reading()
    engine, elapsed = setup_engine(archive_path)
    setups = [host_scaled_one(elapsed, before, host_reading())]
    queries = build_queries(payloads, engine.spec)

    # Whole passes over the block while another fits in the run's time
    # (at least MIN_PASSES), each after a timed setup of a spare engine.
    # Every query time is scaled to the reference host's speed.
    times: List[float] = []
    answers: List[List[list]] = [[] for _ in queries]
    passes = 0
    measure_start = time.perf_counter()
    while True:
        gc.collect()  # the previous spare never dies in a timed setup
        before = host_reading()
        elapsed = setup_engine(archive_path)[1]
        setups.append(host_scaled_one(elapsed, before, host_reading()))
        readings: List[float] = []
        latencies, results = run_queries(engine, queries, deadline, readings=readings)
        times += host_scaled(latencies, readings)
        for index, result in enumerate(results):
            answers[index].append(result)
        passes += 1
        elapsed = time.perf_counter() - measure_start
        if deadline.passed() or (
            passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds
        ):
            break

    # Correctness gates, outside the timed loop.
    report.attempted = len(queries) * passes
    missed = report.attempted - len(times)
    if missed:
        report.fail(f"{missed} queries not run before the deadline", missed)
    first = [results[0] if results else [] for results in answers]
    for position, (query, results) in enumerate(zip(queries, answers)):
        if not results:
            continue
        check_answer(query, results[0], f"query {position}", report)
        changed = sum(
            1 for later in results[1:] if answer_key(later) != answer_key(results[0])
        )
        if changed:
            report.fail(f"query {position}: answer changed in {changed} passes", changed)

    matches = sum(len(a) for a in first)
    setup_s = statistics.median(setups)
    rss = vm_hwm_mb()
    throughput = len(times) / sum(times)
    p50 = percentile(times, 50) * 1e3
    p90 = percentile(times, 90) * 1e3
    report.metric("setup_s", setup_s, "s")
    report.metric("peak_rss_mb", rss, "MB")
    report.metric("throughput_per_s", throughput, "1/s")
    report.metric("p50_ms", p50, "ms")
    report.metric("p90_ms", p90, "ms")
    report.lines += table(
        [
            ("setup_s", fmt(setup_s), f"s (median of {len(setups)} load+engine+inverted builds, one before each pass)"),
            ("peak_rss_mb", fmt(rss), "MB (benchmark process VmHWM)"),
            ("ops_failed_frac", fmt(report.failed / max(1, report.attempted)), "failed/attempted"),
            ("match.queries_per_s", fmt(throughput), f"queries/s ({passes} passes x {len(queries)} queries, {matches} matches/pass, archive {len(engine.base)} patterns)"),
            ("match.query_p50_ms", fmt(p50), f"ms (over {len(times)} queries)"),
            ("match.query_p90_ms", fmt(p90), "ms"),
        ],
        "stt-match end to end",
    )


def run_traced(archive_path, payloads, seed, deadline, report: Report) -> None:
    """One pass over the block untraced, then one traced; the overhead
    is the ratio of the two loop times."""
    from layers import finish_trace
    from repro.archive import persistence
    from tracer import SpanTable

    engine, _ = setup_engine(archive_path)
    queries = build_queries(payloads, engine.spec)
    baseline, _ = run_queries(engine, queries, deadline)

    tracer = Tracer()
    tracer.wrap(persistence, "load_pattern_base", "archive.load_pattern_base")
    wall_start = time.perf_counter()
    with tracer.span("bench.setup"):
        engine, _ = setup_engine(archive_path)
    instrument(tracer, engine)
    with tracer.span("bench.queries"):
        traced, answers = run_queries(engine, queries, deadline, tracer)
    traced_wall = time.perf_counter() - wall_start
    tracer.unwrap()
    evals = SpanTable(tracer.spans).calls.get("matching.cell_level_distance", 0)
    tracer.count("matching.cell_distance_evals", evals)
    report.attempted = len(baseline) + len(traced)
    for position, (query, results) in enumerate(zip(queries, answers)):
        check_answer(query, results, f"traced query {position}", report)
    finish_trace(
        report,
        tracer.spans,
        tracer.counters,
        tracer.absent,
        traced_wall=traced_wall,
        overhead=sum(traced) / sum(baseline),
        seed=seed,
    )
