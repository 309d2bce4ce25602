"""Workload ``stt-extract``: one Continuous Clustering Query, end to end.

``StreamPatternMiningSystem.run_steps`` extracts, summarizes and
archives every window of the seeded STT stream (θr=0.05, θc=10, count
window 2000, slide 100). Closed loop: each slide is handed over once the
previous window is archived. The stream is replayed in whole passes on
fresh systems (at least three, so window digests can be compared);
every slide time is scaled to the reference host's speed.
"""

from __future__ import annotations

import gc
import hashlib
import random
import statistics
import time
from typing import Dict, List, Sequence

import inputs
from common import (
    Deadline, Report, fmt, host_reading, host_scaled, host_scaled_one,
    percentile, table, vm_hwm_mb,
)
from tracer import Tracer

#: Constructions timed for ``setup_s`` before each pass (spread over the
#: run, so the median is not one moment's host speed).
SETUP_REPEATS = 67
#: Fewest passes over the stream in one run.
MIN_PASSES = 3
#: Windows checked against per-window DBSCAN after the timed passes.
ORACLE_WINDOWS = 3
#: Host readings on each side of a slide that scale its time (one
#: reading between slides; the span covers ~0.2 s on either side).
READING_SPAN = 3


def _new_system():
    from repro.streams.windows import CountBasedWindowSpec
    from repro.system.framework import StreamPatternMiningSystem

    start = time.perf_counter()
    system = StreamPatternMiningSystem(
        inputs.EXTRACT_THETA[0],
        inputs.EXTRACT_THETA[1],
        inputs.DIMENSIONS,
        CountBasedWindowSpec(inputs.EXTRACT_WIN, inputs.EXTRACT_SLIDE),
    )
    return system, time.perf_counter() - start


def output_digest(output) -> str:
    """Order-independent digest of one window: cluster memberships and
    every SGS cell (location, population, status, connections)."""
    digest = hashlib.sha256()
    digest.update(str(output.window_index).encode())
    clusters = sorted(
        tuple(sorted(obj.oid for obj in cluster.members))
        for cluster in output.clusters
    )
    digest.update(repr(clusters).encode())
    summaries = sorted(
        tuple(
            sorted(
                (
                    cell.location,
                    cell.population,
                    cell.status.value,
                    tuple(sorted(cell.connections)),
                )
                for cell in sgs.cells.values()
            )
        )
        for sgs in output.summaries
    )
    digest.update(repr(summaries).encode())
    return digest.hexdigest()


class _Pass:
    def __init__(self):
        self.latencies: List[float] = []  # per slide, seconds
        self.readings: List[float] = []  # host speed between slides
        self.digests: List[str] = []
        self.elapsed = 0.0  # the whole loop, digests included
        self.kept: Dict[int, object] = {}
        self.system = None
        self.refinement = "n/a"


def run_pass(points, keep: Sequence[int] = (), tracer: Tracer = None) -> _Pass:
    """Replay the stream once on a fresh system, timing every slide.
    Untraced passes read the host's speed before each slide and after
    the last."""
    from repro.streams.source import ListSource

    result = _Pass()
    system, _ = _new_system()
    provider = system.extractor.algorithm.tracker.provider
    result.refinement = getattr(provider, "refinement", "n/a")
    if tracer is not None:
        result.system = system  # the trace report reads its state
        instrument(tracer, system)
    steps = system.run_steps(ListSource(points))
    root = tracer.begin() if tracer is not None else None
    pass_start = time.perf_counter()
    while True:
        if tracer is None:
            result.readings.append(host_reading(1))
        start = time.perf_counter()
        try:
            output = next(steps)
        except StopIteration:
            break
        result.latencies.append(time.perf_counter() - start)
        if tracer is None:
            result.digests.append(output_digest(output))
        if output.window_index in keep:
            result.kept[output.window_index] = output
        if tracer is not None:
            tracer.count("core.clusters", len(output.clusters))
            tracer.count(
                "core.sgs_cells", sum(len(s) for s in output.summaries)
            )
    result.elapsed = time.perf_counter() - pass_start
    if tracer is not None:
        tracer.end("bench.pass", root)
    return result


def instrument(tracer: Tracer, system) -> None:
    """Wrap the layer entry points of one system instance."""
    csgs = system.extractor.algorithm
    tracker = getattr(csgs, "tracker", None)
    provider = getattr(tracker, "provider", None)

    def count_neighbors(t, lists):
        t.count("index.neighbors", sum(len(found) for found in lists))

    tracer.wrap(csgs, "process_batch", "core.process_batch")
    tracer.wrap(csgs, "begin_window", "core.begin_window")
    tracer.wrap(tracker, "insert_batch", "core.insert_batch")
    tracer.wrap(provider, "insert", "index.insert")
    tracer.wrap(provider, "remove", "index.remove")
    tracer.wrap(
        provider, "range_query_many", "index.range_query_many",
        on_result=count_neighbors,
    )
    tracer.wrap(system.archiver, "archive_output", "archive.archive_output")
    tracer.wrap(system.pattern_base, "add", "archive.add")


def _oracle_check(points, window: int, output, report: Report) -> None:
    """The window's cluster memberships must equal DBSCAN over the
    window's live objects."""
    from repro.clustering.cluster import partition_signature
    from repro.clustering.dbscan import dbscan
    from repro.streams.objects import StreamObject

    slide, win = inputs.EXTRACT_SLIDE, inputs.EXTRACT_WIN
    lo = max(0, (window + 1) * slide - win)
    hi = min(len(points), (window + 1) * slide)
    objects = [StreamObject(i, points[i]) for i in range(lo, hi)]
    oracle = dbscan(objects, inputs.EXTRACT_THETA[0], inputs.EXTRACT_THETA[1])
    if partition_signature(output.clusters) != partition_signature(oracle):
        report.fail(f"window {window}: clusters differ from DBSCAN")


def run(seed: int, seconds: float, trace: bool, report: Report) -> None:
    points = inputs.workload_points(inputs.EXTRACT_OBJECTS, seed)
    full_from = inputs.EXTRACT_WIN // inputs.EXTRACT_SLIDE  # first slide after the first window
    windows = len(points) // inputs.EXTRACT_SLIDE
    rng = random.Random(seed)
    keep = sorted(rng.sample(range(full_from, windows), ORACLE_WINDOWS))
    deadline = Deadline(150.0)

    if trace:
        gc.collect()
        baseline = run_pass(points)
        gc.collect()
        tracer = Tracer()
        traced = run_pass(points, tracer=tracer)
        tracer.unwrap()
        report_trace(report, tracer, traced, baseline, seed)
        report.attempted = len(baseline.latencies) + len(traced.latencies)
        return

    # Whole passes while another fits in the run's time (at least
    # MIN_PASSES). Collecting the last pass's garbage first keeps the
    # peak memory that of one system, whenever the collector would have
    # run.
    setup: List[float] = []
    passes: List[_Pass] = []
    measure_start = time.perf_counter()
    while True:
        gc.collect()
        before = host_reading()
        times = [_new_system()[1] for _ in range(SETUP_REPEATS)]
        after = host_reading()
        setup += [host_scaled_one(t, before, after) for t in times]
        passes.append(run_pass(points, keep=keep if not passes else ()))
        elapsed = time.perf_counter() - measure_start
        mean_pass = elapsed / len(passes)
        if len(passes) >= MIN_PASSES and (
            elapsed + mean_pass > seconds or deadline.left() < 2 * mean_pass
        ):
            break
    report.stamp["refinement"] = passes[0].refinement

    # Correctness gates, outside every timed region.
    report.attempted = sum(len(p.latencies) for p in passes)
    reference = passes[0].digests
    for number, later in enumerate(passes[1:], start=2):
        differing = sum(1 for a, b in zip(reference, later.digests) if a != b)
        differing += abs(len(reference) - len(later.digests))
        if differing:
            report.fail(
                f"pass {number}: {differing} window digests differ", differing
            )
    for window in keep:
        output = passes[0].kept.get(window)
        if output is None:
            report.fail(f"window {window} was never emitted")
        else:
            _oracle_check(points, window, output, report)

    # Every slide time is scaled to the reference host's speed; the
    # percentiles are over the slides after the first window of every
    # pass, and throughput over every slide of every pass.
    scaled = [host_scaled(p.latencies, p.readings, READING_SPAN) for p in passes]
    objects = len(points) * len(passes)
    throughput = objects / sum(sum(times) for times in scaled)
    unscaled = objects / sum(sum(p.latencies) for p in passes)
    slides = [t for times in scaled for t in times[full_from:]]
    p50 = percentile(slides, 50) * 1e3
    p90 = percentile(slides, 90) * 1e3
    setup_s = statistics.median(setup)
    rss = vm_hwm_mb()
    report.metric("setup_s", setup_s, "s")
    report.metric("peak_rss_mb", rss, "MB")
    report.metric("throughput_per_s", throughput, "1/s")
    report.metric("p50_ms", p50, "ms")
    report.metric("p90_ms", p90, "ms")
    report.lines += table(
        [
            ("setup_s", fmt(setup_s), f"s (median of {len(setup)} constructions)"),
            ("peak_rss_mb", fmt(rss), "MB (benchmark process VmHWM)"),
            ("ops_failed_frac", fmt(report.failed / max(1, report.attempted)), "failed/attempted"),
            ("extract.objects_per_s", fmt(throughput), f"objects/s ({len(passes)} passes x {len(points)} objects; {fmt(unscaled)} unscaled)"),
            ("extract.slide_p50_ms", fmt(p50), f"ms ({len(slides)} slides after the first window)"),
            ("extract.slide_p90_ms", fmt(p90), "ms"),
        ],
        "stt-extract end to end",
    )


def report_trace(report: Report, tracer: Tracer, traced: _Pass, baseline: _Pass, seed: int) -> None:
    from layers import finish_trace

    system = traced.system
    csgs = system.extractor.algorithm
    provider = csgs.tracker.provider
    stats = getattr(provider, "stats", {}) or {}
    tracer.count("index.probes", stats.get("queries", 0))
    tracer.count("index.candidates", stats.get("candidates", 0))
    sizes = csgs.state_sizes() if hasattr(csgs, "state_sizes") else {}
    tracer.count("core.state_entries", sum(sizes.values()))
    tracer.count("archive.patterns", len(system.pattern_base))
    report.stamp["refinement"] = traced.refinement
    finish_trace(
        report,
        tracer.spans,
        tracer.counters,
        tracer.absent,
        traced_wall=traced.elapsed,
        overhead=sum(traced.latencies) / sum(baseline.latencies),
        seed=seed,
    )
