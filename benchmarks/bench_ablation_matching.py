"""E8 / ablations of Section 7.2's design choices.

1. Filter-and-refine vs refine-everything: how much query time and work
   the feature-index + cluster-level filter saves over running the
   grid-cell-level match on every archived cluster.
2. Anytime alignment search: distance quality vs expansion budget,
   compared against the exhaustive (exact) alignment search and the
   library's exact cell-pair join.

The paper's anytime search lives here, not in the library: the engine
matches under the exact alignment (:func:`best_alignment`), so this
ablation is the search's only remaining user.
"""

from __future__ import annotations

import heapq
import itertools
import time

from common import (
    WIN,
    collect_window_outputs,
    emit_bench_record,
    report,
    stt_points,
)
from repro.archive.analyzer import PatternAnalyzer
from repro.archive.pattern_base import PatternBase
from repro.eval.harness import Table, fmt_seconds
from repro.matching.alignment import (
    AlignmentResult,
    best_alignment,
    exhaustive_alignment_search,
)
from repro.matching.cell_match import cell_level_distance
from repro.matching.metric import DistanceMetricSpec

THETA_RANGE, THETA_COUNT = 0.1, 8
SLIDE = 500
THRESHOLD = 0.25

_state = {}


def _centroid_shift(sgs_a, sgs_b):
    """Initial alignment: move Ca's cell-centroid onto Cb's."""

    def centroid(sgs):
        return [sum(axis) / len(sgs.cells) for axis in zip(*sgs.cells)]

    return tuple(
        int(round(b - a)) for a, b in zip(centroid(sgs_a), centroid(sgs_b))
    )


def _neighbor_shifts(shift):
    for delta in itertools.product((-1, 0, 1), repeat=len(shift)):
        if any(delta):
            yield tuple(s + d for s, d in zip(shift, delta))


def anytime_alignment_search(sgs_a, sgs_b, spec, max_expansions=64):
    """The paper's best-first anytime search (Section 7.2): start at the
    centroid-difference alignment, repeatedly expand the most promising
    frontier alignment into its 3^d - 1 neighbor shifts, and return the
    best alignment found when ``max_expansions`` runs out — an anytime
    guarantee, not an optimality one. Position-insensitive only."""
    start = _centroid_shift(sgs_a, sgs_b)
    start_distance = cell_level_distance(sgs_a, sgs_b, spec, start)
    best = (start_distance, start)
    visited = {start}
    heap = [(start_distance, start)]
    evaluated = 1
    expansions = 0
    while heap and expansions < max_expansions:
        _, shift = heapq.heappop(heap)
        expansions += 1
        for neighbor in _neighbor_shifts(shift):
            if neighbor in visited:
                continue
            visited.add(neighbor)
            distance = cell_level_distance(sgs_a, sgs_b, spec, neighbor)
            evaluated += 1
            if distance < best[0]:
                best = (distance, neighbor)
            heapq.heappush(heap, (distance, neighbor))
    return AlignmentResult(best[0], best[1], evaluated)


def _setup():
    if _state:
        return _state
    points = stt_points(WIN + 10 * SLIDE, seed=23)
    outputs = collect_window_outputs(
        points, THETA_RANGE, THETA_COUNT, 4, WIN, SLIDE
    )
    base = PatternBase()
    for output in outputs[:-1]:
        for cluster, sgs in zip(output.clusters, output.summaries):
            if cluster.size >= 20:
                base.add(sgs, cluster.size)
    queries = [
        sgs
        for cluster, sgs in zip(outputs[-1].clusters, outputs[-1].summaries)
        if cluster.size >= 20
    ][:6]
    _state.update(base=base, queries=queries)
    return _state


def _filter_and_refine() -> tuple:
    state = _setup()
    analyzer = PatternAnalyzer(state["base"], DistanceMetricSpec())
    start = time.perf_counter()
    refined = 0
    for query in state["queries"]:
        _, stats = analyzer.match(query, THRESHOLD)
        refined += stats.refined
    return (time.perf_counter() - start) / len(state["queries"]), refined


def _refine_everything() -> tuple:
    state = _setup()
    spec = DistanceMetricSpec()
    start = time.perf_counter()
    refined = 0
    for query in state["queries"]:
        for pattern in state["base"].all_patterns():
            best_alignment(query, pattern.sgs, spec)
            refined += 1
    return (time.perf_counter() - start) / len(state["queries"]), refined


def test_ablation_filter_and_refine(benchmark):
    _setup()
    benchmark.pedantic(_filter_and_refine, rounds=1, iterations=1)


def test_ablation_refine_everything(benchmark):
    _setup()
    benchmark.pedantic(_refine_everything, rounds=1, iterations=1)


def test_ablation_matching_report(benchmark):
    state = _setup()
    with_filter, refined_filter = _filter_and_refine()
    without_filter, refined_all = _refine_everything()
    table = Table(
        "Ablation — filter-and-refine vs refine-everything",
        ["strategy", "avg query time", "cell-level matches run"],
    )
    table.add_row("filter-and-refine", fmt_seconds(with_filter), refined_filter)
    table.add_row("refine everything", fmt_seconds(without_filter), refined_all)
    report(table.render())
    emit_bench_record(
        "matching",
        "stt-filter-refine",
        filter_and_refine_s=round(with_filter, 5),
        refine_everything_s=round(without_filter, 5),
        refined_with_filter=refined_filter,
        refined_without_filter=refined_all,
    )
    assert with_filter < without_filter
    assert refined_filter < refined_all

    # Anytime alignment quality vs budget.
    spec = DistanceMetricSpec()
    queries = state["queries"]
    patterns = list(state["base"].all_patterns())[:10]
    budgets = (1, 8, 32, 128)
    quality = Table(
        "Ablation — anytime alignment search vs exhaustive",
        ["budget (expansions)", "avg distance", "avg gap to exact"],
    )
    exact = {}
    for i, query in enumerate(queries[:3]):
        for j, pattern in enumerate(patterns):
            exact[(i, j)] = exhaustive_alignment_search(
                query, pattern.sgs, spec, margin=1
            ).distance
    gaps_by_budget = {}
    for budget in budgets:
        distances, gaps = [], []
        for i, query in enumerate(queries[:3]):
            for j, pattern in enumerate(patterns):
                result = anytime_alignment_search(
                    query, pattern.sgs, spec, max_expansions=budget
                )
                distances.append(result.distance)
                gaps.append(result.distance - exact[(i, j)])
        avg_gap = sum(gaps) / len(gaps)
        gaps_by_budget[budget] = avg_gap
        quality.add_row(
            budget,
            f"{sum(distances) / len(distances):.4f}",
            f"{avg_gap:.4f}",
        )
    joined = [
        best_alignment(query, pattern.sgs, spec).distance
        for query in queries[:3]
        for pattern in patterns
    ]
    quality.add_row(
        "exact join",
        f"{sum(joined) / len(joined):.4f}",
        f"{sum(j - e for j, e in zip(joined, exact.values())) / len(joined):.4f}",
    )
    report(quality.render())

    # Anytime property: more budget never hurts; gaps are non-negative.
    assert all(gap >= -1e-9 for gap in gaps_by_budget.values())
    assert gaps_by_budget[128] <= gaps_by_budget[1] + 1e-9
    # The join is the exact search: no gap at all.
    assert joined == list(exact.values())
    benchmark.pedantic(_filter_and_refine, rounds=1, iterations=1)
