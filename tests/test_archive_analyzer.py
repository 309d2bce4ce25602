"""Unit tests for the Pattern Analyzer (filter-and-refine matching)."""

import pytest

from tests.helpers import clustered_points, stream_batches
from repro.archive.analyzer import PatternAnalyzer
from repro.archive.archiver import PatternArchiver
from repro.archive.pattern_base import PatternBase
from repro.core.csgs import CSGS
from repro.matching.alignment import best_alignment
from repro.matching.metric import DistanceMetricSpec


def _populated_base(seed=1):
    points = clustered_points(
        [(2.0, 2.0), (6.0, 5.0), (4.0, 8.0)],
        per_cluster=250,
        noise=120,
        seed=seed,
    )
    base = PatternBase()
    archiver = PatternArchiver(base)
    csgs = CSGS(0.35, 5, 2)
    last_output = None
    for batch in stream_batches(points, 300, 100):
        last_output = csgs.process_batch(batch)
        archiver.archive_output(last_output)
    return base, last_output


def test_self_match_found_with_zero_distance():
    base, last = _populated_base()
    analyzer = PatternAnalyzer(base)
    query = max(last.summaries, key=len)
    results, stats = analyzer.match(query, threshold=0.3)
    assert results, "the archived copy of the query must match"
    assert results[0].distance == pytest.approx(0.0, abs=1e-9)
    assert stats.matches == len(results)


def test_results_sorted_and_within_threshold():
    base, last = _populated_base()
    analyzer = PatternAnalyzer(base)
    query = last.summaries[0]
    results, _ = analyzer.match(query, threshold=0.5)
    distances = [r.distance for r in results]
    assert distances == sorted(distances)
    assert all(d <= 0.5 for d in distances)


def test_top_k_truncates():
    base, last = _populated_base()
    analyzer = PatternAnalyzer(base)
    query = last.summaries[0]
    all_results, _ = analyzer.match(query, threshold=0.6)
    top3, _ = analyzer.match(query, threshold=0.6, top_k=3)
    assert len(top3) == min(3, len(all_results))
    assert [r.pattern.pattern_id for r in top3] == [
        r.pattern.pattern_id for r in all_results[:3]
    ]


def test_filter_reduces_refined_candidates():
    base, last = _populated_base()
    analyzer = PatternAnalyzer(base)
    query = last.summaries[0]
    _, stats = analyzer.match(query, threshold=0.15)
    assert stats.archive_size == len(base)
    assert stats.refined <= stats.index_candidates <= stats.archive_size
    # With a tight threshold the filter must drop a real fraction.
    assert stats.refined < stats.archive_size


def test_filter_never_drops_true_matches():
    """Filter-phase completeness: every pattern that satisfies both the
    cluster-level metric and the refined cell-level distance must appear
    in the results (the index search ranges are safe, Section 7.2)."""
    from repro.core.features import ClusterFeatures
    from repro.matching.metric import cluster_feature_distance

    base, last = _populated_base()
    spec = DistanceMetricSpec()
    analyzer = PatternAnalyzer(base, spec)
    query = last.summaries[0]
    query_features = ClusterFeatures.from_sgs(query)
    threshold = 0.25
    results, _ = analyzer.match(query, threshold=threshold)
    found = {r.pattern.pattern_id for r in results}
    for pattern in base.all_patterns():
        coarse = cluster_feature_distance(
            query_features, pattern.features, spec
        )
        if coarse > threshold:
            continue
        refined = best_alignment(query, pattern.sgs, spec).distance
        if refined <= threshold:
            assert pattern.pattern_id in found, (
                f"pattern {pattern.pattern_id} (coarse {coarse}, refined "
                f"{refined}) was filtered out"
            )


def test_position_sensitive_uses_locational_index():
    base, last = _populated_base()
    spec = DistanceMetricSpec(position_sensitive=True)
    analyzer = PatternAnalyzer(base, spec)
    query = last.summaries[0]
    results, stats = analyzer.match(query, threshold=0.4)
    assert stats.index_candidates <= stats.archive_size
    for result in results:
        assert result.pattern.mbr.intersects(query.mbr())
        assert result.alignment == (0, 0)


def test_refine_fraction_property():
    base, last = _populated_base()
    analyzer = PatternAnalyzer(base)
    _, stats = analyzer.match(last.summaries[0], threshold=0.2)
    assert 0.0 <= stats.refine_fraction <= 1.0


def test_empty_base_returns_nothing():
    analyzer = PatternAnalyzer(PatternBase())
    _, last = _populated_base()
    results, stats = analyzer.match(last.summaries[0], threshold=0.5)
    assert results == []
    assert stats.archive_size == 0
    assert stats.refine_fraction == 0.0
