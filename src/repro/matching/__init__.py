"""Cluster matching: distance metrics, alignment search, baseline matchers."""

from repro.matching.alignment import AlignmentResult, best_alignment
from repro.matching.cell_match import cell_level_distance
from repro.matching.crd_match import crd_distance
from repro.matching.graph_edit import graph_edit_distance
from repro.matching.metric import (
    DistanceMetricSpec,
    cluster_feature_distance,
    feature_search_ranges,
    relative_difference,
)
from repro.matching.subset_match import subset_match_distance

__all__ = [
    "AlignmentResult",
    "DistanceMetricSpec",
    "best_alignment",
    "cell_level_distance",
    "cluster_feature_distance",
    "crd_distance",
    "feature_search_ranges",
    "graph_edit_distance",
    "relative_difference",
    "subset_match_distance",
]
