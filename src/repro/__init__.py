"""repro — Summarization and Matching of Density-Based Clusters in
Streaming Environments.

A from-scratch Python implementation of the VLDB 2011 system by Yang,
Rundensteiner & Ward: Skeletal Grid Summarization (SGS), the integrated
C-SGS extraction+summarization algorithm with lifespan analysis, the
multi-resolution Pattern Archiver, the dual-indexed Pattern Base, and the
filter-and-refine Pattern Analyzer — plus the baselines the paper
evaluates against (Extra-N, CRD, RSP, SkPS).

Quickstart::

    from repro import (
        ContinuousClusteringQuery, StreamPatternMiningSystem,
        DriftingBlobStream,
    )

    query = ContinuousClusteringQuery.count_based(
        theta_range=0.3, theta_count=5, dimensions=2, win=500, slide=100,
    )
    system = StreamPatternMiningSystem.from_query(query)
    stream = DriftingBlobStream(seed=1)
    for output in system.run_steps(stream.objects(5000)):
        print(output.window_index, len(output.clusters))
"""

from repro.archive.analyzer import MatchResult, MatchStats, PatternAnalyzer
from repro.archive.archiver import (
    ArchiveAllPolicy,
    FeatureFilterPolicy,
    PatternArchiver,
    SamplingPolicy,
)
from repro.archive.pattern_base import ArchivedPattern, PatternBase
from repro.archive.maintenance import RetentionManager
from repro.archive.persistence import dump_pattern_base, load_pattern_base
from repro.clustering.cluster import Cluster, partition_signature
from repro.clustering.dbscan import dbscan
from repro.clustering.extra_n import ExtraN
from repro.clustering.naive import NaiveWindowClusterer
from repro.clustering.shared import SharedCSGS
from repro.config import ClusterMatchingQuery, ContinuousClusteringQuery
from repro.core.cells import CellStatus, SkeletalGridCell
from repro.core.csgs import CSGS, WindowOutput
from repro.core.features import ClusterFeatures
from repro.core.multires import coarsen_sgs, resolution_ladder
from repro.core.regenerate import regenerate_cluster, regenerate_points
from repro.core.serialize import (
    sgs_from_bytes,
    sgs_from_json,
    sgs_to_bytes,
    sgs_to_json,
)
from repro.core.sgs import SGS
from repro.data.gmti import GMTIStream
from repro.data.stt import STTStream
from repro.data.synthetic import DriftingBlobStream
from repro.matching.alignment import best_alignment
from repro.matching.cell_match import cell_level_distance
from repro.matching.metric import DistanceMetricSpec, cluster_feature_distance
from repro.streams.objects import StreamObject
from repro.streams.source import ListSource, RateFluctuatingSource
from repro.streams.windows import (
    CountBasedWindowSpec,
    TimeBasedWindowSpec,
    Windower,
)
from repro.summaries.crd import CRDSummarizer
from repro.summaries.rsp import RSPSummarizer
from repro.summaries.skps import SkPSSummarizer
from repro.query.parser import QueryParseError, parse_query
from repro.retrieval import EngineStats, MatchEngine, MatchQuery
from repro.system.extractor import PatternExtractor
from repro.system.framework import (
    MultiplexedMiningSystem,
    StreamPatternMiningSystem,
)
from repro.multiplex import (
    MultiResolutionProvider,
    QueryRegistry,
    RegisteredQuery,
    SlideScheduler,
)
from repro.tracking.archiver import EvolutionDrivenArchiver
from repro.tracking.tracker import ClusterTracker, TrackEvent, TrackedCluster

__version__ = "1.0.0"

__all__ = [
    "ArchiveAllPolicy",
    "ArchivedPattern",
    "CSGS",
    "CRDSummarizer",
    "CellStatus",
    "Cluster",
    "ClusterFeatures",
    "ClusterMatchingQuery",
    "ContinuousClusteringQuery",
    "CountBasedWindowSpec",
    "DistanceMetricSpec",
    "DriftingBlobStream",
    "ExtraN",
    "FeatureFilterPolicy",
    "GMTIStream",
    "ListSource",
    "EngineStats",
    "MatchEngine",
    "MatchQuery",
    "MatchResult",
    "MultiResolutionProvider",
    "MultiplexedMiningSystem",
    "MatchStats",
    "NaiveWindowClusterer",
    "PatternAnalyzer",
    "PatternArchiver",
    "PatternBase",
    "PatternExtractor",
    "QueryRegistry",
    "RegisteredQuery",
    "RSPSummarizer",
    "RetentionManager",
    "RateFluctuatingSource",
    "SGS",
    "SamplingPolicy",
    "SkPSSummarizer",
    "SkeletalGridCell",
    "SlideScheduler",
    "StreamObject",
    "StreamPatternMiningSystem",
    "TimeBasedWindowSpec",
    "WindowOutput",
    "Windower",
    "ClusterTracker",
    "EvolutionDrivenArchiver",
    "QueryParseError",
    "SharedCSGS",
    "TrackEvent",
    "TrackedCluster",
    "best_alignment",
    "cell_level_distance",
    "cluster_feature_distance",
    "coarsen_sgs",
    "dbscan",
    "dump_pattern_base",
    "load_pattern_base",
    "parse_query",
    "partition_signature",
    "regenerate_cluster",
    "regenerate_points",
    "resolution_ladder",
    "sgs_from_bytes",
    "sgs_from_json",
    "sgs_to_bytes",
    "sgs_to_json",
]
