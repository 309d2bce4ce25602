"""Evolution-driven pattern archival (Section 6.2's anticipated policy).

Archiving every window's clusters stores near-duplicates: a stable
cluster barely changes between consecutive slides. This archiver stores
a cluster only when its *track* experiences something worth keeping:

* a structural event — EMERGED, MERGED, or SPLIT; or
* drift — the cell-level distance between the cluster and its last
  archived snapshot exceeds ``drift_threshold``; or
* staleness — more than ``max_gap`` windows since the track's last
  snapshot (so long-lived stable clusters keep a sparse trail).
"""

from __future__ import annotations

from typing import Dict, List

from repro.archive.archiver import PatternArchiver
from repro.archive.pattern_base import ArchivedPattern, PatternBase
from repro.core.csgs import WindowOutput
from repro.core.sgs import SGS
from repro.matching.alignment import best_alignment
from repro.matching.metric import DistanceMetricSpec
from repro.tracking.tracker import ClusterTracker, TrackEvent


class EvolutionDrivenArchiver:
    """Archive clusters only at structurally interesting moments."""

    def __init__(
        self,
        base: PatternBase,
        drift_threshold: float = 0.25,
        max_gap: int = 10,
        overlap_threshold: float = 0.1,
        level: int = 0,
    ):
        if not 0 <= drift_threshold <= 1:
            raise ValueError("drift_threshold must be in [0, 1]")
        if max_gap < 1:
            raise ValueError("max_gap must be at least 1")
        self.base = base
        self.drift_threshold = drift_threshold
        self.max_gap = max_gap
        self.tracker = ClusterTracker(overlap_threshold)
        self._inner = PatternArchiver(base, level=level)
        self._spec = DistanceMetricSpec()
        # track_id -> (window, SGS) of the last archived snapshot
        self._snapshots: Dict[int, tuple] = {}
        self.windows_seen = 0
        self.clusters_seen = 0

    def _drifted(self, track_id: int, sgs: SGS, window: int) -> bool:
        snapshot = self._snapshots.get(track_id)
        if snapshot is None:
            return True
        last_window, last_sgs = snapshot
        if window - last_window >= self.max_gap:
            return True
        # Drift means *structural* change: compare under the best
        # alignment so a cluster that merely moved is not re-archived.
        distance = best_alignment(sgs, last_sgs, self._spec).distance
        return distance > self.drift_threshold

    def archive_output(self, output: WindowOutput) -> List[ArchivedPattern]:
        """Track one window's clusters; archive the noteworthy ones."""
        self.windows_seen += 1
        self.clusters_seen += len(output.clusters)
        size_by_cluster = {
            id(sgs): cluster.size
            for cluster, sgs in zip(output.clusters, output.summaries)
        }
        archived: List[ArchivedPattern] = []
        for record in self.tracker.observe(output):
            if record.sgs is None:  # DISAPPEARED marks carry no summary
                continue
            structural = record.event in (
                TrackEvent.EMERGED,
                TrackEvent.MERGED,
                TrackEvent.SPLIT,
            )
            if not structural and not self._drifted(
                record.track_id, record.sgs, record.window_index
            ):
                continue
            full_size = size_by_cluster.get(
                id(record.sgs), record.sgs.population
            )
            pattern = self._inner.archive_sgs(record.sgs, full_size)
            if pattern is not None:
                archived.append(pattern)
                self._snapshots[record.track_id] = (
                    record.window_index,
                    record.sgs,
                )
        return archived

    def savings(self) -> float:
        """Fraction of observed clusters *not* archived."""
        if self.clusters_seen == 0:
            return 0.0
        return 1.0 - len(self.base) / self.clusters_seen
