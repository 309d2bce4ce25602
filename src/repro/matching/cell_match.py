"""Grid-cell-level cluster match (Section 7.2).

Given an alignment (an integer location-shifting vector applied to the
first SGS), every skeletal grid cell of ``Ca`` is compared against the
cell occupying the corresponding position in ``Cb``: status, density and
connectivity differences are aggregated under the analyst's feature
weights; a cell with no counterpart contributes the maximum difference
(its corresponding sub-region is empty). The total is normalized by the
number of compared positions, keeping the distance in [0, 1].

In position-sensitive mode the alignment is fixed to the zero vector, so
a single scan over the two cell sets suffices — matching the paper's
complexity claim.
"""

from __future__ import annotations

from operator import add
from typing import Dict, Optional, Sequence, Tuple

from repro.core.cells import Coord, SkeletalGridCell
from repro.core.sgs import SGS
from repro.matching.metric import DistanceMetricSpec, relative_difference

# Cell-level comparison re-uses the non-locational weights, renormalized
# over the three per-cell comparable features (volume is a cluster-level
# feature; at cell level every compared position has unit volume).
_CELL_FEATURES = ("core_count", "avg_density", "avg_connectivity")


def _cell_feature_weights(spec: DistanceMetricSpec) -> Tuple[float, float, float]:
    weights = [spec.weight(name) for name in _CELL_FEATURES]
    total = sum(weights)
    if total <= 0:
        return (1.0 / 3, 1.0 / 3, 1.0 / 3)
    return tuple(weight / total for weight in weights)  # type: ignore[return-value]


def _pair_difference(
    cell_a: SkeletalGridCell,
    cell_b: SkeletalGridCell,
    shift: Coord,
    weights: Tuple[float, float, float],
) -> float:
    status_weight, density_weight, connectivity_weight = weights
    status_diff = 0.0 if cell_a.status is cell_b.status else 1.0
    density_diff = relative_difference(
        float(cell_a.population), float(cell_b.population)
    )
    # Jaccard distance between the (shift-normalized) connection sets.
    conn_a = {tuple(map(add, coord, shift)) for coord in cell_a.connections}
    union = len(conn_a | cell_b.connections)
    connectivity_diff = (
        1.0 - len(conn_a & cell_b.connections) / union if union else 0.0
    )
    return (
        status_weight * status_diff
        + density_weight * density_diff
        + connectivity_weight * connectivity_diff
    )


def cell_level_distance(
    sgs_a: SGS,
    sgs_b: SGS,
    spec: DistanceMetricSpec,
    alignment: Optional[Sequence[int]] = None,
) -> float:
    """Distance in [0, 1] between two SGS under a given alignment.

    ``alignment`` shifts ``sgs_a``'s cell locations; ``None`` means the
    zero vector (mandatory for position-sensitive matching).
    """
    if sgs_a.dimensions != sgs_b.dimensions:
        raise ValueError("cannot match SGS of different dimensionality")
    if alignment is None:
        shift: Coord = (0,) * sgs_a.dimensions
    else:
        if spec.position_sensitive and any(alignment):
            raise ValueError(
                "position-sensitive matching requires the zero alignment"
            )
        shift = tuple(int(s) for s in alignment)

    weights = _cell_feature_weights(spec)
    cells_b: Dict[Coord, SkeletalGridCell] = sgs_b.cells
    total = 0.0
    compared = 0
    matched_b = 0
    for coord, cell_a in sgs_a.cells.items():
        target = tuple(c + s for c, s in zip(coord, shift))
        cell_b = cells_b.get(target)
        compared += 1
        if cell_b is None:
            total += 1.0
        else:
            matched_b += 1
            total += _pair_difference(cell_a, cell_b, shift, weights)
    # Cells of Cb with no counterpart in Ca are empty sub-regions of Ca.
    unmatched_b = len(cells_b) - matched_b
    total += float(unmatched_b)
    compared += unmatched_b
    if compared == 0:
        return 0.0
    return total / compared
