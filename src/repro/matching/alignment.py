"""Exact best-alignment search by one cell-pair join (Section 7.2).

Position-insensitive matching scores two clusters under the alignment
(integer shift of the first SGS) minimizing their cell-level distance.
Every shift under which they share a position is ``b − a`` for a cell
pair ``(a, b)``; every other shift scores 1.0. A pair's difference does
not depend on the shift once connections are taken relative to their
cell. So :func:`best_alignment` walks the |A|·|B| pairs once, summing
per shift the matched count ``m`` and the pair differences ``Σd``, and
scores it ``(Σd + (|A|−m) + (|B|−m)) / (|A|+|B|−m)``. Near-best shifts
are re-scored by :func:`~repro.matching.cell_match.cell_level_distance`:
the answer is exactly :func:`exhaustive_alignment_search`'s.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.sgs import SGS
from repro.matching.cell_match import _cell_feature_weights, cell_level_distance
from repro.matching.metric import _EPSILON, DistanceMetricSpec

Shift = Tuple[int, ...]

#: Scores this close to the best are re-scored exactly: the join sums in
#: another order than ``cell_level_distance``, off by a few ulps at most.
_TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of an alignment search: the best distance, the alignment
    attaining it, and how many alignments were scored."""

    distance: float
    alignment: Shift
    evaluated: int


def _extent(sgs: SGS) -> Tuple[List[int], List[int]]:
    """Per-axis minimum and maximum cell coordinate."""
    axes = list(zip(*sgs.cells))
    return [min(axis) for axis in axes], [max(axis) for axis in axes]


def _cell_table(
    sgs: SGS, place: Sequence[int], bits: Dict[Shift, int]
) -> List[tuple]:
    """One row per cell: integer location key, status, population and a
    bitmask over the cell's connections taken relative to the cell
    (offsets interned in ``bits``, shared by both sides of a join)."""
    rows = []
    for coord, cell in sgs.cells.items():
        mask = 0
        for target in cell.connections:
            offset = tuple(map(operator.sub, target, coord))
            mask |= bits.setdefault(offset, 1 << len(bits))
        key = sum(map(operator.mul, coord, place))
        rows.append((key, cell.status, float(cell.population), mask))
    return rows


def best_alignment(
    sgs_a: SGS, sgs_b: SGS, spec: DistanceMetricSpec
) -> AlignmentResult:
    """The exact minimum cell-level distance over all alignments: equal
    to :func:`exhaustive_alignment_search` (default margin) in distance
    and alignment. ``evaluated`` counts the overlapping shifts scored.
    Position-sensitive matching admits only the zero alignment."""
    dims = sgs_a.dimensions
    if spec.position_sensitive or sgs_b.dimensions != dims:
        zero = (0,) * dims  # cell_level_distance rejects mixed dimensions
        return AlignmentResult(
            cell_level_distance(sgs_a, sgs_b, spec, zero), zero, 1
        )
    (lows_a, highs_a), (lows_b, highs_b) = _extent(sgs_a), _extent(sgs_b)
    # Shifts on axis i span [first[i], highs_b − lows_a]: mixed-radix
    # cell keys that wide make a pair's shift key one subtraction.
    first = list(map(operator.sub, lows_b, highs_a))
    radix = max(map(operator.sub, highs_b, lows_a)) - min(first) + 1
    place = [radix ** i for i in range(dims)]
    bits: Dict[Shift, int] = {}
    rows_a = _cell_table(sgs_a, place, bits)
    rows_b = _cell_table(sgs_b, place, bits)
    w_status, w_density, w_connection = _cell_feature_weights(spec)
    matched: Dict[int, int] = {}
    summed: Dict[int, float] = {}
    for key_a, status_a, population_a, mask_a in rows_a:
        for key_b, status_b, population_b, mask_b in rows_b:
            # cell_match's pair difference: relative_difference inlined,
            # connection Jaccard as a popcount.
            d = 0.0 if status_a is status_b else w_status
            if population_a != population_b:
                if population_a < population_b:
                    low, gap = population_a, population_b - population_a
                else:
                    low, gap = population_b, population_a - population_b
                d += w_density * (
                    gap / low if _EPSILON < low and gap < low else 1.0
                )
            union = mask_a | mask_b
            if union:
                d += w_connection * (
                    1.0 - (mask_a & mask_b).bit_count() / union.bit_count()
                )
            shift = key_b - key_a
            matched[shift] = matched.get(shift, 0) + 1
            summed[shift] = summed.get(shift, 0.0) + d

    n = len(rows_a) + len(rows_b)
    scores = {k: (summed[k] + n - 2 * m) / (n - m) for k, m in matched.items()}
    least = min(scores.values())
    # The exhaustive search's first shift overlaps nothing and scores
    # exactly 1.0; an overlapping shift has to beat it strictly.
    best = (1.0, tuple(f - 1 for f in first))
    origin = sum(map(operator.mul, first, place))
    for key, score in scores.items():
        if least < 1.0 and score <= least + _TIE_TOLERANCE:
            offset, shift = key - origin, []
            for low in first:
                offset, digit = divmod(offset, radix)
                shift.append(low + digit)
            alignment = tuple(shift)
            distance = cell_level_distance(sgs_a, sgs_b, spec, alignment)
            best = min(best, (distance, alignment))
    return AlignmentResult(best[0], best[1], len(scores))


def exhaustive_alignment_search(
    sgs_a: SGS,
    sgs_b: SGS,
    spec: DistanceMetricSpec,
    margin: int = 1,
) -> AlignmentResult:
    """Exact search over every alignment that overlaps the two clusters
    (the overlap box grown by ``margin`` cells), one
    ``cell_level_distance`` call per shift; ties go to the smallest
    shift. The oracle :func:`best_alignment` is tested against."""
    (mins_a, maxs_a), (mins_b, maxs_b) = _extent(sgs_a), _extent(sgs_b)
    ranges = [
        range(mins_b[i] - maxs_a[i] - margin, maxs_b[i] - mins_a[i] + margin + 1)
        for i in range(sgs_a.dimensions)
    ]
    best_distance = float("inf")
    best_shift: Shift = ()
    evaluated = 0
    for shift in itertools.product(*ranges):
        distance = cell_level_distance(sgs_a, sgs_b, spec, shift)
        evaluated += 1
        if distance < best_distance:
            best_distance = distance
            best_shift = shift
    return AlignmentResult(best_distance, best_shift, evaluated)
