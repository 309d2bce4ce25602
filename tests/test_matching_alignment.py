"""The exact best-alignment join, pinned against the exhaustive oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cells import CellStatus, SkeletalGridCell
from repro.core.sgs import SGS
from repro.matching.alignment import (
    best_alignment,
    exhaustive_alignment_search,
)
from repro.matching.cell_match import cell_level_distance
from repro.matching.metric import DistanceMetricSpec


def _sgs(locations, populations=None, side=0.5):
    cells = [
        SkeletalGridCell(
            loc,
            side,
            populations[i] if populations else 5,
            CellStatus.CORE,
        )
        for i, loc in enumerate(locations)
    ]
    return SGS(cells, side)


L_SHAPE = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]


def test_finds_exact_translation():
    a = _sgs(L_SHAPE)
    b = _sgs([(x + 7, y - 3) for x, y in L_SHAPE])
    spec = DistanceMetricSpec()
    result = best_alignment(a, b, spec)
    assert result.distance == 0.0
    assert result.alignment == (7, -3)


def test_matches_exhaustive_on_small_instances():
    a = _sgs(L_SHAPE)
    b = _sgs([(x + 1, y + 1) for x, y in L_SHAPE[:4]])
    spec = DistanceMetricSpec()
    exact = exhaustive_alignment_search(a, b, spec)
    joined = best_alignment(a, b, spec)
    assert (joined.distance, joined.alignment) == (
        exact.distance,
        exact.alignment,
    )


def test_position_sensitive_uses_zero_alignment():
    a = _sgs(L_SHAPE)
    spec = DistanceMetricSpec(position_sensitive=True)
    result = best_alignment(a, a, spec)
    assert result.alignment == (0, 0)
    assert result.distance == 0.0
    assert result.evaluated == 1


def test_rejects_mixed_dimensionality():
    with pytest.raises(ValueError, match="dimensionality"):
        best_alignment(
            _sgs([(0, 0)]),
            SGS([SkeletalGridCell((0, 0, 0), 0.5, 5, CellStatus.CORE)], 0.5),
            DistanceMetricSpec(),
        )


def test_exhaustive_explores_overlap_box():
    a = _sgs([(0, 0)])
    b = _sgs([(3, 3)])
    spec = DistanceMetricSpec()
    exact = exhaustive_alignment_search(a, b, spec, margin=0)
    assert exact.distance == pytest.approx(0.0)
    assert exact.alignment == (3, 3)


# ----------------------------------------------------------------------
# The oracle property (Hypothesis)
# ----------------------------------------------------------------------

#: Non-position-sensitive metrics: the default, skewed cell weights, no
#: connectivity weight, and no cell-level weight at all (the cell match
#: then falls back to equal weights).
_SPECS = (
    DistanceMetricSpec(),
    DistanceMetricSpec(
        weights={
            "volume": 0.1,
            "core_count": 0.6,
            "avg_density": 0.2,
            "avg_connectivity": 0.1,
        }
    ),
    DistanceMetricSpec(weights={"core_count": 0.5, "avg_density": 0.5}),
    DistanceMetricSpec(weights={"volume": 1.0}),
)


def _cell_maps(dims):
    """location -> (core?, population, connection offsets)."""
    coord = st.tuples(*[st.integers(-3, 3)] * dims)
    offset = st.tuples(*[st.integers(-2, 2)] * dims).filter(any)
    cell = st.tuples(
        st.booleans(),
        st.integers(0, 12),
        st.frozensets(offset, max_size=4),
    )
    return st.dictionaries(coord, cell, min_size=1, max_size=8)


def _build(cells, translation):
    built = []
    for location, (core, population, offsets) in cells.items():
        at = tuple(c + t for c, t in zip(location, translation))
        built.append(
            SkeletalGridCell(
                at,
                0.5,
                population,
                CellStatus.CORE if core else CellStatus.EDGE,
                frozenset(
                    tuple(a + o for a, o in zip(at, off)) for off in offsets
                )
                if core
                else frozenset(),
            )
        )
    return SGS(built, 0.5)


@st.composite
def _sgs_pairs(draw, dims):
    """Independent pairs, identical pairs, and translated copies — some
    translated far enough that the two clusters are disjoint."""
    cells_a = draw(_cell_maps(dims))
    kind = draw(st.sampled_from(("independent", "identical", "translated")))
    cells_b = draw(_cell_maps(dims)) if kind == "independent" else cells_a
    if kind == "identical":
        translation = (0,) * dims
    else:
        translation = draw(st.tuples(*[st.integers(-40, 40)] * dims))
    return _build(cells_a, (0,) * dims), _build(cells_b, translation)


@pytest.mark.parametrize("dims", (2, 3))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_best_alignment_equals_exhaustive_oracle(dims, data):
    """The join returns exactly the exhaustive search's distance and
    alignment (ties included), and the distance is exactly
    cell_level_distance at that alignment."""
    sgs_a, sgs_b = data.draw(_sgs_pairs(dims))
    spec = data.draw(st.sampled_from(_SPECS))
    exact = exhaustive_alignment_search(sgs_a, sgs_b, spec)
    joined = best_alignment(sgs_a, sgs_b, spec)
    assert (joined.distance, joined.alignment) == (
        exact.distance,
        exact.alignment,
    )
    assert joined.distance == cell_level_distance(
        sgs_a, sgs_b, spec, joined.alignment
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_position_sensitive_is_the_zero_shift_distance(data):
    sgs_a, sgs_b = data.draw(_sgs_pairs(2))
    spec = DistanceMetricSpec(position_sensitive=True)
    result = best_alignment(sgs_a, sgs_b, spec)
    assert result.alignment == (0, 0)
    assert result.distance == cell_level_distance(sgs_a, sgs_b, spec, None)
