"""Trend segmentation, density, variance, and proportion summaries.

Slope values are checked against numpy's own least-squares fit as an
independent oracle; segmentation is checked against brute force in the
acceptance suite and against hand-picked shapes here.
"""
from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from melodify.errors import AllZero, NegativeProportion, TooShort
from melodify.stats import (
    SPAN_BY_LEVEL,
    VARIANCE_MEDIUM_AT,
    VARIANCE_WIDE_AT,
    DensityLevel,
    TrendDirection,
    VarianceClass,
    VarianceLevel,
    _quartile,
    compute_density,
    compute_variance,
    least_squares_slope,
    proportions,
    segment_trends,
)

int_series = st.lists(
    st.integers(min_value=-50, max_value=50), min_size=2, max_size=24
)


# --- least_squares_slope ------------------------------------------------------

def polyfit_slope(series):
    return float(np.polyfit(np.arange(len(series)), np.asarray(series, float), 1)[0])


def test_slope_matches_polyfit_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        series = rng.normal(0, 10, n).tolist()
        assert least_squares_slope(series) == pytest.approx(
            polyfit_slope(series), abs=1e-9
        )


def test_slope_exact_lines():
    assert least_squares_slope([0, 1, 2, 3]) == 1.0
    assert least_squares_slope([5, 3, 1]) == -2.0
    assert least_squares_slope([4, 4, 4, 4]) == 0.0


def test_slope_too_short():
    with pytest.raises(TooShort):
        least_squares_slope([1])


@given(int_series, st.integers(min_value=-100, max_value=100))
def test_slope_shift_invariant(series, shift):
    shifted = [v + shift for v in series]
    assert least_squares_slope(shifted) == pytest.approx(
        least_squares_slope(series), abs=1e-9
    )


# --- segment_trends -----------------------------------------------------------

def test_single_linear_series_is_one_segment():
    segs = segment_trends([0, 1, 2, 3, 4])
    assert len(segs) == 1
    assert (segs[0].start_index, segs[0].end_index) == (0, 4)
    assert segs[0].slope == pytest.approx(1.0)
    assert segs[0].direction is TrendDirection.ASCENDING


def test_constant_series_is_neutral():
    segs = segment_trends([3, 3, 3, 3])
    assert len(segs) == 1
    assert segs[0].direction is TrendDirection.NEUTRAL
    assert segs[0].slope == 0.0


def test_two_exact_lines_share_the_corner():
    # Rises by 1 to index 4, then falls by 2: boundaries share index 4.
    segs = segment_trends([0, 1, 2, 3, 4, 2, 0, -2])
    assert [(s.start_index, s.end_index) for s in segs] == [(0, 4), (4, 7)]
    assert segs[0].slope == pytest.approx(1.0)
    assert segs[1].slope == pytest.approx(-2.0)
    assert segs[0].direction is TrendDirection.ASCENDING
    assert segs[1].direction is TrendDirection.DESCENDING


def test_vee_shape():
    segs = segment_trends([4, 2, 0, 2, 4], max_segments=3)
    assert [(s.start_index, s.end_index) for s in segs] == [(0, 2), (2, 4)]
    assert segs[0].slope == pytest.approx(-2.0)
    assert segs[1].slope == pytest.approx(2.0)


def test_segments_too_short():
    with pytest.raises(TooShort):
        segment_trends([1])


@given(int_series, st.integers(min_value=-100, max_value=100))
@settings(max_examples=60, deadline=None)
def test_segments_shift_invariant(series, shift):
    # Adding a constant moves no breakpoints and no slopes.
    base = segment_trends(series)
    moved = segment_trends([v + shift for v in series])
    assert [(s.start_index, s.end_index) for s in base] == [
        (s.start_index, s.end_index) for s in moved
    ]
    for a, b in zip(base, moved):
        assert a.slope == pytest.approx(b.slope, abs=1e-9)


@given(int_series)
@settings(max_examples=60, deadline=None)
def test_segments_tile_the_series(series):
    segs = segment_trends(series)
    assert segs[0].start_index == 0
    assert segs[-1].end_index == len(series) - 1
    for left, right in zip(segs, segs[1:]):
        assert left.end_index == right.start_index
    for s in segs:
        assert s.end_index - s.start_index >= 1


def piecewise_series(n: int, seed: int) -> list[float]:
    """A seeded random walk of 3-6 straight runs plus gaussian noise."""
    rng = random.Random(seed)
    corners = sorted(rng.sample(range(1, n - 1), rng.randint(2, 5)))
    series, value, slope = [], 0.0, rng.uniform(-3, 3)
    for i in range(n):
        if i in corners:
            slope = rng.uniform(-3, 3)
        value += slope
        series.append(round(value + rng.gauss(0, 2), 3))
    return series


# Boundaries and slopes of piecewise_series(n, seed=n) for max_segments
# 1..6, recorded from the dense n-by-n cost-matrix implementation: the
# per-end-index DP must reproduce them bit for bit.
PINNED_SEGMENTS = {
    50: [
        ((0, 49),
         (-0.8060708763505402,)),
        ((0, 20, 49),
         (0.11292467532467532, -2.020852725250278)),
        ((0, 15, 22, 49),
         (-0.3822794117647059, 2.80302380952381, -2.093688834154351)),
        ((0, 15, 22, 42, 49),
         (-0.3822794117647059, 2.80302380952381, -2.4531636363636364,
          -0.4478452380952384)),
        ((0, 9, 15, 22, 42, 49),
         (-0.27795757575757574, -1.028, 2.80302380952381, -2.4531636363636364,
          -0.4478452380952384)),
        ((0, 15, 22, 38, 40, 41, 49),
         (-0.3822794117647059, 2.80302380952381, -2.561458333333333,
          0.45699999999999896, -7.099999999999998, -0.49470000000000075)),
    ],
    300: [
        ((0, 299),
         (-0.4991109881220902,)),
        ((0, 184, 299),
         (-1.9796056764337975, 1.5112655710606242)),
        ((0, 177, 251, 299),
         (-2.0035662725588845, 2.784651578947373, -0.5843491836734706)),
        ((0, 177, 251, 299),
         (-2.0035662725588845, 2.784651578947373, -0.5843491836734706)),
        ((0, 177, 245, 251, 299),
         (-2.0035662725588845, 2.766852393131165, 2.801321428571429,
          -0.5843491836734706)),
        ((0, 177, 245, 251, 299),
         (-2.0035662725588845, 2.766852393131165, 2.801321428571429,
          -0.5843491836734706)),
    ],
    1000: [
        ((0, 999),
         (-0.6696110511830498,)),
        ((0, 455, 999),
         (-2.135020211845048, -0.6315305194131274)),
        ((0, 362, 684, 999),
         (-2.5154579762276903, 1.018164919972566, -1.6851216068362431)),
        ((0, 91, 363, 684, 999),
         (-2.6242765208143886, -2.4889217970736865, 1.0186985103842756,
          -1.6851216068362431)),
        ((0, 91, 361, 410, 684, 999),
         (-2.6242765208143886, -2.489975687359815, 0.7524195438175209,
          1.0286124537664827, -1.6851216068362431)),
        ((0, 91, 361, 410, 685, 759, 999),
         (-2.6242765208143886, -2.489975687359815, 0.7524195438175209,
          1.028731690472452, -1.6542948790896161, -1.6977812695037875)),
    ],
}


@pytest.mark.parametrize("n", sorted(PINNED_SEGMENTS))
def test_segments_match_pinned_fits(n):
    series = piecewise_series(n, n)
    for max_segments, (bounds, slopes) in enumerate(PINNED_SEGMENTS[n], start=1):
        segs = segment_trends(series, max_segments)
        assert (segs[0].start_index,) + tuple(s.end_index for s in segs) == bounds
        assert tuple(s.start_index for s in segs[1:]) == bounds[1:-1]
        assert tuple(s.slope for s in segs) == slopes


def test_segmentation_memory_is_linear():
    # A dense n-by-n float matrix alone would be 72 MB at n = 3000. Every
    # span cost is computed whatever the segment count, and one segment
    # keeps tracemalloc's per-allocation overhead off the k loop.
    series = piecewise_series(3000, 3000)
    tracemalloc.start()
    try:
        segment_trends(series, max_segments=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# --- compute_density ----------------------------------------------------------

@pytest.mark.parametrize(
    "n,level",
    [
        (1, DensityLevel.LOW),
        (7, DensityLevel.LOW),
        (8, DensityLevel.MEDIUM),  # 2 points per bar is the medium floor
        (31, DensityLevel.MEDIUM),
        (32, DensityLevel.HIGH),
        (100, DensityLevel.HIGH),
    ],
)
def test_density_thresholds(n, level):
    d = compute_density(n)
    assert d.level is level
    assert d.points_per_bar == pytest.approx(n / 4)


# --- compute_variance ---------------------------------------------------------

def quartile_dispersion(series):
    q1, q3 = np.percentile(np.asarray(series, float), [25, 75])
    return (q3 - q1) / abs(q3 + q1)


def test_variance_narrow_medium_wide():
    # Oracle first: numpy percentiles with the default linear rule.
    narrow = [100, 102, 98, 101, 99]
    assert quartile_dispersion(narrow) < 0.1
    assert compute_variance(narrow).level is VarianceLevel.NARROW
    assert compute_variance(narrow).semitone_span == 12

    medium = [1, 2, 3]  # (2.5 - 1.5) / 4 = 0.25
    assert quartile_dispersion(medium) == pytest.approx(0.25)
    assert compute_variance(medium).level is VarianceLevel.MEDIUM
    assert compute_variance(medium).semitone_span == 24

    wide = [5, 90, 20, 70, 1, 55, 35]  # 50 / 75
    assert quartile_dispersion(wide) == pytest.approx(2 / 3)
    assert compute_variance(wide).level is VarianceLevel.WIDE
    assert compute_variance(wide).semitone_span == 36


def test_variance_constant_is_narrow():
    v = compute_variance([7, 7, 7])
    assert v.level is VarianceLevel.NARROW


def test_variance_zero_quartile_sum_falls_back_to_range():
    # Q1 + Q3 = 0 here, so the ratio is range over mean magnitude.
    v = compute_variance([-10, 0, 10])
    assert v.level is VarianceLevel.WIDE


def test_variance_too_short():
    with pytest.raises(TooShort):
        compute_variance([1])


def numpy_variance(series):
    """The numpy implementation compute_variance replaced, as its oracle."""
    arr = np.asarray(series, dtype=float)
    low, high = float(arr.min()), float(arr.max())
    if low == high:
        return VarianceClass(VarianceLevel.NARROW, SPAN_BY_LEVEL[VarianceLevel.NARROW])
    q1, q3 = (float(q) for q in np.percentile(arr, [25.0, 75.0]))
    if q1 + q3 != 0:
        dispersion = (q3 - q1) / abs(q3 + q1)
    else:
        mean_abs = float(np.mean(np.abs(arr)))
        dispersion = (high - low) / mean_abs if mean_abs > 0 else 0.0
    if dispersion < VARIANCE_MEDIUM_AT:
        level = VarianceLevel.NARROW
    elif dispersion < VARIANCE_WIDE_AT:
        level = VarianceLevel.MEDIUM
    else:
        level = VarianceLevel.WIDE
    return VarianceClass(level, SPAN_BY_LEVEL[level])


quartile_samples = st.one_of(
    st.lists(st.integers(-(10**30), 10**30), min_size=2, max_size=60),
    # Few distinct values: duplicates straddle the quartiles, and ±1e99
    # makes b - a as large as the magnitude bound allows.
    st.lists(
        st.sampled_from([-1e99, 1e99, -2.5, -1.0, 0.0, 0.1, 1.0, 3.0]),
        min_size=2, max_size=60,
    ),
    st.lists(
        st.floats(min_value=-1e100, max_value=1e100, allow_nan=False),
        min_size=2, max_size=60,
    ),
)


@given(quartile_samples)
@settings(max_examples=500, deadline=None)
@example([3, 1])
@example([1e99, -1e99])
@example([0.1, 0.2, 0.2, 0.7, 1e99])
def test_quartiles_match_numpy_percentile(series):
    ordered = sorted(float(v) for v in series)
    q1, q3 = np.percentile(np.asarray(series, dtype=float), [25.0, 75.0])
    assert (_quartile(ordered, 0.25), _quartile(ordered, 0.75)) == (float(q1), float(q3))
    assert compute_variance(series) == numpy_variance(series)


# An even-length sample symmetric about zero puts its quartiles at
# fractions 1/4 and 3/4 of a step, where both interpolation formulas
# mirror exactly, so q1 + q3 == 0 and the mean-magnitude branch runs.
symmetric_samples = st.lists(
    st.floats(min_value=1e-300, max_value=1e99), min_size=1, max_size=30
).map(lambda xs: xs + [-x for x in xs]).flatmap(st.permutations)


@given(symmetric_samples)
@settings(max_examples=200, deadline=None)
def test_zero_quartile_sum_branch_matches_numpy_code(series):
    q1, q3 = np.percentile(np.asarray(series, dtype=float), [25.0, 75.0])
    assert q1 + q3 == 0
    assert compute_variance(series) == numpy_variance(series)


# --- proportions --------------------------------------------------------------

def test_proportions_basic():
    p = proportions([("a", 1.0), ("b", 3.0)])
    assert p == (("a", 0.25), ("b", 0.75))


def test_proportions_preserve_order_and_sum():
    p = proportions([("x", 2.0), ("y", 2.0), ("z", 4.0)])
    assert [label for label, _ in p] == ["x", "y", "z"]
    assert sum(r for _, r in p) == pytest.approx(1.0)


def test_proportions_zero_entry_allowed():
    p = proportions([("a", 0.0), ("b", 5.0)])
    assert p[0][1] == 0.0


def test_proportions_errors():
    with pytest.raises(NegativeProportion):
        proportions([("a", -1.0), ("b", 2.0)])
    with pytest.raises(AllZero):
        proportions([("a", 0.0), ("b", 0.0)])


@given(
    st.lists(
        st.tuples(st.text(min_size=1, max_size=3), st.integers(0, 1000)),
        min_size=1,
        max_size=12,
    )
)
def test_proportions_sum_to_one(pairs):
    pairs = [(k, float(v)) for k, v in pairs]
    if all(v == 0 for _, v in pairs):
        with pytest.raises(AllZero):
            proportions(pairs)
    else:
        total = sum(r for _, r in proportions(pairs))
        assert total == pytest.approx(1.0)
