"""Series summaries that drive the musical mapping.

A quantitative series is reduced to: piecewise-linear trend segments,
a note-density class (points per bar), a spread class (quartile
dispersion mapped to a pitch span), and, for part-to-whole data,
normalized category proportions.
"""
from __future__ import annotations

from enum import Enum
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

from .errors import BindingError, ProportionError


class TrendDirection(str, Enum):
    ASCENDING = "ascending"
    DESCENDING = "descending"
    NEUTRAL = "neutral"


class TrendSegment(NamedTuple):
    """One fitted span; end_index is inclusive and shared with the next
    segment, the way adjacent edges of a polyline share a vertex."""

    start_index: int
    end_index: int
    slope: float
    direction: TrendDirection


class DensityLevel(str, Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class DensityClass(NamedTuple):
    level: DensityLevel
    points_per_bar: float


class VarianceLevel(str, Enum):
    NARROW = "narrow"
    MEDIUM = "medium"
    WIDE = "wide"


class VarianceClass(NamedTuple):
    level: VarianceLevel
    semitone_span: int


SPAN_BY_LEVEL = {
    VarianceLevel.NARROW: 12,
    VarianceLevel.MEDIUM: 24,
    VarianceLevel.WIDE: 36,
}

# Four bars make one phrase; density is measured against that window.
PHRASE_BARS = 4

DENSITY_MEDIUM_AT = 2.0
DENSITY_HIGH_AT = 8.0

VARIANCE_MEDIUM_AT = 0.1
VARIANCE_WIDE_AT = 0.4

DEFAULT_MAX_SEGMENTS = 6
# A fit with fewer segments wins when its cost is within 5% of the best.
SEGMENT_COST_SLACK = 0.05
# Slopes smaller than this fraction of the series' average step are flat.
NEUTRAL_SLOPE_FRACTION = 0.05
# Series up to this many points segment in pure Python: up to here the DP
# costs far less than importing numpy (about 170 ms in a fresh process),
# though a process that has numpy loaded pays up to ~20 ms more per line.
PURE_DP_MAX_POINTS = 256


def least_squares_slope(series: Sequence[float]) -> float:
    """Ordinary least-squares slope of values against their indices."""
    n = len(series)
    if n < 2:
        raise BindingError(f"need at least 2 points for a slope, got {n}")
    mid = (n - 1) / 2
    numerator = sum((i - mid) * y for i, y in enumerate(series))
    denominator = sum((i - mid) ** 2 for i in range(n))
    return numerator / denominator


def segment_trends(
    series: Sequence[float], max_segments: int = DEFAULT_MAX_SEGMENTS
) -> list[TrendSegment]:
    """Split a series into contiguous least-squares line segments.

    Dynamic programming over breakpoint positions minimizes the total
    squared residual; among segment counts up to ``max_segments`` the
    smallest count whose optimal cost is within a 5% slack of the best
    achievable cost is returned. Adjacent segments share their boundary
    index and every segment covers at least two points. Series of up to
    ``PURE_DP_MAX_POINTS`` points run a pure-Python DP, longer ones the
    same DP in numpy; both give the same costs bit for bit. A series that
    is not finite, or whose squared sums could overflow a float, raises
    ``ParseError``; values within ingest's bound of ±1e100 never overflow.
    """
    n = len(series)
    if n < 2:
        raise BindingError(f"need at least 2 points to segment, got {n}")
    if max_segments < 1:
        raise ValueError("max_segments must be positive")
    # Imported here, not at module level, so that compiles which never
    # segment a line neither compile the DP nor load numpy.
    from .trend_dp import cost_tolerance, numpy_dp, pure_dp

    # Shifting by the first value keeps the DP identical under constant
    # offsets of the input (exactly so for integer-valued data).
    first = series[0]
    values = [float(v - first) for v in series]
    tolerance = cost_tolerance(values)
    k_max = min(max_segments, n - 1)
    dp = pure_dp if n <= PURE_DP_MAX_POINTS else numpy_dp
    exact, parent = dp(values, tolerance, k_max)

    cumulative = list(accumulate(exact, min))
    target = (1.0 + SEGMENT_COST_SLACK) * cumulative[-1]
    k_star = next(k for k, cost in enumerate(cumulative, 1) if cost <= target)
    chosen = exact.index(cumulative[k_star - 1]) + 1

    boundaries = [n - 1]
    end = n - 1
    for k in range(chosen, 1, -1):
        end = int(parent[k][end])
        boundaries.append(end)
    boundaries.append(0)
    boundaries.reverse()

    span = max(series) - min(series)
    epsilon = NEUTRAL_SLOPE_FRACTION * span / (n - 1)
    segments = []
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        slope = least_squares_slope(series[a : b + 1])
        if abs(slope) <= epsilon:
            direction = TrendDirection.NEUTRAL
        elif slope > 0:
            direction = TrendDirection.ASCENDING
        else:
            direction = TrendDirection.DESCENDING
        segments.append(TrendSegment(a, b, slope, direction))
    return segments


def compute_density(series_length: int) -> DensityClass:
    """Classify how many points must sound per bar of the phrase."""
    per_bar = series_length / PHRASE_BARS
    if per_bar < DENSITY_MEDIUM_AT:
        level = DensityLevel.LOW
    elif per_bar < DENSITY_HIGH_AT:
        level = DensityLevel.MEDIUM
    else:
        level = DensityLevel.HIGH
    return DensityClass(level, per_bar)


def _quartile(ordered: list[float], q: float) -> float:
    """Hyndman & Fan's definition 7 (numpy's default ``linear``) on a
    sorted sample, interpolated the way numpy's ``_lerp`` does it so the
    result is bit-identical to ``np.percentile``."""
    virtual = (len(ordered) - 1) * q
    below = int(virtual)
    t = virtual - below
    a, b = ordered[below], ordered[below + 1]
    if t < 0.5:
        return a + (b - a) * t
    return b - (b - a) * (1 - t)


def compute_variance(series: Sequence[float]) -> VarianceClass:
    """Classify spread by the coefficient of quartile dispersion.

    Quartiles use linear interpolation over the sorted sample. When the
    quartiles sum to zero the spread is wide; a constant series is always
    narrow.
    """
    n = len(series)
    if n < 2:
        raise BindingError(f"need at least 2 points to classify spread, got {n}")
    ordered = sorted(float(v) for v in series)
    low, high = ordered[0], ordered[-1]
    if low == high:
        return VarianceClass(VarianceLevel.NARROW, SPAN_BY_LEVEL[VarianceLevel.NARROW])
    q1, q3 = _quartile(ordered, 0.25), _quartile(ordered, 0.75)
    if q1 + q3 == 0:
        # Quartiles straddling zero mean low <= q1 <= 0 <= q3 <= high, so
        # high - low >= max|x| >= mean|x|: the range-to-mean-absolute ratio
        # is about 1 or more, above VARIANCE_WIDE_AT.
        return VarianceClass(VarianceLevel.WIDE, SPAN_BY_LEVEL[VarianceLevel.WIDE])
    dispersion = (q3 - q1) / abs(q3 + q1)
    if dispersion < VARIANCE_MEDIUM_AT:
        level = VarianceLevel.NARROW
    elif dispersion < VARIANCE_WIDE_AT:
        level = VarianceLevel.MEDIUM
    else:
        level = VarianceLevel.WIDE
    return VarianceClass(level, SPAN_BY_LEVEL[level])


def proportions(pairs: Iterable[tuple[str, float]]) -> tuple[tuple[str, float], ...]:
    """Normalize (category, value) pairs into (category, ratio) pairs in
    the same order, the ratios summing to one. A negative value or a
    total that is not positive raises ``ProportionError``."""
    items = list(pairs)
    for name, value in items:
        if value < 0:
            raise ProportionError(f"category {name!r} has negative value {value}")
    total = sum(value for _, value in items)
    if total <= 0:
        raise ProportionError("proportions need at least one positive value")
    return tuple((name, value / total) for name, value in items)
