"""The exact trend-segmentation DP behind ``stats.segment_trends``.

For each segment count k and end index b, the DP keeps the least total
squared residual of k contiguous line segments covering points 0..b, and
the start of the last one. A span a..b costs ``syy - sxy² / sxx``, with
``sxy = Σiy - s_y · (a+b)/2`` taken about its mean index: exact on integer
data up to the two divisions. ``pure_dp`` runs it in Python lists and
``numpy_dp`` in arrays, with the same expressions in the same order, so
their costs agree to the bit. ``stats`` imports this module only when it
segments a series.
"""
from __future__ import annotations

import math
from itertools import accumulate
from operator import add, mul

from .errors import ParseError

# Bound on n³ Σv² of the shifted values; see cost_tolerance.
SQUARED_SUM_LIMIT = 1e300


def cost_tolerance(values: list[float]) -> float:
    """The span cost below which a fit counts as exact, from the spread of
    the shifted values. Refuses values whose squared sums could overflow.

    By Cauchy-Schwarz, a span's ``|Σiy|`` and ``|s_y · (a+b)/2|`` are each
    at most n^{3/2} √Σv², so the DP's largest intermediate, ``sxy * sxy``,
    is at most 4 n³ Σv². n³ Σv² below ``SQUARED_SUM_LIMIT`` keeps every one
    of them finite with a wide margin for rounding. Values bounded by
    ingest's ±1e100 pass for any n below 1e20. ``math.fsum`` makes the
    tolerance the same on every machine, whatever BLAS kernel numpy would
    pick.
    """
    n = len(values)
    try:
        squares = math.fsum(v * v for v in values)
    except OverflowError:
        squares = math.inf
    if not squares * n**3 < SQUARED_SUM_LIMIT:  # also refuses nan and inf
        raise ParseError(
            f"cannot segment these {n} values: each must be finite and small "
            "enough that their squared sums fit a float (ingest allows ±1e100)"
        )
    mean = math.fsum(values) / n
    return 1e-12 * max(1.0, math.fsum((v - mean) ** 2 for v in values))


def pure_dp(
    values: list[float], tolerance: float, k_max: int
) -> tuple[list[float], list[list[int]]]:
    """The exact DP without numpy: best costs of the whole series for
    1..k_max segments, and for each k the start of the last segment ending
    at each index. Each step is ``numpy_dp``'s expression in its order:
    the prefix sums accumulate left to right as ``np.cumsum`` does, and
    ``min`` + ``index`` is ``argmin``'s first minimum."""
    n = len(values)
    c_y = [0.0, *accumulate(values)]
    c_iy = [0.0, *accumulate(map(mul, map(float, range(n)), values))]
    c_y2 = [0.0, *accumulate(map(mul, values, values))]
    halves = [i / 2 for i in range(2 * n)]  # the mean index of span a..b is halves[a + b]
    # Span lengths m = n..2, so that the slice from index n-1-b walks the
    # spans a = 0..b-1, which are b+1..2 long; sxx is their index spread.
    lengths = [float(m) for m in range(n, 1, -1)]
    sxx_by_length = [
        (m - 1) * m * (2 * m - 1) / 6.0 - s_x * s_x / m
        for m in lengths
        for s_x in (m * (m - 1) / 2.0,)
    ]

    inf = math.inf
    best = [[inf] * n for _ in range(k_max + 1)]
    parent = [[0] * n for _ in range(k_max + 1)]
    for b in range(1, n):
        y_b, iy_b, y2_b = c_y[b + 1], c_iy[b + 1], c_y2[b + 1]
        skip = n - 1 - b
        # One-element `for` clauses name the intermediates of numpy_dp.
        cost = [
            0.0 if c < tolerance else c  # also clears rounding below zero
            for y_a, iy_a, y2_a, mean_x, m, sxx in zip(
                c_y, c_iy, c_y2, halves[b:2 * b], lengths[skip:], sxx_by_length[skip:]
            )
            for s_y in (y_b - y_a,)
            for sxy in ((iy_b - iy_a) - s_y * mean_x,)
            for c in ((y2_b - y2_a) - s_y * s_y / m - sxy * sxy / sxx,)
        ]
        best[1][b] = cost[0]
        for k in range(2, k_max + 1):
            candidates = list(map(add, best[k - 1], cost))
            low = min(candidates)
            best[k][b] = low
            parent[k][b] = candidates.index(low)
    return [row[n - 1] for row in best[1:]], parent


def numpy_dp(values: list[float], tolerance: float, k_max: int):
    """``pure_dp`` vectorized over span starts and segment counts; its
    ``parent`` is an array."""
    import numpy as np  # only long lines load numpy

    n = len(values)
    values = np.asarray(values, dtype=float)
    # Prefix sums of y, i*y and y*y give the squared residual of the best
    # line over points a..b in O(1); the costs of all spans ending at b are
    # computed when the DP reaches b, so memory stays linear in n.
    idx = np.arange(n, dtype=float)
    c_y = np.concatenate(([0.0], np.cumsum(values)))
    c_iy = np.concatenate(([0.0], np.cumsum(idx * values)))
    c_y2 = np.concatenate(([0.0], np.cumsum(values * values)))
    halves = np.arange(2 * n) / 2  # the mean index of span a..b is halves[a + b]
    # Index spreads depend only on the span length m, held n..2 like pure_dp's.
    lengths = np.arange(n, 1, -1, dtype=float)
    sums_x = lengths * (lengths - 1) / 2.0
    sums_x2 = (lengths - 1) * lengths * (2 * lengths - 1) / 6.0
    sxx_by_length = sums_x2 - sums_x * sums_x / lengths

    best = np.full((k_max + 1, n), np.inf)
    parent = np.zeros((k_max + 1, n), dtype=int)
    rows = np.arange(k_max - 1)
    for b in range(1, n):
        m, sxx = lengths[n - 1 - b:], sxx_by_length[n - 1 - b:]  # b+1..2 points long
        s_y = c_y[b + 1] - c_y[:b]
        sxy = (c_iy[b + 1] - c_iy[:b]) - s_y * halves[b:2 * b]
        cost = (c_y2[b + 1] - c_y2[:b]) - s_y * s_y / m - sxy * sxy / sxx
        cost[cost < tolerance] = 0.0  # also clears rounding below zero
        best[1, b] = cost[0]
        # Every segment count k = 2..k_max at once: row k-2 ends its last
        # segment on span a..b. best[k-1, a] is inf for a < k-1, so argmin
        # takes the same first minimum as a scan from a = k-1, and a k
        # above b, whose row is all inf, keeps best inf and parent 0.
        candidates = best[1:k_max, :b] + cost
        i = candidates.argmin(axis=1)
        best[2:, b] = candidates[rows, i]
        parent[2:, b] = i
    return best[1:, n - 1].tolist(), parent
