"""Order statistics shared by the benchmark's metrics.

Latency tails follow one rule everywhere: report the highest percentile
that still has at least :data:`MIN_BEYOND` samples above it — the
(MIN_BEYOND + 1)-th largest sample — so a tail figure is never the
maximum of a handful of samples, and it moves smoothly when a run's
sample count changes.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence

#: samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


class Tail(NamedTuple):
    percentile: float
    value: float
    beyond: int
    samples: int


def nearest_rank(sorted_values: Sequence[float], q: float) -> int:
    """1-based nearest-rank index of percentile ``q`` (0 < q <= 100)."""
    n = len(sorted_values)
    return min(n, max(1, math.ceil(q / 100.0 * n)))


def percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[nearest_rank(ordered, q) - 1]


def tail(values: Sequence[float]) -> Optional[Tail]:
    """The highest percentile with >= MIN_BEYOND samples beyond it; with
    too few samples for that to reach the median, the median (flagged by
    its ``beyond`` count).  ``None`` for no samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(n - MIN_BEYOND, nearest_rank(ordered, 50.0))
    return Tail(100.0 * rank / n, ordered[rank - 1], n - rank, n)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def geomean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geometric mean of no values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def union_length(intervals: List[tuple]) -> float:
    """Total length covered by ``(start, end)`` intervals (overlaps
    counted once)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total
