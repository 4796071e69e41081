"""Order statistics for latency samples.

A tail is reported at the highest percentile that still has at least
``beyond`` samples above it, so it never rests on one or two outliers.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence


def median(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (the smallest sample with at least
    ``p`` percent of the samples at or below it)."""
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    rank = max(1, math.ceil(p / 100 * n - 1e-9))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p``-th percentile of ``n``."""
    return n - max(1, math.ceil(p / 100 * n - 1e-9))


def tail_percentile(samples: Sequence[float], beyond: int = 10) -> Optional[tuple]:
    """``(value, percentile, n)`` at the highest percentile with at least
    ``beyond`` samples above it, or ``None`` when there are too few.

    With ``n`` samples that percentile is ``100 * (n - beyond) / n``: the
    ``(n - beyond)``-th smallest sample, with exactly ``beyond`` above it.
    """
    n = len(samples)
    if n <= beyond:
        return None
    rank = n - beyond
    return sorted(samples)[rank - 1], 100.0 * rank / n, n


def min_samples_for(p: float, beyond: int = 10) -> int:
    """The fewest samples whose nearest-rank ``p``-th percentile has at
    least ``beyond`` samples above it."""
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    n = beyond + 1
    while samples_beyond(n, p) < beyond:
        n += 1
    return n
