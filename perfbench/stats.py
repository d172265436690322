"""Summary statistics shared by the benchmark and its self-tests."""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Percentiles a latency tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def tail_percentile(count: int,
                    ladder: Sequence[float] = TAIL_LADDER,
                    min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The highest ladder percentile with at least *min_beyond* samples
    beyond it, or None when even the lowest has too few."""
    best = None
    for percentile in ladder:
        # Rounded so that 1000 samples put exactly 10 beyond p99.
        if round(count * (100.0 - percentile) / 100.0, 9) >= min_beyond:
            best = percentile
    return best


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of *values* (which need not be sorted)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]

