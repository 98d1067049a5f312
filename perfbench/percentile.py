"""Nearest-rank percentiles, and the tail percentile a sample size supports."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

# candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99, 95, 90, 75)
# a tail percentile must leave at least this many samples above it
MIN_BEYOND = 10


def rank(pct: float, n: int) -> int:
    """1-based nearest rank of the pct-th percentile in a sample of n: ceil(pct/100 * n)."""
    if n < 1:
        raise ValueError("empty sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    # exact arithmetic: 99.9 * 1000 / 100 must be 999, not 999.0000000000001
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The smallest value with at least pct percent of the sample at or below it."""
    return sorted(values)[rank(pct, len(values)) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND of n samples beyond it.

    None below 40 samples, where even the 75th percentile would be no tail.
    """
    for pct in TAIL_LADDER:
        if n - rank(pct, n) >= MIN_BEYOND:
            return pct
    return None
