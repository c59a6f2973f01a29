"""Summary statistics shared by the runner, the trace summary and ``compare``."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: A tail percentile is only reported when at least this many samples lie
#: beyond it (choosing-metrics section 1).
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile ``p`` (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail(values: Sequence[float], wanted: float) -> Tuple[float, float]:
    """``(value, percentile used)`` of a tail metric named after ``wanted``.

    The value is taken at ``wanted`` when at least ``MIN_BEYOND`` samples lie
    beyond it, and otherwise at the percentile that has exactly that many
    beyond it (never below the median).  The rule is continuous in the sample
    size, so a run that is a little shorter never jumps to another percentile,
    and a tail never rests on one or two samples.
    """
    supported = 100.0 * (1.0 - MIN_BEYOND / len(values)) if values else 50.0
    used = max(50.0, min(wanted, supported))
    return percentile(values, used), used


def quartile_spread(values: Sequence[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median (``None`` below 2 samples)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else None


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of a small set of run values."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": mid, "q3": q3}
