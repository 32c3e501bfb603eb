"""Order statistics used by the report and the spread check."""

from __future__ import annotations

import statistics

#: percentile levels the report may use as its tail figure
TAIL_LEVELS = (0.5, 0.9, 0.99, 0.999)
#: a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10


def quantile(values, q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_level(count: int) -> float | None:
    """Highest level in TAIL_LEVELS with TAIL_BEYOND samples beyond it."""
    ok = [q for q in TAIL_LEVELS if round(count * (1.0 - q), 6) >= TAIL_BEYOND]
    return ok[-1] if ok else None


def relative_spread(values) -> float:
    """Interquartile distance over the median, as the acceptance check takes it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
