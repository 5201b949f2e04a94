"""Order statistics shared by the runner, the comparison tool and the tests."""

from __future__ import annotations

import math
import statistics


def latencies(records) -> list[float]:
    """Per-operation seconds; a failed operation counts as +inf."""
    return [r["t"] if r["passed"] else math.inf for r in records]


def p50(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  With ten or fewer samples no
    such percentile exists and the maximum is returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, n


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf
