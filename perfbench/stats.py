"""Order statistics shared by the runner and the comparer."""

from __future__ import annotations

import statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summary(values: list[float], unit: str) -> dict:
    """Median, quartiles, sample count, and the highest percentile that has
    at least ten samples beyond it (None below twenty samples, where the
    median is the highest such percentile)."""
    q1, med, q3 = quartiles(values)
    n = len(values)
    tail = None
    if n >= 20:
        ordered = sorted(values)
        tail = {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}
    return {"median": med, "q1": q1, "q3": q3, "n": n, "tail": tail, "unit": unit}


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")
