"""Median and quartile summary of repeated measurements."""

from __future__ import annotations

import statistics


def summarize(values: list[float]) -> dict[str, float]:
    """Median, first and third quartile, and their distance as a share of
    the median, with quartiles as ``statistics.quantiles(values, n=4)``
    gives them. One value is its own median and quartiles."""
    if not values:
        raise ValueError("nothing to summarize")
    median = statistics.median(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "spread": spread}
