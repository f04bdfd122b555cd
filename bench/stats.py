"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics


def median(xs) -> float:
    return statistics.median(xs)


def tail(xs) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  The k-th smallest of n
    samples has n - k beyond it, so the answer is the (n - 10)-th smallest,
    the nearest-rank percentile 100 (n - 10) / n.  With ten samples or fewer
    no percentile qualifies; the maximum is returned as percentile 100, and
    the sample count says how little it rests on.
    """
    s = sorted(xs)
    n = len(s)
    if n == 0:
        raise ValueError("no samples")
    if n <= 10:
        return s[-1], 100.0, n
    k = n - 10
    return s[k - 1], 100.0 * k / n, n


def spread(xs) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / med
