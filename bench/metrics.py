"""Summary statistics shared by the benchmark's reports."""

from __future__ import annotations

import math


def tail_percentile(samples, target: float = 99.0, beyond: int = 10) -> tuple[float, float, int]:
    """The highest percentile up to ``target`` with at least ``beyond``
    samples above it, as (percentile, value, sample count).

    Ranks are nearest-rank.  With fewer than ``2 * beyond + 2`` samples no
    percentile above the median has that many samples beyond it; the upper
    median is reported then, so the tail never reads below the middle.

    >>> tail_percentile(range(1, 1001))
    (99.0, 990, 1000)
    >>> tail_percentile(range(1, 101))
    (90.0, 90, 100)
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    rank = min(math.ceil(target / 100 * n), n - beyond)
    rank = max(rank, n // 2 + 1)
    return 100 * rank / n, xs[rank - 1], n
