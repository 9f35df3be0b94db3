"""Order statistics shared by every workload report."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

import numpy as np

#: Samples that must lie beyond a percentile before it may be reported.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else math.nan


def median_hd(values: Sequence[float]) -> float:
    """The Harrell-Davis estimate of the median.

    A weighted mean of every order statistic, the weights of the i-th
    smallest being the mass a Beta((n+1)/2, (n+1)/2) puts on
    ((i-1)/n, i/n].  It estimates the same median as the sample median,
    but the op times next to the middle rank share its weight, so when
    few ops of unequal cost are timed, the noise of the one or two in
    the middle does not become the figure.
    """
    n = len(values)
    if n == 0:
        return math.nan
    from scipy.special import betainc

    a = (n + 1) / 2.0
    edges = betainc(a, a, np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), np.sort(np.asarray(values, dtype=float))))


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample_count)``.  The value is the
    order statistic at rank ``n - beyond`` (1-based), so exactly
    ``beyond`` samples lie beyond it; its percentile is
    ``100 * (n - beyond) / n``.  With ``n <= beyond`` no percentile
    qualifies and the value is ``nan``.
    """
    n = len(values)
    if n <= beyond:
        return math.nan, math.nan, n
    ordered = sorted(values)
    return float(ordered[n - beyond - 1]), 100.0 * (n - beyond) / n, n
