"""Shared Monte Carlo machinery: confidence intervals and the trial-count loop."""

from __future__ import annotations

import math
from typing import Callable

Z95 = 1.959963984540054  # two-sided 95% normal quantile


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, at 95% confidence."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    phat = successes / trials
    zz = Z95 * Z95
    denom = 1.0 + zz / trials
    center = (phat + zz / (2.0 * trials)) / denom
    half = (Z95 / denom) * math.sqrt(phat * (1.0 - phat) / trials + zz / (4.0 * trials * trials))
    # center and half are equal at 0 successes and sum to 1 at all of them;
    # their rounded difference and sum need not be exactly 0 and 1
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


# A seam, not a partition: bench/tracing.py patches it to time each caller's trial loop.
def partitioned_count(count_fn: Callable[[int, int], int], total: int) -> int:
    """Number of hits count_fn reports over trials [0, total), in one serial loop."""
    return count_fn(0, total)
