"""Summary statistics for one run."""

from __future__ import annotations

import math


def tail_percentile(samples: list[float], pct: float = 90.0, min_beyond: int = 10) -> float:
    """The nearest-rank percentile, refused unless ``min_beyond`` samples lie past it.

    A tail figure read from fewer samples than that is mostly noise, so the
    caller must run more ops instead.
    """
    xs = sorted(samples)
    rank = math.ceil(pct / 100.0 * len(xs))
    if rank < 1 or len(xs) - rank < min_beyond:
        raise ValueError(
            f"p{pct:g} of {len(xs)} samples has {max(len(xs) - rank, 0)} beyond it, "
            f"fewer than {min_beyond}"
        )
    return xs[rank - 1]


def min_samples(pct: float = 90.0, min_beyond: int = 10) -> int:
    """The fewest samples for which :func:`tail_percentile` answers."""
    n = 1
    while n - math.ceil(pct / 100.0 * n) < min_beyond:
        n += 1
    return n


def fail_ratio_bound(failed: int, attempted: int, confidence: float = 0.95) -> float:
    """One-sided Clopper-Pearson upper bound on the per-op failure probability.

    With no failures this is 1 - (1 - confidence)^(1/attempted), about
    3 / attempted, so the figure is never 0 and a single failure in a run
    raises it by more than half.
    """
    if attempted < 1:
        raise ValueError("no ops attempted")
    if failed >= attempted:
        return 1.0
    alpha = 1.0 - confidence

    def cdf(p: float) -> float:
        logs = [
            math.lgamma(attempted + 1)
            - math.lgamma(i + 1)
            - math.lgamma(attempted - i + 1)
            + i * math.log(p)
            + (attempted - i) * math.log1p(-p)
            for i in range(failed + 1)
        ]
        top = max(logs)
        return math.exp(top) * sum(math.exp(x - top) for x in logs)

    lo, hi = failed / attempted, 1.0
    lo = max(lo, 1e-15)
    for _ in range(100):
        mid = (lo + hi) / 2
        if cdf(mid) > alpha:
            lo = mid
        else:
            hi = mid
    return hi
