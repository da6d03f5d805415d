"""Summary statistics for repeated randomized trials.

Self-contained (normal-approximation confidence intervals and Wilson
score intervals) so the core library does not depend on scipy; the
experiment harness uses these for every table it prints.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from collections.abc import Sequence

__all__ = [
    "Summary",
    "summarize",
    "wilson_interval",
    "success_rate",
]

#: Two-sided z-value for 95% confidence.
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary of one metric across trials."""

    count: int
    mean: float
    median: float
    stdev: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"n={self.count} mean={self.mean:.1f} "
            f"[{self.ci_low:.1f}, {self.ci_high:.1f}] "
            f"median={self.median:.1f} range=({self.minimum:.1f}, {self.maximum:.1f})"
        )


def summarize(values: Sequence[float]) -> Summary:
    """Mean/median/spread plus a 95% normal-approximation CI.

    The result does not depend on the order of ``values``: the mean is
    an exactly rounded ``fsum``, the deviation sums exact fractions
    and the median sorts.  So a fold may collect values in whatever
    order they arrive.
    """
    if not values:
        raise ValueError("cannot summarize an empty sequence")
    data = [float(v) for v in values]
    mean = statistics.fmean(data)
    stdev = statistics.stdev(data) if len(data) > 1 else 0.0
    half_width = _Z95 * stdev / math.sqrt(len(data)) if len(data) > 1 else 0.0
    return Summary(
        count=len(data),
        mean=mean,
        median=statistics.median(data),
        stdev=stdev,
        minimum=min(data),
        maximum=max(data),
        ci_low=mean - half_width,
        ci_high=mean + half_width,
    )


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be within [0, trials]")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    margin = (
        z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    )
    return (max(0.0, center - margin), min(1.0, center + margin))


def success_rate(outcomes: Sequence[bool]) -> tuple[float, tuple[float, float]]:
    """Observed success proportion plus its Wilson interval."""
    if not outcomes:
        raise ValueError("cannot compute a success rate of zero trials")
    wins = sum(1 for outcome in outcomes if outcome)
    return wins / len(outcomes), wilson_interval(wins, len(outcomes))
