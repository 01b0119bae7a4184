"""Exact order statistics over raw samples.

Percentiles are read straight off the sorted samples (nearest rank), never
interpolated from histogram buckets, and each one carries its sample count
and the number of samples beyond it, so a reader can tell a p99 from a
maximum.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, Sequence

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """One exact percentile of a sample."""

    q: float
    value: float
    count: int
    beyond: int

    def describe(self, scale: float = 1.0, unit: str = "") -> str:
        return (f"p{self.q:g} = {self.value * scale:.4f} {unit} "
                f"(n={self.count}, {self.beyond} beyond)")


def min_samples(q: float, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count whose ``q``-th percentile has ``beyond``
    samples above it."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    n = 1
    while n - math.ceil(q / 100.0 * n) < beyond:
        n += 1
    return n


def percentile(samples: Sequence[float], q: float,
               beyond: int = MIN_BEYOND) -> Percentile:
    """The nearest-rank ``q``-th percentile of ``samples``.

    Raises :class:`ValueError` when fewer than ``beyond`` samples lie above
    it: such a percentile is the sample's maximum in disguise.
    """
    count = len(samples)
    if count == 0:
        raise ValueError("no samples")
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    rank = max(1, math.ceil(q / 100.0 * count))
    above = count - rank
    if above < beyond:
        raise ValueError(
            f"p{q:g} of {count} samples has only {above} beyond it; "
            f"need {beyond}"
        )
    return Percentile(q, sorted(samples)[rank - 1], count, above)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Run-to-run quartiles and the interquartile spread as a share of
    the median (the figure the benchmark's bounds are compared with)."""
    if len(values) < 2:
        raise ValueError("need at least two values for quartiles")
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else math.inf
    return {"q1": q1, "median": median, "q3": q3, "spread": spread,
            "n": len(values)}
