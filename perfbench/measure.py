"""Statistics and accounting shared by every workload of the benchmark.

Kept free of any ``repro`` import so the benchmark process stays small and the
helpers can be tested on their own (``python -m pytest perfbench``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; with fewer, the "tail" is one or two outliers, not a percentile.
MIN_SAMPLES_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.0, 95.0, 90.0)


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation between ranks.

    Same convention as ``numpy.percentile``'s default, without numpy.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* samples lie above the *q*-th percentile."""
    return math.floor(count * (100.0 - q) / 100.0 + 1e-9)


def supported_tail(count: int, candidates=TAIL_CANDIDATES) -> float | None:
    """The highest candidate percentile with ``MIN_SAMPLES_BEYOND`` samples past it."""
    for q in candidates:
        if samples_beyond(count, q) >= MIN_SAMPLES_BEYOND:
            return q
    return None


def needed_samples(q: float) -> int:
    """Smallest sample count whose *q*-th percentile has enough samples beyond."""
    count = 1
    while samples_beyond(count, q) < MIN_SAMPLES_BEYOND:
        count += 1
    return count


@dataclass(frozen=True)
class Timing:
    """Median and best-supported tail of a set of timing samples."""

    count: int
    p50: float
    tail_q: float | None
    tail: float | None

    @classmethod
    def of(cls, values, candidates=TAIL_CANDIDATES) -> "Timing":
        values = list(values)
        q = supported_tail(len(values), candidates)
        return cls(
            count=len(values),
            p50=percentile(values, 50.0),
            tail_q=q,
            tail=None if q is None else percentile(values, q),
        )

    def describe(self, unit: str, scale: float = 1.0) -> str:
        text = f"p50 {self.p50 * scale:.4g} {unit}"
        if self.tail_q is not None:
            text += f", p{self.tail_q:g} {self.tail * scale:.4g} {unit}"
        else:
            text += f", no tail percentile (needs {needed_samples(90.0)} samples for p90)"
        return text + f" (n={self.count})"


@dataclass
class Ledger:
    """Counts operations attempted and failed, with the reason of each failure.

    An operation fails when it raises, times out, gets a non-2xx reply, or
    one of its output checks does not hold.  A check is never skipped: every
    operation ends in :meth:`ok` or :meth:`fail`.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> bool:
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return condition

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
