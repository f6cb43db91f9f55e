"""Busy-interval timelines.

The bi-directional one-port model of the paper states that a processor can be
engaged in **at most one outgoing and one incoming communication at a time**
(while still computing).  The scheduling heuristics therefore need, for every
processor, two *timelines* — one for the out-port, one for the in-port — plus
one timeline per processor for the compute resource itself.  A timeline is a
sorted set of non-overlapping busy intervals supporting insertion-based
earliest-slot queries ("when is the first instant ``>= ready`` at which this
resource is free for ``duration`` time units?").

The same structure is reused for every resource, so it lives in
:mod:`repro.utils` rather than in the schedule package.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

__all__ = ["Interval", "Timeline", "earliest_common_slot"]

#: Tolerance used when comparing interval endpoints; avoids spurious overlaps
#: caused by floating-point rounding in long schedules.
_EPS = 1e-9


def _check_endpoints(start: float, end: float) -> None:
    """Reject a span ``[start, end)`` with a NaN endpoint or an end before its start."""
    if math.isnan(start) or math.isnan(end):
        raise ValueError("interval endpoints must not be NaN")
    if end < start - _EPS:
        raise ValueError(f"interval end {end} precedes start {start}")


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open busy interval ``[start, end)`` with an opaque label.

    The label typically identifies the replica or communication occupying the
    resource; it is never interpreted by the timeline itself and is excluded
    from ordering so intervals sort purely by time.
    """

    start: float
    end: float
    label: object = field(default=None, compare=False)

    def __post_init__(self) -> None:
        _check_endpoints(self.start, self.end)

    @property
    def duration(self) -> float:
        """Length of the interval."""
        return self.end - self.start

    def overlaps(self, other: "Interval") -> bool:
        """True when the two intervals share more than a boundary point."""
        return self.start < other.end - _EPS and other.start < self.end - _EPS

    def contains(self, instant: float) -> bool:
        """True when *instant* lies inside the half-open interval."""
        return self.start - _EPS <= instant < self.end - _EPS


class Timeline:
    """A set of non-overlapping busy intervals on a single resource.

    Supports the two operations needed by insertion-based list scheduling:

    * :meth:`earliest_slot` — first instant ``>= ready`` at which the resource
      is idle for ``duration`` consecutive time units;
    * :meth:`reserve` — mark ``[start, start + duration)`` as busy.

    The busy intervals are stored as three parallel lists sorted by start
    time — starts, ends and labels — so queries and reservations compare
    plain floats; :class:`Interval` objects are built only when the
    intervals are read (:attr:`intervals`, iteration).  Both operations are
    ``O(log n)`` for the search plus ``O(n)`` worst case for the scan /
    insertion: a list scheduler issues millions of them on a 100-task,
    40-processor instance, and each resource holds at most a few hundred
    intervals.
    """

    def __init__(self, intervals: Sequence[Interval] | None = None):
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._labels: list[object] = []
        for iv in sorted(intervals or ()):
            if iv.duration > _EPS:
                self._insert(iv.start, iv.end, iv.label)

    # ------------------------------------------------------------------ dunder
    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        body = ", ".join(f"[{s:g},{e:g})" for s, e in zip(self._starts, self._ends))
        return f"Timeline({body})"

    # ----------------------------------------------------------------- queries
    @property
    def intervals(self) -> tuple[Interval, ...]:
        """The busy intervals, sorted by start time."""
        return tuple(map(Interval, self._starts, self._ends, self._labels))

    @property
    def busy_time(self) -> float:
        """Total busy duration."""
        return sum(e - s for s, e in zip(self._starts, self._ends))

    @property
    def makespan(self) -> float:
        """End of the last busy interval (0 when the timeline is empty)."""
        return self._ends[-1] if self._ends else 0.0

    def is_free(self, start: float, duration: float) -> bool:
        """True when ``[start, start + duration)`` does not overlap any busy interval."""
        if duration <= _EPS:
            return True
        end = start + duration
        _check_endpoints(start, end)
        return self._is_free(start, end, bisect.bisect_left(self._starts, start))

    def _is_free(self, start: float, end: float, idx: int) -> bool:
        """Overlap scan from the interval before insertion index *idx*."""
        starts, ends = self._starts, self._ends
        limit = end - _EPS
        for i in range(max(idx - 1, 0), len(starts)):
            if starts[i] >= limit:
                break
            if start < ends[i] - _EPS:
                return False
        return True

    def earliest_slot(self, ready: float, duration: float) -> float:
        """Earliest instant ``>= ready`` at which a gap of *duration* starts.

        A zero-duration request returns ``ready`` immediately (local
        communications cost nothing in the model).
        """
        if duration <= _EPS:
            return ready
        candidate = ready
        for start, end in zip(self._starts, self._ends):
            if end <= candidate + _EPS:
                continue
            if start >= candidate + duration - _EPS:
                break
            if end > candidate:
                candidate = end
        return candidate

    # --------------------------------------------------------------- mutation
    def reserve(self, start: float, duration: float, label: object = None) -> None:
        """Mark ``[start, start + duration)`` busy (a no-op for zero duration).

        Raises
        ------
        ValueError
            If an endpoint is NaN, the span ends before it starts, or it
            overlaps an existing busy interval.
        """
        end = start + duration
        _check_endpoints(start, end)
        if duration > _EPS:
            self._insert(start, end, label)

    def _insert(self, start: float, end: float, label: object) -> None:
        idx = bisect.bisect_left(self._starts, start)
        if not self._is_free(start, end, idx):
            raise ValueError(f"cannot reserve [{start:g}, {end:g}): resource busy")
        self._starts.insert(idx, start)
        self._ends.insert(idx, end)
        self._labels.insert(idx, label)

    def copy(self) -> "Timeline":
        """Independent copy of the timeline (labels are shared)."""
        clone = Timeline.__new__(Timeline)
        clone._starts = self._starts[:]
        clone._ends = self._ends[:]
        clone._labels = self._labels[:]
        return clone


def earliest_common_slot(
    timelines: Sequence[Timeline], ready: float, duration: float
) -> float:
    """Earliest instant ``>= ready`` at which *all* timelines are simultaneously free.

    Used to schedule a communication, which must occupy the sender's out-port
    and the receiver's in-port during the same time window (one-port model).

    The search alternates between the timelines: whenever a timeline pushes the
    candidate instant forward, the scan restarts with the later candidate, and
    terminates because each timeline only ever moves the candidate to the end
    of one of its finitely many busy intervals.
    """
    if duration <= _EPS or not timelines:
        return ready
    candidate = ready
    while True:
        moved = False
        for tl in timelines:
            slot = tl.earliest_slot(candidate, duration)
            if slot > candidate + _EPS:
                candidate = slot
                moved = True
        if not moved:
            return candidate
