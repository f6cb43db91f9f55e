"""The event queue and simulation clock of the kernel.

A single binary heap keyed by ``(time, sequence)``: the sequence number is a
monotonically increasing insertion counter, so events at the same instant pop
in push order.  This tie-breaking rule is part of the kernel's contract — the
offline simulator relies on it to stay bit-for-bit reproducible across runs
(and across the PR that extracted this kernel out of it).

Event kinds are small ints (interned by CPython), not strings: the kind is
dispatched on once per event in the kernel's hot loop, and it never takes
part in heap ordering — ``(time, sequence)`` is always a unique sort key, so
the comparison chain never reaches the kind or the payload.
"""

from __future__ import annotations

import heapq

__all__ = ["EventQueue"]


class EventQueue:
    """Time-ordered event heap with deterministic FIFO tie-breaking."""

    __slots__ = ("heap", "_count", "_now")

    def __init__(self) -> None:
        #: the raw heap of ``(time, seq, kind, payload)`` tuples.  The kernel's
        #: hot loop reads ``heap[0][0]`` and pops it directly to avoid a method
        #: call per event; every other caller must treat it as read-only.
        self.heap: list[tuple[float, int, int, object]] = []
        self._count = 0
        self._now = 0.0

    def __len__(self) -> int:
        return len(self.heap)

    def __bool__(self) -> bool:
        return bool(self.heap)

    @property
    def now(self) -> float:
        """Time of the most recently popped event (the simulation clock)."""
        return self._now

    def push(self, time: float, kind: int, payload: object) -> None:
        """Schedule *payload* of type *kind* at *time*."""
        self._count += 1
        heapq.heappush(self.heap, (time, self._count, kind, payload))

    def peek_time(self) -> float:
        """Time of the earliest pending event (the queue must be non-empty)."""
        return self.heap[0][0]

    def pop(self) -> tuple[float, int, object]:
        """Pop and return the earliest event as ``(time, kind, payload)``."""
        time, _, kind, payload = heapq.heappop(self.heap)
        self._now = time
        return time, kind, payload
