"""The machine's speed, measured next to the work, so timings survive a drifting host.

On a small shared host a core's speed moves by 20–50% within seconds, as
the processes of others come and go, and the cores drift independently of
each other.  A wall-clock time then says as much about the neighbours as
about the program, and ten runs of the same code spread wider than any
useful bound.

So every gated timing is taken together with the speed of the cores the
timed child process runs on: the benchmark's own process times a short
fixed reference chunk — pure-Python event-loop work, the same kind the
program does — on each of those cores, just before the child starts, every
``INTERVAL_S`` while it runs, and just after it ends.  The chunk is timed in
CPU time, so a sample is the core's speed, not how long the chunk waited for
its turn.  The child's wall-clock time is then scaled by ``NOMINAL_S`` over
the mean chunk time: it reads in *seconds at reference speed*, the seconds
it would have taken on a core that runs the chunk in ``NOMINAL_S``.  A
change to the program moves these figures as it moves wall-clock time; a
busy neighbour slows the chunk as much as the program and cancels out.
The samples taken while the child runs cost it a few per cent of its core,
the same share on every commit.

The chunk runs in the benchmark's process, which never imports the program,
so nothing the program does to its own interpreter (garbage-collector
settings, tracers, patched modules) can slow the reference along with it.
"""

from __future__ import annotations

import heapq
import os
import time

#: chunk CPU time of the nominal core that scaled timings are given in.
NOMINAL_S = 0.002
#: how often the speed is sampled while a timed child runs.
INTERVAL_S = 0.05


def reference_chunk(events: int = 2000) -> float:
    """A small list-scheduling loop: a heap of timed events, dict state, floats."""
    heap = [(float(k % 97) * 0.5, k, k % 13) for k in range(64)]
    heapq.heapify(heap)
    free_at: dict[int, float] = {}
    waited = 0.0
    for _ in range(events):
        now, k, proc = heapq.heappop(heap)
        start = max(now, free_at.get(proc, 0.0))
        end = start + 1.0 + (k * 7919 % 101) / 50.0
        free_at[proc] = end
        waited += start - now
        heapq.heappush(heap, (end, k + 64, (proc + k) % 13))
    return waited


class SpeedProbe:
    """Samples the reference chunk on each of *cpus*, and scales timings by it."""

    def __init__(self, cpus) -> None:
        self.cpus = sorted(cpus)
        self.samples: list[float] = []

    def sample(self) -> float:
        """Mean chunk CPU time over the probe's cores, in seconds."""
        saved = os.sched_getaffinity(0)
        total = 0.0
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                start = time.thread_time()
                reference_chunk()
                total += time.thread_time() - start
        finally:
            os.sched_setaffinity(0, saved)
        self.samples.append(total / len(self.cpus))
        return self.samples[-1]

    def sample_until(self, done) -> list[float]:
        """Sample every ``INTERVAL_S`` until ``done(INTERVAL_S)`` — a wait of
        at most that long for the child — returns true, then once more."""
        samples = []
        while not done(INTERVAL_S):
            samples.append(self.sample())
        samples.append(self.sample())
        return samples

    def pin(self) -> None:
        """``preexec_fn`` of a timed child: run it on the cores the probe measures."""
        os.sched_setaffinity(0, self.cpus)

    @staticmethod
    def scaled(seconds: float, samples: list[float]) -> float:
        """Wall-clock *seconds* at reference speed, from the samples taken around them."""
        return seconds * NOMINAL_S * len(samples) / sum(samples)

    def describe(self) -> str:
        ordered = sorted(self.samples)
        median = ordered[len(ordered) // 2] if ordered else float("nan")
        return (
            f"reference chunk {median * 1e3:.3f} ms median on cpus {self.cpus} "
            f"(n={len(ordered)}; timings scaled to {NOMINAL_S * 1e3:g} ms)"
        )


def all_cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0))
