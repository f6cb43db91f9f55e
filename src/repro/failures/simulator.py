"""Event-driven simulation of the pipelined streaming execution.

The analytic latency model of the paper, ``L = (2S − 1)·Δ``, abstracts the
steady-state behaviour of the pipeline.  This module provides an independent,
event-driven simulator of the actual execution of ``K`` consecutive data sets
under the one-port model, used to sanity-check the analytic model (and to
observe what really happens when processors crash mid-stream).

Since the kernel extraction, the actual event loop lives in
:class:`repro.sim.kernel.PipelineKernel` — the same loop that powers the
online runtime (:mod:`repro.runtime.engine`).  :class:`StreamingSimulator` is
the *batch driver* of that kernel: it admits the stream window by window
(replica-major event order, identical tie for tie to admitting every data
set up front), runs the kernel to completion under a fixed crash scenario,
and packages the per-dataset latencies into a :class:`SimulationResult`:

* every replica executes one *compute operation* per data set, on its assigned
  processor, in FIFO order of the data sets;
* every recorded communication gives one *transfer operation* per data set,
  occupying the sender's out-port and the receiver's in-port simultaneously;
* a replica starts processing data set ``j`` once, for each predecessor task,
  the first input for ``j`` has arrived (active replication: the earliest
  valid copy wins), and data set ``j`` enters the system at time ``j·Δ``;
* crashed processors execute nothing and send nothing.

The simulator reports the latency of each data set (completion of the last
exit task minus release time) and the asymptotic period actually achieved,
which should match ``max_u Δ_u`` of the schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import ScheduleError
from repro.failures.scenarios import CrashScenario
from repro.schedule.replica import Replica
from repro.schedule.schedule import Schedule
from repro.schedule.validation import valid_replicas_under_failures
from repro.sim import steady
from repro.sim.kernel import PipelineKernel
from repro.utils.gcpause import gc_paused

__all__ = ["StreamingSimulator", "SimulationResult", "simulate_stream"]


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of simulating ``K`` data sets through the pipeline."""

    latencies: tuple[float, ...]
    completion_times: tuple[float, ...]
    period: float

    @property
    def num_datasets(self) -> int:
        """Number of simulated data sets."""
        return len(self.latencies)

    @property
    def steady_state_latency(self) -> float:
        """Latency of the last simulated data set (the pipeline is warmed up)."""
        return self.latencies[-1]

    @property
    def max_latency(self) -> float:
        """Worst latency over the simulated data sets."""
        return max(self.latencies)

    @property
    def achieved_period(self) -> float:
        """Average inter-completion time once the pipeline is full."""
        if len(self.completion_times) < 2:
            return self.period
        gaps = np.diff(self.completion_times)
        tail = gaps[len(gaps) // 2 :]
        return float(np.mean(tail)) if len(tail) else self.period

    @property
    def achieved_throughput(self) -> float:
        """Inverse of :attr:`achieved_period`."""
        p = self.achieved_period
        return float("inf") if p == 0 else 1.0 / p


class StreamingSimulator:
    """Batch driver of the shared pipeline kernel for a complete schedule.

    *fast_forward* (default on) enables the analytic steady-state fast path
    for uniform ``j·Δ`` streams: once two successive admission windows prove
    a repeating kernel state under the exactness certificate of
    :mod:`repro.sim.steady`, the remaining quiet stretch is emitted in
    closed form — O(warm-up + pipeline depth) events instead of
    O(num_datasets) — with results bit-identical to the full event loop.
    Workloads that fail the certificate (non-grid durations), explicit
    release lists, and short streams run every event on the retaining
    kernel, through the same windowed loop.
    """

    def __init__(
        self,
        schedule: Schedule,
        scenario: CrashScenario | Iterable[str] = (),
        fast_forward: bool = True,
    ):
        if not schedule.is_complete():
            raise ScheduleError("cannot simulate an incomplete schedule")
        if not isinstance(scenario, CrashScenario):
            scenario = CrashScenario(frozenset(scenario))
        self.schedule = schedule
        self.scenario = scenario
        self.fast_forward = bool(fast_forward)
        #: diagnostics of the last :meth:`run`: how many windows/data sets
        #: the steady-state fast path skipped (zeros when it never engaged).
        self.last_fast_forward: dict[str, int] = {"windows": 0, "datasets": 0}
        # Replicas that can produce valid results under the crash pattern.
        valid = valid_replicas_under_failures(schedule, scenario.failed)
        self._valid_map: dict[str, list[Replica]] = valid
        self._valid: set[Replica] = {r for reps in valid.values() for r in reps}
        for task in schedule.graph.exit_tasks():
            if not valid[task]:
                raise ScheduleError(
                    f"exit task {task!r} has no valid replica under scenario {scenario!r}"
                )

    # ------------------------------------------------------------------ running
    def run(
        self,
        num_datasets: int = 10,
        release_times: Sequence[float] | None = None,
    ) -> SimulationResult:
        """Simulate *num_datasets* consecutive data sets and return their latencies.

        Parameters
        ----------
        release_times:
            Optional per-dataset release instants (finite, non-negative and
            non-decreasing, one per data set).  By default data set ``j``
            enters the system at ``j·Δ``; the online runtime passes explicit
            admission times so that a stream segment can resume mid-trace.

        The stream is admitted one window of
        :data:`repro.sim.steady.DEFAULT_WINDOW` data sets at a time through
        :meth:`~repro.sim.kernel.PipelineKernel.admit_window`, whose
        preassigned sequence numbers make the pop order identical to a
        one-shot admission.  Each ``run_until`` stops just *below* the next
        window's first release, so same-instant release/compute ties keep
        resolving release-first exactly as they would with every release
        already in the heap.  A uniform stream that passes the exactness
        certificate runs on an evicting kernel watched by a
        :class:`~repro.sim.steady.SteadyStateDetector`, and
        :func:`~repro.sim.steady.leap` skips its quiet stretches; every other
        stream runs on the retaining kernel.
        """
        if num_datasets < 1:
            raise ValueError(f"num_datasets must be >= 1, got {num_datasets}")
        period = self.schedule.period
        if release_times is None:
            releases = (np.arange(num_datasets, dtype=np.float64) * period).tolist()
        else:
            releases = [float(t) for t in release_times]
            if len(releases) != num_datasets:
                raise ValueError(
                    f"release_times has {len(releases)} entries, expected {num_datasets}"
                )
            if not all(map(math.isfinite, releases)):
                raise ValueError("release_times must be finite")
            if any(b < a for a, b in zip(releases, releases[1:])) or releases[0] < 0:
                raise ValueError("release_times must be non-negative and non-decreasing")

        window = steady.DEFAULT_WINDOW
        detector = None
        if (
            release_times is None
            and self.fast_forward
            and period > 0
            and num_datasets >= 3 * window
        ):
            kernel = self._kernel(retain_history=False)
            grid_exp = steady.certified_grid(kernel, period, num_datasets * period)
            if grid_exp is not None:
                detector = steady.SteadyStateDetector(kernel, grid_exp, period, window)
        if detector is None:
            kernel = self._kernel(retain_history=True)

        completions: list[float | None] = [None] * num_datasets
        skipped_windows = 0
        j = 0
        with gc_paused():
            # millions of acyclic allocations; the cycle detector's scans are
            # pure overhead that grows with the stream (see repro.utils.gcpause)
            while j < num_datasets:
                stop = min(j + window, num_datasets)
                kernel.admit_window(j, releases[j:stop], num_datasets)
                j = stop
                if j == num_datasets:
                    break
                drained = kernel.run_until(math.nextafter(releases[j], -math.inf))
                for d, t in drained:
                    completions[d] = t
                if detector is not None:
                    m, skipped = steady.leap(
                        detector, releases[j], j, True, drained, num_datasets, math.inf
                    )
                    for d, t in skipped:
                        completions[d] = t
                    j += m * window
                    skipped_windows += m
            for d, t in kernel.run_to_completion():
                completions[d] = t
        self.last_fast_forward = {
            "windows": skipped_windows,
            "datasets": skipped_windows * window,
        }
        latencies = []
        for dataset, completion in enumerate(completions):
            if completion is None:
                raise ScheduleError(
                    f"data set {dataset} never completed — inconsistent schedule or scenario"
                )
            latencies.append(completion - releases[dataset])
        return SimulationResult(
            latencies=tuple(latencies),
            completion_times=tuple(completions),  # type: ignore[arg-type]
            period=period,
        )

    def _kernel(self, retain_history: bool) -> PipelineKernel:
        # The constructor already computed the validity closure and checked
        # exit coverage; hand both over so the kernel does not redo the work.
        return PipelineKernel(
            self.schedule,
            self.scenario.failed,
            require_exit_coverage=False,
            valid_replicas=self._valid_map,
            retain_history=retain_history,
        )


def simulate_stream(
    schedule: Schedule,
    num_datasets: int = 10,
    failed_processors: Iterable[str] = (),
) -> SimulationResult:
    """Convenience wrapper: simulate *num_datasets* data sets through *schedule*."""
    return StreamingSimulator(schedule, CrashScenario(frozenset(failed_processors))).run(num_datasets)
