"""The one-port pipeline kernel: replicated compute + transfer event loop.

The kernel executes the steady-state pipeline of a complete
:class:`~repro.schedule.schedule.Schedule` one event at a time:

* every valid replica executes one *compute operation* per admitted data set,
  on its assigned processor, in FIFO order of the data sets;
* every recorded communication gives one *transfer operation* per data set,
  occupying the sender's out-port and the receiver's in-port simultaneously
  (the bi-directional one-port model);
* a replica starts processing data set ``j`` once, for each predecessor task,
  the first input for ``j`` has arrived (active replication: the earliest
  valid copy wins);
* a data set *completes* when every exit task has produced it at least once.

Three admission methods share this loop:

* :meth:`PipelineKernel.admit_window` admits a window of a stream of known
  length, replica-major, with sequence numbers preassigned from the data set
  index — so admitting the stream in one window or in many pops events in the
  same order.  Every batch driver uses it: the offline
  :class:`~repro.failures.simulator.StreamingSimulator` (window by window,
  which lets the steady-state fast path of :mod:`repro.sim.steady` snapshot
  at window boundaries) and the online runtime's flush-and-restart executor
  (one window per cold-pipeline batch);
* :meth:`PipelineKernel.admit` admits one data set at a time, dataset-major,
  as one merged ``_RELEASE_ALL`` event — what the online runtime does between
  fault events.  Its sequence number is drawn at admission time, after the
  events already pushed, so same-instant ties resolve differently from a
  window admission: the two are separate methods because they are separate
  tie-break contracts;
* :meth:`PipelineKernel.admit_restored` replays a checkpoint into a rebuilt
  schedule (see below).

On top of plain execution the kernel supports the two online semantics the
runtime needs:

* :meth:`crash` marks a processor dead **mid-run**: queued/in-flight compute
  and transfer operations of that processor are cancelled (fail-stop: its
  memory and in-flight messages are lost), while operations that finished at
  or before the crash instant stand.  Port reservations already granted are
  not rolled back — a conservative, deterministic simplification;
* :meth:`completed_tasks` / :meth:`admit_restored` implement
  **checkpoint/restart**: completed per-task outputs (assumed copied to
  stable storage as they are produced) are replayed into a fresh kernel built
  on a rebuilt schedule, so in-flight data sets survive a rebuild instead of
  re-executing from scratch.  Restored outputs are delivered to their
  consumers at the restore instant with no transfer cost (they come from the
  checkpoint store, not from a peer's out-port).

Memory model — the ``retain_history`` flag
------------------------------------------

By default (``retain_history=True``) the kernel keeps the full per-dataset
book-keeping of every data set it ever saw: ``completions`` /
:meth:`completion_of` answer for the whole run, which is what the offline
simulator's :class:`~repro.failures.simulator.SimulationResult` is built
from.  That state grows linearly with the stream, and on 10⁵+-dataset streams
the dictionary churn — not the event arithmetic — dominates the run time.

``retain_history=False`` turns on **watermark-based eviction**: the kernel
counts the outstanding events of every data set, and the moment a *completed*
data set's count drops to zero (its watermark — no pending event references
it, so nothing can ever touch its state again) every trace of it is retired:
the per-replica ``received``/``finished``/``done`` entries, the exit-task
ledger, the admission record and the completion entry.  Live state is then
bounded by the number of in-flight data sets (the pipeline depth), not the
stream length.  Completions are reported **only** through the
:meth:`run_until` / :meth:`run_to_completion` drains — ``completion_of``
returns ``None`` once a data set has been evicted — and re-admitting a
retired index raises (indices at or below the highest evicted index are
rejected, the constant-memory stand-in for the per-dataset duplicate check).  Eviction is pure book-keeping: every event is processed
identically in both modes, so the drained completions are bit-for-bit equal
(property-tested in ``tests/property``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.exceptions import ScheduleError
from repro.schedule.replica import Replica
from repro.schedule.schedule import Schedule
from repro.schedule.validation import valid_replicas_under_failures
from repro.sim.events import EventQueue

__all__ = ["PipelineKernel", "EVENT_KIND_NAMES"]

#: event kinds understood by the loop — interned small ints, not strings: the
#: hot loop dispatches on them once per event, and an int compare is one
#: pointer-width comparison with no type dispatch.  ``_RELEASE_ALL`` is the
#: merged form used by one-at-a-time admission: the E entry-replica release
#: events of one data set always occupy adjacent tie-break slots at the same
#: instant, so folding them into a single event that kicks every entry
#: replica in declaration order is pop-for-pop identical — and saves E−1
#: heap operations per data set.
_RELEASE = 0
_COMPUTED = 1
_ARRIVED = 2
_RELEASE_ALL = 3

#: public names of the event kinds, indexed by the interned kind ints above —
#: the vocabulary of :meth:`repro.obs.probe.Probe.on_kernel_events` counters.
EVENT_KIND_NAMES = ("release", "compute-complete", "transfer-arrive", "release-all")


@dataclass(slots=True)
class _ReplicaRun:
    """Book-keeping of one alive replica during the simulation.

    ``__slots__`` (via ``dataclass(slots=True)``): one of these exists per
    valid replica and its attributes are read on every event — fixed slot
    offsets beat a per-instance ``__dict__`` on both memory and access time.

    Input tracking is a **bitmask** per data set, not a set of task names:
    every predecessor task owns one bit (``pred_bit``), a replica may start
    once ``received[dataset] == full_mask``, and a duplicate arrival (active
    replication: several source replicas forward the same task's output) is
    an OR that changes nothing — no per-pair set allocations, no hashing of
    task names in the hot loop.
    """

    replica: Replica
    processor: str
    duration: float
    #: predecessor task -> its bit in the input mask (fixed at construction;
    #: empty for entry replicas, which need no inputs).
    pred_bit: dict[str, int] = field(default_factory=dict)
    #: value of ``received[dataset]`` once every input is in.
    full_mask: int = 0
    received: dict[int, int] = field(default_factory=dict)  # dataset -> input bitmask
    finished: dict[int, float] = field(default_factory=dict)  # dataset -> scheduled finish
    done: dict[int, float] = field(default_factory=dict)  # dataset -> actual completion
    #: outgoing communications: ``(destination state, transfer duration,
    #: destination's bit for this replica's task)`` — resolved once at
    #: construction so the hot loop never looks anything up by name.
    links: list = field(default_factory=list)


class PipelineKernel:
    """Discrete-event executor of one schedule under one (mutable) crash set."""

    def __init__(
        self,
        schedule: Schedule,
        failed: Iterable[str] = (),
        require_exit_coverage: bool = True,
        valid_replicas: dict[str, list[Replica]] | None = None,
        retain_history: bool = True,
        probe=None,
    ):
        """*valid_replicas* lets a driver that already ran
        :func:`~repro.schedule.validation.valid_replicas_under_failures` for
        *failed* (e.g. the offline simulator's constructor) hand the result
        over instead of recomputing it here.  *retain_history* selects the
        memory model (see the module docstring): ``False`` evicts a data
        set's state at its watermark, bounding live memory by the pipeline
        depth instead of the stream length.  *probe* is an optional
        :class:`repro.obs.probe.Probe`: per-kind event counts are accumulated
        in a local list and flushed once per drain, so a ``None`` probe costs
        a single pointer comparison per event.  Only an evicting kernel can
        be snapshotted and jumped by the steady-state fast path
        (:mod:`repro.sim.steady`)."""
        if not schedule.is_complete():
            raise ScheduleError("cannot simulate an incomplete schedule")
        failed = frozenset(failed)
        graph = schedule.graph
        valid = (
            valid_replicas
            if valid_replicas is not None
            else valid_replicas_under_failures(schedule, failed)
        )
        if require_exit_coverage:
            for task in graph.exit_tasks():
                if not valid[task]:
                    raise ScheduleError(
                        f"exit task {task!r} has no valid replica under scenario "
                        f"CrashScenario({sorted(failed)})"
                    )
        self.schedule = schedule
        self.graph = graph
        valid_set = {r for reps in valid.values() for r in reps}

        self._states: dict[Replica, _ReplicaRun] = {}
        for replica in schedule.all_replicas():
            if replica not in valid_set:
                continue
            preds = graph.predecessors(replica.task)
            pred_bit = {pred: 1 << i for i, pred in enumerate(preds)}
            self._states[replica] = _ReplicaRun(
                replica=replica,
                processor=schedule.processor_of(replica),
                duration=schedule.execution_time_of(replica),
                pred_bit=pred_bit,
                full_mask=(1 << len(preds)) - 1,
            )
        self._entry_states = [s for s in self._states.values() if not s.pred_bit]

        # communications between valid replicas only, resolved to run states
        # (including the receiver's input bit for the sender's task)
        for event in schedule.comm_events:
            if event.source in self._states and event.destination in self._states:
                dst = self._states[event.destination]
                self._states[event.source].links.append(
                    (dst, event.duration, dst.pred_bit[event.source.task])
                )

        names = schedule.platform.processor_names
        self._compute_free: dict[str, float] = {p: 0.0 for p in names}
        self._out_free: dict[str, float] = dict(self._compute_free)
        self._in_free: dict[str, float] = dict(self._compute_free)

        self._dead: set[str] = set()  # processors crashed *after* construction
        self._queue = EventQueue()
        self._now = 0.0
        self._exit_tasks = graph.exit_tasks()
        self._exit_done: dict[int, dict[str, float]] = {}
        self._completion: dict[int, float] = {}
        self._admitted: dict[int, float] = {}  # dataset -> release instant
        self._fresh: list[tuple[int, float]] = []  # completions since last drain
        self.retain_history = bool(retain_history)
        #: dataset -> outstanding events referencing it (eviction mode only);
        #: ``None`` is the retained mode's zero-overhead marker.
        self._refs: dict[int, int] | None = None if self.retain_history else {}
        self._evicted = 0
        self._max_evicted = -1  # highest retired index: re-admission guard
        self._peak_live = 0
        self._probe = probe

    # ------------------------------------------------------------------ queries
    @property
    def now(self) -> float:
        """Simulation clock (time of the last processed event)."""
        return self._now

    @property
    def completions(self) -> dict[int, float]:
        """Completion instant of every completed, non-evicted data set."""
        return dict(self._completion)

    def completion_of(self, dataset: int) -> float | None:
        """Completion instant of *dataset* (``None`` while in flight — or,
        with ``retain_history=False``, once it has been evicted)."""
        return self._completion.get(dataset)

    def pending_datasets(self) -> tuple[int, ...]:
        """Admitted data sets that have not completed yet, in admission order."""
        return tuple(j for j in self._admitted if j not in self._completion)

    @property
    def live_datasets(self) -> int:
        """Data sets currently holding kernel state (admitted, not evicted)."""
        return len(self._admitted)

    @property
    def evicted_datasets(self) -> int:
        """Data sets whose state has been retired at their watermark."""
        return self._evicted

    @property
    def peak_live_datasets(self) -> int:
        """High-water mark of :attr:`live_datasets` over the run so far."""
        return max(self._peak_live, len(self._admitted))

    def completed_tasks(self, dataset: int) -> frozenset[str]:
        """Tasks whose output for *dataset* has actually been produced.

        This is the checkpoint of the data set: every task here has at least
        one replica that finished computing (or whose output was restored from
        a previous checkpoint), so its output is in stable storage and can be
        replayed into a rebuilt schedule with :meth:`admit_restored`.
        """
        return frozenset(
            s.replica.task for s in self._states.values() if dataset in s.done
        )

    # ---------------------------------------------------------------- admission
    def admit(self, dataset: int, release: float) -> None:
        """Admit one data set: entry replicas receive it at *release*."""
        self._register(dataset, release)
        refs = self._refs
        if refs is not None:
            refs[dataset] = refs.get(dataset, 0) + 1
        self._queue.push(release, _RELEASE_ALL, (dataset,))

    def admit_window(
        self, start: int, releases: Sequence[float], stream_total: int
    ) -> None:
        """Admit data sets ``start, start+1, …`` of a *stream_total* stream.

        ``releases[k]`` is the release instant of data set ``start + k``.
        Release events are pushed replica-major with **preassigned sequence
        numbers** ``1 + entry_index·stream_total + j``, and the queue counter
        is raised to at least ``entry_replicas·stream_total`` so every event
        the run loop pushes sorts after every release.  On a fresh kernel a
        one-shot ``admit_window(0, all_releases, n)`` therefore draws exactly
        the sequence numbers of a push loop over the whole stream, and a
        windowed drive — ``admit_window`` then ``run_until`` just *below* the
        next window's first release, repeated — pops events in an identical
        order, tie for tie.  The release events land through one ``heapify``
        instead of one ``heappush`` each.
        """
        stop = start + len(releases)
        if not 0 <= start < stop <= stream_total:
            raise ScheduleError(
                f"window [{start}, {stop}) outside stream of {stream_total}"
            )
        indices = range(start, stop)
        if start <= self._max_evicted:
            raise ScheduleError(f"data set {start} was already admitted")
        if self._admitted:
            for j in indices:
                if j in self._admitted:
                    raise ScheduleError(f"data set {j} was already admitted")
        self._admitted.update(zip(indices, releases))
        refs = self._refs
        if refs is not None:
            entries = len(self._entry_states)
            refs.update((j, refs.get(j, 0) + entries) for j in indices)
        queue = self._queue
        heap = queue.heap
        for e, state in enumerate(self._entry_states):
            base = 1 + e * stream_total
            heap.extend(
                (t, base + j, _RELEASE, (state, j)) for j, t in zip(indices, releases)
            )
        floor = len(self._entry_states) * stream_total
        if queue._count < floor:
            queue._count = floor
        heapq.heapify(heap)

    def admit_restored(
        self, dataset: int, restore: float, done_tasks: Iterable[str] = ()
    ) -> None:
        """Admit a data set whose *done_tasks* outputs come from a checkpoint.

        Restored outputs are delivered to every consumer at *restore* with no
        transfer cost; replicas of restored tasks never recompute.  Replicas
        whose inputs are fully satisfied by the checkpoint (including entry
        replicas of non-restored tasks) are kicked at *restore*.
        """
        done = frozenset(done_tasks)
        self._register(dataset, restore)
        exit_done = self._exit_done.setdefault(dataset, {})
        for task in done:
            if task in self._exit_tasks:
                exit_done[task] = restore
        if exit_done and len(exit_done) == len(self._exit_tasks):
            self._complete(dataset, restore)
            if self._refs is not None and not self._refs.get(dataset):
                self._evict(dataset)
            return
        refs = self._refs
        for state in self._states.values():
            if state.replica.task in done:
                state.finished[dataset] = restore
                state.done[dataset] = restore
                continue
            if state.pred_bit:
                bits = state.received.get(dataset, 0)
                for task in done.intersection(state.pred_bit):
                    bits |= state.pred_bit[task]
                state.received[dataset] = bits
                if bits != state.full_mask:
                    continue
            if refs is not None:
                refs[dataset] = refs.get(dataset, 0) + 1
            self._queue.push(restore, _RELEASE, (state, dataset))

    def _register(self, dataset: int, release: float) -> None:
        if dataset in self._admitted or dataset <= self._max_evicted:
            # the second arm keeps the duplicate-admission guard alive in
            # evicting mode: a retired index left no per-dataset record to
            # collide with, but the eviction watermark (indices are admitted
            # in increasing order by every driver) still catches the reuse
            raise ScheduleError(f"data set {dataset} was already admitted")
        self._admitted[dataset] = release

    # ----------------------------------------------------------------- failures
    def crash(self, processor: str) -> None:
        """Mark *processor* dead from now on (fail-stop, see module docstring).

        Pending events touching the processor are cancelled lazily when they
        surface; call :meth:`run_until` with the crash instant *before* this so
        that operations finishing at or before the crash still count.
        """
        self._dead.add(processor)

    # ---------------------------------------------------------------- execution
    def run_until(self, time: float) -> list[tuple[int, float]]:
        """Process every event up to and including *time*; return completions.

        The returned list holds ``(dataset, completion_instant)`` pairs for
        every data set that completed since the previous drain, in completion
        order.
        """
        self._run_loop(time)
        return self._drain()

    def run_to_completion(self) -> list[tuple[int, float]]:
        """Process every pending event; return the completions since last drain."""
        self._run_loop(None)
        return self._drain()

    def _run_loop(self, limit: float | None) -> None:
        """The hot loop: pop and dispatch events (bounded by *limit* if given).

        One flat function, everything in locals: the event arithmetic is a
        few dict operations per event, so per-event *dispatch* cost — method
        calls, attribute loads, the push wrapper — used to dominate.  Popping
        the raw heap, pushing with ``heapq.heappush`` directly (the sequence
        counter is a local, written back on exit) and inlining the
        try-to-start logic keeps the kernel at the speed of the
        pre-extraction closure-based simulator loop.  The eviction watermark
        (``refs is not None``) settles after each event; the retained mode
        pays one pointer comparison for the feature.
        """
        queue = self._queue
        heap = queue.heap
        pop = heapq.heappop
        push = heapq.heappush
        count = queue._count
        dead = self._dead
        compute_free = self._compute_free
        out_free = self._out_free
        in_free = self._in_free
        exit_tasks = self._exit_tasks
        exit_done_map = self._exit_done
        completion = self._completion
        fresh = self._fresh
        entry_states = self._entry_states
        refs = self._refs
        evict = self._evict
        now = self._now
        probe = self._probe
        # per-kind event tallies, flushed once at loop exit: with no probe
        # attached the loop pays exactly one `is None` check per event
        ev_counts = None if probe is None else [0, 0, 0, 0]
        if refs is not None:
            live = len(self._admitted)
            if live > self._peak_live:
                self._peak_live = live

        def try_start(state: _ReplicaRun, dataset: int) -> None:
            nonlocal count
            if dataset in state.finished or state.processor in dead:
                return
            if state.full_mask and state.received.get(dataset, 0) != state.full_mask:
                return
            free = compute_free[state.processor]
            start = now if now > free else free
            finish = start + state.duration
            compute_free[state.processor] = finish
            state.finished[dataset] = finish
            if refs is not None:
                refs[dataset] += 1
            count += 1
            push(heap, (finish, count, _COMPUTED, (state, dataset)))

        while heap:
            if limit is not None and heap[0][0] > limit:
                break
            now, _, kind, payload = pop(heap)
            if ev_counts is not None:
                ev_counts[kind] += 1
            if kind == _ARRIVED:
                src_state, dst_state, bit, dataset = payload
                if not dead or (
                    src_state.processor not in dead
                    and dst_state.processor not in dead
                ):
                    received = dst_state.received
                    got = received.get(dataset, 0)
                    new = got | bit
                    if new != got:
                        received[dataset] = new
                        if (
                            new == dst_state.full_mask
                            and dataset not in dst_state.finished
                            and dst_state.processor not in dead
                        ):
                            # every input is in: start the compute (inline —
                            # this is the single most frequent path)
                            free = compute_free[dst_state.processor]
                            start = now if now > free else free
                            finish = start + dst_state.duration
                            compute_free[dst_state.processor] = finish
                            dst_state.finished[dataset] = finish
                            if refs is not None:
                                refs[dataset] += 1
                            count += 1
                            push(heap, (finish, count, _COMPUTED, (dst_state, dataset)))
                # else: the transfer was in flight when an endpoint died
            elif kind == _COMPUTED:
                state, dataset = payload
                if dead and state.processor in dead:
                    pass  # the processor died while this compute was in flight
                else:
                    state.done[dataset] = now
                    task = state.replica.task
                    if task in exit_tasks:
                        exit_done = exit_done_map.get(dataset)
                        if exit_done is None:
                            exit_done = exit_done_map[dataset] = {}
                        if task not in exit_done:
                            exit_done[task] = now
                            if len(exit_done) == len(exit_tasks):
                                completion[dataset] = now
                                fresh.append((dataset, now))
                    # forward the result along every recorded communication
                    src_proc = state.processor
                    for dst_state, duration, bit in state.links:
                        if dead and dst_state.processor in dead:
                            continue  # no point sending to a dead receiver
                        if refs is not None:
                            refs[dataset] += 1
                        count += 1
                        if duration == 0.0:
                            push(heap, (now, count, _ARRIVED, (state, dst_state, bit, dataset)))
                        else:
                            start = out_free[src_proc]
                            if now > start:
                                start = now
                            free = in_free[dst_state.processor]
                            if free > start:
                                start = free
                            arrive = start + duration
                            out_free[src_proc] = arrive
                            in_free[dst_state.processor] = arrive
                            push(heap, (arrive, count, _ARRIVED, (state, dst_state, bit, dataset)))
            elif kind == _RELEASE_ALL:
                dataset = payload[0]
                for state in entry_states:
                    try_start(state, dataset)
            else:  # _RELEASE: one (replica, data set) kick from batch admission
                state, dataset = payload
                try_start(state, dataset)
            if refs is not None:
                dataset = payload[-1]
                left = refs[dataset] - 1
                if left:
                    refs[dataset] = left
                elif dataset in completion:
                    evict(dataset)
                else:
                    refs[dataset] = 0
        queue._count = count
        self._now = now
        if ev_counts is not None and any(ev_counts):
            probe.on_kernel_events(ev_counts, now)

    def _evict(self, dataset: int) -> None:
        """Retire every trace of a completed, quiescent data set (watermark)."""
        for state in self._states.values():
            state.received.pop(dataset, None)
            state.finished.pop(dataset, None)
            state.done.pop(dataset, None)
        self._exit_done.pop(dataset, None)
        self._admitted.pop(dataset, None)
        self._completion.pop(dataset, None)
        self._refs.pop(dataset, None)
        self._evicted += 1
        if dataset > self._max_evicted:
            self._max_evicted = dataset

    def _drain(self) -> list[tuple[int, float]]:
        fresh, self._fresh = self._fresh, []
        return fresh

    def _complete(self, dataset: int, time: float) -> None:
        self._completion[dataset] = time
        self._fresh.append((dataset, time))
