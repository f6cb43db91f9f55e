"""The online streaming runtime: execute a schedule while processors fail.

:class:`OnlineRuntime` drives a :class:`~repro.schedule.schedule.Schedule`
over an open-ended stream while a :class:`~repro.failures.scenarios.FaultTrace`
injects crashes (and optionally repairs) mid-stream.  The control plane:

* data set ``j`` is released at ``j·Δ`` where ``Δ`` is the period of the
  *initial* schedule (the source rate never changes); an
  :class:`~repro.runtime.admission.AdmissionPolicy` decides the fate of every
  released data set (``shed`` drops what the pipeline cannot take, ``queue``
  buffers it through downtime and throttling);
* a crash that leaves every exit task with a valid replica — the active
  replication absorbing it — is **tolerated**: the stream continues on the
  surviving replicas at a degraded latency;
* a crash beyond the surviving guarantee (no valid exit replica, or more than
  ``ε`` crashes charged against the current schedule when
  ``rebuild_beyond_epsilon`` is set) triggers an **online rebuild**: the
  rescheduling policy (:mod:`repro.runtime.policies`) builds a new schedule on
  the survivors.  The rebuild takes ``rebuild_overhead·Δ`` time units of
  downtime;
* a rebuilt schedule may have a longer period (the survivors cannot sustain
  the source rate) or overloaded processors (remap policy) — the runtime then
  throttles admission to the achievable rate;
* repaired processors rejoin the candidate pool of the *next* rebuild (a
  processor lost its state when it crashed, so the current schedule never
  resurrects it); ``rebuild_on_repair=True`` additionally triggers an
  *anticipatory* rebuild — but only after a speculative reschedule shows the
  repaired processor actually improves the achievable period or the
  resilience margin, so repairs that change nothing no longer cost downtime;
* when no schedule can be built on the survivors the stream **aborts** and
  every remaining data set is lost.

The data plane is the shared simulation kernel
(:class:`repro.sim.kernel.PipelineKernel`): one kernel per schedule carries
compute/transfer state across fault events.  A tolerated crash cancels the
dead processor's operations in place (no pipeline restart, no re-paid
warm-up), and a rebuild *checkpoints* the in-flight data sets: their
completed per-task outputs are replayed into a fresh kernel built on the new
schedule, so partial work survives the rebuild.  The kernel runs with
``retain_history=False``: completions reach the control plane only through
the ``run_until`` drains, so a data set's book-keeping is evicted at its
watermark and live state is bounded by the pipeline depth, not the stream
length.

The resulting :class:`~repro.runtime.trace.RuntimeTrace` is a pure function of
``(schedule, fault_trace, options)``: two runs with the same inputs produce
equal traces.
"""

from __future__ import annotations

from typing import Iterable

from repro.exceptions import ScheduleError, SchedulingError
from repro.failures.scenarios import FaultEvent, FaultTrace
from repro.runtime.admission import (
    ADMIT,
    DROP,
    AdmissionPolicy,
    QueueAdmissionPolicy,
    ShedAdmissionPolicy,
    resolve_admission,
)
from repro.runtime.policies import ReschedulePolicy, resolve_policy
from repro.runtime.trace import DatasetRecord, RuntimeEvent, RuntimeTrace
from repro.schedule.schedule import Schedule
from repro.schedule.validation import valid_replicas_under_failures
from repro.sim import steady
from repro.sim.kernel import PipelineKernel
from repro.utils.gcpause import gc_paused

__all__ = ["OnlineRuntime", "run_online"]

_INF = float("inf")

def _effective_period(schedule: Schedule) -> float:
    """Admission spacing of *schedule*: its period, or its real cycle time when
    the mapping is overloaded (remap fallback after heavy failures)."""
    if schedule.max_cycle_time <= schedule.period * (1 + 1e-6):
        return schedule.period
    return schedule.max_cycle_time


class OnlineRuntime:
    """Discrete-event online executor (see module docstring)."""

    def __init__(
        self,
        schedule: Schedule,
        fault_trace: FaultTrace | Iterable[FaultEvent],
        policy: str | ReschedulePolicy = "rltf",
        rebuild_overhead: float = 1.0,
        rebuild_beyond_epsilon: bool = True,
        rebuild_on_repair: bool = False,
        admission: str | AdmissionPolicy = "shed",
        probe=None,
        fast_forward: bool = True,
        platform=None,
    ):
        """*fast_forward* enables the analytic steady-state fast path
        (:mod:`repro.sim.steady`): quiet stretches whose kernel state repeats
        window for window are skipped in closed form, bit-identically.  It
        guards itself off automatically whenever the regime is not provably
        stationary — bounded queue admission, a probe that does not opt in,
        or a workload whose durations fail the exactness certificate — so the
        flag is safe to leave on everywhere.

        *platform* widens the rebuild candidate pool beyond
        ``schedule.platform`` (elastic regimes: spare processors that start
        outside the schedule and *join* mid-stream).  Pool members absent
        from the schedule's platform start dead until a join event brings
        them up.  ``None`` (default) keeps the pool equal to the schedule's
        platform — bit-identical to the historical behaviour."""
        if not schedule.is_complete():
            raise ScheduleError("cannot run an incomplete schedule online")
        if rebuild_overhead < 0:
            raise ValueError(f"rebuild_overhead must be >= 0, got {rebuild_overhead}")
        if platform is not None:
            missing = [n for n in schedule.platform.processor_names if n not in platform]
            if missing:
                raise ScheduleError(
                    f"schedule processors {missing} are not in the runtime "
                    f"platform pool"
                )
        if not isinstance(fault_trace, FaultTrace):
            events = tuple(fault_trace)
            horizon = max([e.time for e in events], default=0.0) + schedule.period
            fault_trace = FaultTrace(events=events, horizon=max(horizon, schedule.period))
        self.schedule = schedule
        self.platform = platform
        self.fault_trace = fault_trace
        self.policy = resolve_policy(policy)
        self.admission = resolve_admission(admission)
        self.rebuild_overhead = float(rebuild_overhead)
        self.rebuild_beyond_epsilon = bool(rebuild_beyond_epsilon)
        self.rebuild_on_repair = bool(rebuild_on_repair)
        self.fast_forward = bool(fast_forward)
        #: optional :class:`repro.obs.probe.Probe`; ``None`` costs one pointer
        #: comparison at each instrumented site (see docs/observability.md)
        self.probe = probe

    # ---------------------------------------------------------------- execution
    def run(self, num_datasets: int = 100) -> RuntimeTrace:
        """Stream *num_datasets* consecutive data sets through the fault trace."""
        if num_datasets < 1:
            raise ValueError(f"num_datasets must be >= 1, got {num_datasets}")
        # The run allocates millions of acyclic objects and the cyclic GC's
        # scans grow with the accumulated stream history; pausing it keeps
        # per-dataset cost flat (see repro.utils.gcpause).
        with gc_paused():
            return self._run(num_datasets)

    def _run(self, num_datasets: int) -> RuntimeTrace:
        initial = self.schedule
        graph = initial.graph
        platform0 = self.platform if self.platform is not None else initial.platform
        period = initial.period
        tol = 1e-9 * period
        horizon = num_datasets * period
        releases = [j * period for j in range(num_datasets)]
        fault_events = [e for e in self.fault_trace.events if e.time < horizon]

        # records accumulate as plain (index, release, completion, status)
        # tuples during the run: CPython untracks tuples of atomics, so the
        # cyclic GC's full collections skip the stream history instead of
        # rescanning it (on 10⁵-dataset streams that rescan is what turns
        # per-dataset cost super-linear).  The DatasetRecord objects are
        # materialized once, at trace construction.
        records: list[tuple | None] = [None] * num_datasets
        log: list[RuntimeEvent] = []
        admission = self.admission
        admission.reset()
        probe = self.probe
        # Steady-state fast forward is only attempted where the regime can be
        # stationary: an admission policy that never builds regime-changing
        # backlog pressure (shed, or an unbounded queue), and a probe that
        # opted into bulk callbacks.  Everything else runs the exact
        # per-event loop unchanged.
        ff_eligible = (
            self.fast_forward
            and (probe is None or getattr(probe, "supports_fast_forward", False))
            and (
                isinstance(admission, ShedAdmissionPolicy)
                or (
                    isinstance(admission, QueueAdmissionPolicy)
                    and admission.capacity is None
                )
            )
        )
        # The live kernel: None mid-rebuild and after an abort.  ckpt holds
        # the completed per-task outputs of the data sets in flight when a
        # rebuild started, replayed into the rebuilt schedule's kernel.
        kernel: PipelineKernel | None = PipelineKernel(
            initial, retain_history=False, probe=probe
        )
        ckpt: dict[int, frozenset[str]] = {}

        # --- mutable runtime state
        schedule: Schedule | None = initial
        used: frozenset[str] = frozenset(initial.used_processors())
        failed_cur: set[str] = set()  # failures charged against `schedule`
        # globally down processors (repairs/joins remove): pool members not
        # yet in the schedule's platform (elastic spares) start dead, as do
        # the trace's initially_down processors.
        dead: set[str] = {
            n for n in platform0.processor_names if n not in initial.platform
        } | set(self.fault_trace.initially_down)
        next_j = 0  # next dataset index to place
        next_slot = 0.0  # earliest admission instant (one per effective period)
        admit_period = _effective_period(initial)
        rebuilding = False
        rebuild_done = _INF
        down_since: float | None = None
        downtime = 0.0
        rebuilds = 0
        aborted = False
        abort_time = _INF
        pending: dict[int, float] = {}  # admitted, in flight: dataset -> release

        # --- admission window: data sets admitted per control-loop pass.
        # Without a cap the zero-fault stream is admitted in one go and the
        # kernel heap holds every release event of the stream at once — on
        # 10⁵-dataset streams the heap's log factor (and its memory) then
        # grows with the stream instead of the pipeline depth.  The window is
        # control flow only — the admission policy sees the same on_release
        # calls in the same order with the same arguments and the kernel
        # processes the same events, so traces are bit-identical for any
        # window size.
        window = steady.DEFAULT_WINDOW
        # --- steady-state fast forward (see repro.sim.steady): the detector
        # watches quiet window boundaries; ff_clean tracks whether every
        # release since the last boundary was admitted at its own instant;
        # ff_window buffers the boundary-to-boundary drained completions
        # (the synthesis template once the detector locks).
        ff_detector: steady.SteadyStateDetector | None = None
        ff_clean = True
        ff_window: list[tuple[int, float]] = []

        def ff_bind() -> None:
            """(Re)attach the detector to the current kernel — every
            (re)built schedule needs its own exactness certificate."""
            nonlocal ff_detector, ff_clean
            ff_detector = None
            ff_clean = True
            ff_window.clear()
            if kernel is None or not ff_eligible:
                return
            grid_exp = steady.certified_grid(kernel, period, horizon)
            if grid_exp is not None:
                ff_detector = steady.SteadyStateDetector(kernel, grid_exp, period, window)

        def ff_reset() -> None:
            """Forget detector history across any control event: the
            periodicity proof only covers undisturbed evolution."""
            nonlocal ff_clean
            if ff_detector is not None:
                ff_detector.reset()
                ff_clean = True
                ff_window.clear()

        def record_completions(completions) -> None:
            if ff_detector is not None and completions:
                ff_window.extend(completions)
            for j, t in completions:
                r = pending.pop(j)
                records[j] = (j, r, t, "completed")
                if probe is not None:
                    probe.on_dataset(j, r, t, "completed")

        def lose(j: int, r: float, status: str) -> None:
            nonlocal ff_clean
            ff_clean = False
            records[j] = (j, r, None, status)
            if probe is not None:
                probe.on_dataset(j, r, None, status)

        def note(event: RuntimeEvent) -> None:
            log.append(event)
            if probe is not None:
                probe.on_runtime_event(event)

        def admit(j: int, release: float, admit_time: float) -> None:
            nonlocal next_slot, ff_clean
            if admit_time != release:
                ff_clean = False  # throttled/deferred slot: not a quiet window
            pending[j] = release
            kernel.admit(j, admit_time)
            next_slot = admit_time + admit_period

        def scan_releases(end: float) -> None:
            """Decide the fate of data sets released before *end*."""
            nonlocal next_j
            while next_j < num_datasets and releases[next_j] < end - tol:
                j, r = next_j, releases[next_j]
                next_j += 1
                if aborted:
                    lose(j, r, "lost-abort")
                    continue
                verb, arg = admission.on_release(
                    j,
                    r,
                    rebuilding=rebuilding,
                    next_slot=next_slot,
                    admit_period=admit_period,
                    tol=tol,
                )
                if verb == DROP:
                    lose(j, r, arg)
                elif verb == ADMIT:
                    admit(j, r, arg)
                # "defer": buffered inside the admission policy

        def drain_admission() -> None:
            for j, r in admission.drain():
                admit(j, r, max(r, next_slot))

        def ff_boundary(t_base: float, limit: float) -> None:
            """One quiet window boundary: fingerprint, and jump when locked.

            *limit* bounds the landing instant (the next fault arrival or
            the horizon); :func:`repro.sim.steady.leap` synthesizes the
            skipped records in closed form.
            """
            nonlocal next_j, next_slot, ff_clean
            template, clean = tuple(ff_window), ff_clean
            ff_window.clear()
            ff_clean = True
            m, skipped = steady.leap(
                ff_detector, t_base, next_j, clean, template, num_datasets, limit
            )
            if m < 1:
                return
            for j, t in skipped:
                assert records[j] is None
                records[j] = (j, releases[j], t, "completed")
            if probe is not None:
                bulk: dict[float, int] = {}
                for j, t in template:
                    lat = t - releases[j]
                    bulk[lat] = bulk.get(lat, 0) + m
                probe.on_fast_forward(
                    (t_base, t_base + m * ff_detector.delta), m * window, tuple(bulk.items())
                )
            shift = m * window
            live = sorted(pending)
            pending.clear()
            for j in live:
                pending[j + shift] = releases[j + shift]
            next_j += shift
            next_slot = releases[next_j - 1] + admit_period

        def start_rebuild(now: float, kind: str, processor: str | None) -> None:
            nonlocal rebuilding, rebuild_done, down_since, kernel
            rebuilding = True
            down_since = now
            rebuild_done = now + self.rebuild_overhead * period
            note(RuntimeEvent(now, kind, processor))
            # Checkpoint the in-flight data sets and abandon the dead
            # pipeline: every task output produced so far is in stable
            # storage and will be replayed into the rebuilt schedule.
            for j in pending:
                ckpt[j] = kernel.completed_tasks(j)
            kernel = None

        def abort(now: float, reason: str) -> None:
            nonlocal aborted, schedule, abort_time, kernel
            aborted = True
            schedule = None
            abort_time = now
            note(RuntimeEvent(now, "abort", None, reason))
            kernel = None
            ckpt.clear()
            ff_bind()  # no kernel left: detaches the detector
            for j, r in admission.drain():
                lose(j, r, "lost-abort")
            for j, r in pending.items():
                lose(j, r, "lost-abort")
            pending.clear()

        ff_bind()
        i = 0
        while True:
            next_fault = fault_events[i].time if i < len(fault_events) else _INF
            now = min(next_fault, rebuild_done, horizon)
            if next_j + window < num_datasets:
                now = min(now, releases[next_j + window])
            scan_releases(now)
            if now >= horizon:
                break  # the final drain runs after the loop
            if kernel is not None:
                record_completions(kernel.run_until(now))
                if probe is not None:
                    probe.on_gauges(now, kernel.live_datasets, kernel.evicted_datasets)
            if now < rebuild_done and now < next_fault:
                # window boundary only: admit + advance, no control event —
                # exactly the quiet cadence the steady-state detector watches
                if ff_detector is not None and not rebuilding and not aborted:
                    ff_boundary(now, min(next_fault, horizon))
                continue

            if rebuilding and rebuild_done <= next_fault:
                # ------------------------------------------------ rebuild done
                rebuilding = False
                rebuild_done = _INF
                downtime += now - down_since
                if probe is not None:
                    probe.on_span("rebuild", down_since, now)
                down_since = None
                rebuilds += 1
                survivors = [p for p in platform0.processor_names if p not in dead]
                if not survivors:
                    abort(now, "no surviving processor")
                else:
                    target_eps = min(initial.epsilon, len(survivors) - 1)
                    try:
                        schedule = self.policy.reschedule(
                            graph,
                            platform0.subset(survivors),
                            period,
                            target_eps,
                            previous=schedule or initial,
                        )
                    except SchedulingError as exc:
                        abort(now, f"reschedule failed: {exc}")
                    else:
                        used = frozenset(schedule.used_processors())
                        failed_cur = set()
                        admit_period = _effective_period(schedule)
                        next_slot = now
                        kernel = PipelineKernel(
                            schedule, retain_history=False, probe=probe
                        )
                        for j in pending:
                            kernel.admit_restored(j, now, ckpt.pop(j, ()))
                        drain_admission()
                        note(
                            RuntimeEvent(
                                now,
                                "rebuild-complete",
                                None,
                                f"{len(survivors)} survivors, epsilon={schedule.epsilon}, "
                                f"period={schedule.period:g}",
                            )
                        )
                        ff_bind()  # fresh kernel: re-certify and re-warm
                continue

            event = fault_events[i]
            i += 1
            ff_reset()  # any control event invalidates the periodicity proof
            if event.is_crash:
                if event.processor in dead:
                    continue
                dead.add(event.processor)
                if aborted:
                    continue
                if rebuilding:
                    # Restart the rebuild clock: the survivor set just changed.
                    rebuild_done = now + self.rebuild_overhead * period
                    note(RuntimeEvent(now, "crash-during-rebuild", event.processor))
                    continue
                if event.processor not in used:
                    note(RuntimeEvent(now, "crash-unused", event.processor))
                    continue
                failed_cur.add(event.processor)
                valid = valid_replicas_under_failures(schedule, failed_cur)
                survives = all(valid[t] for t in graph.exit_tasks())
                within_guarantee = len(failed_cur) <= schedule.epsilon
                if survives and (within_guarantee or not self.rebuild_beyond_epsilon):
                    note(
                        RuntimeEvent(
                            now,
                            "crash-tolerated",
                            event.processor,
                            f"{len(failed_cur)}/{schedule.epsilon} crashes absorbed",
                        )
                    )
                    kernel.crash(event.processor)
                else:
                    start_rebuild(now, "crash-rebuild", event.processor)
            elif event.is_join:
                # A join adds capacity (an elastic spare, or a preempted spot
                # node returning): unlike a repair it always probes whether a
                # rebuild onto the enlarged platform pays for its downtime —
                # even when the current schedule is not degraded.
                dead.discard(event.processor)
                note(RuntimeEvent(now, "join", event.processor))
                if not rebuilding and not aborted:
                    improves, why = self._repair_improves(
                        schedule, failed_cur, admit_period, dead, graph, platform0,
                        period, initial, require_degraded=False,
                    )
                    if improves:
                        start_rebuild(now, "join-rebuild", event.processor)
                    else:
                        note(
                            RuntimeEvent(now, "join-rebuild-skipped", event.processor, why)
                        )
            else:  # repair
                dead.discard(event.processor)
                note(RuntimeEvent(now, "repair", event.processor))
                if self.rebuild_on_repair and not rebuilding and not aborted:
                    improves, why = self._repair_improves(
                        schedule, failed_cur, admit_period, dead, graph, platform0,
                        period, initial,
                    )
                    if improves:
                        start_rebuild(now, "repair-rebuild", event.processor)
                    else:
                        note(
                            RuntimeEvent(now, "repair-rebuild-skipped", event.processor, why)
                        )

        if rebuilding and down_since is not None:
            downtime += horizon - down_since
            if probe is not None:
                probe.on_span("rebuild", down_since, horizon)
        if aborted and abort_time < horizon:
            # An aborted stream accepts nothing for the rest of the horizon.
            downtime += horizon - abort_time
            if probe is not None:
                probe.on_span("abort", abort_time, horizon)

        if kernel is not None:
            record_completions(kernel.run_to_completion())
            if probe is not None:
                probe.on_gauges(horizon, kernel.live_datasets, kernel.evicted_datasets)
        if pending:
            # The data plane was abandoned mid-rebuild and the horizon ended
            # before a new schedule could replay the checkpointed data sets.
            for j, r in pending.items():
                lose(j, r, "lost-downtime")
            pending.clear()
        for j, r in admission.drain():
            lose(j, r, "lost-downtime")

        assert all(r is not None for r in records)
        return RuntimeTrace(
            records=tuple(DatasetRecord(*r) for r in records),
            events=tuple(log),
            period=period,
            horizon=horizon,
            num_rebuilds=rebuilds,
            downtime=downtime,
            aborted=aborted,
            final_alive=tuple(p for p in platform0.processor_names if p not in dead),
            policy=self.policy.name,
            admission=admission.name,
        )

    # ------------------------------------------------------------- repair probe
    def _repair_improves(
        self, schedule, failed_cur, admit_period, dead, graph, platform0, period, initial,
        require_degraded: bool = True,
    ) -> tuple[bool, str]:
        """Anticipatory ``rebuild_on_repair`` probe: is a rebuild worth downtime?

        Runs the rescheduling policy *speculatively* (no downtime charged) on
        the repaired platform and commits to a real rebuild only when the
        candidate improves the achievable admission period or the resilience
        margin left by the crashes charged against the current schedule.

        With ``require_degraded=False`` (join events) the speculative
        reschedule runs even when the current schedule is healthy — added
        capacity can still shorten the achievable period.
        """
        degraded = (
            bool(failed_cur)
            or admit_period > period * (1 + 1e-6)
            or schedule.epsilon < initial.epsilon
        )
        if require_degraded and not degraded:
            return False, "current schedule already meets the original period and resilience"
        survivors = [p for p in platform0.processor_names if p not in dead]
        target_eps = min(initial.epsilon, len(survivors) - 1)
        try:
            candidate = self.policy.reschedule(
                graph, platform0.subset(survivors), period, target_eps, previous=schedule
            )
        except SchedulingError:
            return False, "no feasible schedule on the repaired platform"
        cand_period = _effective_period(candidate)
        margin = schedule.epsilon - len(failed_cur)
        if cand_period < admit_period * (1 - 1e-9):
            return True, f"period {admit_period:g} -> {cand_period:g}"
        if cand_period <= admit_period * (1 + 1e-9) and candidate.epsilon > margin:
            return True, f"resilience margin {margin} -> {candidate.epsilon}"
        return False, "candidate schedule is no better than the current one"


def run_online(
    schedule: Schedule,
    fault_trace: FaultTrace | Iterable[FaultEvent],
    num_datasets: int = 100,
    policy: str | ReschedulePolicy = "rltf",
    rebuild_overhead: float = 1.0,
    admission: str | AdmissionPolicy = "shed",
    probe=None,
    fast_forward: bool = True,
    platform=None,
) -> RuntimeTrace:
    """Convenience wrapper: run *schedule* online through *fault_trace*."""
    runtime = OnlineRuntime(
        schedule,
        fault_trace,
        policy=policy,
        rebuild_overhead=rebuild_overhead,
        admission=admission,
        probe=probe,
        fast_forward=fast_forward,
        platform=platform,
    )
    return runtime.run(num_datasets)
