"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import bisect
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ltf import ltf_schedule
from repro.core.rltf import rltf_schedule
from repro.exceptions import SchedulingError
from repro.graph.analysis import bottom_levels, critical_path_length, granularity, top_levels
from repro.graph.generator import random_layered_dag, random_series_parallel
from repro.platform.builders import heterogeneous_platform, homogeneous_platform
from repro.schedule.metrics import communication_count, latency_upper_bound
from repro.schedule.stages import compute_stages, num_stages
from repro.schedule.validation import check_resilience, validate_schedule
from repro.utils.intervals import Timeline, earliest_common_slot

# Keep hypothesis examples modest: each example builds graphs and schedules.
SLOW = settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
FAST = settings(max_examples=50, deadline=None)


# --------------------------------------------------------------------- timeline
@FAST
@given(
    reservations=st.lists(
        st.tuples(st.floats(0, 50), st.floats(0.1, 5)), min_size=0, max_size=15
    ),
    ready=st.floats(0, 60),
    duration=st.floats(0.1, 5),
)
def test_timeline_earliest_slot_is_free_and_after_ready(reservations, ready, duration):
    tl = Timeline()
    for start, dur in reservations:
        if tl.is_free(start, dur):
            tl.reserve(start, dur)
    slot = tl.earliest_slot(ready, duration)
    assert slot >= ready
    assert tl.is_free(slot, duration)


@FAST
@given(
    reservations=st.lists(
        st.tuples(st.floats(0, 50), st.floats(0.1, 5)), min_size=0, max_size=15
    )
)
def test_timeline_busy_time_is_sum_of_reserved_durations(reservations):
    tl = Timeline()
    total = 0.0
    for start, dur in reservations:
        if tl.is_free(start, dur):
            tl.reserve(start, dur)
            total += dur
    assert tl.busy_time == pytest.approx(total)


class _ReferenceTimeline:
    """The original timeline algorithm over a sorted list of ``(start, end)``
    tuples: the oracle the flat-list :class:`Timeline` must agree with."""

    EPS = 1e-9

    def __init__(self):
        self.spans: list[tuple[float, float]] = []

    @staticmethod
    def _check(start, end):
        if math.isnan(start) or math.isnan(end):
            raise ValueError("interval endpoints must not be NaN")
        if end < start - _ReferenceTimeline.EPS:
            raise ValueError(f"interval end {end} precedes start {start}")

    def is_free(self, start, duration):
        if duration <= self.EPS:
            return True
        end = start + duration
        self._check(start, end)
        idx = bisect.bisect_left([s for s, _ in self.spans], start) - 1
        for s, e in self.spans[max(idx, 0):]:
            if s >= end - self.EPS:
                break
            if s < end - self.EPS and start < e - self.EPS:
                return False
        return True

    def earliest_slot(self, ready, duration):
        if duration <= self.EPS:
            return ready
        candidate = ready
        for s, e in self.spans:
            if e <= candidate + self.EPS:
                continue
            if s >= candidate + duration - self.EPS:
                break
            candidate = max(candidate, e)
        return candidate

    def reserve(self, start, duration):
        self._check(start, start + duration)
        if duration <= self.EPS:
            return
        if not self.is_free(start, duration):
            raise ValueError(f"cannot reserve [{start:g}, {start + duration:g}): resource busy")
        idx = bisect.bisect_left([s for s, _ in self.spans], start)
        self.spans.insert(idx, (start, start + duration))


def _reference_common_slot(timelines, ready, duration):
    if duration <= _ReferenceTimeline.EPS or not timelines:
        return ready
    candidate = ready
    while True:
        moved = False
        for tl in timelines:
            slot = tl.earliest_slot(candidate, duration)
            if slot > candidate + _ReferenceTimeline.EPS:
                candidate = slot
                moved = True
        if not moved:
            return candidate


def _outcome(call, *args):
    """The result of a call, or the message of the ValueError it raises."""
    try:
        return repr(call(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


# Endpoints sit on a half-unit grid or on an endpoint already stored, offset
# by less than, about and more than the 1e-9 comparison tolerance, so the
# boundary case of every comparison is a common case.
_JITTER = st.sampled_from([0.0, 0.0, 1e-10, -1e-10, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9, -2e-9])
_instants = (
    st.builds(lambda base, jitter: base / 2 + jitter, st.integers(0, 12), _JITTER)
    | st.floats(0, 10)
    | st.just(math.nan)
)
_durations = (
    st.builds(lambda base, jitter: base / 2 + jitter, st.integers(1, 5), _JITTER)
    | st.sampled_from([0.0, 1e-10, 1e-9, 2e-9, -1e-10, -1.0, math.nan])
    | st.floats(1e-3, 4)
)


#: ``None``, or ``(index into the stored endpoints, jitter)``
_anchors = st.none() | st.tuples(st.integers(0, 79), _JITTER)
_timeline_ops = st.lists(
    st.tuples(st.integers(0, 1), st.booleans(), _instants, _anchors, _durations, _anchors),
    min_size=10,
    max_size=40,
)


def _span(spans, instant, start_anchor, duration, end_anchor):
    """``(instant, duration)``, re-aimed to start or end within a jitter of a
    stored endpoint when an anchor is given."""
    endpoints = [x for span in spans for x in span]
    if endpoints and start_anchor is not None:
        instant = endpoints[start_anchor[0] % len(endpoints)] + start_anchor[1]
    if endpoints and end_anchor is not None:
        duration = endpoints[end_anchor[0] % len(endpoints)] - instant + end_anchor[1]
    return instant, duration


@settings(max_examples=60, deadline=None)
@given(ops=_timeline_ops)
def test_timeline_matches_reference_model(ops):
    timelines = [Timeline(), Timeline()]
    references = [_ReferenceTimeline(), _ReferenceTimeline()]
    for n, (which, is_reserve, *span) in enumerate(ops):
        tl, ref = timelines[which], references[which]
        instant, duration = _span(ref.spans, *span)
        if is_reserve:
            assert _outcome(tl.reserve, instant, duration, n) == _outcome(
                ref.reserve, instant, duration
            )
            continue
        assert _outcome(tl.earliest_slot, instant, duration) == _outcome(
            ref.earliest_slot, instant, duration
        )
        assert _outcome(tl.is_free, instant, duration) == _outcome(
            ref.is_free, instant, duration
        )
        assert _outcome(earliest_common_slot, timelines, instant, duration) == _outcome(
            _reference_common_slot, references, instant, duration
        )
    for tl, ref in zip(timelines, references):
        stored = tl.intervals
        assert [(iv.start, iv.end) for iv in stored] == ref.spans
        assert len(tl) == len(ref.spans)
        # Interval equality ignores labels: compare them separately
        rebuilt = Timeline(stored).intervals
        assert rebuilt == stored
        assert [iv.label for iv in rebuilt] == [iv.label for iv in stored]
        # a copy and its original evolve independently
        clone = tl.copy()
        clone.reserve(100.0, 1.0, "clone-only")
        tl.reserve(200.0, 1.0, "original-only")
        assert clone.intervals == stored + (clone.intervals[-1],)
        assert tl.intervals == stored + (tl.intervals[-1],)
        assert clone.intervals[-1].label == "clone-only"
        assert tl.intervals[-1].label == "original-only"


# ------------------------------------------------------------------------ graph
graph_strategy = st.builds(
    lambda n, seed: random_layered_dag(num_tasks=n, seed=seed),
    n=st.integers(5, 40),
    seed=st.integers(0, 10_000),
)


@SLOW
@given(graph=graph_strategy)
def test_topological_order_is_consistent(graph):
    order = graph.topological_order()
    assert sorted(order) == sorted(graph.task_names)
    position = {t: i for i, t in enumerate(order)}
    for src, dst, _ in graph.edges():
        assert position[src] < position[dst]


@SLOW
@given(graph=graph_strategy)
def test_levels_are_consistent_with_critical_path(graph):
    tl, bl = top_levels(graph), bottom_levels(graph)
    cp = critical_path_length(graph)
    assert all(tl[t] + bl[t] <= cp + 1e-6 for t in graph.task_names)
    assert any(math.isclose(tl[t] + bl[t], cp, rel_tol=1e-9) for t in graph.task_names)


@SLOW
@given(graph=graph_strategy, factor=st.floats(0.1, 10))
def test_granularity_scales_linearly_with_work(graph, factor):
    if graph.num_edges == 0:
        return
    base = granularity(graph)
    scaled = granularity(graph.scaled(work_factor=factor))
    assert scaled == pytest.approx(base * factor, rel=1e-6)


@SLOW
@given(graph=graph_strategy)
def test_reversed_graph_is_an_involution(graph):
    double = graph.reversed().reversed()
    assert sorted(double.edges()) == sorted(graph.edges())
    assert double.entry_tasks() == graph.entry_tasks()


@SLOW
@given(depth=st.integers(0, 5), seed=st.integers(0, 1000))
def test_series_parallel_has_two_terminals(depth, seed):
    graph = random_series_parallel(depth=depth, seed=seed)
    assert len(graph.entry_tasks()) == 1
    assert len(graph.exit_tasks()) == 1
    graph.validate()


# --------------------------------------------------------------------- schedules
workload_strategy = st.builds(
    lambda n, seed: (random_layered_dag(num_tasks=n, seed=seed), seed),
    n=st.integers(8, 25),
    seed=st.integers(0, 5_000),
)


def _generous_period(graph, platform, epsilon):
    compute = (epsilon + 1) * graph.total_work * platform.mean_inverse_speed / platform.num_processors
    comm = (
        (epsilon + 1)
        * sum(v for _, _, v in graph.edges())
        * platform.mean_inverse_bandwidth
        / platform.num_processors
    )
    return 4.0 * max(compute, comm, 1e-6) + max(t.work for t in graph.tasks) / platform.min_speed


@SLOW
@given(data=workload_strategy, epsilon=st.integers(0, 2))
def test_ltf_schedules_are_structurally_valid(data, epsilon):
    graph, seed = data
    platform = heterogeneous_platform(8, seed=seed)
    period = _generous_period(graph, platform, epsilon)
    try:
        schedule = ltf_schedule(graph, platform, period=period, epsilon=epsilon)
    except SchedulingError:
        return  # infeasible instances are allowed to fail explicitly
    validate_schedule(schedule)
    assert schedule.is_complete()
    # every task has exactly epsilon + 1 replicas on distinct processors
    for task in graph.task_names:
        procs = schedule.processors_of_task(task)
        assert len(procs) == epsilon + 1
        assert len(set(procs)) == epsilon + 1
    # the stage recursion never decreases along recorded communications
    stages = compute_stages(schedule)
    for event in schedule.comm_events:
        assert stages[event.destination] >= stages[event.source]


@SLOW
@given(data=workload_strategy)
def test_rltf_latency_never_worse_than_bound_formula(data):
    graph, seed = data
    platform = heterogeneous_platform(8, seed=seed)
    period = _generous_period(graph, platform, 1)
    try:
        schedule = rltf_schedule(graph, platform, period=period, epsilon=1)
    except SchedulingError:
        return
    s = num_stages(schedule)
    assert latency_upper_bound(schedule) == pytest.approx((2 * s - 1) * period)
    assert 1 <= s <= graph.num_tasks


@SLOW
@given(data=workload_strategy, epsilon=st.integers(1, 2))
def test_strict_resilience_guarantees_survival(data, epsilon):
    """With strict_resilience=True, any c <= epsilon crashes leave every task alive."""
    graph, seed = data
    platform = homogeneous_platform(8)
    period = _generous_period(graph, platform, epsilon)
    try:
        schedule = ltf_schedule(
            graph, platform, period=period, epsilon=epsilon, strict_resilience=True
        )
    except SchedulingError:
        return
    check_resilience(schedule, exhaustive_limit=100, samples=60, seed=seed)


@SLOW
@given(data=workload_strategy)
def test_communication_count_between_chain_and_full_replication(data):
    graph, seed = data
    platform = heterogeneous_platform(8, seed=seed)
    period = _generous_period(graph, platform, 1)
    try:
        schedule = ltf_schedule(graph, platform, period=period, epsilon=1)
    except SchedulingError:
        return
    total = communication_count(schedule, include_local=True)
    assert 2 * graph.num_edges <= total <= 4 * graph.num_edges
