"""Unit tests of the shared discrete-event simulation kernel (repro.sim)."""

import pytest

from repro.core.ltf import ltf_schedule
from repro.exceptions import ScheduleError
from repro.failures.simulator import StreamingSimulator
from repro.graph.examples import figure2_graph
from repro.platform.builders import figure2_platform
from repro.sim.events import EventQueue
from repro.sim.kernel import PipelineKernel


@pytest.fixture(scope="module")
def strict():
    """Figure 2 workflow, ε = 1, kill-set-disjoint replicas (strict resilience)."""
    return ltf_schedule(
        figure2_graph(), figure2_platform(10), throughput=0.05, epsilon=1,
        strict_resilience=True,
    )


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(3.0, 0, 1)
        q.push(1.0, 1, 2)
        q.push(2.0, 2, 3)
        assert [q.pop()[0] for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_fifo_on_ties(self):
        q = EventQueue()
        for k in range(5):
            q.push(1.0, 0, k)
        assert [q.pop()[2] for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_kind_never_participates_in_ordering(self):
        # (time, seq) is always a unique sort key: same-time events pop in
        # push order even when their kinds sort the other way
        q = EventQueue()
        q.push(1.0, 9, "first")
        q.push(1.0, 0, "second")
        assert [q.pop()[2] for _ in range(2)] == ["first", "second"]

    def test_clock_tracks_last_pop(self):
        q = EventQueue()
        q.push(4.5, 0, None)
        assert q.now == 0.0
        q.pop()
        assert q.now == 4.5
        assert not q


class TestBatchKernel:
    def test_batch_matches_streaming_simulator(self, strict):
        n = 12
        releases = [j * strict.period for j in range(n)]
        kernel = PipelineKernel(strict)
        kernel.admit_window(0, releases, n)
        kernel.run_to_completion()
        sim = StreamingSimulator(strict).run(n)
        assert tuple(kernel.completions[j] for j in range(n)) == sim.completion_times

    def test_incremental_admission_matches_batch(self, strict):
        n = 10
        releases = [j * strict.period for j in range(n)]
        batch = PipelineKernel(strict)
        batch.admit_window(0, releases, n)
        batch.run_to_completion()
        incremental = PipelineKernel(strict)
        for j, r in enumerate(releases):
            incremental.admit(j, r)
        incremental.run_to_completion()
        assert incremental.completions == batch.completions

    def test_run_until_is_progressive(self, strict):
        kernel = PipelineKernel(strict)
        kernel.admit_window(0, [j * strict.period for j in range(8)], 8)
        early = kernel.run_until(strict.period)
        assert all(t <= strict.period for _, t in early)
        rest = kernel.run_to_completion()
        done = dict(early) | dict(rest)
        assert sorted(done) == list(range(8))
        assert kernel.pending_datasets() == ()

    def test_double_admission_raises(self, strict):
        kernel = PipelineKernel(strict)
        kernel.admit(0, 0.0)
        with pytest.raises(ScheduleError):
            kernel.admit(0, 1.0)

    def test_incomplete_schedule_rejected(self, strict):
        from repro.schedule.schedule import Schedule

        incomplete = Schedule(strict.graph, strict.platform, period=20.0, epsilon=1)
        with pytest.raises(ScheduleError):
            PipelineKernel(incomplete)

    def test_exit_coverage_enforced(self, strict):
        used = strict.used_processors()
        with pytest.raises(ScheduleError):
            PipelineKernel(strict, failed=used)


class TestMidRunCrash:
    def test_tolerated_crash_mid_run_still_completes(self, strict):
        """ε = 1, strict resilience: killing one processor mid-run loses nothing."""
        victim = strict.used_processors()[0]
        n = 15
        kernel = PipelineKernel(strict)
        for j in range(n):
            kernel.admit(j, j * strict.period)
        crash_time = 4.5 * strict.period
        kernel.run_until(crash_time)
        kernel.crash(victim)
        kernel.run_to_completion()
        assert sorted(kernel.completions) == list(range(n))

    def test_crash_degrades_latency_of_in_flight_work(self, strict):
        victim = strict.used_processors()[0]
        n = 10
        baseline = PipelineKernel(strict)
        baseline.admit_window(0, [j * strict.period for j in range(n)], n)
        baseline.run_to_completion()
        crashed = PipelineKernel(strict)
        for j in range(n):
            crashed.admit(j, j * strict.period)
        crashed.run_until(2.5 * strict.period)
        crashed.crash(victim)
        crashed.run_to_completion()
        # nothing lost, and the crash really interleaved with the pipeline:
        # at least one in-flight data set completes at a different instant
        # (losing the victim changes both the compute and the port contention)
        assert sorted(crashed.completions) == list(range(n))
        assert any(
            crashed.completions[j] != baseline.completions[j] for j in range(n)
        )


class TestCheckpointRestore:
    def test_restored_outputs_are_not_recomputed(self, strict):
        probe = PipelineKernel(strict)
        probe.admit(0, 0.0)
        probe.run_to_completion()
        full_latency = probe.completions[0]

        done = probe.completed_tasks(0)
        assert done  # every task completed
        restore_at = 100.0
        restored = PipelineKernel(strict)
        # restore everything except the exit tasks: only they recompute
        partial = done - frozenset(strict.graph.exit_tasks())
        restored.admit_restored(0, restore_at, partial)
        restored.run_to_completion()
        assert restored.completions[0] - restore_at < full_latency

    def test_restore_with_no_checkpoint_is_plain_admission(self, strict):
        a = PipelineKernel(strict)
        a.admit(0, 5.0)
        a.run_to_completion()
        b = PipelineKernel(strict)
        b.admit_restored(0, 5.0, ())
        b.run_to_completion()
        assert a.completions == b.completions

    def test_completed_tasks_grow_monotonically(self, strict):
        kernel = PipelineKernel(strict)
        kernel.admit(0, 0.0)
        kernel.run_until(0.0)
        early = kernel.completed_tasks(0)
        kernel.run_to_completion()
        late = kernel.completed_tasks(0)
        assert early <= late
        assert late == frozenset(strict.graph.task_names)
