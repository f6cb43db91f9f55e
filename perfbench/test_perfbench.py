"""Fast tests of the benchmark's own helpers: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import os
import time

import pytest

import speed
import workloads
from measure import Ledger, Timing, needed_samples, percentile, samples_beyond, supported_tail
from tracing import Recorder, Span, layer_metrics, self_seconds


# ------------------------------------------------- percentile and sample count
def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile([7.0], 90) == 7.0


def test_tail_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 90.0) == 10
    assert samples_beyond(99, 90.0) == 9
    assert needed_samples(90.0) == 100
    assert needed_samples(95.0) == 200
    assert needed_samples(99.0) == 1000
    assert supported_tail(99) is None
    assert supported_tail(100) == 90.0
    assert supported_tail(250) == 95.0
    assert supported_tail(1000) == 99.0


def test_timing_reports_only_a_supported_tail():
    few = Timing.of(range(1, 51))
    assert (few.count, few.tail_q, few.tail) == (50, None, None)
    assert few.p50 == pytest.approx(25.5)
    many = Timing.of(range(1, 1001), candidates=(90.0,))
    assert many.tail_q == 90.0
    assert many.tail == pytest.approx(percentile(list(range(1, 1001)), 90.0))
    assert "n=1000" in many.describe("ms")


# ------------------------------------------------------------- span self time
def _span(id, start, end, parent=None, name="x", pid=1, value=None, error=False):
    return Span(pid, id, parent, name, start, end, error, value)


def test_self_time_subtracts_the_union_of_children():
    parent = _span(0, 0.0, 10.0)
    children = [_span(1, 1.0, 3.0, 0), _span(2, 2.0, 5.0, 0), _span(3, 8.0, 12.0, 0)]
    # covered: [1, 5] and [8, 10] -> 6 of 10
    assert self_seconds(parent, children) == pytest.approx(4.0)
    assert self_seconds(parent, []) == pytest.approx(10.0)
    nested = [_span(1, 0.0, 10.0, 0), _span(2, 0.0, 10.0, 0)]
    assert self_seconds(parent, nested) == pytest.approx(0.0)


def test_layer_metrics_attribute_ladder_attempts_and_self_time():
    recorder = Recorder()
    recorder.spans = [
        _span(0, 0.0, 10.0, name="scenario.build_schedule"),
        _span(1, 0.0, 4.0, 0, name="core.rltf", error=True),
        _span(2, 4.0, 9.0, 0, name="core.ltf"),
        _span(3, 20.0, 23.0, name="core.rltf"),  # a rebuild: not a ladder attempt
        _span(4, 30.0, 32.0, name="runtime.run"),
        _span(5, 30.5, 31.0, 4, name="core.rltf"),
        _span(6, 40.0, 40.002, name="cache.get", value=1),
        _span(7, 41.0, 41.004, name="cache.get", value=0),
        _span(8, 42.0, 42.010, name="cache.put", value=300),
    ]
    recorder.counters.update({"kernel.events.total": 300, "datasets.completed": 90,
                              "datasets.lost-shed": 10, "runtime.fast_forward.datasets": 25})
    metrics = layer_metrics(recorder, overhead_frac=0.05)
    assert metrics["scenario.ladder_attempts"] == 2
    assert metrics["scenario.build_schedule_self_s"] == pytest.approx(1.0)
    assert metrics["core.rltf_calls"] == 3
    assert metrics["core.ltf_calls"] == 1
    assert metrics["runtime.run_self_s"] == pytest.approx(1.5)
    assert metrics["sim.kernel.events_per_dataset"] == pytest.approx(3.0)
    assert metrics["sim.kernel.events_per_s"] == pytest.approx(200.0)
    assert metrics["sim.steady.ff_dataset_frac"] == pytest.approx(0.25)
    assert (metrics["cache.hits"], metrics["cache.misses"]) == (1, 1)
    assert metrics["cache.get_ms_p50"] == pytest.approx(3.0)
    assert metrics["cache.bytes_written"] == 300
    assert metrics["resilience.pool_s"] == 0
    assert metrics["obs.trace_overhead_frac"] == 0.05


def test_recorder_wrap_nests_spans_and_marks_errors():
    recorder = Recorder()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x * 2

    traced_inner = recorder.wrap("inner", inner)
    outer = recorder.wrap("outer", lambda x: traced_inner(x) + 1)
    assert outer(3) == 7
    with pytest.raises(ValueError):
        traced_inner(-1)
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    (outer_span,) = by_name["outer"]
    first, failed = by_name["inner"]
    assert first.parent == outer_span.id and outer_span.parent is None
    assert failed.error and failed.parent is None


# ------------------------------------------------------ scaling by core speed
def test_scaled_divides_by_the_mean_reference_time():
    nominal = speed.NOMINAL_S
    assert speed.SpeedProbe.scaled(1.0, [nominal, nominal]) == pytest.approx(1.0)
    # a core running the chunk at half speed took twice as long for the same work
    assert speed.SpeedProbe.scaled(2.0, [2 * nominal]) == pytest.approx(1.0)
    assert speed.SpeedProbe.scaled(3.0, [nominal, 2 * nominal, 3 * nominal]) == pytest.approx(1.5)


def test_reference_chunk_is_deterministic():
    assert speed.reference_chunk(500) == speed.reference_chunk(500)


def test_sample_until_samples_while_waiting_and_once_after():
    probe = speed.SpeedProbe(speed.all_cpus()[:1])
    answers = iter([False, False, True])
    waits = []

    def done(wait):
        waits.append(wait)
        return next(answers)

    samples = probe.sample_until(done)
    assert len(samples) == 3 and probe.samples == samples
    assert all(sample > 0 for sample in samples)
    assert waits == [speed.INTERVAL_S] * 3
    assert os.sched_getaffinity(0) == set(speed.all_cpus())


def test_ready_records_when_a_pipe_turns_readable_and_times_out():
    read_end, write_end = os.pipe()
    try:
        ready = workloads._Ready(read_end, time.perf_counter() + 60)
        assert not ready(0.0) and ready.at is None
        os.write(write_end, b"x\n")
        assert ready(1.0) and ready.at is not None
        expired = workloads._Ready(read_end, time.perf_counter() - 1)
        os.read(read_end, 2)
        with pytest.raises(TimeoutError):
            expired(0.0)
    finally:
        os.close(read_end)
        os.close(write_end)


# ----------------------------------------------------------- failed accounting
def test_ledger_counts_every_operation_once():
    ledger = Ledger()
    ledger.ok()
    assert ledger.check(True, "fine")
    assert not ledger.check(False, "replay re-executed")
    ledger.fail("timed out")
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert ledger.failed_frac == pytest.approx(0.5)
    assert ledger.reasons == ["replay re-executed", "timed out"]
    assert Ledger().failed_frac == 0.0


def test_suite_table_ignores_only_the_source_column():
    def output(source):
        return "\n".join([
            "cache: ...", "", "grid points",
            "generator | loss rate | source",
            "----------+-----------+-------",
            f"    video |      0.00 |    {source}",
            "", "other table",
        ])

    assert workloads._result_table(output("run")) == workloads._result_table(output("cache"))
    assert workloads._result_table(output("run")) == [
        "generator | loss rate", "----------+-----------", "    video |      0.00",
    ]
