"""The one-pass trace summary equals the trace's own properties, bit for bit.

:func:`repro.runtime.trace.summarize_trace` walks the records once instead of
reading :class:`~repro.runtime.trace.RuntimeTrace`'s properties, each of
which re-walks them.  Every campaign statistic, cache payload and report is
built from the summary, so it must not differ from the properties in a
single bit — including the NaNs of traces with no completion and the key
order of ``lost_by_reason`` (JSON payloads serialize it in that order).
"""

from __future__ import annotations

import math
import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.runtime.trace import (
    DATASET_STATUSES,
    DatasetRecord,
    RuntimeEvent,
    RuntimeTrace,
    summarize_trace,
)

LOST = tuple(status for status in DATASET_STATUSES if status != "completed")
TIMES = st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False)


def _bits(value) -> bytes:
    return struct.pack("<d", value)


@st.composite
def traces(draw, completed=None):
    size = draw(st.integers(min_value=0, max_value=40))
    statuses = draw(
        st.lists(
            st.sampled_from(DATASET_STATUSES) if completed is None else st.just(completed),
            min_size=size,
            max_size=size,
        )
    )
    records = []
    for index, status in enumerate(statuses):
        release = draw(TIMES)
        if status == "completed":
            # completions need not be ordered: the summary must not assume it
            completion = release + draw(TIMES)
        else:
            completion = None
        records.append(DatasetRecord(index, release, completion, status))
    kinds = st.sampled_from(
        ("crash-tolerated", "crash-rebuild", "rebuild-complete", "repair", "abort")
    )
    events = draw(st.lists(st.builds(RuntimeEvent, TIMES, kinds), max_size=6))
    return RuntimeTrace(
        records=tuple(records),
        events=tuple(events),
        period=draw(st.floats(min_value=0.1, max_value=1e4)),
        horizon=draw(st.floats(min_value=0.0, max_value=1e8)),
        num_rebuilds=draw(st.integers(min_value=0, max_value=5)),
        downtime=draw(st.floats(min_value=0.0, max_value=1e6)),
        aborted=draw(st.booleans()),
        final_alive=("P0",),
        policy="rltf",
    )


def _trace(*records: DatasetRecord) -> RuntimeTrace:
    return RuntimeTrace(
        records=records, events=(), period=2.5, horizon=100.0, num_rebuilds=0,
        downtime=0.0, aborted=False, final_alive=("P0",), policy="rltf",
    )


def _check(trace: RuntimeTrace) -> None:
    summary = summarize_trace(trace)
    assert summary.num_datasets == trace.num_datasets
    assert summary.completed_count == trace.completed_count
    assert summary.num_rebuilds == trace.num_rebuilds
    assert summary.aborted == trace.aborted
    assert summary.crashes == sum(1 for e in trace.events if e.kind.startswith("crash"))
    for name in ("downtime", "availability", "loss_rate", "mean_latency",
                 "achieved_period", "max_latency"):
        assert _bits(getattr(summary, name)) == _bits(getattr(trace, name)), name
    assert list(summary.lost_by_reason.items()) == list(trace.lost_by_reason().items())
    assert summary.latency_histogram == trace.latency_histogram().as_sparse()


@settings(max_examples=300, deadline=None)
@given(traces())
@example(_trace())
@example(_trace(DatasetRecord(0, 1.0, 4.5, "completed")))
@example(_trace(DatasetRecord(0, 1.0, None, "shed"), DatasetRecord(1, 2.0, None, "lost-abort")))
def test_summary_equals_trace_properties(trace):
    _check(trace)


@settings(max_examples=50, deadline=None)
@given(traces(completed="completed"))
def test_summary_of_all_completed_traces(trace):
    _check(trace)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_summary_of_all_lost_traces(data):
    trace = data.draw(traces(completed=data.draw(st.sampled_from(LOST))))
    _check(trace)
    assert math.isnan(summarize_trace(trace).mean_latency)
