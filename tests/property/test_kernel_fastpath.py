"""Property tests of the kernel fast path (eviction + windowed admission).

The constant-memory kernel mode (``retain_history=False``) and windowed
admission (``admit_window``) are *pure optimizations*: every event is processed
identically, so the observable outputs — the drained completion sequences,
the set of data sets that never complete under a crash pattern, the
checkpoint contents of in-flight data sets — must be bit-for-bit equal to the
retaining kernel's across arbitrary fault injections.  The memory regression
test then pins down what the eviction buys: peak kernel memory bounded by the
pipeline depth, not the stream length.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ltf import ltf_schedule
from repro.exceptions import ScheduleError
from repro.graph.examples import figure2_graph
from repro.platform.builders import figure2_platform
from repro.sim.kernel import PipelineKernel

SLOW = settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])

_EPS1 = ltf_schedule(
    figure2_graph(), figure2_platform(10), throughput=0.05, epsilon=1,
    strict_resilience=True,
)


def _drive(kernel: PipelineKernel, num_datasets: int, crashes):
    """One deterministic script: interleaved admission, crashes, final drain.

    Returns everything observable: the concatenated drains (completion order
    and instants), the pending set at the end, and the checkpoint of every
    pending data set.
    """
    period = _EPS1.period
    crash_iter = sorted(crashes)
    drained = []
    for j in range(num_datasets):
        release = j * period
        while crash_iter and crash_iter[0][0] <= release:
            when, victim = crash_iter.pop(0)
            drained += kernel.run_until(when)
            kernel.crash(victim)
        kernel.admit(j, release)
        if j % 7 == 3:
            drained += kernel.run_until(release)
    for when, victim in crash_iter:
        drained += kernel.run_until(when)
        kernel.crash(victim)
    drained += kernel.run_to_completion()
    pending = kernel.pending_datasets()
    checkpoints = {j: kernel.completed_tasks(j) for j in pending}
    return drained, pending, checkpoints


@SLOW
@given(data=st.data(), num_datasets=st.integers(min_value=1, max_value=30))
def test_evicting_kernel_is_bit_identical_to_retaining(data, num_datasets):
    """retain_history=False ≡ retain_history=True under random fault traces."""
    used = sorted(_EPS1.used_processors())
    crashes = data.draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=float(num_datasets) * _EPS1.period),
                st.sampled_from(used),
            ),
            max_size=2,
            unique_by=lambda c: c[1],
        )
    )
    retained = _drive(PipelineKernel(_EPS1), num_datasets, crashes)
    evicting = _drive(
        PipelineKernel(_EPS1, retain_history=False), num_datasets, crashes
    )
    assert evicting == retained  # drains, pending sets and checkpoints


def _windowed_drain(kernel, releases, window):
    """Admit *releases* one window at a time, each ``run_until`` stopping
    just below the next window's first release; return every drain."""
    n = len(releases)
    drained = []
    j = 0
    while j < n:
        stop = min(j + window, n)
        kernel.admit_window(j, releases[j:stop], n)
        j = stop
        if j < n:
            drained += kernel.run_until(math.nextafter(releases[j], -math.inf))
    return drained + kernel.run_to_completion()


@SLOW
@given(
    gaps=st.lists(
        st.one_of(
            st.just(0.0),
            st.integers(min_value=1, max_value=40).map(float),
            st.floats(min_value=0.0, max_value=2.5 * _EPS1.period),
        ),
        min_size=1,
        max_size=40,
    ),
    window=st.integers(min_value=1, max_value=45),
)
def test_admit_window_is_window_size_invariant(gaps, window):
    """Any window size ≡ one-shot ``admit_window(0, releases, n)``: random
    non-decreasing releases with ties (integer gaps also tie releases with
    compute and transfer events), drains identical in both memory models."""
    releases = list(itertools.accumulate(gaps))
    n = len(releases)
    oneshot = PipelineKernel(_EPS1)
    oneshot.admit_window(0, releases, n)
    reference = oneshot.run_to_completion()
    assert sorted(d for d, _ in reference) == list(range(n))
    for retain_history in (True, False):
        kernel = PipelineKernel(_EPS1, retain_history=retain_history)
        assert _windowed_drain(kernel, releases, window) == reference


def test_admit_window_rejects_out_of_stream_windows():
    kernel = PipelineKernel(_EPS1)
    for start, releases, total in ((0, [], 4), (3, [0.0, 1.0], 4), (-1, [0.0], 4)):
        with pytest.raises(ScheduleError, match="outside stream"):
            kernel.admit_window(start, releases, total)
    kernel.admit_window(0, [0.0, 1.0], 4)
    with pytest.raises(ScheduleError, match="data set 1 was already admitted"):
        kernel.admit_window(1, [1.0], 4)


def _peak_memory(num_datasets: int, retain_history: bool) -> int:
    """Peak traced allocation of a windowed incremental run of *num_datasets*."""
    kernel = PipelineKernel(_EPS1, retain_history=retain_history)
    period = _EPS1.period
    tracemalloc.start()
    try:
        for j in range(num_datasets):
            kernel.admit(j, j * period)
            if j % 32 == 31:
                kernel.run_until(j * period)
        kernel.run_to_completion()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if not retain_history:
        assert kernel.evicted_datasets == num_datasets
        assert kernel.live_datasets == 0
    return peak


def test_eviction_bounds_peak_memory_sublinearly():
    """4× the stream must cost far less than 4× the memory (and the retaining
    kernel, whose state is the whole history, shows the linear growth the
    eviction removes)."""
    small, large = 400, 1600
    evict_small = _peak_memory(small, retain_history=False)
    evict_large = _peak_memory(large, retain_history=False)
    assert evict_large < 2.0 * evict_small, (
        f"evicting kernel peak grew {evict_large / evict_small:.2f}x "
        f"over a 4x longer stream ({evict_small} -> {evict_large} bytes)"
    )
    retain_small = _peak_memory(small, retain_history=True)
    retain_large = _peak_memory(large, retain_history=True)
    assert retain_large > 2.0 * retain_small  # the baseline really is linear
    assert evict_large < retain_large


def test_eviction_watermark_tracks_live_state():
    kernel = PipelineKernel(_EPS1, retain_history=False)
    period = _EPS1.period
    for j in range(64):
        kernel.admit(j, j * period)
        kernel.run_until(j * period)
    assert kernel.peak_live_datasets < 64  # eviction ran *during* the stream
    kernel.run_to_completion()
    assert kernel.evicted_datasets == 64
    assert kernel.completions == {}  # history is gone, by design
    assert kernel.pending_datasets() == ()


def test_evicted_index_cannot_be_readmitted():
    """The duplicate-admission guard survives eviction: a retired index is
    rejected (watermark check) instead of silently re-running."""
    kernel = PipelineKernel(_EPS1, retain_history=False)
    kernel.admit(0, 0.0)
    kernel.run_to_completion()
    assert kernel.evicted_datasets == 1
    with pytest.raises(ScheduleError, match="already admitted"):
        kernel.admit(0, 1.0)
    with pytest.raises(ScheduleError, match="already admitted"):
        kernel.admit_window(0, [0.0, _EPS1.period], 2)
    kernel.admit(1, _EPS1.period)  # fresh indices above the watermark are fine
    kernel.run_to_completion()
    assert kernel.evicted_datasets == 2
