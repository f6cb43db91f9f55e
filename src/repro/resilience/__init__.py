"""Fault tolerance for the experiment toolchain itself.

The rest of the library simulates faults in the *modeled* platform; this
package makes the *runner* survive its own infrastructure failing:

* :mod:`repro.resilience.supervisor` — a supervised process pool
  (:func:`supervised_map`, and :func:`supervised_values` for all-or-nothing
  runners) that detects worker death, respawns the pool,
  retries lost units with bounded exponential backoff, and enforces a
  per-unit wall-clock timeout by killing stuck workers;
* :mod:`repro.resilience.chaos` — a deterministic chaos-injection harness
  (:class:`ChaosSpec`) that makes workers crash, stall or return corrupted
  payloads on seeded schedules, so every recovery path above is provable by
  an ordinary test instead of a flaky integration story.

Trial-level checkpoint/resume lives where the trials do
(:func:`repro.experiments.sweep.run_suite` /
:func:`repro.experiments.parallel.run_runtime_campaign`, keyed by
:func:`repro.cache.keys.trial_key`); this package supplies the execution
substrate they run on.
"""

from __future__ import annotations

from repro.resilience.chaos import (
    CHAOS_ENV,
    ChaosCrash,
    ChaosSpec,
    CorruptPayload,
    resolve_chaos,
)
from repro.resilience.supervisor import (
    ExecutionError,
    RetryPolicy,
    SupervisedOutcome,
    UnitFailure,
    drain_signals,
    supervised_map,
    supervised_values,
)

__all__ = [
    "CHAOS_ENV",
    "ChaosCrash",
    "ChaosSpec",
    "CorruptPayload",
    "ExecutionError",
    "RetryPolicy",
    "SupervisedOutcome",
    "UnitFailure",
    "drain_signals",
    "resolve_chaos",
    "supervised_map",
    "supervised_values",
]
