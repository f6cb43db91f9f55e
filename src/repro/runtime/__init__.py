"""Online streaming runtime: live execution under stochastic failures.

The static side of the reproduction builds an ε-fault-tolerant schedule once
and evaluates fixed crash sets against it.  This package is the dynamic
counterpart:

* :mod:`repro.runtime.engine` — :class:`OnlineRuntime`, a discrete-event
  executor that streams data sets through a schedule while a timed fault
  process injects crashes, tolerating failures within the ε guarantee and
  rebuilding the schedule online beyond it;
* :mod:`repro.runtime.policies` — the online rescheduling policies (re-run
  R-LTF on the survivors, or remap the dead replicas onto survivors),
  resolved by name through a :class:`~repro.utils.registry.PolicyRegistry`;
* :mod:`repro.runtime.admission` — the admission policies deciding the fate
  of data sets the pipeline cannot take (``shed`` drops, ``queue`` buffers
  through downtime with a bounded backlog);
* :mod:`repro.runtime.trace` — the :class:`RuntimeTrace` execution record
  (per-dataset latency, downtime, rebuilds) and its aggregation.

One seeded Monte-Carlo trial of a scenario is
:func:`repro.scenario.run.run_scenario_online`, fanned out in parallel by
:mod:`repro.experiments.parallel`.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "admission": (
            "AdmissionPolicy",
            "ShedAdmissionPolicy",
            "QueueAdmissionPolicy",
            "ADMISSION_POLICIES",
            "resolve_admission",
        ),
        "engine": ("OnlineRuntime", "run_online"),
        "policies": (
            "ReschedulePolicy",
            "RLTFReschedulePolicy",
            "RemapReschedulePolicy",
            "RESCHEDULE_POLICIES",
            "resolve_policy",
        ),
        "trace": (
            "DatasetRecord",
            "RuntimeEvent",
            "RuntimeTrace",
            "RuntimeStats",
            "TraceSummary",
            "combine_summaries",
            "summarize_trace",
            "summarize_traces",
        ),
    },
)

__all__ = [
    "OnlineRuntime",
    "run_online",
    "AdmissionPolicy",
    "ShedAdmissionPolicy",
    "QueueAdmissionPolicy",
    "ADMISSION_POLICIES",
    "resolve_admission",
    "ReschedulePolicy",
    "RLTFReschedulePolicy",
    "RemapReschedulePolicy",
    "RESCHEDULE_POLICIES",
    "resolve_policy",
    "DatasetRecord",
    "RuntimeEvent",
    "RuntimeTrace",
    "RuntimeStats",
    "TraceSummary",
    "combine_summaries",
    "summarize_trace",
    "summarize_traces",
]
