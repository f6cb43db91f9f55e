"""Declarative scenarios: typed, serializable descriptions of one experiment.

The paper explores a tri-criteria space — latency × period × ε — and every
layer of this reproduction runs *scenarios* in it: a workload, a scheduling
heuristic, a failure regime and runtime options.  This package makes the
scenario a first-class object instead of an argument list:

* :mod:`repro.scenario.spec` — the frozen :class:`ScenarioSpec` dataclass
  tree (:class:`WorkloadSpec`, :class:`SchedulerSpec`, :class:`FaultSpec`,
  :class:`RuntimeSpec`) with JSON round-trip and validation;
* :mod:`repro.scenario.serialize` — dict/JSON (de)serialization with
  actionable schema errors;
* :mod:`repro.scenario.grid` — axis-dict → spec-list expansion for sweeps;
* :mod:`repro.scenario.suite` — :class:`SuiteSpec`, one JSON file describing a
  whole sweep campaign (base spec + axes + trials + seed);
* :mod:`repro.scenario.registries` — name → factory registries for workload
  generators, platform builders and schedulers (pure-data specs reference
  components by name);
* :mod:`repro.scenario.run` — the canonical spec → workload → schedule →
  fault trace → online trace pipeline shared by every front end.

The user-facing entry point is the :class:`repro.api.Session` facade; sweeps
and campaigns consume specs directly.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "grid": ("apply_changes", "expand_grid", "normalize_axis"),
        "registries": (
            "PLATFORM_BUILDERS",
            "SCHEDULERS",
            "WORKLOAD_GENERATORS",
            "SchedulerEntry",
        ),
        "run": (
            "build_fault_trace",
            "build_schedule",
            "build_workload",
            "resolve_period",
            "resolve_seeds",
            "run_scenario_online",
        ),
        "serialize": ("spec_from_dict", "spec_to_dict"),
        "spec": (
            "FaultSpec",
            "RuntimeSpec",
            "ScenarioSpec",
            "SchedulerSpec",
            "WorkloadSpec",
        ),
        "suite": ("SuiteSpec",),
    },
)

__all__ = [
    "ScenarioSpec",
    "SuiteSpec",
    "WorkloadSpec",
    "SchedulerSpec",
    "FaultSpec",
    "RuntimeSpec",
    "spec_to_dict",
    "spec_from_dict",
    "apply_changes",
    "expand_grid",
    "normalize_axis",
    "WORKLOAD_GENERATORS",
    "PLATFORM_BUILDERS",
    "SCHEDULERS",
    "SchedulerEntry",
    "resolve_seeds",
    "build_workload",
    "build_schedule",
    "build_fault_trace",
    "resolve_period",
    "run_scenario_online",
]
