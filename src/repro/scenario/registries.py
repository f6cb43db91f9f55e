"""Named registries turning scenario specs into live objects.

A :class:`~repro.scenario.spec.ScenarioSpec` is pure data — every component it
references (workload generator, platform builder, scheduler, rescheduling and
admission policy, fault distribution) is a *name* resolved here through the
:class:`~repro.utils.registry.PolicyRegistry` machinery.  Registering a new
entry in one of these registries makes it reachable from JSON scenario files,
the :class:`~repro.api.Session` facade, the CLI and the sweep/campaign layers
without further wiring.

This module is the spec layer's name table, so it imports no scheduler,
generator or runtime module: validating a spec, or building the CLI's
``choices``, needs only the names.  Each entry imports its implementation on
first use — a generator or platform builder when it is called, a scheduler's
``build`` on first access, a policy class on its first lookup.

* :data:`WORKLOAD_GENERATORS` — ``name -> fn(spec, seed) -> PaperWorkload``.
  ``"paper"`` is the random experimental workload of Section 5 (bit-identical
  to the historical Monte-Carlo trial path); the other entries build the named
  example graphs (chain, fork-join, video pipeline, …) and pair them with a
  platform built from :data:`PLATFORM_BUILDERS`.
* :data:`PLATFORM_BUILDERS` — ``name -> fn(num_processors, rng) -> Platform``.
* :data:`SCHEDULERS` — ``name -> SchedulerEntry`` wrapping the scheduling
  heuristics (LTF, R-LTF, fault-free reference, related-work baselines) with
  the metadata the runner needs (does the heuristic accept ``epsilon``?).
* :data:`RESCHEDULE_POLICIES` / :data:`ADMISSION_POLICIES` — the online
  runtime's policy classes (:mod:`repro.runtime.policies`,
  :mod:`repro.runtime.admission`), zero-argument factories.
* :data:`FAULT_DISTRIBUTIONS` — the inter-failure laws of
  :mod:`repro.failures.processes`.

Unknown names raise with the registered names and close-match suggestions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.utils.registry import PolicyRegistry, load_target

if TYPE_CHECKING:  # pragma: no cover - types only
    import numpy as np

    from repro.graph.dag import TaskGraph
    from repro.graph.generator import PaperWorkload
    from repro.platform.platform import Platform
    from repro.scenario.spec import WorkloadSpec
    from repro.schedule.schedule import Schedule

__all__ = [
    "WORKLOAD_GENERATORS",
    "PLATFORM_BUILDERS",
    "SCHEDULERS",
    "SchedulerEntry",
    "RESCHEDULE_POLICIES",
    "ADMISSION_POLICIES",
    "FAULT_DISTRIBUTIONS",
]

#: fault-arrival distributions understood by
#: :class:`~repro.failures.processes.RenewalFaultProcess`.
FAULT_DISTRIBUTIONS = ("exponential", "weibull")

#: online rescheduling policies: name -> zero-argument factory.
RESCHEDULE_POLICIES = PolicyRegistry("rescheduling policy")
RESCHEDULE_POLICIES.register_lazy("rltf", "repro.runtime.policies:RLTFReschedulePolicy")
RESCHEDULE_POLICIES.register_lazy("remap", "repro.runtime.policies:RemapReschedulePolicy")

#: admission policies: name -> zero-argument factory.
ADMISSION_POLICIES = PolicyRegistry("admission policy")
ADMISSION_POLICIES.register_lazy("shed", "repro.runtime.admission:ShedAdmissionPolicy")
ADMISSION_POLICIES.register_lazy("queue", "repro.runtime.admission:QueueAdmissionPolicy")


# ------------------------------------------------------------------ platforms
PLATFORM_BUILDERS = PolicyRegistry("platform builder")


def _paper_platform(m: int, rng) -> "Platform":
    from repro.platform.builders import paper_platform

    return paper_platform(seed=rng, m=m)


def _homogeneous_platform(m: int, rng) -> "Platform":
    from repro.platform.builders import homogeneous_platform

    return homogeneous_platform(m)


def _heterogeneous_platform(m: int, rng) -> "Platform":
    from repro.platform.builders import heterogeneous_platform

    return heterogeneous_platform(m, seed=rng)


PLATFORM_BUILDERS.register(_paper_platform, name="paper")
PLATFORM_BUILDERS.register(_homogeneous_platform, name="homogeneous")
PLATFORM_BUILDERS.register(_heterogeneous_platform, name="heterogeneous")


def _build_platform(spec: "WorkloadSpec", rng: "np.random.Generator") -> "Platform":
    builder = PLATFORM_BUILDERS.lookup(spec.platform or "paper")
    return builder(spec.num_processors, rng)


# ---------------------------------------------------------------- workloads
WORKLOAD_GENERATORS = PolicyRegistry("workload generator")


def _paper_workload(spec: "WorkloadSpec", seed) -> "PaperWorkload":
    """The Section-5 random workload — the exact historical trial call."""
    from repro.graph.generator import random_paper_workload

    kwargs = dict(spec.options)
    if spec.task_range is not None:
        kwargs["task_range"] = spec.task_range
    return random_paper_workload(
        spec.granularity,
        seed=seed,
        num_tasks=spec.num_tasks,
        num_processors=spec.num_processors,
        **kwargs,
    )


WORKLOAD_GENERATORS.register(_paper_workload, name="paper")


def _wrap_graph(graph: "TaskGraph", spec: "WorkloadSpec", rng, seed) -> "PaperWorkload":
    import numpy as np

    from repro.graph.analysis import granularity
    from repro.graph.generator import PaperWorkload

    platform = _build_platform(spec, rng)
    achieved = granularity(graph, platform)
    target = float(achieved) if math.isfinite(achieved) and achieved > 0 else 1.0
    return PaperWorkload(
        graph=graph,
        platform=platform,
        target_granularity=target,
        seed=None if isinstance(seed, np.random.Generator) else seed,
        metadata={"generator": spec.generator, "num_processors": spec.num_processors},
    )


def _register_graph(
    name: str,
    target: str,
    size_param: str | None = None,
    takes_seed: bool = False,
) -> None:
    """Register the graph builder at *target* (``module:function``) under *name*."""

    def generate(spec: "WorkloadSpec", seed) -> "PaperWorkload":
        from repro.utils.rng import ensure_rng

        build = load_target(target)
        rng = ensure_rng(seed)
        kwargs = dict(spec.options)
        if size_param is not None and size_param not in kwargs and spec.num_tasks:
            kwargs[size_param] = spec.num_tasks
        graph = build(seed=rng, **kwargs) if takes_seed else build(**kwargs)
        return _wrap_graph(graph, spec, rng, seed)

    generate.__name__ = f"workload_{name.replace('-', '_')}"
    WORKLOAD_GENERATORS.register(generate, name=name)


_GENERATOR = "repro.graph.generator"
_EXAMPLES = "repro.graph.examples"
_register_graph("chain", f"{_GENERATOR}:chain_graph", size_param="length")
_register_graph("fork-join", f"{_GENERATOR}:fork_join_graph", size_param="branches")
_register_graph("video", f"{_EXAMPLES}:video_encoding_pipeline")
_register_graph("dsp", f"{_EXAMPLES}:dsp_filter_bank")
_register_graph("map-reduce", f"{_EXAMPLES}:map_reduce_graph")
_register_graph("sensor-fusion", f"{_EXAMPLES}:sensor_fusion_graph")
_register_graph("series-parallel", f"{_GENERATOR}:random_series_parallel", takes_seed=True)
_register_graph(
    "layered", f"{_GENERATOR}:random_layered_dag", size_param="num_tasks", takes_seed=True
)


# ---------------------------------------------------------------- schedulers
@dataclass(frozen=True)
class SchedulerEntry:
    """One named scheduling heuristic plus the metadata the runner needs.

    ``build`` — the heuristic itself — is imported from :attr:`target` on its
    first access and is an ordinary attribute from then on.
    """

    name: str
    #: ``"package.module:function"`` of the heuristic.
    target: str
    #: whether ``build`` accepts the ``epsilon`` replication degree; heuristics
    #: without it (the fault-free reference, the related-work baselines) only
    #: accept scenarios with ``scheduler.epsilon == 0``.
    supports_epsilon: bool = True

    def __getattr__(self, attribute: str):
        if attribute != "build":
            raise AttributeError(attribute)
        build: Callable[..., "Schedule"] = load_target(self.target)
        object.__setattr__(self, "build", build)
        return build


SCHEDULERS = PolicyRegistry("scheduler")
for _entry in (
    SchedulerEntry("rltf", "repro.core.rltf:rltf_schedule"),
    SchedulerEntry("ltf", "repro.core.ltf:ltf_schedule"),
    SchedulerEntry("fault-free", "repro.core.fault_free:fault_free_schedule", False),
    SchedulerEntry("heft", "repro.baselines.listsched:heft_schedule", False),
    SchedulerEntry("etf", "repro.baselines.listsched:etf_schedule", False),
    SchedulerEntry("preclustering", "repro.baselines.clustering:preclustering_schedule", False),
    SchedulerEntry("expert", "repro.baselines.expert:expert_schedule", False),
    SchedulerEntry("tda", "repro.baselines.tda:tda_schedule", False),
    SchedulerEntry("wmsh", "repro.baselines.wmsh:wmsh_schedule", False),
):
    SCHEDULERS.register(_entry, name=_entry.name)
del _entry
