"""Campaign runner: one (granularity, ε) point over many random graphs.

For every random graph the runner builds the LTF schedule, the R-LTF schedule
and the fault-free reference, then records for each heuristic:

* the normalized latency **upper bound** ``(2S−1)·Δ / w̄``;
* the normalized latency with **0 crashes** (first-arrival semantics);
* the normalized latency with **c crashes** (mean over sampled crash patterns);
* the corresponding **fault-tolerance overheads** against the fault-free
  latency.

Instances where a heuristic fails to meet the throughput constraint are
recorded as failures and excluded from the averages (their rate is reported).

Sharding: the unit of parallel work is one **graph instance**, not one
granularity point.  Every instance derives its own child seed up front from
:func:`point_seed` (see :func:`instance_seeds`), so
:func:`run_campaign` can flatten all ``(granularity, instance)`` pairs into a
single work list and fan them across processes — trials are sharded *within*
a point as well as across points, and the result is bit-for-bit identical for
any ``jobs`` value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping

import numpy as np

from repro.core.fault_free import fault_free_schedule
from repro.core.ltf import ltf_schedule
from repro.core.rltf import rltf_schedule
from repro.exceptions import SchedulingError, SpecificationError
from repro.experiments.config import ExperimentConfig, workload_period
from repro.failures.evaluation import expected_crash_latency
from repro.graph.generator import random_paper_workload
from repro.resilience.supervisor import supervised_values
from repro.scenario.spec import ScenarioSpec, SchedulerSpec, WorkloadSpec
from repro.schedule.metrics import latency_upper_bound
from repro.schedule.schedule import Schedule
from repro.utils.rng import derive_seed, ensure_rng

__all__ = [
    "PointResult",
    "CampaignResult",
    "point_seed",
    "instance_seeds",
    "scenario_for_point",
    "run_graph_instance",
    "run_point",
    "run_campaign",
    "ALGORITHMS",
]


def point_seed(config: ExperimentConfig, granularity: float, offset: int = 0) -> int:
    """Deterministic seed of one (granularity, study) sweep point.

    Every study that fans granularity points across processes (the campaign,
    the ablations, the baselines) derives its per-point RNG from this single
    formula — the point's result then depends only on ``(config, granularity,
    offset)``, never on execution order, which is what makes ``jobs > 1``
    bit-for-bit identical to a serial run.
    """
    return config.seed + offset + int(round(granularity * 1000))


def instance_seeds(
    config: ExperimentConfig, granularity: float, epsilon: int
) -> list[int]:
    """Per-graph child seeds of one (granularity, ε) campaign point.

    Drawn up front from the point seed, so instance ``i`` is a pure function
    of ``(config, granularity, epsilon, i)`` — the prerequisite for sharding
    instances across processes without changing the numbers.
    """
    rng = ensure_rng(point_seed(config, granularity, offset=31 * epsilon))
    return [derive_seed(rng) for _ in range(config.num_graphs)]


def scenario_for_point(
    config: ExperimentConfig, granularity: float, epsilon: int
) -> ScenarioSpec:
    """The declarative :class:`~repro.scenario.spec.ScenarioSpec` of one point.

    The spec captures the point's scenario *family* — the workload
    distribution (granularity, task range, platform size) and the scheduling
    constraints (ε, period slack, strict resilience), with R-LTF as the
    representative heuristic of the paper's campaign (the point's metrics
    also cover LTF).  Replaying it (``spec.to_json()`` →
    ``repro-streaming run``) draws a *fresh* instance from the same family;
    the campaign's own instances are reproduced by
    :func:`run_graph_instance` with :func:`instance_seeds`, not by the spec.
    """
    options = {}
    if config.strict_resilience:
        options["strict_resilience"] = True
    return ScenarioSpec(
        name=f"campaign-g{granularity:g}-eps{epsilon}",
        workload=WorkloadSpec(
            generator="paper",
            granularity=granularity,
            num_tasks=None,
            num_processors=config.num_processors,
            task_range=config.task_range,
        ),
        scheduler=SchedulerSpec(
            name="rltf",
            epsilon=epsilon,
            period_slack=config.period_slack,
            options=options,
        ),
    )

#: the two heuristics of the paper, keyed by their display name.
ALGORITHMS: dict[str, Callable[..., Schedule]] = {
    "LTF": ltf_schedule,
    "R-LTF": rltf_schedule,
}


@dataclass
class PointResult:
    """Aggregated metrics of one (granularity, ε) point."""

    granularity: float
    epsilon: int
    crashes: tuple[int, ...]
    #: metric name -> mean value over the successful instances.
    metrics: dict[str, float] = field(default_factory=dict)
    #: algorithm -> number of instances it failed to schedule.
    failures: dict[str, int] = field(default_factory=dict)
    instances: int = 0
    #: the declarative spec of the point (see :func:`scenario_for_point`).
    spec: ScenarioSpec | None = None

    def metric(self, name: str) -> float:
        """Mean value of a metric (NaN when no instance succeeded)."""
        return self.metrics.get(name, float("nan"))


@dataclass
class CampaignResult:
    """Results of a sweep over granularities for a fixed ε."""

    epsilon: int
    points: list[PointResult] = field(default_factory=list)

    @property
    def granularities(self) -> list[float]:
        return [p.granularity for p in self.points]

    def series(self, metric: str) -> list[float]:
        """The values of *metric* across granularities."""
        return [p.metric(metric) for p in self.points]

    def available_metrics(self) -> list[str]:
        names: set[str] = set()
        for p in self.points:
            names.update(p.metrics)
        return sorted(names)


def run_graph_instance(
    item: tuple[float, int],
    epsilon: int,
    config: ExperimentConfig,
    algorithms: Mapping[str, Callable[..., Schedule]] | None = None,
) -> tuple[dict[str, list[float]], dict[str, int]]:
    """Evaluate one random graph of one campaign point.

    *item* is ``(granularity, instance_seed)``.  Returns the per-metric value
    lists contributed by this instance plus its failure counters — the unit of
    work fanned across processes by :func:`run_point` and
    :func:`run_campaign`.
    """
    granularity, seed = item
    algorithms = dict(algorithms or ALGORITHMS)
    crashes = config.crash_counts(epsilon)
    rng = ensure_rng(seed)
    accum: dict[str, list[float]] = {}
    failures = {name: 0 for name in algorithms}
    failures["fault-free"] = 0

    workload = random_paper_workload(
        granularity,
        seed=rng,
        num_processors=config.num_processors,
        task_range=config.task_range,
    )
    unit = workload.mean_task_time
    period = workload_period(workload, epsilon, config)
    ff_period = workload_period(workload, 0, config)
    try:
        ff = fault_free_schedule(workload.graph, workload.platform, period=ff_period)
        ff_latency = latency_upper_bound(ff)
    except SchedulingError:
        failures["fault-free"] += 1
        return accum, failures
    accum.setdefault("fault-free latency", []).append(ff_latency / unit)

    for name, scheduler in algorithms.items():
        try:
            schedule = scheduler(
                workload.graph,
                workload.platform,
                period=period,
                epsilon=epsilon,
                strict_resilience=config.strict_resilience,
            )
        except SchedulingError:
            failures[name] += 1
            continue
        upper = latency_upper_bound(schedule) / unit
        accum.setdefault(f"{name} upper bound", []).append(upper)
        accum.setdefault(f"{name} overhead upper bound (%)", []).append(
            100.0 * (latency_upper_bound(schedule) - ff_latency) / ff_latency
        )
        for c in crashes:
            latency_c = expected_crash_latency(
                schedule,
                c,
                samples=config.crash_samples,
                seed=rng,
                unit=unit,
                on_invalid="upper_bound",
            )
            accum.setdefault(f"{name} with {c} crash", []).append(latency_c)
            accum.setdefault(f"{name} overhead with {c} crash (%)", []).append(
                100.0 * (latency_c * unit - ff_latency) / ff_latency
            )
    return accum, failures


def _reduce_point(
    granularity: float,
    epsilon: int,
    config: ExperimentConfig,
    instance_results: list[tuple[dict[str, list[float]], dict[str, int]]],
    algorithms: Mapping[str, Callable[..., Schedule]] | None = None,
) -> PointResult:
    """Aggregate per-instance contributions into one :class:`PointResult`.

    Values are concatenated in instance order before averaging, so the
    reduction is independent of how the instances were scheduled across
    workers.  Points evaluated with custom *algorithms* carry ``spec=None``
    (an algorithm mapping is not expressible as a pure-data spec).
    """
    accum: dict[str, list[float]] = {}
    failures: dict[str, int] = {}
    for metrics, fails in instance_results:
        for name, values in metrics.items():
            accum.setdefault(name, []).extend(values)
        for name, count in fails.items():
            failures[name] = failures.get(name, 0) + count
    metrics = {name: float(np.mean(values)) for name, values in accum.items() if values}
    return PointResult(
        granularity=granularity,
        epsilon=epsilon,
        crashes=config.crash_counts(epsilon),
        metrics=metrics,
        failures=failures,
        instances=config.num_graphs,
        spec=_point_spec_or_none(config, granularity, epsilon, algorithms),
    )


def _point_spec_or_none(
    config: ExperimentConfig,
    granularity: float,
    epsilon: int,
    algorithms: Mapping[str, Callable[..., Schedule]] | None,
) -> ScenarioSpec | None:
    """The point's family spec, or ``None`` when it isn't expressible.

    Custom algorithm mappings have no pure-data form, and degenerate
    configurations (e.g. ε ≥ platform size, which the campaign itself records
    as per-instance scheduling failures) must not turn the *reduction* into a
    validation error after all the instance work has already run.
    """
    if algorithms is not None:
        return None
    try:
        return scenario_for_point(config, granularity, epsilon)
    except SpecificationError:
        return None


def run_point(
    granularity: float,
    epsilon: int,
    config: ExperimentConfig,
    algorithms: Mapping[str, Callable[..., Schedule]] | None = None,
    jobs: int | None = 1,
) -> PointResult:
    """Run one (granularity, ε) point of the campaign.

    With ``jobs > 1`` the graph instances of the point are sharded across
    worker processes; every instance carries its own pre-derived seed, so the
    result is bit-for-bit identical for any ``jobs`` value.  Execution runs
    under the supervised pool, so a worker crash retries only the lost
    instances instead of aborting the point.
    """
    items = [(granularity, s) for s in instance_seeds(config, granularity, epsilon)]
    results = _run_instances(items, epsilon, config, algorithms, jobs)
    return _reduce_point(granularity, epsilon, config, results, algorithms)


def _run_instances(units, epsilon, config, algorithms, jobs):
    """Fan graph instances across the supervised pool; raise on exhaustion.

    Each unit's seed travels as its supervision token, so a failure names the
    graph instance that was lost.
    """
    return supervised_values(
        partial(
            run_graph_instance, epsilon=epsilon, config=config, algorithms=algorithms
        ),
        units,
        jobs,
        f"campaign (epsilon {epsilon})",
        tokens=[unit_seed for _granularity, unit_seed in units],
    )


def run_campaign(
    epsilon: int,
    config: ExperimentConfig,
    algorithms: Mapping[str, Callable[..., Schedule]] | None = None,
    jobs: int | None = 1,
) -> CampaignResult:
    """Sweep every granularity of *config* for the given ε.

    The whole campaign is flattened into one list of ``(granularity, graph
    instance)`` work units before fan-out, so ``jobs`` workers stay busy even
    when there are fewer granularity points than workers (per-graph sharding
    *within* a point).  Every unit carries its own pre-derived seed, so the
    campaign is bit-for-bit identical for any ``jobs`` value (custom
    *algorithms* must be picklable, i.e. module-level functions).  Execution
    runs under the supervised pool of
    :mod:`repro.resilience`, so a transient worker death retries only the
    lost instances instead of aborting the campaign.
    """
    units: list[tuple[float, int]] = []
    for granularity in config.granularities:
        units.extend((granularity, s) for s in instance_seeds(config, granularity, epsilon))
    results = _run_instances(units, epsilon, config, algorithms, jobs)
    points = []
    n = config.num_graphs
    for k, granularity in enumerate(config.granularities):
        points.append(
            _reduce_point(
                granularity, epsilon, config, results[k * n : (k + 1) * n], algorithms
            )
        )
    return CampaignResult(epsilon=epsilon, points=points)
