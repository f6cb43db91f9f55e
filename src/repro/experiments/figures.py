"""Per-figure series generators (Figures 3 and 4 of the paper) and the extra
studies (ablations, baseline comparison, scaling) indexed in DESIGN.md.

Each ``figureXY`` function returns a :class:`FigureSeries`: the granularity
axis plus one named series per curve of the corresponding panel.  Campaign
results are cached per (ε, config) within the process so that the three panels
of a figure share a single sweep.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Mapping

import numpy as np

from repro.baselines import BASELINES
from repro.core.fault_free import fault_free_schedule
from repro.core.ltf import ltf_schedule
from repro.core.rltf import rltf_schedule
from repro.exceptions import SchedulingError
from repro.experiments.campaign import CampaignResult, point_seed, run_campaign
from repro.experiments.config import ExperimentConfig, bench_config, workload_period
from repro.experiments.reporting import FigureSeries
from repro.graph.generator import random_paper_workload
from repro.resilience.supervisor import supervised_values
from repro.schedule.metrics import communication_count, latency_upper_bound
from repro.utils.rng import derive_seed, ensure_rng

__all__ = [
    "FigureSeries",
    "figure3a",
    "figure3b",
    "figure3c",
    "figure4a",
    "figure4b",
    "figure4c",
    "ablation_rules",
    "baseline_comparison",
    "scaling_study",
    "clear_campaign_cache",
]


_CAMPAIGN_CACHE: dict[tuple, CampaignResult] = {}


def clear_campaign_cache() -> None:
    """Drop the per-process campaign cache (used by tests)."""
    _CAMPAIGN_CACHE.clear()


def _campaign(epsilon: int, config: ExperimentConfig, jobs: int | None = 1) -> CampaignResult:
    # `jobs` affects only the wall-clock, never the numbers (see run_campaign),
    # so it is deliberately absent from the cache key.
    key = (epsilon, config)
    if key not in _CAMPAIGN_CACHE:
        _CAMPAIGN_CACHE[key] = run_campaign(epsilon, config, jobs=jobs)
    return _CAMPAIGN_CACHE[key]


def _panel(
    name: str,
    epsilon: int,
    metrics: Mapping[str, str],
    config: ExperimentConfig | None,
    description: str,
    jobs: int | None = 1,
) -> FigureSeries:
    config = config or bench_config()
    campaign = _campaign(epsilon, config, jobs=jobs)
    series = {
        label: tuple(campaign.series(metric)) for label, metric in metrics.items()
    }
    return FigureSeries(
        name=name,
        x_label="granularity",
        x=tuple(campaign.granularities),
        series=series,
        description=description,
    )


# ------------------------------------------------------------------- Figure 3
def figure3a(config: ExperimentConfig | None = None, jobs: int | None = 1) -> FigureSeries:
    """Figure 3(a): normalized latency bounds vs granularity, ε = 1."""
    return _panel(
        "figure3a",
        epsilon=1,
        metrics={
            "R-LTF With 0 Crash": "R-LTF with 0 crash",
            "R-LTF UpperBound": "R-LTF upper bound",
            "LTF With 0 Crash": "LTF with 0 crash",
            "LTF UpperBound": "LTF upper bound",
        },
        config=config,
        jobs=jobs,
        description="Average normalized latency (bounds), epsilon=1",
    )


def figure3b(config: ExperimentConfig | None = None, jobs: int | None = 1) -> FigureSeries:
    """Figure 3(b): normalized latency with crashes vs granularity, ε = 1."""
    return _panel(
        "figure3b",
        epsilon=1,
        metrics={
            "R-LTF With 0 Crash": "R-LTF with 0 crash",
            "R-LTF With 1 Crash": "R-LTF with 1 crash",
            "LTF With 0 Crash": "LTF with 0 crash",
            "LTF With 1 Crash": "LTF with 1 crash",
        },
        config=config,
        jobs=jobs,
        description="Average normalized latency with crashes, epsilon=1",
    )


def figure3c(config: ExperimentConfig | None = None, jobs: int | None = 1) -> FigureSeries:
    """Figure 3(c): fault-tolerance overhead (%) vs granularity, ε = 1."""
    return _panel(
        "figure3c",
        epsilon=1,
        metrics={
            "R-LTF With 0 Crash": "R-LTF overhead with 0 crash (%)",
            "R-LTF With 1 Crash": "R-LTF overhead with 1 crash (%)",
            "LTF With 0 Crash": "LTF overhead with 0 crash (%)",
            "LTF With 1 Crash": "LTF overhead with 1 crash (%)",
        },
        config=config,
        jobs=jobs,
        description="Average fault-tolerance overhead, epsilon=1",
    )


# ------------------------------------------------------------------- Figure 4
def figure4a(config: ExperimentConfig | None = None, jobs: int | None = 1) -> FigureSeries:
    """Figure 4(a): normalized latency bounds vs granularity, ε = 3."""
    return _panel(
        "figure4a",
        epsilon=3,
        metrics={
            "R-LTF With 0 Crash": "R-LTF with 0 crash",
            "R-LTF UpperBound": "R-LTF upper bound",
            "LTF With 0 Crash": "LTF with 0 crash",
            "LTF UpperBound": "LTF upper bound",
        },
        config=config,
        jobs=jobs,
        description="Average normalized latency (bounds), epsilon=3",
    )


def figure4b(config: ExperimentConfig | None = None, jobs: int | None = 1) -> FigureSeries:
    """Figure 4(b): normalized latency with c = 2 crashes vs granularity, ε = 3."""
    return _panel(
        "figure4b",
        epsilon=3,
        metrics={
            "R-LTF With 0 Crash": "R-LTF with 0 crash",
            "R-LTF With 2 Crash": "R-LTF with 2 crash",
            "LTF With 0 Crash": "LTF with 0 crash",
            "LTF With 2 Crash": "LTF with 2 crash",
        },
        config=config,
        jobs=jobs,
        description="Average normalized latency with crashes, epsilon=3",
    )


def figure4c(config: ExperimentConfig | None = None, jobs: int | None = 1) -> FigureSeries:
    """Figure 4(c): fault-tolerance overhead (%) vs granularity, ε = 3."""
    return _panel(
        "figure4c",
        epsilon=3,
        metrics={
            "R-LTF With 0 Crash": "R-LTF overhead with 0 crash (%)",
            "R-LTF With 2 Crash": "R-LTF overhead with 2 crash (%)",
            "LTF With 0 Crash": "LTF overhead with 0 crash (%)",
            "LTF With 2 Crash": "LTF overhead with 2 crash (%)",
        },
        config=config,
        jobs=jobs,
        description="Average fault-tolerance overhead, epsilon=3",
    )


# ------------------------------------------------------------------ ablations
def _ablation_point(
    granularity: float, config: ExperimentConfig, epsilon: int
) -> tuple[dict[str, float], dict[str, float]]:
    """Mean latency (and remote comms) of the ablation variants at one granularity."""
    variants: dict[str, Callable[..., object]] = {
        "R-LTF": lambda g, p, period: rltf_schedule(g, p, period=period, epsilon=epsilon),
        "R-LTF no rule1": lambda g, p, period: rltf_schedule(
            g, p, period=period, epsilon=epsilon, enable_rule1=False
        ),
        "LTF": lambda g, p, period: ltf_schedule(g, p, period=period, epsilon=epsilon),
        "LTF no one-to-one": lambda g, p, period: ltf_schedule(
            g, p, period=period, epsilon=epsilon, enable_one_to_one=False
        ),
        "LTF chunk=1": lambda g, p, period: ltf_schedule(
            g, p, period=period, epsilon=epsilon, chunk_size=1
        ),
    }
    rng = ensure_rng(point_seed(config, granularity, offset=17 * epsilon))
    buckets: dict[str, list[float]] = {name: [] for name in variants}
    comm_buckets: dict[str, list[float]] = {"LTF": [], "LTF no one-to-one": []}
    for _ in range(config.num_graphs):
        workload = random_paper_workload(
            granularity,
            seed=rng,
            num_processors=config.num_processors,
            task_range=config.task_range,
        )
        period = workload_period(workload, epsilon, config)
        unit = workload.mean_task_time
        for name, fn in variants.items():
            try:
                schedule = fn(workload.graph, workload.platform, period)
            except SchedulingError:
                continue
            buckets[name].append(latency_upper_bound(schedule) / unit)
            if name in comm_buckets:
                comm_buckets[name].append(float(communication_count(schedule)))
    latency = {
        name: float(np.mean(vals)) if vals else float("nan")
        for name, vals in buckets.items()
    }
    comms = {
        name: float(np.mean(vals)) if vals else float("nan")
        for name, vals in comm_buckets.items()
    }
    return latency, comms


def ablation_rules(
    config: ExperimentConfig | None = None, epsilon: int = 1, jobs: int | None = 1
) -> FigureSeries:
    """Ablations A1–A3: Rule 1, the one-to-one procedure, and the chunk size.

    For every granularity the study reports the mean normalized latency of
    R-LTF, R-LTF without Rule 1, LTF, LTF without the one-to-one mapping, and
    LTF with a chunk of one task (classical list scheduling); plus the mean
    number of remote communications of LTF with and without one-to-one.  Each
    granularity derives its own RNG, so ``jobs > 1`` fans the points across
    processes without changing the numbers.
    """
    config = config or bench_config()
    points = supervised_values(
        partial(_ablation_point, config=config, epsilon=epsilon),
        config.granularities,
        jobs,
        "ablation study",
    )
    latency_names = list(points[0][0]) if points else []
    comm_names = list(points[0][1]) if points else []
    series = {
        f"latency {name}": tuple(latency[name] for latency, _ in points)
        for name in latency_names
    }
    series.update(
        {
            f"remote comms {name}": tuple(comms[name] for _, comms in points)
            for name in comm_names
        }
    )
    return FigureSeries(
        name="ablation_rules",
        x_label="granularity",
        x=tuple(config.granularities),
        series=series,
        description=f"Ablation of Rule 1, one-to-one mapping and chunk size (epsilon={epsilon})",
    )


def _baseline_point(granularity: float, config: ExperimentConfig) -> dict[str, float]:
    """Mean fault-free latency of R-LTF and every baseline at one granularity."""
    names = ["fault-free R-LTF", *sorted(BASELINES)]
    rng = ensure_rng(point_seed(config, granularity, offset=7))
    buckets: dict[str, list[float]] = {name: [] for name in names}
    for _ in range(config.num_graphs):
        workload = random_paper_workload(
            granularity,
            seed=rng,
            num_processors=config.num_processors,
            task_range=config.task_range,
        )
        period = workload_period(workload, 0, config)
        unit = workload.mean_task_time
        try:
            ff = fault_free_schedule(workload.graph, workload.platform, period=period)
            buckets["fault-free R-LTF"].append(latency_upper_bound(ff) / unit)
        except SchedulingError:
            pass
        for name in sorted(BASELINES):
            schedule = BASELINES[name](workload.graph, workload.platform, period=period)
            buckets[name].append(latency_upper_bound(schedule) / unit)
    return {
        name: float(np.mean(vals)) if vals else float("nan")
        for name, vals in buckets.items()
    }


def baseline_comparison(
    config: ExperimentConfig | None = None, jobs: int | None = 1
) -> FigureSeries:
    """Baseline sweep B1: fault-free latency of R-LTF vs the related-work heuristics."""
    config = config or bench_config()
    points = supervised_values(
        partial(_baseline_point, config=config),
        config.granularities,
        jobs,
        "baseline comparison",
    )
    names = list(points[0]) if points else []
    return FigureSeries(
        name="baseline_comparison",
        x_label="granularity",
        x=tuple(config.granularities),
        series={name: tuple(point[name] for point in points) for name in names},
        description="Normalized fault-free latency of R-LTF vs related-work heuristics",
    )


def _scaling_point(
    item: tuple[int, int], epsilon: int, config: ExperimentConfig
) -> tuple[float, float]:
    """Measure (LTF seconds, R-LTF seconds) for one graph size.

    *item* is ``(size, seed)`` — the workload is derived from the per-size
    seed alone, so the sizes can be fanned across processes while every worker
    schedules exactly the same graphs as a serial run.
    """
    size, seed = item
    workload = random_paper_workload(
        1.0,
        seed=seed,
        num_tasks=size,
        num_processors=config.num_processors,
    )
    period = workload_period(workload, epsilon, config)
    measured = []
    for fn in (ltf_schedule, rltf_schedule):
        start = time.perf_counter()
        try:
            fn(workload.graph, workload.platform, period=period, epsilon=epsilon)
        except SchedulingError:
            pass
        measured.append(time.perf_counter() - start)
    return measured[0], measured[1]


def scaling_study(
    sizes: tuple[int, ...] = (25, 50, 100, 200),
    epsilon: int = 1,
    config: ExperimentConfig | None = None,
    jobs: int | None = 1,
) -> FigureSeries:
    """Scaling study S1: scheduler wall-clock time vs number of tasks.

    Complements Theorem 1 (the ``O(e·m·(ε+1)²·log(ε+1) + v·log ω)`` complexity
    bound) with measured runtimes of both heuristics.  With ``jobs > 1`` the
    sizes are fanned across processes — each worker times its own scheduler
    runs, so the workloads are identical to a serial run (only the measured
    wall-clock varies, as it always does).
    """
    config = config or bench_config()
    rng = ensure_rng(config.seed + 13)
    items = [(size, derive_seed(rng)) for size in sizes]
    points = supervised_values(
        partial(_scaling_point, epsilon=epsilon, config=config),
        items,
        jobs,
        "scaling study",
    )
    return FigureSeries(
        name="scaling_study",
        x_label="tasks",
        x=tuple(float(s) for s in sizes),
        series={
            "LTF": tuple(p[0] for p in points),
            "R-LTF": tuple(p[1] for p in points),
        },
        description=f"Scheduler wall-clock seconds vs graph size (epsilon={epsilon})",
    )
