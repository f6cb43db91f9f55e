"""Frozen fingerprints of LTF / R-LTF schedules.

Each fingerprint is a sha256 over the exact ``repr`` of a schedule's period,
ε, Gantt rows, committed communications and maximum cycle time, so any
change to a placement, a start time or a float bit shows.  The goldens in
``tests/golden/schedule_fingerprints.json`` were frozen before the platform
statistics were memoised and the timelines moved to flat float lists: they
pin those speedups as result-neutral.

Regenerate (only for a deliberate change of results, with the reason in
CHANGES.md)::

    PYTHONPATH=src python tests/unit/test_schedule_fingerprints.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.core.ltf import ltf_schedule
from repro.core.rltf import rltf_schedule
from repro.experiments.config import ExperimentConfig, workload_period
from repro.graph.generator import random_paper_workload

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" / "schedule_fingerprints.json"

SCHEDULERS = {"ltf": ltf_schedule, "rltf": rltf_schedule}
EPSILONS = (0, 1, 2)
SMALL_SEEDS = range(8)
GRANULARITIES = (0.5, 1.0, 2.0)


def schedule_fingerprint(schedule) -> str:
    """sha256 over ``repr((period, ε, gantt, comm events, max cycle time))``."""
    comms = [
        (c.source, c.destination, c.start, c.duration) for c in schedule.comm_events
    ]
    payload = (
        schedule.period,
        schedule.epsilon,
        sorted(schedule.gantt()),
        comms,
        schedule.max_cycle_time,
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _instances():
    """``(key, workload, epsilons, schedulers)`` for every frozen case."""
    for seed in SMALL_SEEDS:
        workload = random_paper_workload(
            GRANULARITIES[seed % len(GRANULARITIES)],
            seed=seed,
            num_tasks=20 + (seed * 10) // 7,
            num_processors=10,
        )
        yield f"small-s{seed}", workload, EPSILONS, SCHEDULERS
    # one instance at the scale of the benchmark's schedule-large workload
    workload = random_paper_workload(1.0, seed=0, num_tasks=100, num_processors=40)
    yield "large-s0", workload, (1,), {"rltf": rltf_schedule}


def produce_fingerprints() -> dict[str, str]:
    config = ExperimentConfig()
    produced = {}
    for key, workload, epsilons, schedulers in _instances():
        for eps in epsilons:
            period = workload_period(workload, eps, config)
            for name, scheduler in schedulers.items():
                schedule = scheduler(
                    workload.graph,
                    workload.platform,
                    period=period,
                    epsilon=eps,
                    strict_throughput=False,
                )
                produced[f"{name}/{key}/eps{eps}"] = schedule_fingerprint(schedule)
    return produced


def test_every_schedule_matches_frozen_fingerprint():
    goldens = json.loads(GOLDEN_PATH.read_text())
    assert produce_fingerprints() == goldens


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(produce_fingerprints(), indent=2, sort_keys=True) + "\n")
