"""The inputs of every workload, generated from the benchmark's ``--seed``.

Each workload runs a fixed list of instances; the seed fixes the order in
which they run (and the cache directory they fill), not the instances
themselves.  Why fixed: the paper-level quality metrics (latency in periods,
missed guarantees) must repeat exactly between runs, so that a change in
results shows as a change, never as noise.  Drawing fault traces from the
seed instead moved ``stream-saturated``'s p95 latency between 267 and 444
periods and its throughput between 926 and 1351 data sets/s over five seeds
— a spread wider than any bound the gate could hold.

Nothing here imports ``repro``: the program receives only these dicts.
"""

from __future__ import annotations

import random

#: stream-saturated — random ``paper`` workloads, 30 tasks on 10 processors,
#: ε=2 and the slack-derived period Δ.  Faults are sparse and repaired fast,
#: so tolerated crashes outnumber rebuilds; the streams are long.
STREAM_WORKLOAD_SEEDS = (0, 1, 2, 3)
STREAM_FAULT_SEED_BASE = 1000
STREAM_DATASETS = 2000


def _shuffled(items: list, seed: int, salt: str) -> list:
    items = list(items)
    random.Random(f"{salt}:{seed}").shuffle(items)
    return items


def stream_specs(seed: int) -> list[dict]:
    specs = [
        {
            "name": f"stream-saturated-w{w}",
            "workload": {"generator": "paper", "num_tasks": 30, "num_processors": 10, "seed": w},
            "scheduler": {"name": "rltf", "epsilon": 2},
            "faults": {
                "mttf_periods": 1000.0,
                "mttr_periods": 10.0,
                "seed": STREAM_FAULT_SEED_BASE + w,
            },
            "runtime": {"num_datasets": STREAM_DATASETS},
        }
        for w in STREAM_WORKLOAD_SEEDS
    ]
    return _shuffled(specs, seed, "stream")


#: schedule-large — R-LTF at 100 tasks / 40 processors, ε ∈ {1, 2}, with the
#: default fallback ladder.  No stream.
SCHEDULE_WORKLOAD_SEEDS = (0, 1, 2, 3)
SCHEDULE_EPSILONS = (1, 2)


def schedule_specs(seed: int) -> list[dict]:
    specs = [
        {
            "name": f"schedule-large-w{w}-e{eps}",
            "workload": {"generator": "paper", "num_tasks": 100, "num_processors": 40, "seed": w},
            "scheduler": {"name": "rltf", "epsilon": eps},
        }
        for w in SCHEDULE_WORKLOAD_SEEDS
        for eps in SCHEDULE_EPSILONS
    ]
    return _shuffled(specs, seed, "schedule")


#: suite-cli's suite and service phases share the integer-duration pipelines
#: on the homogeneous platform, with an explicit period so latency reads in
#: periods (and so fast-forward's certificate holds: the slack-derived
#: periods, such as 2173.33 for ``video``, are off its grid).
PIPELINE_PERIOD = 8000.0
PIPELINE_GENERATORS = ("video", "fork-join", "dsp")
#: the suite's fault rates: quiet enough that fast-forward engages on the
#: second, busy enough on the first that data sets are lost.
SUITE_MTTF_PERIODS = (2000.0, 16000.0)
SUITE_POINTS = len(PIPELINE_GENERATORS) * len(SUITE_MTTF_PERIODS)


def _pipeline_base(name: str, num_datasets: int) -> dict:
    return {
        "name": name,
        "workload": {"generator": "video", "platform": "homogeneous", "num_processors": 6},
        "scheduler": {"name": "rltf", "epsilon": 1, "period": PIPELINE_PERIOD},
        "faults": {"mttf_periods": 200.0, "mttr_periods": 20.0},
        "runtime": {"num_datasets": num_datasets},
    }


def suite_document(seed: int) -> dict:
    """One suite: three pipelines × two sparse fault rates, three trials each.

    The grid order stays fixed: per-point trial seeds derive from grid
    position, so reordering would redraw the fault traces.
    """
    return {
        "schema": 1,
        "name": "perfbench-suite",
        "trials": 3,
        "seed": 0,
        "base": _pipeline_base("perfbench-suite-base", 2000),
        "axes": {
            "workload.generator": list(PIPELINE_GENERATORS),
            "faults.mttf_periods": list(SUITE_MTTF_PERIODS),
        },
    }


#: suite-cli's service phase — distinct small scenarios, each submitted once
#: (executed) and then once more (replayed from the cache).  At least 100 per
#: round, so the p90 of either kind has ten samples beyond it in one round.
SERVICE_SCENARIOS_PER_ROUND = 120
SERVICE_DATASETS = 60


def service_round(seed: int, round_index: int) -> list[dict]:
    """Request bodies of one round; rounds never repeat a (scenario, seed)."""
    bodies = []
    mttfs = (100.0, 400.0)
    per_kind = SERVICE_SCENARIOS_PER_ROUND // (len(PIPELINE_GENERATORS) * len(mttfs))
    for generator in PIPELINE_GENERATORS:
        for mttf in mttfs:
            for k in range(per_kind):
                scenario = _pipeline_base(f"svc-{generator}-{mttf:g}", SERVICE_DATASETS)
                scenario["workload"]["generator"] = generator
                scenario["faults"]["mttf_periods"] = mttf
                bodies.append({"scenario": scenario, "seed": round_index * per_kind + k})
    return _shuffled(bodies, seed, f"service:{round_index}")
