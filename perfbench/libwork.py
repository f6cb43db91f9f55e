"""Library workloads, run in a child process of ``run.py``.

Usage (``workloads.py`` builds these command lines)::

    python perfbench/libwork.py setup stream-saturated --seed 1
    python perfbench/libwork.py run schedule-large --seed 1
    python perfbench/libwork.py trace stream-saturated --seed 1 [--trace-dir DIR]

``setup`` imports the library and builds the specs, prints ``ready`` and
exits: ``run.py`` times it from launch.  ``run`` is driven one operation at
a time: it prints the instance count, then for each ``op`` line it reads on
stdin it runs the next instance in turn and prints that operation as a JSON
line; on ``end`` (or end of input) it prints the outputs' quality and the
check counts as a last JSON line.  While each operation runs, ``run.py``
samples the speed of this process's core (see ``speed.py``).  ``trace``
runs one pass over the instances and prints its times and output digests;
with ``--trace-dir`` it first installs the span wrappers and dumps the spans
there at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

import inputs
import tracing


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def trace_digest(trace) -> str:
    """Content hash of a runtime trace: every record, event and aggregate."""
    parts = [f"{r.index}|{r.release!r}|{r.completion!r}|{r.status}" for r in trace.records]
    parts += [f"{e.time!r}|{e.kind}|{e.processor}|{e.detail}" for e in trace.events]
    parts.append(
        f"{trace.period!r}|{trace.horizon!r}|{trace.num_rebuilds}|{trace.downtime!r}|"
        f"{trace.aborted}|{','.join(trace.final_alive)}"
    )
    return _digest("\n".join(parts))


# ------------------------------------------------------------ stream-saturated
class StreamWorkload:
    """Long online streams through ``Session.run_online``."""

    def __init__(self, seed: int):
        from repro import Session

        self.items = [(spec["name"], Session.from_dict(spec)) for spec in inputs.stream_specs(seed)]

    def op(self, item, probe=None) -> dict:
        from repro import num_stages

        name, session = item
        schedule = session.schedule(0).schedule  # built once per session, untimed
        start = time.perf_counter()
        trace = session.run_online(0, probe=probe).trace
        seconds = time.perf_counter() - start
        period = schedule.period
        bound = (2 * num_stages(schedule) - 1) * period
        completed = [r for r in trace.records if r.completed]
        return {
            "item": name,
            "seconds": seconds,
            "units": trace.num_datasets,
            "digest": trace_digest(trace),
            "checks": [
                (
                    trace.completed_count + trace.lost_count == trace.num_datasets
                    == inputs.STREAM_DATASETS,
                    f"{name}: completed + lost != admitted",
                )
            ],
            "latencies": [r.latency / period for r in completed],
            "late": sum(1 for r in completed if r.latency > bound * (1 + 1e-9)),
            "lost": trace.lost_count,
            "period_ratio": trace.achieved_period / period,
            "bound_periods": bound / period,
            "tolerated": len(trace.events_of_kind("crash-tolerated")),
            "rebuilds": trace.num_rebuilds,
        }

    @staticmethod
    def quality(ops: list[dict]) -> dict:
        from measure import percentile

        latencies = [v for op in ops for v in op["latencies"]]
        admitted = sum(op["units"] for op in ops)
        return {
            "latency_periods": percentile(latencies, 95.0),
            "miss_frac": sum(op["late"] + op["lost"] for op in ops) / admitted,
            "loss_frac": sum(op["lost"] for op in ops) / admitted,
            "period_ratio": percentile([op["period_ratio"] for op in ops], 50.0),
            "bound_periods": sorted({round(op["bound_periods"]) for op in ops}),
            "crash_tolerated": sum(op["tolerated"] for op in ops),
            "rebuilds": sum(op["rebuilds"] for op in ops),
        }


# -------------------------------------------------------------- schedule-large
class ScheduleWorkload:
    """``Session.schedule`` on large random workloads, each result validated."""

    def __init__(self, seed: int):
        from repro import ScenarioSpec

        self.items = [(spec["name"], ScenarioSpec.from_dict(spec)) for spec in inputs.schedule_specs(seed)]

    def op(self, item, probe=None) -> dict:
        from repro import Session, ValidationError, num_stages, validate_schedule

        name, spec = item
        start = time.perf_counter()
        schedule = Session(spec).schedule(0).schedule  # a fresh session: no pipeline cache
        seconds = time.perf_counter() - start
        try:
            validate_schedule(schedule)
            invalid = ""
        except ValidationError as exc:
            invalid = str(exc)
        return {
            "item": name,
            "seconds": seconds,
            "units": 1,
            "digest": _digest(repr((schedule.period, schedule.epsilon, sorted(schedule.gantt())))),
            "checks": [],
            "latency_periods": 2 * num_stages(schedule) - 1,
            "invalid": invalid,
            "shortfall": spec.scheduler.epsilon - schedule.epsilon,
            "period_ratio": schedule.max_cycle_time / schedule.period,
        }

    @staticmethod
    def quality(ops: list[dict]) -> dict:
        count = len(ops)
        return {
            "latency_periods": sum(op["latency_periods"] for op in ops) / count,
            "miss_frac": sum(1 for op in ops if op["invalid"] or op["shortfall"] > 0) / count,
            "invalid_frac": sum(1 for op in ops if op["invalid"]) / count,
            "eps_shortfall": sum(op["shortfall"] for op in ops) / count,
            "period_ratio": sum(op["period_ratio"] for op in ops) / count,
            "invalid": sorted(f"{op['item']}: {op['invalid']}" for op in ops if op["invalid"]),
        }


WORKLOADS = {"stream-saturated": StreamWorkload, "schedule-large": ScheduleWorkload}


def run_pass(workload, probe_factory=None, recorder=None) -> list[dict]:
    ops = []
    for item in workload.items:
        probe = probe_factory() if probe_factory else None
        ops.append(workload.op(item, probe))
        if probe is not None:
            recorder.add_counters(probe.registry.counters)
    return ops


def compact(op: dict) -> dict:
    return {k: op[k] for k in ("item", "seconds", "units", "digest")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-dir", type=Path)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    if args.mode == "setup":
        print("ready", flush=True)
        return 0

    if args.mode == "run":
        print(json.dumps({"items": len(workload.items)}), flush=True)
        first: dict[str, dict] = {}
        ops = []
        cycle = itertools.cycle(workload.items)
        for line in sys.stdin:
            if line.strip() != "op":
                break
            op = workload.op(next(cycle))
            reference = first.setdefault(op["item"], op)
            if reference is not op:
                op["checks"].append(
                    (op["digest"] == reference["digest"], f"{op['item']}: output differs between repeats")
                )
            ops.append(op)
            print(json.dumps(compact(op)), flush=True)
        result = {"quality": workload.quality(list(first.values())) if first else {}}
    else:
        probe_factory = recorder = None
        if args.trace_dir is not None:
            from repro.obs import MetricsProbe

            recorder = tracing.Recorder()
            tracing.install(recorder, args.trace_dir)
            if args.workload == "stream-saturated":
                probe_factory = MetricsProbe
        ops = run_pass(workload, probe_factory, recorder)
        result = {"ops": [compact(op) for op in ops]}
    failures = [reason for op in ops for ok, reason in op["checks"] if not ok]
    result.update(
        attempted=len(ops),
        failed=sum(1 for op in ops if not all(ok for ok, _ in op["checks"])),
        failures=failures[:20],
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
