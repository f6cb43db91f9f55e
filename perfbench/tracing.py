"""Wall-clock spans around the public calls of each layer, for the traced run.

The program carries no span instrumentation of its own, so the benchmark
wraps the public functions each layer exports (``install``) and records one
span per call: name, start, end, parent, and the process and thread it ran
in.  Spans stay in memory and are written once, when the process exits —
pool workers included, through ``multiprocessing``'s after-fork and exit
hooks.  The untraced runs never call ``install``; they pay nothing.

A span's *self* time is its duration minus the part of its interval that its
direct children cover (``self_seconds``); the per-layer ledger
(``layer_metrics``) is derived from spans and counters only.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import pickle
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

#: per-layer metrics, in the order ``BENCHMARK.json`` lists them.
LAYER_METRICS = (
    ("sim.kernel.events_per_dataset", "count"),
    ("sim.kernel.events_per_s", "1/s"),
    ("sim.steady.ff_dataset_frac", "frac"),
    ("sim.steady.ff_spans", "count"),
    ("runtime.run_self_s", "s"),
    ("runtime.crash_tolerated", "count"),
    ("runtime.rebuilds", "count"),
    ("core.rltf_s", "s"),
    ("core.rltf_calls", "count"),
    ("core.ltf_calls", "count"),
    ("scenario.ladder_attempts", "count"),
    ("scenario.build_schedule_self_s", "s"),
    ("schedule.validate_s", "s"),
    ("schedule.invalid", "count"),
    ("graph.generate_s", "s"),
    ("experiments.period_s", "s"),
    ("resilience.pool_s", "s"),
    ("resilience.pool_busy_frac", "frac"),
    ("resilience.retries", "count"),
    ("experiments.trial_payload_bytes", "B"),
    ("cache.get_ms_p50", "ms"),
    ("cache.put_ms_p50", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.bytes_written", "B"),
    ("cli.import_s", "s"),
    ("service.submit_ms_p50", "ms"),
    ("service.result_get_ms_p50", "ms"),
    ("service.polls_per_job", "count"),
    ("service.poll_interval_ms", "ms"),
    ("obs.trace_overhead_frac", "frac"),
)


@dataclass
class Span:
    pid: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    error: bool = False
    #: one number a wrapper attaches: bytes, a hit flag, a worker count.
    value: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span and counter store of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, after=None):
        """*fn* recording one span per call; ``after(span, args, kwargs,
        result)`` may set ``span.value``.  Exceptions mark the span and
        propagate unchanged."""
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            span = Span(
                pid=os.getpid(),
                id=next(recorder._ids),
                parent=stack[-1] if stack else None,
                name=name,
                start=time.perf_counter(),
                end=0.0,
            )
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            else:
                if after is not None:
                    after(span, args, kwargs, result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with recorder._lock:
                    recorder.spans.append(span)

        traced.__wrapped__ = fn
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(traced, attr, getattr(fn, attr, None))
        return traced

    def add_counters(self, counters) -> None:
        with self._lock:
            self.counters.update(counters)

    def reset(self) -> None:
        """Drop everything (a forked child must not re-report its parent's spans)."""
        self.spans = []
        self.counters = Counter()
        self.samples = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "spans": [
                    [s.pid, s.id, s.parent, s.name, s.start, s.end, s.error, s.value]
                    for s in self.spans
                ],
                "counters": dict(self.counters),
                "samples": {k: list(v) for k, v in self.samples.items()},
            }

    def dump(self, directory: Path) -> None:
        path = Path(directory) / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.as_dict()))


def load(*directories: Path) -> Recorder:
    """Merge every process's dump under *directories* into one recorder.

    Each dump's spans get the dump's index as their process key, so a pid
    reused between two traced processes cannot join their span trees."""
    merged = Recorder()
    paths = [path for d in directories for path in sorted(Path(d).glob("spans-*.json"))]
    for key, path in enumerate(paths):
        data = json.loads(path.read_text())
        merged.spans.extend(Span(key, *row[1:]) for row in data["spans"])
        merged.counters.update(data["counters"])
        for key, values in data["samples"].items():
            merged.samples[key].extend(values)
    return merged


# ----------------------------------------------------------------- analysis
def self_seconds(span: Span, children) -> float:
    """*span*'s duration minus the union of its children's intervals in it."""
    covered = 0.0
    cursor = span.start
    for start, end in sorted((c.start, c.end) for c in children):
        start, end = max(start, cursor), min(end, span.end)
        if end > start:
            covered += end - start
            cursor = end
    return span.duration - covered


def children_of(spans) -> dict:
    """``(pid, id) -> [direct child spans]``."""
    out: dict = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            out[(span.pid, span.parent)].append(span)
    return out


def layer_metrics(recorder: Recorder, overhead_frac: float) -> dict[str, float]:
    """The per-layer ledger; a layer the workload never entered reads 0."""
    spans = recorder.spans
    counters = recorder.counters
    samples = recorder.samples
    kids = children_of(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    ids_of = {name: {(s.pid, s.id) for s in group} for name, group in by_name.items()}

    def total(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    def self_total(name: str) -> float:
        return sum(self_seconds(s, kids[(s.pid, s.id)]) for s in by_name[name])

    def median_ms(name: str) -> float:
        group = by_name[name]
        return statistics.median(s.duration for s in group) * 1e3 if group else 0.0

    def median_of(key: str) -> float:
        return statistics.median(samples[key]) if samples.get(key) else 0.0

    datasets = sum(v for k, v in counters.items() if k.startswith("datasets."))
    events = counters.get("kernel.events.total", 0)
    run_self = self_total("runtime.run")
    pool_capacity = sum(s.duration * (s.value or 1) for s in by_name["resilience.pool"])
    builds = ids_of.get("scenario.build_schedule", set())
    ladder = sum(
        1
        for name in ("core.rltf", "core.ltf")
        for s in by_name[name]
        if (s.pid, s.parent) in builds
    )
    trials = by_name["experiments.trial"]
    polls = samples.get("service.polls", [])
    return {
        "sim.kernel.events_per_dataset": events / datasets if datasets else 0.0,
        "sim.kernel.events_per_s": events / run_self if run_self > 0 else 0.0,
        "sim.steady.ff_dataset_frac": (
            counters.get("runtime.fast_forward.datasets", 0) / datasets if datasets else 0.0
        ),
        "sim.steady.ff_spans": counters.get("runtime.fast_forward.spans", 0),
        "runtime.run_self_s": run_self,
        "runtime.crash_tolerated": counters.get("runtime.events.crash-tolerated", 0),
        "runtime.rebuilds": counters.get("runtime.events.rebuild-complete", 0),
        "core.rltf_s": total("core.rltf"),
        "core.rltf_calls": len(by_name["core.rltf"]),
        "core.ltf_calls": len(by_name["core.ltf"]),
        "scenario.ladder_attempts": ladder,
        "scenario.build_schedule_self_s": self_total("scenario.build_schedule"),
        "schedule.validate_s": total("schedule.validate"),
        "schedule.invalid": sum(1 for s in by_name["schedule.validate"] if s.error),
        "graph.generate_s": total("graph.generate"),
        "experiments.period_s": total("experiments.period"),
        "resilience.pool_s": total("resilience.pool"),
        "resilience.pool_busy_frac": (
            sum(s.duration for s in trials) / pool_capacity if pool_capacity else 0.0
        ),
        "resilience.retries": counters.get("resilience.retries", 0),
        "experiments.trial_payload_bytes": (
            statistics.mean(s.value for s in trials) if trials else 0.0
        ),
        "cache.get_ms_p50": median_ms("cache.get"),
        "cache.put_ms_p50": median_ms("cache.put"),
        "cache.hits": sum(1 for s in by_name["cache.get"] if s.value == 1),
        "cache.misses": sum(1 for s in by_name["cache.get"] if s.value == 0),
        "cache.bytes_written": sum(s.value or 0 for s in by_name["cache.put"]),
        "cli.import_s": median_of("cli.import_s"),
        "service.submit_ms_p50": median_of("service.submit_ms"),
        "service.result_get_ms_p50": median_of("service.result_get_ms"),
        "service.polls_per_job": statistics.mean(polls) if polls else 0.0,
        "service.poll_interval_ms": median_of("service.poll_interval_ms"),
        "obs.trace_overhead_frac": overhead_frac,
    }


# ------------------------------------------------------------ instrumenting
def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``repro`` module global (and scheduler registry entry) that
    refers to *original*: call sites bound it with ``from x import f``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
    from repro.scenario.registries import SCHEDULERS

    for name in SCHEDULERS:
        entry = SCHEDULERS[name]
        if entry.build is original:
            # SchedulerEntry is a frozen dataclass; the traced process alone
            # sees the rebinding.
            object.__setattr__(entry, "build", replacement)


def _wrap_function(recorder: Recorder, module_name: str, attr: str, span: str, after=None):
    module = sys.modules[module_name]
    original = getattr(module, attr)
    _replace_everywhere(original, recorder.wrap(span, original, after))


def _wrap_method(recorder: Recorder, cls, attr: str, span: str, after=None) -> None:
    setattr(cls, attr, recorder.wrap(span, getattr(cls, attr), after))


def install(recorder: Recorder, directory: Path | None = None) -> None:
    """Wrap the public calls of every layer; dump spans at exit to *directory*."""
    import multiprocessing.util

    import repro.api  # noqa: F401 - binds the facade's imports before rebinding
    import repro.cache.disk as disk
    import repro.core.ltf  # noqa: F401
    import repro.core.rltf  # noqa: F401
    import repro.experiments.config  # noqa: F401
    import repro.experiments.sweep  # noqa: F401
    import repro.graph.generator  # noqa: F401
    import repro.resilience.supervisor  # noqa: F401
    import repro.runtime.engine as engine
    import repro.runtime.montecarlo  # noqa: F401
    import repro.scenario.run as scenario_run
    import repro.schedule.validation  # noqa: F401
    from repro.obs import MetricsProbe

    def pool_after(span, args, kwargs, outcome):
        jobs = kwargs.get("jobs", args[2] if len(args) > 2 else 1)
        span.value = max(1, min(int(jobs or 1), len(args[1])))
        recorder.add_counters({"resilience.retries": outcome.counters.get("retries", 0)})

    def trial_after(span, args, kwargs, result):
        span.value = len(pickle.dumps(result, protocol=4))

    def get_after(span, args, kwargs, result):
        span.value = 0 if result is disk.MISS else 1

    def put_after(span, args, kwargs, result):
        cache, key = args[0], args[1]
        try:
            span.value = cache.path_of(key).stat().st_size
        except OSError:
            span.value = 0

    _wrap_function(recorder, "repro.scenario.run", "build_schedule", "scenario.build_schedule")
    _wrap_function(recorder, "repro.graph.generator", "random_paper_workload", "graph.generate")
    _wrap_function(recorder, "repro.experiments.config", "workload_period", "experiments.period")
    _wrap_function(recorder, "repro.core.rltf", "rltf_schedule", "core.rltf")
    _wrap_function(recorder, "repro.core.ltf", "ltf_schedule", "core.ltf")
    _wrap_function(recorder, "repro.schedule.validation", "validate_schedule", "schedule.validate")
    _wrap_function(
        recorder, "repro.resilience.supervisor", "supervised_map", "resilience.pool", pool_after
    )
    _wrap_function(recorder, "repro.runtime.montecarlo", "run_trial", "experiments.trial", trial_after)
    _wrap_function(
        recorder, "repro.runtime.montecarlo", "run_trial_summary", "experiments.trial", trial_after
    )
    _wrap_method(recorder, engine.OnlineRuntime, "run", "runtime.run")
    _wrap_method(recorder, disk.DiskCache, "get", "cache.get", get_after)
    _wrap_method(recorder, disk.DiskCache, "put", "cache.put", put_after)

    # Campaign trials run without a probe; attach the public MetricsProbe so
    # kernel and fast-forward counts are observed (probes never perturb a trace).
    execute_online = scenario_run.execute_online

    def probed_execute_online(spec, workload, schedule, fault_seed, probe=None):
        if probe is not None:
            return execute_online(spec, workload, schedule, fault_seed, probe=probe)
        probe = MetricsProbe()
        trace = execute_online(spec, workload, schedule, fault_seed, probe=probe)
        recorder.add_counters(probe.registry.counters)
        return trace

    _replace_everywhere(execute_online, probed_execute_online)

    if directory is not None:
        def child_after_fork(rec: Recorder) -> None:
            rec.reset()
            multiprocessing.util.Finalize(rec, rec.dump, args=(directory,), exitpriority=100)

        multiprocessing.util.register_after_fork(recorder, child_after_fork)
        atexit.register(recorder.dump, directory)
