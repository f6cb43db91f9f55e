"""Command-line front end.

Examples
--------
Regenerate the benchmark-scale version of Figure 3(a)::

    repro-streaming figure3a

Regenerate Figure 4(c) at the paper's scale (60 graphs per point), fanning the
granularity points across 4 worker processes (same numbers, less wall-clock)::

    repro-streaming figure4c --paper-scale --jobs 4

Print the worked examples and the extra studies::

    repro-streaming examples
    repro-streaming ablations --jobs 2
    repro-streaming baselines
    repro-streaming scaling

Run the online streaming runtime: 20 Monte-Carlo trials of a schedule
executing under stochastic processor failures with live rescheduling, 4
trials at a time (identical statistics for any ``--jobs``)::

    repro-streaming runtime --seed 0 --trials 20 --jobs 4
    repro-streaming runtime --policy remap --mttf 200 --mttr 50 --distribution weibull
    repro-streaming runtime --admission queue --rebuild-on-repair

Sweep a whole grid of failure regimes (mttf × mttr × Weibull shape) into a
figure-style report::

    repro-streaming runtime --sweep --jobs 4
    repro-streaming runtime --sweep --sweep-mttf 50,100,200 --sweep-mttr none,25 --sweep-shapes 0.7,1,1.5

Declarative scenarios: define a scenario once as JSON and drive any front end
(schedule / simulate / online run / Monte-Carlo campaign) through the
:class:`~repro.api.Session` facade::

    repro-streaming run examples/scenario.json                     # online run
    repro-streaming run examples/scenario.json --mode monte-carlo --trials 50 --jobs 4
    repro-streaming run examples/scenario.json --mode schedule
    repro-streaming run examples/scenario.json --smoke             # tiny run of all four modes

    repro-streaming config --emit > scenario.json                  # dump the default spec
    repro-streaming config --mttf 60 --mttr 30 --admission queue --emit
    repro-streaming config --scenario scenario.json                # validate a file

Scenario *suites*: one JSON file holding a base scenario plus named axes,
executed as a single sharded campaign with spec-hash result caching — an
unchanged suite re-runs entirely from cache, and replacing an axis value
re-executes only the changed grid points::

    repro-streaming suite run examples/suite.json --jobs 4
    repro-streaming suite run examples/suite.json --x-axis faults.mttf_periods
    repro-streaming suite run examples/suite.json --no-cache
    repro-streaming suite run examples/suite.json --smoke          # tiny CI pass
    repro-streaming suite emit > suite.json                        # starter suite

Observability: the latency-distribution report of a suite (a warm cache
serves it without executing a single point), and per-run instrumentation —
probe metrics as JSON and a Gantt chart of the stream (SVG, or a
self-contained HTML page for ``.html`` paths)::

    repro-streaming suite report examples/suite.json
    repro-streaming suite report examples/suite.json --trajectory BENCH_trajectory.json
    repro-streaming runtime --metrics metrics.json --gantt run.svg
    repro-streaming run examples/scenario.json --gantt run.html --sample 0.25

Wide sweeps and big campaigns can ship statistics instead of full traces —
the worker summarizes each trial before anything crosses the process
boundary (identical numbers, a tiny fraction of the transfer)::

    repro-streaming runtime --trials 200 --jobs 8 --reduce stats
    repro-streaming suite run suite.json --jobs 8 --reduce stats

Cache maintenance: inspect the result cache and prune it to a size bound
(least-recently-used entries go first; losing an entry only means the next
identical run recomputes it)::

    repro-streaming cache ls
    repro-streaming cache gc --max-size 500M

Scheduling-as-a-service: serve the whole engine over HTTP — POST a scenario
or suite JSON, poll the job, fetch the content-hashed result (an identical
re-submit is answered from cache without executing); ``suite report --json``
prints the same machine-readable document the results endpoint serves::

    repro-streaming serve --port 8000 --workers 2
    repro-streaming suite report examples/suite.json --json
"""

from __future__ import annotations

import argparse
import operator
import sys
import time
from functools import partial
from pathlib import Path
from typing import Sequence

# Only the spec layer loads with the CLI; each command imports what it runs
# (see docs/architecture.md, "Import layering").
from repro.scenario.registries import (
    ADMISSION_POLICIES,
    FAULT_DISTRIBUTIONS,
    RESCHEDULE_POLICIES,
)
from repro.scenario.spec import ScenarioSpec

__all__ = ["main", "build_parser"]

#: the figure commands, each a function of :mod:`repro.experiments.figures`.
_FIGURES = ("figure3a", "figure3b", "figure3c", "figure4a", "figure4b", "figure4c")


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for the tests)."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro-streaming",
        description=(
            "Reproduction of 'Optimizing the Latency of Streaming Applications under "
            "Throughput and Reliability Constraints' (Benoit, Hakem, Robert, 2009)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _FIGURES:
        p = sub.add_parser(name, help=f"regenerate {name} of the paper")
        _add_scale_options(p)
    for name, help_text in (
        ("ablations", "ablation of Rule 1, one-to-one mapping and chunk size"),
        ("baselines", "fault-free comparison against related-work heuristics"),
        ("scaling", "scheduler runtime vs graph size"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_scale_options(p)
    sub.add_parser("examples", help="print the Figure 1 and Figure 2 worked examples")
    _add_runtime_parser(sub)
    _add_run_parser(sub)
    _add_config_parser(sub)
    _add_suite_parser(sub)
    _add_cache_parser(sub)
    _add_serve_parser(sub)
    return parser


def _add_scale_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the full experimental scale of the paper (60 graphs per point)",
    )
    parser.add_argument(
        "--graphs",
        type=int,
        default=None,
        help="override the number of random graphs per point",
    )
    parser.add_argument(
        "--no-plot", action="store_true", help="print only the table, no ASCII plot"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for the per-graph work units (results are "
            "identical for any value; in the scaling study each worker times "
            "its own scheduler runs)"
        ),
    )


def _mttr_value(text: str) -> float | None:
    """``--mttr`` argument: a float, or ``none``/``inf`` for fail-stop."""
    if text.lower() in ("none", "inf"):
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r} (a number of stream periods, or 'none')"
        ) from None


#: The scenario-building flags shared by ``runtime`` and ``config``:
#: ``(flag, dotted spec path, help, add_argument keywords[, flag → spec
#: value])``.  Each default is the ``ScenarioSpec()`` value at the path; the
#: ``--no-*`` switches negate a spec field that defaults to true.
_SPEC_FLAGS: tuple[tuple, ...] = (
    ("--datasets", "runtime.num_datasets", "data sets per trial", {"type": int}),
    ("--epsilon", "scheduler.epsilon", "fault-tolerance degree ε", {"type": int}),
    ("--granularity", "workload.granularity", "workload granularity", {"type": float}),
    ("--tasks", "workload.num_tasks", "tasks per random workload", {"type": int}),
    ("--processors", "workload.num_processors", "platform size", {"type": int}),
    (
        "--mttf",
        "faults.mttf_periods",
        "mean time to failure per processor, in stream periods",
        {"type": float},
    ),
    (
        "--mttr",
        "faults.mttr_periods",
        "mean time to repair, in stream periods; 'none' = fail-stop "
        "(default: no repair)",
        {"type": _mttr_value},
    ),
    (
        "--distribution",
        "faults.distribution",
        "inter-failure time distribution",
        {"choices": FAULT_DISTRIBUTIONS},
    ),
    ("--weibull-shape", "faults.weibull_shape", "Weibull shape parameter", {"type": float}),
    (
        "--repair-shape",
        "faults.repair_shape",
        "Weibull shape for repair delays (mean stays --mttr); "
        "default: exponential repairs",
        {"type": float},
    ),
    (
        "--fault-trace",
        "faults.trace_file",
        "replay a recorded availability log (time,node,down|up CSV) "
        "instead of sampling failures; excludes the other fault flags",
        {"metavar": "CSV"},
    ),
    (
        "--group-size",
        "faults.group_size",
        "correlated crash groups: processors fail (and repair) together "
        "in declaration-order chunks of this size",
        {"type": int},
    ),
    (
        "--load-coupling",
        "faults.load_coupling",
        "load-dependent hazards: failure intensity scales with "
        "1 + coupling × processor utilization in the initial schedule",
        {"type": float},
    ),
    (
        "--spares",
        "faults.spares",
        "elastic platform: this many processors start outside the "
        "platform and join mid-stream (requires --join-periods)",
        {"type": int},
    ),
    (
        "--join-periods",
        "faults.join_periods",
        "mean node-join delay, in stream periods (with --spares/--preempt-periods)",
        {"type": float},
    ),
    (
        "--preempt-periods",
        "faults.preempt_periods",
        "spot-preemption mean time between preemptions, in stream "
        "periods (preempted nodes rejoin after --join-periods)",
        {"type": float},
    ),
    (
        "--policy",
        "runtime.policy",
        "online rescheduling policy",
        {"choices": RESCHEDULE_POLICIES.names},
    ),
    (
        "--admission",
        "runtime.admission",
        "admission policy during downtime/throttling (shed drops, queue buffers)",
        {"choices": ADMISSION_POLICIES.names},
    ),
    (
        "--queue-capacity",
        "runtime.queue_capacity",
        "admission buffer size for --admission queue (0 = unbounded)",
        {"type": int},
        lambda v: None if v == 0 else v,
    ),
    (
        "--rebuild-on-repair",
        "runtime.rebuild_on_repair",
        "anticipatory rebuilds on repair events (only when a speculative "
        "reschedule shows the repaired processor improves the schedule)",
        {"action": "store_true"},
    ),
    (
        "--rebuild-overhead",
        "runtime.rebuild_overhead",
        "rebuild downtime, in stream periods",
        {"type": float},
    ),
    (
        "--no-fast-forward",
        "runtime.fast_forward",
        "disable the analytic steady-state fast forward (quiet stretches "
        "are then simulated event by event; results are bit-identical "
        "either way)",
        {"action": "store_true"},
        operator.not_,
    ),
)


def _add_spec_flags(p: argparse.ArgumentParser, suppress: bool = False) -> None:
    """Add every :data:`_SPEC_FLAGS` row to *p*.

    With ``suppress=True`` the flags have no defaults (``argparse.SUPPRESS``):
    only flags the user actually typed land in the namespace, so ``config``
    can apply them as *overrides* on top of a scenario file.
    """
    spec = ScenarioSpec()
    for flag, path, help_text, options, *_ in _SPEC_FLAGS:
        if suppress:
            default = argparse.SUPPRESS
        elif options.get("action") == "store_true":
            default = False
        else:
            section, field = path.split(".")
            default = getattr(getattr(spec, section), field)
        p.add_argument(flag, default=default, help=help_text, **options)


def _flag_overrides(args: argparse.Namespace) -> dict:
    """Dotted-path overrides for the spec flags present in *args*."""
    overrides = {}
    for flag, path, _help, _options, *transform in _SPEC_FLAGS:
        dest = flag[2:].replace("-", "_")
        if hasattr(args, dest):
            value = getattr(args, dest)
            overrides[path] = transform[0](value) if transform else value
    return overrides


def _add_runtime_parser(sub) -> None:
    p = sub.add_parser(
        "runtime",
        help="Monte-Carlo campaign of the online runtime under stochastic failures",
    )
    p.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    p.add_argument("--trials", type=int, default=20, help="number of Monte-Carlo trials")
    p.add_argument("--jobs", type=int, default=1, help="worker processes for the trials")
    _add_spec_flags(p)
    p.add_argument(
        "--sweep",
        action="store_true",
        help="sweep an mttf/mttr × Weibull-shape grid into a figure-style report",
    )
    p.add_argument(
        "--sweep-mttf",
        default="50,100,200,400",
        help="comma-separated mttf grid (periods) for --sweep",
    )
    p.add_argument(
        "--sweep-mttr",
        default="none,25",
        help="comma-separated mttr grid (periods; 'none' = fail-stop) for --sweep",
    )
    p.add_argument(
        "--sweep-shapes",
        default="0.7,1,1.5",
        help="comma-separated Weibull shapes for --sweep (1 = exponential)",
    )
    p.add_argument(
        "--sweep-group-sizes",
        default=None,
        help=(
            "comma-separated crash-group sizes appended as a --sweep axis "
            "('none' = independent failures)"
        ),
    )
    p.add_argument(
        "--sweep-load",
        default=None,
        help="comma-separated load-coupling factors appended as a --sweep axis",
    )
    p.add_argument(
        "--no-plot", action="store_true", help="print only the tables, no ASCII plots"
    )
    _add_reduce_option(p)
    _add_resilience_options(p)
    _add_cache_options(p)
    _add_obs_options(p)


def _add_obs_options(p: argparse.ArgumentParser, sample: bool = False) -> None:
    """The observability-export flags shared by ``runtime`` and ``run``."""
    p.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help=(
            "write the probe metrics of one instrumented online run "
            "(counters, gauges, latency histogram, downtime spans) as JSON"
        ),
    )
    p.add_argument(
        "--gantt",
        default=None,
        metavar="PATH",
        help=(
            "write a Gantt chart of one online run; .html gets a self-"
            "contained page, any other suffix a static SVG"
        ),
    )
    if sample:
        p.add_argument(
            "--sample",
            type=float,
            default=None,
            metavar="P",
            help=(
                "sampled trace retention for the --gantt export: keep every "
                "faulted data set and this fraction of the completed ones "
                "(seeded, deterministic)"
            ),
        )


def _export_obs(args: argparse.Namespace, trace, probe) -> None:
    """Write the ``--gantt`` / ``--metrics`` artifacts of an instrumented run."""
    import json

    if args.gantt:
        from repro.obs import sample_trace, write_gantt

        export = trace
        sample = getattr(args, "sample", None)
        if sample is not None:
            export = sample_trace(trace, sample, seed=args.seed)
        # overlay analytically-skipped stretches when the run fast-forwarded
        ff_spans = [s for s in getattr(probe, "spans", ()) if s[0] == "fast-forward"]
        path = write_gantt(export, args.gantt, spans=ff_spans)
        print(f"gantt: wrote {path} ({len(export.records)} of {len(trace.records)} records)")
    if args.metrics:
        path = Path(args.metrics)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(probe.as_dict(), indent=2, sort_keys=True) + "\n")
        print(f"metrics: wrote {path}")


def _add_run_parser(sub) -> None:
    p = sub.add_parser(
        "run",
        help="run a declarative scenario JSON file through the Session facade",
    )
    p.add_argument("scenario", help="path to a scenario JSON file")
    p.add_argument(
        "--mode",
        choices=("schedule", "simulate", "online", "monte-carlo"),
        default="online",
        help="which front end to drive (default: one online run)",
    )
    p.add_argument("--seed", type=int, default=0, help="run/campaign seed (default 0)")
    p.add_argument(
        "--trials", type=int, default=20, help="trials for --mode monte-carlo"
    )
    p.add_argument(
        "--jobs", type=int, default=1, help="worker processes for --mode monte-carlo"
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "shrink the scenario (few data sets, 2 trials) and exercise all "
            "four modes once — the CI configuration smoke test"
        ),
    )
    _add_obs_options(p, sample=True)


def _add_reduce_option(p: argparse.ArgumentParser) -> None:
    """The worker-transport flag shared by ``runtime`` and ``suite run``."""
    p.add_argument(
        "--reduce",
        choices=("traces", "stats"),
        default="traces",
        help=(
            "worker payload: 'traces' ships every trial's full trace back to "
            "the parent, 'stats' summarizes inside the worker (identical "
            "statistics, a tiny fraction of the inter-process transfer)"
        ),
    )


def _add_resilience_options(p: argparse.ArgumentParser) -> None:
    """The supervised-execution flags shared by ``suite`` and ``runtime``."""
    p.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help=(
            "retries per trial after a worker crash or timeout before the "
            "point is reported failed (default: 2)"
        ),
    )
    p.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget per trial; a stuck worker past it is killed "
            "and the trial retried (needs --jobs >= 2; default: no timeout)"
        ),
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help=(
            "checkpoint every completed trial in the result cache and, on "
            "re-run, execute only the missing ones (needs a cache; the "
            "resumed result is bit-identical to an uninterrupted run)"
        ),
    )
    p.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help=(
            "inject deterministic faults into the toolchain itself, e.g. "
            "'crash=0.2,stall=0.1,corrupt=0.1,seed=7' (rates per trial "
            "attempt; $REPRO_CHAOS sets a default) — results still match a "
            "clean run bit for bit once retries recover"
        ),
    )


def _add_cache_options(
    p: argparse.ArgumentParser, cache_by_default: bool = False
) -> None:
    """The result-cache flags shared by ``suite run`` and ``runtime``.

    ``suite run`` caches by default in the *user's* cache directory (never
    the cwd — see :func:`repro.cache.default_cache_dir`); ``runtime`` opts in
    via an explicit ``--cache-dir``, keeping its output byte-stable run over
    run.
    """
    if cache_by_default:
        from repro.cache import default_cache_dir

        default_dir, default_help = (
            str(default_cache_dir()),
            " (default: the user cache dir; $REPRO_CACHE_DIR overrides)",
        )
    else:
        default_dir, default_help = None, " (off by default)"
    p.add_argument(
        "--cache-dir",
        default=default_dir,
        help="directory of the spec-hash result cache" + default_help,
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache entirely (neither read nor write it)",
    )


def _open_cli_cache(args: argparse.Namespace):
    """The result cache of ``--cache-dir``/``--no-cache``; ``--resume`` needs one."""
    from repro.cache import open_cache

    cache = open_cache(args.cache_dir, enabled=not args.no_cache)
    if getattr(args, "resume", False) and not cache.enabled:
        raise ValueError(
            "--resume needs the result cache (--cache-dir), "
            + ("but --no-cache turns it off" if args.no_cache else "and none was given")
        )
    return cache


def _add_suite_parser(sub) -> None:
    p = sub.add_parser(
        "suite",
        help=(
            "scenario suites: a base scenario + named axes executed as one "
            "sharded, cached sweep campaign"
        ),
    )
    ssub = p.add_subparsers(dest="suite_command", required=True)
    run_p = ssub.add_parser(
        "run", help="execute every grid point of a suite JSON file"
    )
    _add_suite_exec_options(run_p)
    report_p = ssub.add_parser(
        "report",
        help=(
            "latency-distribution report (p50/p95/p99/max per grid point) of "
            "a suite — a warm cache serves it without re-executing a point"
        ),
    )
    _add_suite_exec_options(report_p)
    report_p.add_argument(
        "--json",
        action="store_true",
        help=(
            "print the machine-readable suite result document instead of the "
            "report — the same JSON the service's results endpoint serves"
        ),
    )
    report_p.add_argument(
        "--trajectory",
        default=None,
        metavar="PATH",
        help=(
            "also render this BENCH_trajectory.json benchmark history "
            "(default: ./BENCH_trajectory.json when present)"
        ),
    )
    emit_p = ssub.add_parser(
        "emit", help="print a starter suite JSON (pipe into a suite file)"
    )
    emit_p.add_argument(
        "--scenario",
        default=None,
        help="use this scenario JSON file as the suite's base scenario",
    )


def _add_suite_exec_options(p: argparse.ArgumentParser) -> None:
    """The suite-execution flags shared by ``suite run`` and ``suite report``."""
    p.add_argument("suite", help="path to a suite JSON file")
    p.add_argument(
        "--jobs", type=int, default=1, help="worker processes for cache-miss points"
    )
    p.add_argument(
        "--seed", type=int, default=None, help="override the suite's campaign seed"
    )
    p.add_argument(
        "--trials", type=int, default=None, help="override the suite's trials/point"
    )
    p.add_argument(
        "--x-axis",
        default=None,
        help="suite axis plotted on x in the report panels (default: first axis)",
    )
    p.add_argument(
        "--y-axis",
        default=None,
        help="suite axis leading the curve labels (default: declaration order)",
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "shrink the suite (2 values per axis, 1 trial, short streams) "
            "and run it — the CI configuration smoke test"
        ),
    )
    p.add_argument(
        "--no-plot", action="store_true", help="print only the tables, no ASCII plots"
    )
    _add_reduce_option(p)
    _add_resilience_options(p)
    _add_cache_options(p, cache_by_default=True)


def _run_suite_command(args: argparse.Namespace) -> int:
    from repro.scenario.suite import SuiteSpec

    if args.suite_command == "emit":
        return _emit_suite(args)
    from repro.experiments.reporting import render_latency_report, render_suite

    try:
        suite = SuiteSpec.from_file(args.suite)
    except OSError as exc:
        print(f"repro-streaming suite: error: cannot read suite: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro-streaming suite: error: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        suite = suite.smoke()
    # a bad axis flag must fail here, not after the whole grid executed
    for flag, value in (("--x-axis", args.x_axis), ("--y-axis", args.y_axis)):
        if value is not None and value not in suite.axes:
            print(
                f"repro-streaming suite: error: {flag}: {value!r} is not an "
                f"axis of suite {suite.name!r} (axes: {list(suite.axes)})",
                file=sys.stderr,
            )
            return 2
    effective_x = args.x_axis or next(iter(suite.axes), None)
    if args.y_axis is not None and args.y_axis == effective_x:
        print(
            f"repro-streaming suite: error: --y-axis {args.y_axis!r} is the "
            f"x axis of the report; pick a different axis for the curves",
            file=sys.stderr,
        )
        return 2
    if args.suite_command == "report" and args.json:
        render = partial(_suite_json, reduce=args.reduce)
    else:
        render = partial(
            render_latency_report
            if args.suite_command == "report"
            else render_suite,
            x_axis=args.x_axis,
            y_axis=args.y_axis,
            plot=not args.no_plot,
        )
    code = _execute_suite(args, suite, render, "repro-streaming suite")
    if code == 0 and args.suite_command == "report" and not args.json:
        return _report_trajectory(args)
    return code


def _execute_suite(args: argparse.Namespace, suite, render, prog: str) -> int:
    """Run *suite* under the execution flags of *args*; print ``render(result)``.

    The one execute path of ``suite run``, ``suite report`` and ``runtime
    --sweep``: every resilience flag applies, SIGTERM/SIGINT drain the run at
    a trial boundary (exit 130), and spec or scheduling errors exit 2.
    """
    from repro.exceptions import SchedulingError
    from repro.experiments.sweep import run_suite
    from repro.resilience import drain_signals

    try:
        with drain_signals() as stop:
            result = run_suite(
                suite,
                seed=args.seed,
                trials=args.trials,
                jobs=args.jobs,
                cache=_open_cli_cache(args),
                reduce=args.reduce,
                max_retries=args.max_retries,
                trial_timeout=args.trial_timeout,
                resume=args.resume,
                chaos=args.chaos,
                stop=stop,
            )
        report = render(result)
    except (ValueError, SchedulingError) as exc:
        print(f"{prog}: error: {exc}", file=sys.stderr)
        return 2
    print(report)
    if result.interrupted:
        print(
            f"{prog}: interrupted — re-run with --resume to "
            "execute only the missing trials (completed trials are "
            "checkpointed when --resume and the cache are on)",
            file=sys.stderr,
        )
        return 130
    return 0


def _suite_json(result, reduce: str) -> str:
    """``suite report --json``: the service's machine-readable result document.

    The exact payload ``GET /v1/results/{key}`` serves (same ``result_key``
    derivation), so CLI pipelines and HTTP dashboards consume one format.
    """
    import json

    from repro.service.models import suite_result_key, suite_result_payload

    key = suite_result_key(result.suite, result.seed, result.trials, reduce)
    return json.dumps(suite_result_payload(result, reduce=reduce, key=key))


def _report_trajectory(args: argparse.Namespace) -> int:
    """The benchmark-history tail of ``suite report``.

    An explicitly named ``--trajectory`` file must exist and parse; the
    implicit default (``./BENCH_trajectory.json``) is silently skipped when
    absent, so the report works outside the repository checkout too.
    """
    import json

    from repro.experiments.reporting import render_trajectory

    explicit = args.trajectory is not None
    path = Path(args.trajectory) if explicit else Path("BENCH_trajectory.json")
    if not explicit and not path.exists():
        return 0
    try:
        points = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(
            f"repro-streaming suite: error: cannot read trajectory {path}: {exc}",
            file=sys.stderr,
        )
        return 2
    if not isinstance(points, list):
        print(
            f"repro-streaming suite: error: trajectory {path} is not a JSON list",
            file=sys.stderr,
        )
        return 2
    print()
    print(render_trajectory(points, plot=not args.no_plot))
    return 0


def _emit_suite(args: argparse.Namespace) -> int:
    from repro.scenario.suite import SuiteSpec

    try:
        if args.scenario is not None:
            base = ScenarioSpec.from_file(args.scenario)
        else:
            base = ScenarioSpec()
    except OSError as exc:
        print(
            f"repro-streaming suite: error: cannot read scenario: {exc}",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        print(f"repro-streaming suite: error: {exc}", file=sys.stderr)
        return 2
    suite = SuiteSpec(
        base=base,
        axes={
            "faults.mttf_periods": [50.0, 100.0, 200.0, 400.0],
            "faults.mttr_periods": [None, 25.0],
        },
        name=f"{base.name}-suite",
    )
    print(suite.to_json())
    return 0


def _parse_size(text: str) -> int:
    """A byte count with an optional K/M/G suffix (``500M``, ``2G``, ``0``)."""
    import math

    text = text.strip()
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    factor = units.get(text[-1:].upper())
    number = text[:-1] if factor else text
    try:
        value = float(number) * (factor or 1)
    except ValueError:
        value = float("nan")
    # one error path for unparsable, non-finite ('inf', 'nan') and negative
    # sizes: int() of an infinity would escape argparse as an OverflowError
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r} (expected a non-negative byte count, "
            f"optionally K/M/G-suffixed)"
        )
    return int(value)


def _format_size(n: int | float) -> str:
    """Human form of a byte count (``12.3 MiB``)."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} GiB"  # pragma: no cover - unreachable


def _add_cache_parser(sub) -> None:
    p = sub.add_parser(
        "cache",
        help="inspect and prune the spec-hash result cache",
    )
    csub = p.add_subparsers(dest="cache_command", required=True)
    ls_p = csub.add_parser(
        "ls", help="entry count, bytes and last-use ages of the cache"
    )
    gc_p = csub.add_parser(
        "gc",
        help=(
            "evict least-recently-used entries until the cache fits a size "
            "bound (hits refresh an entry's place in line; losing an entry "
            "only means the next identical run recomputes it)"
        ),
    )
    gc_p.add_argument(
        "--max-size",
        type=_parse_size,
        required=True,
        help="size bound in bytes, or K/M/G-suffixed (e.g. 500M); 0 empties the cache",
    )
    for sp in (ls_p, gc_p):
        sp.add_argument(
            "--cache-dir",
            default=None,
            help="cache directory (default: the user cache dir; $REPRO_CACHE_DIR overrides)",
        )


def _add_serve_parser(sub) -> None:
    p = sub.add_parser(
        "serve",
        help=(
            "serve the engine over HTTP: POST scenarios/suites, poll jobs, "
            "fetch content-hashed results (see docs/service.md)"
        ),
    )
    p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback only)"
    )
    p.add_argument(
        "--port", type=int, default=8000, help="TCP port (0 picks a free one)"
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="concurrent job executions (threads running scenario/suite jobs)",
    )
    p.add_argument(
        "--queue-capacity",
        type=int,
        default=8,
        help=(
            "admitted-but-not-yet-running jobs; beyond workers + this, "
            "submits are shed with 429 + Retry-After instead of queueing"
        ),
    )
    p.add_argument(
        "--exec-jobs",
        type=int,
        default=1,
        help=(
            "worker processes per suite job, forwarded to the campaign "
            "engine (bit-identical results at any value)"
        ),
    )
    p.add_argument(
        "--progress-every",
        type=int,
        default=200,
        help="datasets between two progress events on the job event stream",
    )
    _add_cache_options(p, cache_by_default=True)


def _run_serve_command(args: argparse.Namespace) -> int:
    from repro.service import JobStore, ServiceApp, WorkerPool, make_threaded_server
    from repro.service.limits import CircuitBreaker

    try:
        pool = WorkerPool(workers=args.workers, queue_capacity=args.queue_capacity)
    except ValueError as exc:
        print(f"repro-streaming serve: error: {exc}", file=sys.stderr)
        return 2
    store = JobStore(
        cache=_open_cli_cache(args),
        pool=pool,
        exec_jobs=args.exec_jobs,
        breaker=CircuitBreaker(),
        progress_every=args.progress_every,
    )
    try:
        server = make_threaded_server(ServiceApp(store), args.host, args.port)
    except OSError as exc:
        print(
            f"repro-streaming serve: error: cannot bind {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        pool.shutdown(wait=False)
        return 2
    host, port = server.server_address[:2]
    cache_note = (
        "cache off" if args.no_cache else f"cache {args.cache_dir}"
    )
    print(
        f"repro-streaming serve: http://{host}:{port} "
        f"({args.workers} workers, queue {args.queue_capacity}, {cache_note}) "
        f"— Ctrl-C stops",
        flush=True,
    )
    # SIGTERM (the supervisor/container stop signal) drains exactly like
    # Ctrl-C: in-flight suite jobs return at their next trial boundary with
    # every completed trial checkpointed, so a resubmit resumes.
    import signal

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    graceful = False
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro-streaming serve: draining and shutting down", file=sys.stderr)
        graceful = True
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
        if graceful:
            store.drain()
        else:
            pool.shutdown(wait=False)
    return 0


def _run_cache_command(args: argparse.Namespace) -> int:
    from repro.cache import DiskCache, default_cache_dir
    from repro.utils.ascii import format_table

    root = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    cache = DiskCache(root)
    usage = cache.usage()
    if args.cache_command == "gc":
        evicted = cache.gc(args.max_size)
        freed = sum(e.size for e in evicted)
        after = cache.usage()
        print(
            f"evicted {len(evicted)} of {usage.entries} entries "
            f"({_format_size(freed)} freed); {after.entries} entries, "
            f"{_format_size(after.total_bytes)} remain in {root}"
        )
        return 0
    print(f"result cache: {root}")
    if not usage.entries:
        print("(empty)")
        q_entries, q_bytes = cache.quarantine_usage()
        if q_entries:
            print(
                f"quarantine: {q_entries} corrupted entr"
                f"{'y' if q_entries == 1 else 'ies'} ({_format_size(q_bytes)})"
            )
        return 0
    now = time.time()
    entries = sorted(cache.entries(), key=lambda e: (-e.used, e.key))
    rows: list[list[object]] = [
        [e.key[:16], _format_size(e.size), _format_age(now - e.used)]
        for e in entries
    ]
    q_entries, q_bytes = cache.quarantine_usage()
    if q_entries:
        rows.append(
            [f"quarantine ({q_entries} corrupted)", _format_size(q_bytes), ""]
        )
    rows.append(
        [f"total ({usage.entries} entries)", _format_size(usage.total_bytes), ""]
    )
    print(
        format_table(
            ["entry", "size", "last used"], rows, title="result cache entries"
        )
    )
    return 0


def _format_age(seconds: float) -> str:
    """Human form of an age in seconds (``3.2 h ago``)."""
    seconds = max(0.0, seconds)
    for limit, unit, scale in ((120, "s", 1), (7200, "min", 60), (172800, "h", 3600)):
        if seconds < limit:
            return f"{seconds / scale:.1f} {unit} ago"
    return f"{seconds / 86400:.1f} d ago"


def _add_config_parser(sub) -> None:
    p = sub.add_parser(
        "config",
        help="build, validate and emit declarative scenario specs",
    )
    p.add_argument(
        "--scenario",
        default=None,
        help=(
            "start from this scenario JSON file (validated); any spec flags "
            "given alongside are applied as overrides on top of it"
        ),
    )
    p.add_argument(
        "--name",
        default=argparse.SUPPRESS,
        help="name recorded in the emitted spec",
    )
    p.add_argument(
        "--emit",
        action="store_true",
        help="print the resolved spec as JSON (pipe into a scenario file)",
    )
    _add_spec_flags(p, suppress=True)


def _config(args: argparse.Namespace):
    from repro.experiments.config import bench_config, paper_config

    config = paper_config() if args.paper_scale else bench_config()
    if args.graphs is not None:
        config = config.with_overrides(num_graphs=args.graphs)
    return config


def _parse_grid(text: str, option: str) -> tuple:
    """Parse a comma-separated float grid; ``none`` maps to ``None``."""
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token.lower() in ("none", "inf"):
            values.append(None)
        else:
            try:
                values.append(float(token))
            except ValueError:
                raise ValueError(f"{option}: invalid grid value {token!r}") from None
    if not values:
        raise ValueError(f"{option}: empty grid")
    return tuple(values)


def _sweep_suite(args: argparse.Namespace):
    """The failure-regime suite of ``runtime --sweep``, from its flags.

    The scenario flags give the base (with Weibull failures); the axes are
    mttf × mttr × shape in that grid order, then the crash-group size and
    load coupling when their grids are given.
    """
    from repro.experiments.sweep import EXTRA_SWEEP_AXES, SWEEP_AXES
    from repro.scenario.suite import SuiteSpec

    spec = ScenarioSpec(name="runtime-cli").updated(_flag_overrides(args))
    grids = [
        _parse_grid(args.sweep_mttf, "--sweep-mttf"),
        _parse_grid(args.sweep_mttr, "--sweep-mttr"),
        _parse_grid(args.sweep_shapes, "--sweep-shapes"),
    ]
    for flag, grid in (("--sweep-mttf", grids[0]), ("--sweep-shapes", grids[2])):
        if None in grid:
            raise ValueError(f"{flag}: 'none' is only a value of --sweep-mttr")
    axes = dict(zip(SWEEP_AXES, grids))
    if args.sweep_group_sizes is not None:
        axes[EXTRA_SWEEP_AXES[0]] = tuple(
            None if v is None else int(v)
            for v in _parse_grid(args.sweep_group_sizes, "--sweep-group-sizes")
        )
    if args.sweep_load is not None:
        axes[EXTRA_SWEEP_AXES[1]] = _parse_grid(args.sweep_load, "--sweep-load")
    return SuiteSpec(
        base=spec.updated({"faults.distribution": "weibull"}),
        axes=axes,
        name=f"{spec.name}-failure-regimes",
        trials=args.trials,
        seed=args.seed,
    )


def _run_runtime_command(args: argparse.Namespace) -> int:
    from repro.api import Session
    from repro.exceptions import SchedulingError
    from repro.experiments.reporting import render_sweep
    from repro.resilience import ExecutionError, drain_signals
    from repro.resilience.supervisor import ExecutionInterrupted
    from repro.utils.ascii import format_table

    if args.sweep and (args.metrics or args.gantt):
        print(
            "repro-streaming runtime: error: --metrics/--gantt instrument a "
            "single online run and cannot be combined with --sweep",
            file=sys.stderr,
        )
        return 2
    if args.sweep:
        try:
            suite = _sweep_suite(args)
        except ValueError as exc:
            print(f"repro-streaming runtime: error: {exc}", file=sys.stderr)
            return 2
        render = partial(render_sweep, plot=not args.no_plot)
        return _execute_suite(args, suite, render, "repro-streaming runtime")
    try:
        spec = ScenarioSpec(name="runtime-cli").updated(_flag_overrides(args))
        session = Session(spec)
        with drain_signals() as stop:
            result = session.monte_carlo(
                trials=args.trials,
                seed=args.seed,
                jobs=args.jobs,
                cache=_open_cli_cache(args),
                reduce=args.reduce,
                max_retries=args.max_retries,
                trial_timeout=args.trial_timeout,
                resume=args.resume,
                chaos=args.chaos,
                stop=stop,
            )
        probe = online = None
        if args.metrics or args.gantt:
            # one instrumented run of the campaign's seed: the exported
            # metrics/Gantt describe trial 0, not the aggregate
            from repro.obs import MetricsProbe

            probe = MetricsProbe()
            online = session.run_online(args.seed, probe=probe)
    except ExecutionInterrupted:
        print(
            "repro-streaming runtime: interrupted — re-run with --resume and "
            "a --cache-dir to execute only the missing trials",
            file=sys.stderr,
        )
        return 130
    except ExecutionError as exc:
        print(f"repro-streaming runtime: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, SchedulingError) as exc:
        print(f"repro-streaming runtime: error: {exc}", file=sys.stderr)
        return 2
    title = (
        f"Online runtime campaign — {args.trials} trials, seed {args.seed}, "
        f"policy {args.policy}, admission {args.admission}, mttf {args.mttf:g}Δ"
        + ("" if args.mttr is None else f", mttr {args.mttr:g}Δ")
    )
    print(format_table(["statistic", "value"], result.as_rows(), title=title))
    if probe is not None:
        _export_obs(args, online.trace, probe)
    return 0


def _print_result(result, title: str) -> None:
    from repro.utils.ascii import format_table

    print(format_table(["metric", "value"], result.as_rows(), title=title))


def _run_run_command(args: argparse.Namespace) -> int:
    from repro.api import Session
    from repro.exceptions import SchedulingError
    from repro.resilience import ExecutionError

    try:
        session = Session.from_file(args.scenario)
    except OSError as exc:
        print(f"repro-streaming run: error: cannot read scenario: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro-streaming run: error: {exc}", file=sys.stderr)
        return 2

    if (args.metrics or args.gantt) and (args.smoke or args.mode != "online"):
        print(
            "repro-streaming run: error: --metrics/--gantt instrument a "
            "single online run (--mode online, without --smoke)",
            file=sys.stderr,
        )
        return 2
    if args.sample is not None and not args.gantt:
        print(
            "repro-streaming run: error: --sample only thins the --gantt "
            "export; pass --gantt too",
            file=sys.stderr,
        )
        return 2

    spec = session.spec
    print(spec.describe())
    try:
        if args.smoke:
            # Tiny pass through every front end: the configuration path is
            # exercised end to end without the full Monte-Carlo cost.
            small = spec.updated(
                {"runtime.num_datasets": min(spec.runtime.num_datasets, 25)}
            )
            session = Session(small)
            _print_result(session.schedule(args.seed), "schedule")
            _print_result(session.simulate(seed=args.seed), "simulate")
            _print_result(session.run_online(args.seed), "online run")
            _print_result(
                session.monte_carlo(trials=2, seed=args.seed, jobs=1),
                "monte-carlo (2 trials)",
            )
            return 0
        if args.mode == "schedule":
            result = session.schedule(args.seed)
        elif args.mode == "simulate":
            result = session.simulate(seed=args.seed)
        elif args.mode == "online":
            probe = None
            if args.metrics or args.gantt:
                from repro.obs import MetricsProbe

                probe = MetricsProbe()
            result = session.run_online(args.seed, probe=probe)
        else:
            result = session.monte_carlo(
                trials=args.trials, seed=args.seed, jobs=args.jobs
            )
    except ExecutionError as exc:
        print(f"repro-streaming run: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, SchedulingError) as exc:
        print(f"repro-streaming run: error: {exc}", file=sys.stderr)
        return 2
    _print_result(result, f"{spec.name} — {args.mode} (seed {args.seed})")
    if args.mode == "online" and probe is not None:
        _export_obs(args, result.trace, probe)
    return 0


def _run_config_command(args: argparse.Namespace) -> int:
    try:
        if args.scenario is not None:
            base = ScenarioSpec.from_file(args.scenario)
        else:
            base = ScenarioSpec()
        changes = _flag_overrides(args)
        if hasattr(args, "name"):
            changes["name"] = args.name
        spec = base.updated(changes)
    except OSError as exc:
        print(f"repro-streaming config: error: cannot read scenario: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro-streaming config: error: {exc}", file=sys.stderr)
        return 2
    if args.emit:
        print(spec.to_json())
    else:
        print(f"scenario OK: {spec.describe()}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command

    if command == "examples":
        from repro.experiments.reporting import render_example_rows
        from repro.experiments.tables import figure1_scenarios, figure2_example

        print(render_example_rows(figure1_scenarios(), "Figure 1 — execution scenarios"))
        print()
        print(render_example_rows(figure2_example(), "Figure 2 — LTF vs R-LTF"))
        return 0
    if command == "runtime":
        return _run_runtime_command(args)
    if command == "run":
        return _run_run_command(args)
    if command == "config":
        return _run_config_command(args)
    if command == "suite":
        return _run_suite_command(args)
    if command == "cache":
        return _run_cache_command(args)
    if command == "serve":
        return _run_serve_command(args)

    from repro.experiments import figures as fig
    from repro.experiments.reporting import render_series

    config = _config(args)
    jobs = getattr(args, "jobs", 1)
    if command in _FIGURES:
        series = getattr(fig, command)(config, jobs=jobs)
    elif command == "ablations":
        series = fig.ablation_rules(config, jobs=jobs)
    elif command == "baselines":
        series = fig.baseline_comparison(config, jobs=jobs)
    elif command == "scaling":
        series = fig.scaling_study(config=config, jobs=jobs)
    else:  # pragma: no cover - argparse enforces valid choices
        parser.error(f"unknown command {command!r}")
        return 2
    print(render_series(series, plot=not args.no_plot))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
