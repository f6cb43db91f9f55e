"""ASCII rendering of experiment results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.utils.ascii import ascii_plot, format_table

if TYPE_CHECKING:  # pragma: no cover - types only (sweep imports this module)
    from repro.experiments.campaign import PointResult
    from repro.experiments.sweep import SweepResult
    from repro.experiments.tables import ExampleRow

__all__ = [
    "FigureSeries",
    "render_series",
    "render_point_table",
    "render_example_rows",
    "render_sweep",
    "render_suite",
    "render_latency_report",
    "render_trajectory",
]


@dataclass
class FigureSeries:
    """The data behind one figure panel."""

    name: str
    x_label: str
    x: tuple[float, ...]
    series: dict[str, tuple[float, ...]] = field(default_factory=dict)
    description: str = ""

    def as_rows(self) -> list[list[float]]:
        """Table rows ``[x, series1, series2, ...]`` (used by the reports)."""
        rows = []
        for i, xv in enumerate(self.x):
            rows.append([xv, *[vals[i] for vals in self.series.values()]])
        return rows


def render_series(figure: FigureSeries, plot: bool = True) -> str:
    """Render a :class:`FigureSeries` as a table (optionally with an ASCII plot)."""
    headers = [figure.x_label, *figure.series.keys()]
    table = format_table(headers, figure.as_rows(), title=f"{figure.name}: {figure.description}")
    if not plot:
        return table
    return table + "\n\n" + ascii_plot(figure.series)


def render_point_table(points: Sequence["PointResult"]) -> str:
    """Render raw campaign points (one row per granularity, one column per metric)."""
    if not points:
        return "(no data)"
    metrics = sorted({name for p in points for name in p.metrics})
    headers = ["granularity", *metrics]
    rows = [[p.granularity, *[p.metric(m) for m in metrics]] for p in points]
    return format_table(headers, rows)


def _cache_line(result: "SweepResult") -> str:
    """The cache-accounting line of a suite/sweep report."""
    if not result.cache_enabled:
        return (
            f"cache: disabled — executed {result.executed_count} of "
            f"{len(result.points)} points"
        )
    stats = result.cache_stats
    return (
        f"cache: {stats.describe()} — executed {result.executed_count} of "
        f"{len(result.points)} points"
    )


def _resilience_lines(result: "SweepResult") -> list[str]:
    """Recovery/degradation annotations of a suite run (empty when clean).

    An undisturbed, non-resumed run contributes nothing, keeping the
    historical report byte-stable; any retry, checkpoint reuse, failed point
    or drain shows up explicitly — a partial result must never read like a
    complete one.
    """
    lines: list[str] = []
    nonzero = {
        name: count for name, count in result.resilience.items() if count
    }
    if nonzero:
        lines.append(
            "resilience: "
            + ", ".join(f"{count} {name}" for name, count in nonzero.items())
        )
    if result.resumed_trials:
        lines.append(
            f"resumed: {result.resumed_trials} trial(s) served from "
            f"checkpoints, {result.executed_trials} executed"
        )
    return lines + _degradation_lines(result)


def _degradation_lines(result: "SweepResult") -> list[str]:
    """One line per failed point, plus a drain notice (empty when complete)."""
    lines = [f"FAILED point #{index}: {note}" for index, note in result.failures]
    if result.interrupted:
        lines.append(
            "interrupted: run was drained before completing — re-run with "
            "--resume to execute only the missing trials"
        )
    return lines


def _regime_label(point) -> str:
    """Curve label of a failure-regime sweep point: mttr × shape, plus the
    crash-group size and load coupling when the point has them."""
    faults = point.spec.faults
    mttr = "∞" if faults.mttr_periods is None else f"{faults.mttr_periods:g}Δ"
    label = f"mttr={mttr}, shape={faults.weibull_shape:g}"
    if faults.group_size is not None:
        label += f", groups={faults.group_size}"
    if faults.load_coupling:
        label += f", load={faults.load_coupling:g}"
    return label


def render_sweep(result: "SweepResult", plot: bool = True) -> str:
    """Render a failure-regime sweep (``runtime --sweep``), one panel per metric.

    *result* is the suite run over the failure-regime axes, mttf first.
    Each panel plots a metric against mttf with one curve per regime label.
    Retries that recovered leave the report as it would be on an undisturbed
    run; a lost point renders NaN cells and a ``FAILED point`` line.
    """
    from repro.experiments.sweep import SWEEP_METRICS

    runtime = result.suite.base.runtime
    mttf_grid = tuple(
        float(m) for m in result.suite.axis_values("faults.mttf_periods")
    )
    lines = [
        f"Online runtime sweep — {result.trials} trials/point, seed {result.seed}, "
        f"policy {runtime.policy}, admission {runtime.admission}, "
        f"mttf grid {[f'{m:g}' for m in mttf_grid]}"
    ]
    # only when a real cache backed the run: a cacheless `runtime --sweep`
    # keeps its historical, byte-stable report.
    if result.cache_enabled:
        lines.append(_cache_line(result))
    lines.extend(_degradation_lines(result))
    panels = []
    for metric, attr in SWEEP_METRICS.items():
        series: dict[str, list[float]] = {}
        for point in result.points:
            series.setdefault(_regime_label(point), []).append(
                float("nan") if point.failed else getattr(point.stats, attr)
            )
        # mean latency is reported in periods of the *trial* schedule, which
        # varies per workload; the panel still orders regimes correctly.
        figure = FigureSeries(
            name=f"runtime_sweep:{metric}",
            x_label="mttf (periods)",
            x=mttf_grid,
            series={label: tuple(vals) for label, vals in series.items()},
            description=(
                f"Online runtime {metric} vs mttf ({result.trials} trials/point, "
                f"policy {runtime.policy}, admission {runtime.admission})"
            ),
        )
        panels.append(render_series(figure, plot=plot))
    return "\n\n".join(["\n".join(lines), *panels])


def _render_grid(result, header, metrics, title, x_axis, y_axis, plot) -> str:
    """*header* lines, the per-point table of *metrics*, one panel per metric."""
    table = format_table(result.row_headers(metrics), result.as_rows(metrics), title=title)
    if not result.suite.axes:
        return "\n\n".join(["\n".join(header), table])
    panels = [
        render_series(result.panel(x_axis, metric, y_axis=y_axis), plot=plot)
        for metric in metrics
    ]
    return "\n\n".join(["\n".join(header), table, *panels])


def render_suite(
    result: "SweepResult",
    x_axis: str | None = None,
    y_axis: str | None = None,
    plot: bool = True,
) -> str:
    """Render a suite run: header, per-point table, one panel per metric.

    *x_axis* / *y_axis* choose the pivot exactly as in
    :meth:`~repro.experiments.sweep.SweepResult.panel`.  The ASCII plots
    chart each curve against its x *index* (``repro.utils.ascii.ascii_plot``
    never reads the x values), so non-numeric x axes render fine — the
    tables carry the actual x values.
    """
    from repro.experiments.sweep import SWEEP_METRICS

    # the header shows the trials/seed this run actually executed with,
    # which --trials/--seed may have overridden from the suite's defaults
    header = [
        f"Suite {result.suite.describe(trials=result.trials, seed=result.seed)}",
        _cache_line(result),
        *_resilience_lines(result),
    ]
    return _render_grid(result, header, SWEEP_METRICS, "grid points", x_axis, y_axis, plot)


def render_latency_report(
    result: "SweepResult",
    x_axis: str | None = None,
    y_axis: str | None = None,
    plot: bool = True,
) -> str:
    """Render the ``suite report`` latency-distribution view of a suite run.

    Same pivoting rules as :func:`render_suite`, but the metric columns and
    panels are the :data:`~repro.experiments.sweep.REPORT_METRICS` latency
    distribution (p50/p95/p99/max/mean) instead of the availability-centric
    :data:`~repro.experiments.sweep.SWEEP_METRICS`.  On a warm cache the
    whole report is served without executing a single point — the cache line
    says so explicitly.
    """
    from repro.experiments.sweep import REPORT_METRICS

    header = [
        f"Latency report — suite "
        f"{result.suite.describe(trials=result.trials, seed=result.seed)}",
        _cache_line(result),
        *_resilience_lines(result),
        "percentiles are fixed-bucket upper edges (≤ ~8.5% high); max is exact",
    ]
    return _render_grid(
        result, header, REPORT_METRICS, "latency by grid point", x_axis, y_axis, plot
    )


def render_trajectory(points: Sequence[dict], plot: bool = True) -> str:
    """Render the cross-commit benchmark trajectory (``BENCH_trajectory.json``).

    One row per recorded point — commit, run kind, the headline
    ``long_stream_datasets_per_sec`` throughput — plus an ASCII plot of the
    headline history (smoke and full runs are separate curves: they execute
    different stream lengths and must not be read as one series).
    """
    headline = "long_stream_datasets_per_sec"
    if not points:
        return "benchmark trajectory: no recorded points"
    rows = []
    series: dict[str, list[float]] = {}
    for point in points:
        value = point.get(headline)
        kind = "smoke" if point.get("smoke") else "full"
        rows.append(
            [
                str(point.get("commit", "?"))[:12],
                kind,
                float("nan") if value is None else float(value),
            ]
        )
        series.setdefault(f"{kind} datasets/s", []).append(
            float("nan") if value is None else float(value)
        )
    table = format_table(
        ["commit", "kind", "datasets/s"],
        rows,
        title=f"benchmark trajectory — {len(points)} points",
    )
    if not plot:
        return table
    return table + "\n\n" + ascii_plot(series)


def render_example_rows(rows: Sequence["ExampleRow"], title: str) -> str:
    """Render the Figure 1 / Figure 2 example tables."""
    headers = ["scenario", "latency", "throughput", "stages", "processors", "note"]
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row.scenario,
                "-" if row.latency is None else f"{row.latency:.1f}",
                "-" if row.throughput is None else f"{row.throughput:.4f}",
                "-" if row.stages is None else str(row.stages),
                "-" if row.processors is None else str(row.processors),
                row.note,
            ]
        )
    return format_table(headers, table_rows, title=title)
