"""Suite execution: grids of online-runtime campaigns, and their panels.

:func:`run_suite` executes a :class:`~repro.scenario.suite.SuiteSpec` — any
axes over any base scenario — as one sharded, cached campaign and returns a
:class:`SweepResult` whose :meth:`~SweepResult.panel` pivots the grid into
figure-ready :class:`~repro.experiments.figures.FigureSeries` panels for
arbitrary ``(x_axis, metric, y_axis)`` choices.  The run itself is the one
campaign executor of :mod:`repro.experiments.parallel`; this module adds the
grid-order seed derivation and the result bookkeeping.  The failure-regime
sweep — mttf × mttr × Weibull shape, ``repro-streaming runtime --sweep`` —
is a suite over :data:`SWEEP_AXES` (plus :data:`EXTRA_SWEEP_AXES` when
asked), rendered by :func:`repro.experiments.reporting.render_sweep`.

Execution model (what makes sweeps deterministic *and* cacheable):

* the grid is a :meth:`ScenarioSpec.grid <repro.scenario.spec.ScenarioSpec.
  grid>` product — every point is a self-contained, picklable
  :class:`~repro.scenario.spec.ScenarioSpec`;
* every point's campaign seed is derived *up front* from the sweep seed in
  grid order, so results are identical for any ``--jobs`` value and any
  hit/miss pattern;
* each point's campaign is addressed by a content hash of
  ``(spec.to_dict(), seed, trials, code version)`` (see :mod:`repro.cache`):
  cache hits are bit-identical to re-execution by construction, only cache
  misses are fanned across worker processes, and re-running a suite after
  replacing an axis value in place re-executes only the changed points
  (*reshaping* an axis shifts the in-grid-order seeds of later points, so
  those re-execute too — see docs/scenarios.md for the exact reuse rules).

The Weibull shape axis stresses the failure-arrival law itself: ``shape < 1``
gives infant-mortality bursts, ``shape = 1`` is the exponential (memoryless)
case of the paper, ``shape > 1`` models wear-out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache import CacheStats, open_cache
from repro.exceptions import SpecificationError
from repro.experiments.reporting import FigureSeries
from repro.runtime.trace import RuntimeStats
from repro.scenario.spec import ScenarioSpec
from repro.scenario.suite import SuiteSpec
from repro.utils.rng import derive_seed, ensure_rng

__all__ = [
    "SWEEP_METRICS",
    "SWEEP_AXES",
    "EXTRA_SWEEP_AXES",
    "REPORT_METRICS",
    "SuitePointResult",
    "SweepResult",
    "run_suite",
]

#: metric name -> RuntimeStats attribute plotted by the sweep report.
SWEEP_METRICS: dict[str, str] = {
    "availability": "mean_availability",
    "loss rate": "mean_loss_rate",
    "rebuilds per trial": "mean_rebuilds",
    "mean latency": "mean_latency",
}

#: metric name -> RuntimeStats attribute of the latency-distribution report
#: (``repro-streaming suite report``).  Kept separate from
#: :data:`SWEEP_METRICS` so the existing ``suite run`` report stays
#: byte-stable; the percentile attributes come from the merged fixed-bucket
#: histograms (see :mod:`repro.obs.metrics`), so they are identical for
#: ``reduce="traces"`` and ``reduce="stats"`` campaigns.
REPORT_METRICS: dict[str, str] = {
    "p50 latency": "p50_latency",
    "p95 latency": "p95_latency",
    "p99 latency": "p99_latency",
    "max latency": "max_latency",
    "mean latency": "mean_latency",
}

#: the dotted spec axes of the failure-regime sweep (``runtime --sweep``),
#: in grid order.
SWEEP_AXES = (
    "faults.mttf_periods",
    "faults.mttr_periods",
    "faults.weibull_shape",
)

#: optional failure-world axes appended (in this order) when the sweep is
#: given ``--sweep-group-sizes`` / ``--sweep-load`` grids.
EXTRA_SWEEP_AXES = (
    "faults.group_size",
    "faults.load_coupling",
)


# ---------------------------------------------------------------- generic suites
def _resolve_metric(metric: str) -> str:
    """Map a report metric name (or a raw stats attribute) to the attribute."""
    if metric in SWEEP_METRICS:
        return SWEEP_METRICS[metric]
    if metric in REPORT_METRICS:
        return REPORT_METRICS[metric]
    # no-default dataclass fields are not class attributes, so hasattr() on
    # the class would miss them — consult the field map instead.
    if metric in RuntimeStats.__dataclass_fields__:
        return metric
    raise SpecificationError(
        f"unknown sweep metric {metric!r}; choose one of "
        f"{[*SWEEP_METRICS, *REPORT_METRICS]} or a RuntimeStats attribute"
    )


def _axis_leaf(path: str) -> str:
    """The field part of a dotted axis path (``faults.mttf_periods`` → leaf)."""
    return path.rsplit(".", 1)[-1]


def _format_axis_value(value) -> str:
    """Human form of one axis value in series labels (``None`` = fail-stop)."""
    if value is None:
        return "∞"
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _spec_value(spec: ScenarioSpec, path: str):
    """Read one dotted path (``section.field`` or ``name``) off a spec."""
    if path == "name":
        return spec.name
    section, _, leaf = path.partition(".")
    return getattr(getattr(spec, section), leaf)


@dataclass(frozen=True)
class SuitePointResult:
    """One grid point of a suite run: its spec, seed, campaign and provenance."""

    spec: ScenarioSpec
    seed: int
    #: the point's campaign — or ``None`` when the point could not complete
    #: (retry exhaustion under a dying pool, or an interrupted drain); then
    #: :attr:`failure` says why and the metrics render as NaN.
    campaign: "RuntimeCampaignResult | None"  # noqa: F821 - imported lazily
    #: whether this point was served from the result cache (bit-identical to
    #: re-execution by construction) instead of being re-run.
    cached: bool
    #: failure annotation of a point that has no campaign (graceful
    #: degradation: the suite completes and reports, it does not raise).
    failure: str | None = None

    @property
    def failed(self) -> bool:
        return self.campaign is None

    @property
    def stats(self) -> RuntimeStats | None:
        """Aggregate statistics of the point's campaign (``None`` if failed)."""
        return None if self.campaign is None else self.campaign.stats

    def value_of(self, path: str):
        """The point's value on one suite axis (dotted spec path)."""
        return _spec_value(self.spec, path)


@dataclass(frozen=True)
class SweepResult:
    """All grid points of one suite run, in grid order, plus cache accounting.

    The pivoting helpers turn the flat point list into figure-ready panels:
    :meth:`panel` picks an x axis, a metric and (optionally) the axis that
    names the curves; every remaining axis is folded into the curve labels, so
    any grid dimensionality renders without loss.
    """

    suite: SuiteSpec
    seed: int
    trials: int
    points: tuple[SuitePointResult, ...]
    cache_stats: CacheStats = field(default_factory=CacheStats)
    #: whether a real cache backed this run (False: every point executed and
    #: the stats above are all zeros).
    cache_enabled: bool = False
    #: the run was drained by SIGTERM/SIGINT before finishing; with
    #: ``resume=True`` the completed trials are checkpointed and a re-run
    #: executes only the missing ones.
    interrupted: bool = False
    #: trials served from per-trial checkpoints instead of executing
    #: (``resume=True`` runs only; a full-campaign cache hit counts as a
    #: cached *point*, not here).
    resumed_trials: int = 0
    #: trials actually executed by this run (cache hits excluded).
    executed_trials: int = 0
    #: supervisor counters of this run (retries, worker_crashes, timeouts,
    #: pool_respawns, corrupt_payloads) — all zero on an undisturbed run.
    resilience: dict = field(default_factory=dict)

    @property
    def failed_count(self) -> int:
        """Points that exhausted retries (or were cut off by a drain)."""
        return sum(1 for point in self.points if point.failed)

    @property
    def failures(self) -> list[tuple[int, str]]:
        """``(grid index, annotation)`` of every failed point, grid order."""
        return [
            (i, point.failure or "failed")
            for i, point in enumerate(self.points)
            if point.failed
        ]

    @property
    def axes(self) -> dict:
        """A copy of the suite's axes (dotted path → value tuple, grid order).

        A copy, not the live dict: mutating it must not desync the suite
        from the grid order that derived the per-point seeds.
        """
        return dict(self.suite.axes)

    @property
    def executed_count(self) -> int:
        """How many points actually ran (the rest were cache hits)."""
        return sum(1 for point in self.points if not point.cached)

    @property
    def cached_count(self) -> int:
        return len(self.points) - self.executed_count

    # ------------------------------------------------------------------ pivots
    def panel(
        self,
        x_axis: str | None = None,
        metric: str = "availability",
        y_axis: str | None = None,
    ) -> FigureSeries:
        """One figure panel: *metric* vs *x_axis*, one curve per label combo.

        *x_axis* must be a suite axis (default: the first one); its declared
        values order the x vector.  *y_axis*, when given, must be another
        axis and leads the curve labels; every other non-x axis is appended
        to the labels, so points map one-to-one onto ``(x, curve)`` cells.
        *metric* is a report metric name (:data:`SWEEP_METRICS`) or a raw
        :class:`~repro.runtime.trace.RuntimeStats` attribute.
        """
        axes = self.suite.axes
        if not axes:
            raise SpecificationError(
                f"suite {self.suite.name!r} has no axes to pivot on"
            )
        if x_axis is None:
            x_axis = next(iter(axes))
        x_values = self.suite.axis_values(x_axis)
        attr = _resolve_metric(metric)
        label_axes = [path for path in axes if path != x_axis]
        if y_axis is not None:
            if y_axis not in axes or y_axis == x_axis:
                raise SpecificationError(
                    f"y_axis {y_axis!r} must be a suite axis other than the "
                    f"x axis {x_axis!r} (axes: {list(axes)})"
                )
            label_axes.remove(y_axis)
            label_axes.insert(0, y_axis)

        def label_of(point: SuitePointResult) -> str:
            if not label_axes:
                return metric
            return ", ".join(
                f"{_axis_leaf(path)}={_format_axis_value(point.value_of(path))}"
                for path in label_axes
            )

        # cells are located by position (x_values.index uses ==, not hashing),
        # so axes over unhashable values like task_range pairs pivot fine
        series: dict[str, list] = {}
        for point in self.points:
            cells = series.setdefault(label_of(point), [None] * len(x_values))
            cells[x_values.index(point.value_of(x_axis))] = (
                float("nan") if point.failed else getattr(point.stats, attr)
            )
        return FigureSeries(
            name=f"{self.suite.name}:{metric}",
            x_label=x_axis,
            x=tuple(x_values),
            series={label: tuple(cells) for label, cells in series.items()},
            description=(
                f"{metric} vs {x_axis} ({self.trials} trials/point, "
                f"{len(self.points)} points, seed {self.seed})"
            ),
        )

    def panels(
        self, x_axis: str | None = None, y_axis: str | None = None
    ) -> list[FigureSeries]:
        """Every report panel (one per :data:`SWEEP_METRICS` metric)."""
        return [
            self.panel(x_axis, metric, y_axis=y_axis) for metric in SWEEP_METRICS
        ]

    def row_headers(self, metrics: dict[str, str] = SWEEP_METRICS) -> list[str]:
        """Column names of :meth:`as_rows`: axes, *metrics*, provenance."""
        return [*self.suite.axes, *metrics, "source"]

    def as_rows(self, metrics: dict[str, str] = SWEEP_METRICS) -> list[list[object]]:
        """One row per grid point: axis values, *metrics*, provenance.

        *metrics* maps column names to :class:`~repro.runtime.trace.
        RuntimeStats` attributes — :data:`SWEEP_METRICS` (one source of truth
        with the panels) or :data:`REPORT_METRICS` — in the order of
        :meth:`row_headers`.
        """
        rows = []
        for point in self.points:
            values = (
                [float("nan")] * len(metrics)
                if point.failed
                else [getattr(point.stats, attr) for attr in metrics.values()]
            )
            source = "failed" if point.failed else ("cache" if point.cached else "run")
            rows.append(
                [
                    *[point.value_of(path) for path in self.suite.axes],
                    *values,
                    source,
                ]
            )
        return rows


def run_suite(
    suite: SuiteSpec,
    seed: int | None = None,
    trials: int | None = None,
    jobs: int | None = 1,
    cache=None,
    reduce: str = "traces",
    *,
    max_retries: int = 2,
    trial_timeout: float | None = None,
    resume: bool = False,
    chaos=None,
    stop=None,
) -> SweepResult:
    """Execute every grid point of *suite* as one sharded, cached campaign.

    *seed* and *trials* default to the suite's own values.  Per-point seeds
    derive from *seed* in grid order before any work is dispatched, and the
    per-trial seeds of a point derive from its point seed exactly as
    :func:`~repro.experiments.parallel.run_runtime_campaign` would draw them,
    so the result is bit-for-bit identical for any *jobs* value **and any
    cache state**: a cached campaign is the pickled result of the identical
    ``(spec, seed, trials, reduce, code version)`` execution.  *cache* is a
    cache object from :mod:`repro.cache`, a directory path, or ``None`` (no
    caching); only cache misses are executed — flattened into trials × points
    work units over one shared pool, *jobs* at a time — and fresh results are
    written back from the parent process.

    *reduce* selects the worker payload.  ``"traces"`` (default) keeps every
    trial's full :class:`~repro.runtime.trace.RuntimeTrace`: the cache then
    stores complete campaigns and :attr:`SuitePointResult.campaign` exposes
    them.  ``"stats"`` summarizes each trace *inside the worker*: only a few
    floats per trial cross the process boundary (and land in the cache),
    which is the right mode for wide, cacheless sweeps that only read
    :attr:`SuitePointResult.stats` — the statistics are equal to the
    ``"traces"`` mode's by construction.

    Execution is *supervised* (see :mod:`repro.resilience`): a dead worker
    respawns the pool and only the lost (point, trial) units are retried
    (*max_retries* times each, bounded exponential backoff), *trial_timeout*
    kills a unit stuck past that many wall-clock seconds, and *chaos* (a
    :class:`~repro.resilience.chaos.ChaosSpec` or spec string, also
    ``$REPRO_CHAOS``) injects seeded failures for testing those paths.  A
    point whose trials exhaust their retries does **not** abort the suite:
    the run completes and that point carries a :attr:`SuitePointResult.
    failure` annotation (its metrics render as NaN) — graceful degradation
    over losing the whole campaign.

    *resume* opts into trial-level checkpointing: each completed trial is
    written to the cache under its :func:`~repro.cache.keys.trial_key` as it
    lands, so a suite interrupted at any point (SIGTERM/SIGINT sets *stop*;
    a crash loses nothing already flushed) re-executes only the missing
    trials on the next ``resume=True`` run — and the resumed result is
    bit-identical to an uninterrupted one, because every trial's seed is a
    pure function of ``(point seed, trial index)``.  Off by default: the
    probes and writes change a run's cache traffic, and the full-campaign
    entry already serves the common case.
    """
    from repro.experiments.parallel import _execute_campaigns, check_reduce

    check_reduce(reduce)
    cache = open_cache(cache)
    stats_before = cache.stats.snapshot()
    run_seed = suite.seed if seed is None else seed
    run_trials = suite.trials if trials is None else trials
    if run_trials < 1:
        raise ValueError(f"trials must be >= 1, got {run_trials}")
    specs = suite.points()
    rng = ensure_rng(run_seed)
    seeds = [derive_seed(rng) for _ in specs]
    run = _execute_campaigns(
        specs, seeds, run_trials, cache, reduce,
        jobs=jobs, max_retries=max_retries, trial_timeout=trial_timeout,
        resume=resume, chaos=chaos, stop=stop,
    )
    points = tuple(
        SuitePointResult(
            spec=spec, seed=point_seed, campaign=campaign, cached=cached,
            failure=note,
        )
        for spec, point_seed, campaign, cached, note in zip(
            specs, seeds, run.campaigns, run.cached, run.notes
        )
    )
    after = cache.stats
    return SweepResult(
        suite=suite,
        seed=run_seed,
        trials=run_trials,
        points=points,
        # this run's accounting, even on a cache shared across runs
        cache_stats=CacheStats(
            hits=after.hits - stats_before.hits,
            misses=after.misses - stats_before.misses,
            errors=after.errors - stats_before.errors,
            writes=after.writes - stats_before.writes,
            quarantined=after.quarantined - stats_before.quarantined,
        ),
        cache_enabled=cache.enabled,
        interrupted=run.interrupted,
        resumed_trials=run.resumed_trials,
        executed_trials=run.executed_trials,
        resilience=run.counters,
    )
