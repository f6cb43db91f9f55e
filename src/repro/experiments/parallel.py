"""Monte-Carlo campaigns of the online runtime and their one executor.

:func:`_execute_campaigns` runs campaigns for both runners:
:func:`run_runtime_campaign` calls it with one point, and
:func:`repro.experiments.sweep.run_suite` with a whole grid.  It probes each
point's campaign cache entry and, on resume, its trial checkpoints.  It fans
every missing (point, trial) unit through one call of the supervised pool of
:mod:`repro.resilience.supervisor`, the one process pool of the package
(the figure campaigns use it too, through
:func:`repro.resilience.supervisor.supervised_values`).  It writes the
checkpoints and assembles each point's :class:`RuntimeCampaignResult`.

Determinism is non-negotiable: every trial receives its own child seed
derived *before* dispatch from its campaign seed
(:func:`campaign_trial_seeds`), and the results are collected in submission
order, so ``jobs=1`` and ``jobs=N`` produce bit-for-bit identical results.
The trial functions, :func:`repro.scenario.run.run_scenario_online` and
:func:`repro.scenario.run.run_trial_summary`, are module-level pure
functions of their arguments.

Transport is the second lever: campaigns that only need statistics can run
with ``reduce="stats"``: the worker summarizes each trace to a
:class:`~repro.runtime.trace.TraceSummary` *before* shipping it back, so a
cacheless sweep transfers a few floats per trial instead of megabytes of
trace pickles — with :meth:`RuntimeCampaignResult.stats` equal to the
``reduce="traces"`` value by construction (see
:func:`repro.runtime.trace.combine_summaries`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.runtime.trace import (
    RuntimeStats,
    RuntimeTrace,
    TraceSummary,
    combine_summaries,
    summarize_traces,
)
from repro.scenario.spec import ScenarioSpec
from repro.utils.rng import derive_seed, ensure_rng

__all__ = [
    "REDUCTIONS",
    "check_reduce",
    "campaign_trial_seeds",
    "RuntimeCampaignResult",
    "run_runtime_campaign",
]

#: worker-side reductions of a campaign: ship full traces, or summarize each
#: trace to a TraceSummary inside the worker (identical statistics, a tiny
#: fraction of the inter-process transfer).
REDUCTIONS = ("traces", "stats")


def campaign_trial_seeds(seed: int, trials: int) -> tuple[int, ...]:
    """The per-trial child seeds of one campaign, derived up front from *seed*.

    One formula for every runner (the campaign itself, the suite executor's
    flattened trials×points fan-out): trial ``k`` of a campaign seeded *s* is
    a pure function of ``(s, k)``, which is what makes any regrouping of the
    work across processes bit-identical.
    """
    rng = ensure_rng(seed)
    return tuple(derive_seed(rng) for _ in range(trials))


def check_reduce(reduce: str) -> str:
    """Validate a ``reduce=`` argument (shared by runners, Session and CLI)."""
    if reduce not in REDUCTIONS:
        raise ValueError(f"reduce must be one of {REDUCTIONS}, got {reduce!r}")
    return reduce


@dataclass(frozen=True)
class RuntimeCampaignResult:
    """Outcome of a Monte-Carlo campaign of online-runtime trials.

    Exactly one of *traces* / *summaries* is set, according to *reduce*:
    ``"traces"`` keeps every trial's full :class:`~repro.runtime.trace.
    RuntimeTrace`, ``"stats"`` keeps only the per-trial
    :class:`~repro.runtime.trace.TraceSummary` produced inside the worker
    processes.  :attr:`stats` is identical either way.
    """

    spec: ScenarioSpec
    seed: int
    trial_seeds: tuple[int, ...]
    traces: tuple[RuntimeTrace, ...] | None
    summaries: tuple[TraceSummary, ...] | None = None

    def __post_init__(self) -> None:
        if (self.traces is None) == (self.summaries is None):
            raise ValueError(
                "exactly one of traces/summaries must be set "
                "(reduce='traces' keeps traces, reduce='stats' keeps summaries)"
            )

    @property
    def reduce(self) -> str:
        """The worker-side reduction this campaign ran with."""
        return "traces" if self.traces is not None else "stats"

    @property
    def trials(self) -> int:
        payload = self.traces if self.traces is not None else self.summaries
        return len(payload)

    @property
    def stats(self) -> RuntimeStats:
        """Aggregate statistics over the trials (identical for both modes).

        Computed on first access and kept with the instance (a campaign is
        immutable), so every report reading it pays for one summary.  The
        memo never reaches a pickle: see :meth:`__getstate__`.
        """
        stats = self.__dict__.get("_stats")
        if stats is None:
            if self.summaries is not None:
                stats = combine_summaries(self.summaries)
            else:
                stats = summarize_traces(self.traces)
            object.__setattr__(self, "_stats", stats)
        return stats

    def __getstate__(self) -> dict:
        # the pickled state is the fields alone, as before the memo existed:
        # cache entries keep their bytes whether or not stats was read
        state = dict(self.__dict__)
        state.pop("_stats", None)
        return state


def run_runtime_campaign(
    spec: ScenarioSpec,
    trials: int = 20,
    seed: int = 0,
    jobs: int | None = 1,
    cache=None,
    reduce: str = "traces",
    *,
    max_retries: int = 2,
    trial_timeout: float | None = None,
    resume: bool = False,
    chaos=None,
    stop=None,
) -> RuntimeCampaignResult:
    """Run *trials* independent online-runtime trials, *jobs* at a time.

    *spec* is a declarative :class:`~repro.scenario.spec.ScenarioSpec`.  The
    child seeds are drawn up-front from *seed*, so the campaign
    result is identical for any value of *jobs* and any machine; two
    campaigns with the same ``(spec, trials, seed)`` produce equal traces.

    That purity is what *cache* exploits: a cache object from
    :mod:`repro.cache` (or a directory path) serves the whole campaign from
    its content address when the identical ``(spec, seed, trials, reduce)``
    ran before on this code version — bit-identical to re-executing — and
    stores fresh results for next time.  A suite point with the same spec,
    point seed and trials is the same entry: both runners go through one
    executor (:func:`_execute_campaigns`), this one with a single point.

    *reduce* selects the worker payload: ``"traces"`` (default) ships every
    trial's full trace back to the parent, ``"stats"`` summarizes each trace
    to a :class:`~repro.runtime.trace.TraceSummary` inside the worker — same
    :attr:`~RuntimeCampaignResult.stats`, a small fraction of the transfer
    (and of the cache entry).  The reduction is part of the cache key, so the
    two modes never serve each other's entries.

    Execution runs under the supervised pool of
    :mod:`repro.resilience.supervisor`: a dead worker respawns the pool and
    only the lost trials are retried (*max_retries* times each, exponential
    backoff), *trial_timeout* kills a stuck worker's unit after that many
    wall-clock seconds, and *chaos* (a
    :class:`~repro.resilience.chaos.ChaosSpec` or spec string, also
    activatable via ``$REPRO_CHAOS``) injects seeded failures for testing the
    above.  Because trial seeds are pre-derived, a recovered campaign is
    bit-identical to an undisturbed one.  A campaign has no partial shape to
    degrade into, so retry exhaustion raises
    :class:`~repro.resilience.supervisor.ExecutionError` and a drain (*stop*
    set) raises :class:`~repro.resilience.supervisor.ExecutionInterrupted`
    (suites instead annotate the failed point — see
    :func:`repro.experiments.sweep.run_suite`).

    *resume* opts into trial-level checkpointing: each completed trial is
    written to the cache under its own :func:`~repro.cache.keys.trial_key` as
    it lands, and a later run of the same campaign (even with a *larger*
    ``trials`` value) executes only the missing trials.  Off by default —
    checkpoint probes and writes change the cache traffic of a run, and a
    full-campaign entry already serves the common case.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    check_reduce(reduce)
    from repro.cache import open_cache
    from repro.resilience import ExecutionError
    from repro.resilience.supervisor import ExecutionInterrupted

    cache = open_cache(cache)
    run = _execute_campaigns(
        [spec], [seed], trials, cache, reduce,
        jobs=jobs, max_retries=max_retries, trial_timeout=trial_timeout,
        resume=resume, chaos=chaos, stop=stop,
    )
    if run.lost:
        raise ExecutionError(run.lost, what=f"campaign (seed {seed})")
    if run.interrupted:
        raise ExecutionInterrupted(
            f"campaign (seed {seed})", resumable=resume and cache.enabled
        )
    return run.campaigns[0]


@dataclass(frozen=True)
class _Executed:
    """What :func:`_execute_campaigns` hands back, one entry per point."""

    #: each point's campaign, ``None`` where trials were lost or not run
    campaigns: tuple[RuntimeCampaignResult | None, ...]
    #: whether the point was served whole from its campaign cache entry
    cached: tuple[bool, ...]
    #: why a point has no campaign (``None`` for the others)
    notes: tuple[str | None, ...]
    #: the supervisor's records of the trials that exhausted their retries
    lost: tuple
    counters: dict
    interrupted: bool
    resumed_trials: int
    executed_trials: int


def _run_trial_unit(item: tuple[ScenarioSpec, int], reduce: str):
    """Execute one (point, trial) unit — the picklable unit of campaign work.

    With ``reduce="stats"`` the trace never leaves the worker — only its
    :class:`~repro.runtime.trace.TraceSummary` does.
    """
    # imported per call, not per module: a fully cached run never loads the
    # trial path (the executor preloads it before any pool starts)
    from repro.scenario.run import run_scenario_online, run_trial_summary

    point_spec, trial_seed = item
    if reduce == "stats":
        return run_trial_summary(point_spec, trial_seed)
    return run_scenario_online(point_spec, trial_seed)


def _execute_campaigns(
    specs, seeds, trials: int, cache, reduce: str, *,
    jobs, max_retries, trial_timeout, resume, chaos, stop,
) -> _Executed:
    """Run one campaign of *trials* trials per ``(spec, seed)`` point.

    The one campaign executor, behind :func:`run_runtime_campaign` (one
    point) and :func:`~repro.experiments.sweep.run_suite` (a grid).  Per
    point, a campaign cache hit is served as is and, under *resume*, trials
    already checkpointed are reused.  Every remaining trial of every point
    becomes one unit of a single supervised map, so trials × points
    load-balance over one pool (a grid with fewer points than workers still
    saturates it) and each unit returns one trace or summary, never a whole
    campaign pickle.  Completed trials are checkpointed as they land
    (*resume* on a real cache); a point whose trials all completed is
    assembled into a :class:`RuntimeCampaignResult` and written back under
    its campaign key, any other point gets a failure note.  *cache* is an
    opened cache object.
    """
    from repro.cache import MISS, campaign_key, trial_key
    from repro.resilience import resolve_chaos, supervised_map
    from repro.resilience.supervisor import RetryPolicy

    chaos = resolve_chaos(chaos)
    # with caching off there is nothing to address: skip the hashing and the
    # probe loop entirely so a cacheless run carries all-zero stats.
    keys = [
        campaign_key(spec, seed, trials, reduce=reduce) if cache.enabled else None
        for spec, seed in zip(specs, seeds)
    ]
    campaigns = [
        MISS if key is None else cache.get(key, expect=RuntimeCampaignResult)
        for key in keys
    ]
    cached = tuple(campaign is not MISS for campaign in campaigns)
    missed = [i for i, hit in enumerate(cached) if not hit]
    trial_seeds = {i: campaign_trial_seeds(seeds[i], trials) for i in missed}
    # resume: trials already checkpointed by an interrupted run (or by a
    # smaller-trials run — trial keys ignore the campaign's total count) are
    # served from the cache; only the missing ones become work units.
    values = {
        i: _probe_trial_checkpoints(
            cache, specs[i], seeds[i], range(trials), reduce, resume
        )
        for i in missed
    }
    resumed_trials = sum(len(found) for found in values.values())
    units = [(i, t) for i in missed for t in range(trials) if t not in values[i]]

    def checkpoint(slot: int, value) -> None:
        i, t = units[slot]
        cache.put(trial_key(specs[i], seeds[i], t, reduce=reduce), value)

    if units:
        # pool workers fork from this process: import the trial path here,
        # once, rather than in every worker
        from repro.scenario.run import preload

        preload(specs[i] for i in missed)

    outcome = supervised_map(
        partial(_run_trial_unit, reduce=reduce),
        [(specs[i], trial_seeds[i][t]) for i, t in units],
        jobs=jobs,
        tokens=[trial_seeds[i][t] for i, t in units],
        policy=RetryPolicy(max_retries=max_retries),
        timeout=trial_timeout,
        chaos=chaos,
        on_result=checkpoint if (resume and cache.enabled) else None,
        stop=stop,
    )
    failure_of_slot = {f.index: f for f in outcome.failures}
    lost_of: dict[int, list[str]] = {i: [] for i in missed}
    executed_trials = 0
    for slot, (i, t) in enumerate(units):
        failure = failure_of_slot.get(slot)
        if failure is not None:
            lost_of[i].append(f"trial {t} {failure.kind}: {failure.error}")
        elif outcome.values[slot] is not None:
            values[i][t] = outcome.values[slot]
            executed_trials += 1
    notes: list[str | None] = [None] * len(specs)
    for i in missed:
        done = values[i]
        campaigns[i] = None
        if len(done) == trials:
            payload = tuple(done[t] for t in range(trials))
            campaigns[i] = RuntimeCampaignResult(
                spec=specs[i],
                seed=seeds[i],
                trial_seeds=trial_seeds[i],
                traces=payload if reduce == "traces" else None,
                summaries=payload if reduce == "stats" else None,
            )
            if keys[i] is not None:
                cache.put(keys[i], campaigns[i])
        elif lost_of[i]:
            notes[i] = (
                f"{trials - len(done)} of {trials} trials lost "
                f"after retry exhaustion ({'; '.join(lost_of[i][:2])})"
            )
        else:  # drained before this point's trials all ran
            notes[i] = f"interrupted with {len(done)} of {trials} trials done"
    return _Executed(
        campaigns=tuple(campaigns),
        cached=cached,
        notes=tuple(notes),
        lost=outcome.failures,
        counters=dict(outcome.counters),
        interrupted=outcome.interrupted,
        resumed_trials=resumed_trials,
        executed_trials=executed_trials,
    )


def _probe_trial_checkpoints(
    cache, spec, seed: int, trial_indices, reduce: str, resume: bool
) -> dict[int, object]:
    """The already-checkpointed trials of a campaign: ``{trial index: value}``.

    Empty unless *resume* is on and the cache is real — per-trial probes are
    extra cache traffic, and runs that did not opt in must keep their exact
    historical hit/miss accounting.
    """
    if not resume or not cache.enabled:
        return {}
    from repro.cache import MISS, trial_key
    from repro.runtime.trace import RuntimeTrace, TraceSummary

    expect = TraceSummary if reduce == "stats" else RuntimeTrace
    found: dict[int, object] = {}
    for t in trial_indices:
        value = cache.get(trial_key(spec, seed, t, reduce=reduce), expect=expect)
        if value is not MISS:
            found[t] = value
    return found
