"""Parallel Monte-Carlo campaign engine.

Fans independent online-runtime trials across CPU cores through the
supervised pool of :mod:`repro.resilience.supervisor` — the one process pool
of the package (the figure campaigns use it too, see
:func:`repro.resilience.supervisor.supervised_values`).

Determinism is non-negotiable: every unit receives its own child seed derived
*before* dispatch from the campaign seed (via
:func:`repro.utils.rng.derive_seed`), and the results are collected in
submission order, so ``jobs=1`` and ``jobs=N`` produce bit-for-bit identical
results.  Work functions must be module-level (picklable) pure functions of
their arguments — both :func:`repro.scenario.run.run_scenario_online` and
:func:`repro.experiments.campaign.run_graph_instance` qualify.

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
from repro.scenario.run import run_scenario_online, run_trial_summary
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
        """Aggregate statistics over the trials (identical for both modes)."""
        if self.summaries is not None:
            return combine_summaries(self.summaries)
        return summarize_traces(self.traces)


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
    stores fresh results for next time.

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
    :class:`~repro.resilience.supervisor.ExecutionError` (suites instead
    annotate the failed point — see
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
    from repro.cache import MISS, campaign_key, open_cache
    from repro.resilience import ExecutionError, resolve_chaos, supervised_map
    from repro.resilience.supervisor import ExecutionInterrupted, RetryPolicy

    cache = open_cache(cache)
    chaos = resolve_chaos(chaos)
    key = campaign_key(spec, seed, trials, reduce=reduce) if cache.enabled else None
    if key is not None:
        hit = cache.get(key, expect=RuntimeCampaignResult)
        if hit is not MISS:
            return hit
    trial_seeds = campaign_trial_seeds(seed, trials)
    checkpoints = _probe_trial_checkpoints(
        cache, spec, seed, range(trials), reduce, resume
    )
    pending = [t for t in range(trials) if t not in checkpoints]
    fn = partial(run_trial_summary if reduce == "stats" else run_scenario_online, spec)

    def checkpoint(slot: int, value) -> None:
        from repro.cache import trial_key

        cache.put(trial_key(spec, seed, pending[slot], reduce=reduce), value)

    outcome = supervised_map(
        fn,
        [trial_seeds[t] for t in pending],
        jobs=jobs,
        tokens=[trial_seeds[t] for t in pending],
        policy=RetryPolicy(max_retries=max_retries),
        timeout=trial_timeout,
        chaos=chaos,
        on_result=checkpoint if (resume and cache.enabled) else None,
        stop=stop,
    )
    if outcome.failures:
        raise ExecutionError(outcome.failures, what=f"campaign (seed {seed})")
    if outcome.interrupted:
        raise ExecutionInterrupted(
            f"campaign (seed {seed})", resumable=resume and cache.enabled
        )
    values = dict(checkpoints)
    values.update(zip(pending, outcome.values))
    payload = tuple(values[t] for t in range(trials))
    result = RuntimeCampaignResult(
        spec=spec,
        seed=seed,
        trial_seeds=trial_seeds,
        traces=payload if reduce == "traces" else None,
        summaries=payload if reduce == "stats" else None,
    )
    if key is not None:
        cache.put(key, result)
    return result


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
