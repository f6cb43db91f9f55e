"""Frozen fingerprints of offline simulations and online runtime traces.

Each fingerprint is a sha256 over the exact ``repr`` of a simulation's
latencies and completion instants (plus the fast-forward diagnostics), or of
an online trace's records, events, downtime and rebuild count — so any
change to a completion instant, a tie-break or a float bit shows.  The cases
cover both stream drivers and both memory models: the offline simulator with
fast-forward on and off, grid (integer-duration) and full-mantissa float
schedules at ε ∈ {0, 1, 2}, crash scenarios, explicit release lists with
coincident releases (some straddling an admission-window boundary), and the
online runtime under crashes, repairs and rebuilds.

Regenerate (only for a deliberate change of results, with the reason in
CHANGES.md)::

    PYTHONPATH=src python tests/unit/test_simulation_fingerprints.py
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

from repro.core.ltf import ltf_schedule
from repro.core.rltf import rltf_schedule
from repro.experiments.config import ExperimentConfig, workload_period
from repro.failures.scenarios import FaultEvent, FaultTrace
from repro.failures.simulator import StreamingSimulator
from repro.graph.examples import figure2_graph
from repro.graph.generator import random_paper_workload
from repro.obs.probe import MetricsProbe
from repro.platform.builders import figure2_platform
from repro.runtime.engine import OnlineRuntime

GOLDEN_PATH = (
    Path(__file__).resolve().parents[1] / "golden" / "simulation_fingerprints.json"
)

EPSILONS = (0, 1, 2)


def _digest(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()


@lru_cache(maxsize=None)
def grid_schedule(eps: int):
    """The figure-2 workflow on 10 unit processors: integer durations, so
    the fast-forward certificate holds."""
    return rltf_schedule(
        figure2_graph(), figure2_platform(10), throughput=0.04, epsilon=eps,
        strict_resilience=True,
    )


@lru_cache(maxsize=None)
def strict_eps1():
    return ltf_schedule(
        figure2_graph(), figure2_platform(10), throughput=0.05, epsilon=1,
        strict_resilience=True,
    )


@lru_cache(maxsize=None)
def saturated_schedule():
    """A 30-task float schedule whose admission rate exceeds what the kernel
    sustains: the queue grows for the whole stream."""
    workload = random_paper_workload(1.0, seed=11, num_tasks=30, num_processors=10)
    period = workload_period(workload, 2, ExperimentConfig())
    return rltf_schedule(workload.graph, workload.platform, period=period, epsilon=2)


@lru_cache(maxsize=None)
def float_schedule(eps: int):
    """A random paper workload: full-mantissa durations, never certified."""
    workload = random_paper_workload(1.0, seed=3, num_tasks=20, num_processors=10)
    period = workload_period(workload, eps, ExperimentConfig())
    return rltf_schedule(workload.graph, workload.platform, period=period, epsilon=eps)


def _victims(schedule, count: int) -> tuple[str, ...]:
    return tuple(sorted(schedule.used_processors())[:count])


def _tied_releases(period: float, n: int) -> list[float]:
    """Non-decreasing releases with runs of coincident instants, one run
    straddling the 256-data-set admission-window boundary."""
    releases, t = [], 0.0
    for j in range(n):
        if j % 5 not in (1, 2) and not 250 <= j <= 262:
            t += period * (0.5 + (j * 7 % 11) / 10)
        releases.append(t)
    return releases


def _offline(schedule, n, scenario=(), fast_forward=True, release_times=None) -> str:
    sim = StreamingSimulator(schedule, scenario, fast_forward=fast_forward)
    result = sim.run(n, release_times=release_times)
    return _digest(
        (result.latencies, result.completion_times, sorted(sim.last_fast_forward.items()))
    )


def _online(schedule, n, events, probe=None, **options) -> str:
    faults = FaultTrace(tuple(events), horizon=n * schedule.period)
    trace = OnlineRuntime(schedule, faults, probe=probe, **options).run(n)
    payload = (trace.records, trace.events, trace.downtime, trace.num_rebuilds)
    if probe is not None:
        payload += (probe.registry.as_dict(),)
    return _digest(payload)


def _cases():
    """``(key, thunk)`` for every frozen case."""
    grid1 = strict_eps1()
    for ff in (True, False):
        tag = "ff" if ff else "noff"
        for n in (1, 9, 767, 768, 3000):
            yield f"offline/grid-strict-eps1/n{n}/{tag}", lambda n=n, ff=ff: _offline(
                grid1, n, fast_forward=ff
            )
        yield f"offline/grid-strict-eps1/crash1/n2000/{tag}", lambda ff=ff: _offline(
            grid1, 2000, _victims(grid1, 1), fast_forward=ff
        )
        yield f"offline/float-eps2/n300/{tag}", lambda ff=ff: _offline(
            float_schedule(2), 300, fast_forward=ff
        )
    for eps in EPSILONS:
        yield f"offline/grid-eps{eps}/n2000", lambda eps=eps: _offline(
            grid_schedule(eps), 2000
        )
        yield f"offline/float-eps{eps}/n200", lambda eps=eps: _offline(
            float_schedule(eps), 200
        )
    for eps in (1, 2):
        yield f"offline/float-eps{eps}/crash{eps}/n100", lambda eps=eps: _offline(
            float_schedule(eps), 100, _victims(float_schedule(eps), eps)
        )
    yield "offline/saturated/n200", lambda: _offline(saturated_schedule(), 200)
    yield "offline/saturated/tied-n300", lambda: _offline(
        saturated_schedule(), 300,
        release_times=_tied_releases(saturated_schedule().period, 300),
    )
    yield "offline/grid-strict-eps1/coincident", lambda: _offline(
        grid1, 6, release_times=[0.0, 0.0, 0.0, 5.0, 5.0, 40.0]
    )
    yield "offline/grid-strict-eps1/tied-n600", lambda: _offline(
        grid1, 600, release_times=_tied_releases(grid1.period, 600)
    )
    yield "offline/grid-strict-eps1/uniform-explicit-n1000", lambda: _offline(
        grid1, 1000, release_times=[j * grid1.period for j in range(1000)]
    )
    yield "offline/float-eps1/tied-n300", lambda: _offline(
        float_schedule(1), 300, release_times=_tied_releases(float_schedule(1).period, 300)
    )
    # integer releases in coincident pairs: arrivals and computes finish at
    # release instants, so the release-first tie-break contract shows
    yield "offline/grid-eps2/paired-integer-n300", lambda: _offline(
        grid_schedule(2), 300, release_times=[float(j // 2 * 3) for j in range(300)]
    )
    yield "offline/grid-eps2/crash2/tied-n400", lambda: _offline(
        grid_schedule(2), 400, _victims(grid_schedule(2), 2),
        release_times=_tied_releases(grid_schedule(2).period, 400),
    )

    period = grid1.period
    victim = _victims(grid1, 1)[0]
    quiet_crash = [
        FaultEvent(900.5 * period, victim, "crash"),
        FaultEvent(905.5 * period, victim, "repair"),
    ]
    rebuild = [
        FaultEvent(40.5 * period, p, "crash") for p in _victims(grid1, 2)
    ] + [FaultEvent(300.0 * period, p, "repair") for p in _victims(grid1, 2)]
    fpaired = float_schedule(2)
    fperiod = fpaired.period
    float_faults = [
        FaultEvent(10.5 * fperiod, p, "crash") for p in _victims(fpaired, 3)
    ] + [FaultEvent(60.0 * fperiod, _victims(fpaired, 1)[0], "repair")]
    yield "online/grid-strict-eps1/quiet-crash/n1600/ckpt", lambda: _online(
        grid1, 1600, quiet_crash, rebuild_beyond_epsilon=False
    )
    yield "online/grid-strict-eps1/rebuild/n700/ckpt", lambda: _online(grid1, 700, rebuild)
    yield "online/grid-strict-eps1/rebuild-queue/n400/ckpt", lambda: _online(
        grid1, 400, rebuild, admission="queue", rebuild_on_repair=True
    )
    yield "online/float-eps2/faults/n150/ckpt", lambda: _online(fpaired, 150, float_faults)
    yield "online/grid-strict-eps1/quiet-crash/n1600/ckpt-noff", lambda: _online(
        grid1, 1600, quiet_crash, rebuild_beyond_epsilon=False, fast_forward=False
    )
    yield "online/grid-strict-eps1/zero-fault/n3000/probed", lambda: _online(
        grid1, 3000, [], probe=MetricsProbe()
    )
    yield "online/grid-strict-eps1/quiet-crash/n1600/probed", lambda: _online(
        grid1, 1600, quiet_crash, probe=MetricsProbe(), rebuild_beyond_epsilon=False
    )


def produce_fingerprints() -> dict[str, str]:
    return {key: thunk() for key, thunk in _cases()}


def test_every_simulation_matches_frozen_fingerprint():
    goldens = json.loads(GOLDEN_PATH.read_text())
    produced = produce_fingerprints()
    mismatched = sorted(
        key for key in goldens.keys() | produced.keys()
        if goldens.get(key) != produced.get(key)
    )
    assert not mismatched, f"fingerprints changed: {mismatched}"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(produce_fingerprints(), indent=2, sort_keys=True) + "\n"
    )
