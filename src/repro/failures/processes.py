"""Fault-process classes — the samplers behind :func:`sample_fault_trace`.

Each process turns a seeded generator into a list of raw ``(time, processor,
kind)`` tuples; :func:`repro.failures.scenarios.sample_fault_trace` wraps them
into :class:`~repro.failures.scenarios.FaultEvent` objects and a
:class:`~repro.failures.scenarios.FaultTrace`.  Keeping the samplers here (and
event types in :mod:`repro.failures.scenarios`) avoids an import cycle while
giving each failure *world* a named, independently testable class:

* :class:`RenewalFaultProcess` — the paper's independent per-processor
  exponential/Weibull renewal regime, generalised to correlated crash groups
  (one hazard clock per group) and load-dependent hazards (intensity scaled by
  the group's mean utilization in the current schedule);
* :class:`ElasticFaultProcess` — spare processors that *join* the platform
  after an exponential delay, plus optional spot-preemption (crash then
  rejoin) renewals on the active processors;
* :class:`TraceReplayProcess` — replays a fixed event list (a parsed cluster
  availability log, see :mod:`repro.failures.trace_io`) ignoring the RNG.

Determinism contract: every process draws from the single generator it is
handed, visiting processors (or groups, positioned by their first member) in
platform declaration order, so a given seed always produces the same trace.
With singleton groups, ``load_coupling=0`` and no elastic process, the draw
stream is bit-identical to the historical per-processor loop — the frozen
fingerprints under ``tests/golden/`` pin this.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.platform.platform import Platform
from repro.scenario.registries import FAULT_DISTRIBUTIONS
from repro.utils.checks import check_positive

__all__ = [
    "FAULT_DISTRIBUTIONS",
    "FaultProcess",
    "RenewalFaultProcess",
    "ElasticFaultProcess",
    "TraceReplayProcess",
    "resolve_groups",
]


#: a raw event before it becomes a FaultEvent: (time, processor, kind).
RawEvent = tuple[float, str, str]


def _inter_failure_time(
    rng: np.random.Generator, distribution: str, mttf: float, shape: float
) -> float:
    if distribution == "exponential":
        return float(rng.exponential(mttf))
    # Weibull with mean mttf: scale = mttf / Gamma(1 + 1/shape).
    scale = mttf / math.gamma(1.0 + 1.0 / shape)
    return float(scale * rng.weibull(shape))


def resolve_groups(
    platform: Platform,
    groups: Sequence[Sequence[str]] | None,
    exclude: Sequence[str] = (),
) -> tuple[tuple[str, ...], ...]:
    """Order crash groups for sampling.

    Returns one group per *active* processor cluster, positioned at its first
    member's slot in platform declaration order; processors in no explicit
    group become singletons.  ``groups=None`` therefore yields exactly one
    singleton per processor — the historical independent regime.  Groups must
    be disjoint, non-empty and name known processors; *exclude* (elastic
    spares) is removed from every group.
    """
    excluded = set(exclude)
    member_to_group: dict[str, tuple[str, ...]] = {}
    for group in groups or ():
        members = tuple(m for m in group if m not in excluded)
        if not tuple(group):
            raise ValueError("crash groups must be non-empty")
        for member in group:
            if member not in platform:
                raise ValueError(f"crash group names unknown processor {member!r}")
            if member in member_to_group:
                raise ValueError(f"processor {member!r} appears in more than one crash group")
        for member in members:
            member_to_group[member] = members
    ordered: list[tuple[str, ...]] = []
    emitted: set[str] = set()
    for name in platform.processor_names:
        if name in excluded or name in emitted:
            continue
        group = member_to_group.get(name, (name,))
        ordered.append(group)
        emitted.update(group)
    return tuple(ordered)


class FaultProcess:
    """A sampler of raw fault events; concrete processes implement ``sample``."""

    #: processors absent when the trace starts (non-empty only for elastic).
    initially_down: frozenset[str] = frozenset()

    def sample(self, rng: np.random.Generator) -> list[RawEvent]:
        raise NotImplementedError


class RenewalFaultProcess(FaultProcess):
    """Independent / correlated / load-dependent renewal failures.

    One hazard clock per group: the first failure of a group arrives after an
    exponential(*mttf*) or Weibull(*shape*, mean *mttf*) delay divided by the
    group's hazard multiplier ``1 + load_coupling * mean(utilization)``; when
    it fires, *every* member crashes at the same instant.  With *mttr* the
    whole group is repaired after an exponential(*mttr*) delay — or, with
    *repair_shape* set, a Weibull(*repair_shape*, mean *mttr*) delay — and
    its clock restarts, until the horizon is exceeded.

    ``repair_shape=None`` (the default) keeps the historical exponential
    repair draw bit-for-bit: a Weibull with shape 1 has the same *law* as the
    exponential but consumes the RNG stream differently, so the identity
    default must skip the Weibull path entirely, not set shape to 1.
    """

    def __init__(
        self,
        platform: Platform,
        horizon: float,
        mttf: float,
        distribution: str = "exponential",
        shape: float = 1.5,
        mttr: float | None = None,
        groups: Sequence[Sequence[str]] | None = None,
        load_coupling: float = 0.0,
        utilization: Mapping[str, float] | None = None,
        exclude: Sequence[str] = (),
        repair_shape: float | None = None,
    ):
        check_positive(horizon, "horizon")
        check_positive(mttf, "mttf")
        check_positive(shape, "shape")
        if mttr is not None:
            check_positive(mttr, "mttr")
        if repair_shape is not None:
            check_positive(repair_shape, "repair_shape")
        if distribution not in FAULT_DISTRIBUTIONS:
            raise ValueError(
                f"distribution must be one of {FAULT_DISTRIBUTIONS}, got {distribution!r}"
            )
        if load_coupling < 0:
            raise ValueError(f"load_coupling must be >= 0, got {load_coupling}")
        self.platform = platform
        self.horizon = float(horizon)
        self.mttf = float(mttf)
        self.distribution = distribution
        self.shape = float(shape)
        self.mttr = None if mttr is None else float(mttr)
        self.repair_shape = None if repair_shape is None else float(repair_shape)
        self.load_coupling = float(load_coupling)
        self.utilization = dict(utilization or {})
        self.groups = resolve_groups(platform, groups, exclude=exclude)

    def _repair_time(self, rng: np.random.Generator) -> float:
        """One repair delay: exponential(mttr), or Weibull when shaped.

        The exponential fast path is load-bearing for reproducibility — see
        the class docstring on why ``repair_shape=None`` must not become
        ``weibull(1.0)``.
        """
        if self.repair_shape is None:
            return float(rng.exponential(self.mttr))
        return _inter_failure_time(rng, "weibull", self.mttr, self.repair_shape)

    def _hazard(self, group: tuple[str, ...]) -> float:
        if not self.load_coupling:
            return 1.0
        load = sum(self.utilization.get(m, 0.0) for m in group) / len(group)
        return 1.0 + self.load_coupling * load

    def sample(self, rng: np.random.Generator) -> list[RawEvent]:
        events: list[RawEvent] = []
        for group in self.groups:
            hazard = self._hazard(group)
            t = 0.0
            while True:
                t += _inter_failure_time(rng, self.distribution, self.mttf, self.shape) / hazard
                if t >= self.horizon:
                    break
                events.extend((t, m, "crash") for m in group)
                if self.mttr is None:
                    break
                t += self._repair_time(rng)
                if t >= self.horizon:
                    break
                events.extend((t, m, "repair") for m in group)
        return events


class ElasticFaultProcess(FaultProcess):
    """Node joins and spot preemptions on an elastic platform.

    The last *spares* processors (declaration order) start absent and each
    joins after an independent exponential(*join_mean*) delay.  With
    *preempt_mean*, every initially-active processor additionally follows a
    spot-preemption renewal: crash after exponential(*preempt_mean*), rejoin
    after exponential(*join_mean*), repeating until the horizon.
    """

    def __init__(
        self,
        platform: Platform,
        horizon: float,
        spares: int = 0,
        join_mean: float | None = None,
        preempt_mean: float | None = None,
    ):
        check_positive(horizon, "horizon")
        if not isinstance(spares, int) or spares < 0:
            raise ValueError(f"spares must be an int >= 0, got {spares!r}")
        if spares >= platform.num_processors:
            raise ValueError(
                f"spares must leave at least one active processor "
                f"(got {spares} of {platform.num_processors})"
            )
        if (spares or preempt_mean is not None) and join_mean is None:
            raise ValueError("join_mean is required when spares > 0 or preempt_mean is set")
        if join_mean is not None:
            check_positive(join_mean, "join_mean")
        if preempt_mean is not None:
            check_positive(preempt_mean, "preempt_mean")
        self.platform = platform
        self.horizon = float(horizon)
        self.spares = spares
        self.join_mean = None if join_mean is None else float(join_mean)
        self.preempt_mean = None if preempt_mean is None else float(preempt_mean)
        names = platform.processor_names
        self.spare_names = names[len(names) - spares :] if spares else ()
        self.active_names = names[: len(names) - spares]
        self.initially_down = frozenset(self.spare_names)

    def sample(self, rng: np.random.Generator) -> list[RawEvent]:
        events: list[RawEvent] = []
        for name in self.spare_names:
            t = float(rng.exponential(self.join_mean))
            if t < self.horizon:
                events.append((t, name, "join"))
        if self.preempt_mean is not None:
            for name in self.active_names:
                t = 0.0
                while True:
                    t += float(rng.exponential(self.preempt_mean))
                    if t >= self.horizon:
                        break
                    events.append((t, name, "crash"))
                    t += float(rng.exponential(self.join_mean))
                    if t >= self.horizon:
                        break
                    events.append((t, name, "join"))
        return events


class TraceReplayProcess(FaultProcess):
    """Replays a fixed raw-event list (a parsed availability log) verbatim."""

    def __init__(
        self,
        events: Sequence[RawEvent],
        initially_down: frozenset[str] = frozenset(),
    ):
        self.events = list(events)
        self.initially_down = frozenset(initially_down)

    def sample(self, rng: np.random.Generator) -> list[RawEvent]:
        return list(self.events)
