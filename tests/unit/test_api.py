"""Unit tests for the Session facade and its equivalence guarantees.

The acceptance bar of the scenario redesign: a scenario defined once (as a
spec or a JSON file) drives all four front ends through ``Session``, and the
online-run trace is **bit-identical** to the pre-redesign direct-call path on
the same seed.  ``_legacy_run_trial`` below is a frozen copy of that
pre-redesign path (workload → schedule ladder → fault trace → OnlineRuntime)
used as the oracle.
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    MonteCarloResult,
    OnlineResult,
    ScheduleResult,
    Session,
    SimulateResult,
)
from repro.core.ltf import ltf_schedule
from repro.core.rltf import rltf_schedule
from repro.exceptions import SchedulingError, SpecificationError
from repro.experiments.config import ExperimentConfig, workload_period
from repro.experiments.parallel import run_runtime_campaign
from repro.experiments.sweep import SWEEP_AXES, run_suite
from repro.failures.scenarios import sample_fault_trace
from repro.graph.generator import random_paper_workload
from repro.runtime.admission import QueueAdmissionPolicy
from repro.runtime.engine import OnlineRuntime
from repro.scenario import ScenarioSpec, SuiteSpec
from repro.scenario.run import run_scenario_online
from repro.utils.rng import derive_seed, ensure_rng

SCENARIO = ScenarioSpec(name="runtime-trial").updated(
    {
        "workload.num_tasks": 15,
        "workload.num_processors": 6,
        "scheduler.epsilon": 1,
        "runtime.num_datasets": 30,
        "faults.mttf_periods": 40.0,
    }
)


def _legacy_run_trial(spec: ScenarioSpec, seed: int):
    """The pre-redesign direct-call path, frozen as the bit-identity oracle."""
    rng = ensure_rng(seed)
    workload_seed = derive_seed(rng)
    fault_seed = derive_seed(rng)
    workload = random_paper_workload(
        spec.workload.granularity,
        seed=workload_seed,
        num_tasks=spec.workload.num_tasks,
        num_processors=spec.workload.num_processors,
    )
    config = ExperimentConfig(period_slack=spec.scheduler.period_slack)
    eps = spec.scheduler.epsilon
    period = workload_period(workload, eps, config)
    schedule = None
    for epsilon in dict.fromkeys((eps, max(0, eps - 1), 0)):
        for scheduler in (rltf_schedule, ltf_schedule):
            try:
                schedule = scheduler(
                    workload.graph, workload.platform, period=period, epsilon=epsilon
                )
                break
            except SchedulingError:
                continue
        if schedule is not None:
            break
    assert schedule is not None
    faults, options = spec.faults, spec.runtime
    fault_trace = sample_fault_trace(
        workload.platform,
        horizon=options.num_datasets * schedule.period,
        mttf=faults.mttf_periods * schedule.period,
        distribution=faults.distribution,
        shape=faults.weibull_shape,
        mttr=None
        if faults.mttr_periods is None
        else faults.mttr_periods * schedule.period,
        seed=fault_seed,
    )
    admission = options.admission
    if admission == "queue":
        admission = QueueAdmissionPolicy(capacity=options.queue_capacity)
    runtime = OnlineRuntime(
        schedule,
        fault_trace,
        policy=options.policy,
        rebuild_overhead=options.rebuild_overhead,
        rebuild_on_repair=options.rebuild_on_repair,
        admission=admission,
    )
    return runtime.run(options.num_datasets)


class TestOnlineBitIdentity:
    def test_session_matches_direct_online_runtime_call(self):
        for seed in (0, 11):
            assert Session(SCENARIO).run_online(seed).trace == _legacy_run_trial(
                SCENARIO, seed
            )

    def test_session_matches_direct_call_with_repairs_and_queue(self):
        trial = SCENARIO.updated(
            {
                "faults.mttr_periods": 15.0,
                "faults.distribution": "weibull",
                "faults.weibull_shape": 0.8,
                "runtime.admission": "queue",
                "runtime.queue_capacity": None,
                "runtime.rebuild_on_repair": True,
            }
        )
        assert Session(trial).run_online(5).trace == _legacy_run_trial(trial, 5)

    def test_campaign_trial_matches_the_oracle(self):
        """The campaign unit of work runs the same path as the Session."""
        assert run_scenario_online(SCENARIO, 7) == _legacy_run_trial(SCENARIO, 7)

    def test_json_round_trip_preserves_the_trace(self):
        reloaded = Session.from_json(SCENARIO.to_json())
        assert reloaded.run_online(3).trace == _legacy_run_trial(SCENARIO, 3)

    def test_pinned_seeds_override_derivation(self):
        pinned = SCENARIO.updated({"workload.seed": 123, "faults.seed": 456})
        a = Session(pinned).run_online(0).trace
        b = Session(pinned).run_online(999).trace
        assert a == b  # both child seeds pinned → the run seed is irrelevant


class TestSessionFrontEnds:
    def test_schedule_result(self):
        result = Session(SCENARIO).schedule()
        assert isinstance(result, ScheduleResult)
        assert result.schedule.epsilon <= SCENARIO.scheduler.epsilon
        summary = result.summary()
        assert summary["stages"] >= 1
        assert summary["latency upper bound"] > 0
        assert result.as_rows()[0][0] == "algorithm"

    def test_simulate_result(self):
        session = Session(SCENARIO)
        result = session.simulate(num_datasets=5)
        assert isinstance(result, SimulateResult)
        assert result.simulation.num_datasets == 5
        # same pipeline as schedule(): the session builds it once per seed
        assert result.schedule is session.schedule().schedule

    def test_monte_carlo_matches_campaign_engine(self):
        mc = Session(SCENARIO).monte_carlo(trials=3, seed=2, jobs=1)
        assert isinstance(mc, MonteCarloResult)
        campaign = run_runtime_campaign(SCENARIO, trials=3, seed=2, jobs=1)
        assert mc.traces == campaign.traces
        assert mc.stats == campaign.stats

    def test_monte_carlo_jobs_do_not_change_results(self):
        serial = Session(SCENARIO).monte_carlo(trials=4, seed=0, jobs=1)
        fanned = Session(SCENARIO).monte_carlo(trials=4, seed=0, jobs=2)
        assert serial.traces == fanned.traces

    def test_online_result_summary(self):
        result = Session(SCENARIO).run_online(1)
        assert isinstance(result, OnlineResult)
        summary = result.summary()
        assert summary["datasets"] == 30
        assert summary["completed"] + summary["lost"] == 30

    def test_from_file_and_constructor_guard(self, tmp_path):
        path = tmp_path / "scenario.json"
        SCENARIO.save(path)
        assert Session.from_file(path).spec == SCENARIO
        with pytest.raises(TypeError, match="ScenarioSpec"):
            Session({"workload": {}})
        with pytest.raises(SpecificationError):
            Session.from_dict({"bogus": {}})


class TestGridMatchesSweep:
    def test_grid_expansion_matches_sweep_points(self):
        """The sweep is literally a ScenarioSpec.grid product: rebuilding each
        point's campaign from the expanded specs reproduces the sweep stats."""
        base = SCENARIO.updated({"runtime.num_datasets": 20})
        mttf_grid, mttr_grid, shapes = (30.0, 60.0), (None,), (1.0, 1.5)
        weibull = base.updated({"faults.distribution": "weibull"})
        axes = dict(zip(SWEEP_AXES, (mttf_grid, mttr_grid, shapes)))
        sweep = run_suite(SuiteSpec(base=weibull, axes=axes, trials=2, seed=3), jobs=1)
        specs = weibull.grid(axes)
        assert len(specs) == len(sweep.points) == 4
        rng = ensure_rng(3)
        for spec, point in zip(specs, sweep.points):
            seed = derive_seed(rng)
            assert seed == point.seed
            assert spec == point.spec
            campaign = run_runtime_campaign(spec, trials=2, seed=seed, jobs=1)
            assert campaign.stats == point.stats


class TestBuildScheduleFallback:
    def test_heuristic_specific_options_do_not_crash_the_fallback(self):
        """rltf-only options must be filtered out of the LTF fallback calls
        instead of escaping as TypeError mid-ladder."""
        from repro.scenario import build_schedule, build_workload
        from repro.scenario.spec import SchedulerSpec, WorkloadSpec

        workload = build_workload(
            WorkloadSpec(num_tasks=10, num_processors=4), seed=0
        )
        # an impossible period drives the ladder through every (ε, builder)
        # pair, including LTF with the rltf-only option filtered away
        with pytest.raises(SchedulingError):
            build_schedule(
                workload,
                SchedulerSpec(
                    name="rltf", epsilon=1, period=1e-9,
                    options={"enable_rule1": False},
                ),
            )
        # and a feasible scenario with the same options still schedules
        schedule = build_schedule(
            workload,
            SchedulerSpec(name="rltf", epsilon=1, options={"enable_rule1": False}),
        )
        assert schedule.is_complete()


class TestCampaignPointSpec:
    def test_degenerate_epsilon_still_reduces_to_a_point(self):
        """ε ≥ platform size is recorded as scheduling failures, never as a
        reduction-time SpecificationError that loses the instance work."""
        from repro.experiments.campaign import run_point

        config = ExperimentConfig(
            granularities=(1.0,), num_graphs=1, num_processors=4,
            task_range=(10, 12), crash_samples=1, seed=1,
        )
        point = run_point(1.0, epsilon=4, config=config)
        assert point.spec is None
        assert sum(point.failures.values()) >= 1

    def test_standard_point_carries_family_spec_without_pinned_seed(self):
        from repro.experiments.campaign import run_point

        config = ExperimentConfig(
            granularities=(1.0,), num_graphs=1, num_processors=10,
            task_range=(10, 12), crash_samples=1, seed=1,
        )
        point = run_point(1.0, epsilon=1, config=config)
        assert point.spec is not None
        assert point.spec.workload.seed is None
        assert point.spec.scheduler.epsilon == 1


class TestCli:
    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_config_emit_round_trips(self, capsys):
        from repro.cli import main

        assert main(["config", "--emit", "--mttf", "60", "--name", "demo"]) == 0
        data = json.loads(capsys.readouterr().out)
        spec = ScenarioSpec.from_dict(data)
        assert spec.name == "demo"
        assert spec.faults.mttf_periods == 60.0

    def test_config_scenario_file_plus_flag_overrides(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "base.json"
        SCENARIO.save(path)
        assert (
            main(
                ["config", "--scenario", str(path), "--mttf", "77",
                 "--admission", "queue", "--emit"]
            )
            == 0
        )
        spec = ScenarioSpec.from_json(capsys.readouterr().out)
        assert spec.faults.mttf_periods == 77.0
        assert spec.runtime.admission == "queue"
        # untouched fields come from the file, not the flag defaults
        assert spec.workload.num_tasks == SCENARIO.workload.num_tasks
        assert spec.runtime.num_datasets == SCENARIO.runtime.num_datasets

    def test_config_mttr_none_flips_a_file_back_to_fail_stop(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "base.json"
        SCENARIO.updated({"faults.mttr_periods": 30.0}).save(path)
        assert main(["config", "--scenario", str(path), "--mttr", "none", "--emit"]) == 0
        spec = ScenarioSpec.from_json(capsys.readouterr().out)
        assert spec.faults.mttr_periods is None

    def test_config_validates_scenario_files(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "scenario.json"
        SCENARIO.save(path)
        assert main(["config", "--scenario", str(path)]) == 0
        assert "scenario OK" in capsys.readouterr().out
        bad = tmp_path / "bad.json"
        bad.write_text('{"faults": {"mtf_periods": 1}}')
        assert main(["config", "--scenario", str(bad)]) == 2
        assert "mttf_periods" in capsys.readouterr().err

    def test_run_smoke_drives_all_four_front_ends(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "scenario.json"
        SCENARIO.with_name("smoke-test").save(path)
        assert main(["run", str(path), "--smoke"]) == 0
        out = capsys.readouterr().out
        for title in ("schedule", "simulate", "online run", "monte-carlo"):
            assert title in out

    def test_run_single_mode_and_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "scenario.json"
        SCENARIO.save(path)
        assert main(["run", str(path), "--mode", "schedule"]) == 0
        assert "algorithm" in capsys.readouterr().out
        assert main(["run", str(tmp_path / "nope.json")]) == 2
