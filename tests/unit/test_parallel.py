"""Unit tests for the parallel Monte-Carlo campaign engine."""

import pytest

from repro.experiments.campaign import instance_seeds, run_campaign, run_point
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import ablation_rules, baseline_comparison, scaling_study
from repro.experiments.parallel import run_runtime_campaign
from repro.experiments.sweep import run_runtime_sweep
from repro.resilience import supervised_values
from repro.scenario import ScenarioSpec
from repro.scenario.run import run_scenario_online

TINY = ExperimentConfig(
    granularities=(0.5, 1.5),
    num_graphs=1,
    num_processors=10,
    task_range=(20, 25),
    crash_samples=2,
    seed=1,
)

SPEC = ScenarioSpec(name="runtime-trial").updated(
    {
        "workload.num_tasks": 15,
        "workload.num_processors": 6,
        "scheduler.epsilon": 1,
        "runtime.num_datasets": 30,
        "faults.mttf_periods": 40.0,
    }
)


def _square(x: int) -> int:
    return x * x


class TestParallelMap:
    """``supervised_values``: the one pool behind every figure campaign."""

    def test_serial_preserves_order(self):
        assert supervised_values(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_parallel_matches_serial(self):
        items = list(range(8))
        assert supervised_values(_square, items, jobs=4) == [x * x for x in items]

    def test_none_and_zero_jobs_run_serially(self):
        assert supervised_values(_square, [2], jobs=None) == [4]
        assert supervised_values(_square, [2, 3], jobs=None) == [4, 9]
        assert supervised_values(_square, [2, 3], jobs=0) == [4, 9]

    def test_none_jobs_reach_every_runner(self):
        """``jobs: int | None`` is the declared type of every runner."""
        config = TINY.with_overrides(granularities=(1.0,))
        serial = run_point(1.0, epsilon=1, config=config, jobs=1)
        assert run_point(1.0, epsilon=1, config=config, jobs=None).metrics == serial.metrics
        assert run_campaign(1, config, jobs=None).points[0].metrics == serial.metrics
        assert ablation_rules(config, jobs=None) == ablation_rules(config, jobs=1)


class TestRuntimeCampaign:
    def test_same_seed_same_traces(self):
        a = run_runtime_campaign(SPEC, trials=3, seed=5, jobs=1)
        b = run_runtime_campaign(SPEC, trials=3, seed=5, jobs=1)
        assert a.traces == b.traces
        assert a.trial_seeds == b.trial_seeds

    def test_jobs_do_not_change_results(self):
        serial = run_runtime_campaign(SPEC, trials=4, seed=0, jobs=1)
        fanned = run_runtime_campaign(SPEC, trials=4, seed=0, jobs=2)
        assert serial.traces == fanned.traces

    def test_stats_aggregate(self):
        result = run_runtime_campaign(SPEC, trials=3, seed=2, jobs=1)
        stats = result.stats
        assert stats.trials == 3
        assert 0.0 <= stats.mean_loss_rate <= 1.0
        assert 0.0 <= stats.mean_availability <= 1.0

    def test_trial_is_pure(self):
        assert run_scenario_online(SPEC, seed=11) == run_scenario_online(SPEC, seed=11)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_runtime_campaign(SPEC, trials=0)
        with pytest.raises(ValueError):
            ScenarioSpec().updated({"faults.mttf_periods": -1.0})
        with pytest.raises(ValueError):
            ScenarioSpec().updated({"faults.distribution": "zipf"})
        with pytest.raises(ValueError):
            ScenarioSpec().updated(
                {"scheduler.epsilon": 10, "workload.num_processors": 5}
            )

    def test_spec_overrides(self):
        spec = SPEC.updated({"runtime.policy": "remap"})
        assert spec.runtime.policy == "remap"
        assert spec.workload.num_tasks == SPEC.workload.num_tasks


class TestCampaignJobs:
    def test_run_campaign_parallel_is_bit_for_bit_identical(self):
        serial = run_campaign(1, TINY, jobs=1)
        fanned = run_campaign(1, TINY, jobs=2)
        assert [p.metrics for p in serial.points] == [p.metrics for p in fanned.points]
        assert [p.failures for p in serial.points] == [p.failures for p in fanned.points]

    def test_instance_seeds_are_stable(self):
        a = instance_seeds(TINY, 0.5, 1)
        b = instance_seeds(TINY, 0.5, 1)
        assert a == b and len(a) == TINY.num_graphs
        assert instance_seeds(TINY, 1.5, 1) != a

    def test_run_point_shards_within_the_point(self):
        """Per-graph fan-out: a single point parallelises bit-for-bit."""
        config = TINY.with_overrides(num_graphs=3)
        serial = run_point(1.0, epsilon=1, config=config, jobs=1)
        fanned = run_point(1.0, epsilon=1, config=config, jobs=3)
        assert serial.metrics == fanned.metrics
        assert serial.failures == fanned.failures

    def test_run_point_agrees_with_run_campaign(self):
        config = TINY.with_overrides(num_graphs=2)
        campaign = run_campaign(1, config, jobs=2)
        point = run_point(config.granularities[0], epsilon=1, config=config)
        assert campaign.points[0].metrics == point.metrics

    def test_scaling_study_jobs_preserve_workloads(self):
        serial = scaling_study(sizes=(10, 20), epsilon=0, config=TINY, jobs=1)
        fanned = scaling_study(sizes=(10, 20), epsilon=0, config=TINY, jobs=2)
        # wall-clock numbers differ, the structure and x axis must not
        assert serial.x == fanned.x == (10.0, 20.0)
        assert set(serial.series) == set(fanned.series) == {"LTF", "R-LTF"}

    def test_runtime_sweep_jobs_are_bit_for_bit_identical(self):
        spec = SPEC.updated({"runtime.num_datasets": 20})
        serial = run_runtime_sweep(
            spec, mttf_grid=(30.0, 60.0), mttr_grid=(None,), shapes=(1.0,),
            trials=2, seed=3, jobs=1,
        )
        fanned = run_runtime_sweep(
            spec, mttf_grid=(30.0, 60.0), mttr_grid=(None,), shapes=(1.0,),
            trials=2, seed=3, jobs=2,
        )
        assert serial.points == fanned.points
        figure = serial.figure("availability")
        assert figure.x == (30.0, 60.0)
        assert set(figure.series) == {"mttr=∞, shape=1"}
        assert len(serial.figures()) == 4

    def test_runtime_sweep_validation(self):
        with pytest.raises(ValueError):
            run_runtime_sweep(SPEC, mttf_grid=(), trials=1)
        with pytest.raises(ValueError):
            run_runtime_sweep(SPEC, trials=0)
        with pytest.raises(ValueError):
            run_runtime_sweep(SPEC, mttf_grid=(None,), trials=1)

    def test_ablations_parallel_identical(self):
        serial = ablation_rules(TINY, jobs=1)
        fanned = ablation_rules(TINY, jobs=2)
        assert serial.series == fanned.series

    def test_baselines_parallel_identical(self):
        serial = baseline_comparison(TINY, jobs=1)
        fanned = baseline_comparison(TINY, jobs=2)
        assert serial.series == fanned.series


class TestStatsReduction:
    def test_stats_reduce_equals_trace_summaries(self):
        """Acceptance: reduce='stats' stats ≡ summarize_traces(reduce='traces')."""
        from repro.runtime.trace import summarize_traces

        full = run_runtime_campaign(SPEC, trials=4, seed=3)
        lean = run_runtime_campaign(
            SPEC, trials=4, seed=3, reduce="stats"
        )
        assert lean.stats == full.stats == summarize_traces(full.traces)
        assert lean.trial_seeds == full.trial_seeds
        assert lean.traces is None and lean.reduce == "stats"
        assert full.summaries is None and full.reduce == "traces"
        assert lean.trials == full.trials == 4

    def test_stats_reduce_is_jobs_invariant(self):
        serial = run_runtime_campaign(
            SPEC, trials=4, seed=2, jobs=1, reduce="stats"
        )
        fanned = run_runtime_campaign(
            SPEC, trials=4, seed=2, jobs=4, reduce="stats"
        )
        assert fanned == serial

    def test_stats_payload_is_a_fraction_of_traces(self):
        # trace pickles grow with the stream (one record per data set);
        # summaries do not — at a realistic stream length the acceptance bar
        # is ≥10× less transfer
        import pickle

        spec = SPEC.updated({"runtime.num_datasets": 200})
        full = run_runtime_campaign(spec, trials=2, seed=3)
        lean = run_runtime_campaign(spec, trials=2, seed=3, reduce="stats")
        assert len(pickle.dumps(lean)) * 10 < len(pickle.dumps(full))

    def test_combine_summaries_is_summarize_traces(self):
        from repro.runtime.trace import (
            combine_summaries,
            summarize_trace,
            summarize_traces,
        )

        traces = [run_scenario_online(SPEC, seed) for seed in (0, 5, 9)]
        assert combine_summaries(map(summarize_trace, traces)) == summarize_traces(
            traces
        )

    def test_invalid_reduce_rejected(self):
        with pytest.raises(ValueError, match="reduce"):
            run_runtime_campaign(SPEC, trials=2, seed=0, reduce="bogus")

    def test_campaign_result_requires_exactly_one_payload(self):
        from repro.experiments.parallel import RuntimeCampaignResult

        with pytest.raises(ValueError, match="exactly one"):
            RuntimeCampaignResult(
                spec=SPEC, seed=0, trial_seeds=(1,), traces=None
            )

    def test_session_monte_carlo_stats_mode(self):
        from repro.api import Session

        session = Session(SPEC)
        full = session.monte_carlo(trials=2, seed=1)
        lean = session.monte_carlo(trials=2, seed=1, reduce="stats")
        assert lean.stats == full.stats
        assert lean.summary() == full.summary()
        with pytest.raises(ValueError, match="reduce='stats'"):
            lean.traces

    def test_suite_stats_reduce_matches_traces(self):
        """The sweep report is identical whichever payload the workers ship."""
        from repro.api import Session

        session = Session(SPEC)
        axes = {"faults.mttf_periods": [30.0, 60.0]}
        full = session.sweep(axes, trials=2, seed=4)
        lean = session.sweep(axes, trials=2, seed=4, reduce="stats")
        fanned = session.sweep(axes, trials=2, seed=4, reduce="stats", jobs=3)
        assert [p.stats for p in lean.points] == [p.stats for p in full.points]
        assert [p.seed for p in lean.points] == [p.seed for p in full.points]
        assert fanned.points == lean.points
        assert lean.panel(metric="availability") == full.panel(metric="availability")

    def test_suite_flattened_fanout_is_jobs_invariant(self):
        """trials × points share one pool; any jobs value is bit-identical."""
        serial = run_runtime_sweep(
            SPEC, mttf_grid=(30.0, 60.0), mttr_grid=(None,), shapes=(1.0,),
            trials=3, seed=6, jobs=1,
        )
        fanned = run_runtime_sweep(
            SPEC, mttf_grid=(30.0, 60.0), mttr_grid=(None,), shapes=(1.0,),
            trials=3, seed=6, jobs=4,
        )
        assert fanned.points == serial.points
        assert [p.campaign for p in fanned.sweep.points] == [
            p.campaign for p in serial.sweep.points
        ]

    def test_cli_reduce_flag(self, capsys):
        from repro.cli import main

        code = main(
            [
                "runtime", "--trials", "2", "--datasets", "20", "--tasks", "12",
                "--processors", "6", "--epsilon", "1", "--reduce", "stats",
            ]
        )
        assert code == 0
        assert "availability" in capsys.readouterr().out
