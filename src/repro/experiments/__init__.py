"""Experiment harness reproducing the evaluation section of the paper.

* :mod:`repro.experiments.config` — the experimental parameters of Section 5
  (and the reduced presets used by the benchmark suite);
* :mod:`repro.experiments.campaign` — runs one (granularity, ε) point over
  many random graphs and aggregates the metrics;
* :mod:`repro.experiments.figures` — one function per figure panel
  (3a, 3b, 3c, 4a, 4b, 4c) plus the ablation / baseline / scaling studies;
* :mod:`repro.experiments.tables` — the worked examples of Figures 1 and 2;
* :mod:`repro.experiments.reporting` — ASCII rendering of the results;
* :mod:`repro.experiments.parallel` — Monte-Carlo campaigns of the online
  runtime and the one executor behind every campaign runner (cache probe,
  checkpoints, ``jobs``-way supervised fan-out of (point, trial) units,
  deterministic regardless of the worker count);
* :mod:`repro.experiments.sweep` — suite execution (:func:`run_suite`,
  :class:`SweepResult` with arbitrary-axis panel pivots, spec-hash result
  caching); the failure-regime sweep of ``runtime --sweep`` is a suite over
  its mttf/mttr × Weibull-shape axes.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "config": (
            "ExperimentConfig",
            "bench_config",
            "paper_config",
            "workload_period",
        ),
        "campaign": ("CampaignResult", "PointResult", "run_campaign", "run_point"),
        "figures": (
            "figure3a",
            "figure3b",
            "figure3c",
            "figure4a",
            "figure4b",
            "figure4c",
            "ablation_rules",
            "baseline_comparison",
            "scaling_study",
        ),
        "tables": ("figure1_scenarios", "figure2_example"),
        "reporting": (
            "FigureSeries",
            "render_series",
            "render_point_table",
            "render_suite",
            "render_sweep",
        ),
        "parallel": ("RuntimeCampaignResult", "run_runtime_campaign"),
        "sweep": ("SuitePointResult", "SweepResult", "run_suite"),
    },
)

__all__ = [
    "ExperimentConfig",
    "bench_config",
    "paper_config",
    "workload_period",
    "CampaignResult",
    "PointResult",
    "run_campaign",
    "run_point",
    "FigureSeries",
    "figure3a",
    "figure3b",
    "figure3c",
    "figure4a",
    "figure4b",
    "figure4c",
    "ablation_rules",
    "baseline_comparison",
    "scaling_study",
    "figure1_scenarios",
    "figure2_example",
    "render_series",
    "render_point_table",
    "render_sweep",
    "render_suite",
    "RuntimeCampaignResult",
    "run_runtime_campaign",
    "SuitePointResult",
    "SweepResult",
    "run_suite",
]
