"""Experiment harness reproducing the evaluation section of the paper.

* :mod:`repro.experiments.config` — the experimental parameters of Section 5
  (and the reduced presets used by the benchmark suite);
* :mod:`repro.experiments.campaign` — runs one (granularity, ε) point over
  many random graphs and aggregates the metrics;
* :mod:`repro.experiments.figures` — one function per figure panel
  (3a, 3b, 3c, 4a, 4b, 4c) plus the ablation / baseline / scaling studies;
* :mod:`repro.experiments.tables` — the worked examples of Figures 1 and 2;
* :mod:`repro.experiments.reporting` — ASCII rendering of the results;
* :mod:`repro.experiments.parallel` — the parallel Monte-Carlo campaign
  engine (``jobs``-way process fan-out of runtime trials, deterministic
  regardless of the worker count);
* :mod:`repro.experiments.sweep` — suite execution (:func:`run_suite`,
  :class:`SweepResult` with arbitrary-axis panel pivots, spec-hash result
  caching) and the failure-regime sweep of the online runtime
  (mttf/mttr grid × Weibull shapes → figure-style report) built on it.
"""

from repro.experiments.config import ExperimentConfig, bench_config, paper_config, workload_period
from repro.experiments.campaign import CampaignResult, PointResult, run_campaign, run_point
from repro.experiments.figures import (
    FigureSeries,
    figure3a,
    figure3b,
    figure3c,
    figure4a,
    figure4b,
    figure4c,
    ablation_rules,
    baseline_comparison,
    scaling_study,
)
from repro.experiments.tables import figure1_scenarios, figure2_example
from repro.experiments.reporting import (
    render_series,
    render_point_table,
    render_suite,
    render_sweep,
)
from repro.experiments.parallel import (
    RuntimeCampaignResult,
    run_runtime_campaign,
)
from repro.experiments.sweep import (
    SweepPoint,
    RuntimeSweepResult,
    run_runtime_sweep,
    SuitePointResult,
    SweepResult,
    run_suite,
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
    "SweepPoint",
    "RuntimeSweepResult",
    "run_runtime_sweep",
    "SuitePointResult",
    "SweepResult",
    "run_suite",
]
