"""Historical module path of the campaign trial functions.

``run_trial`` *is* :func:`repro.scenario.run.run_scenario_online` and
``run_trial_summary`` *is* :func:`repro.scenario.run.run_trial_summary` —
aliases, not wrappers.  The benchmark's traced run (``perfbench/tracing.py``)
times campaign trials by rebinding these two names wherever they are bound,
so the aliases keep that ledger row working until it wraps
:mod:`repro.scenario.run` directly.  Nothing in the package imports this
module.
"""

from repro.scenario.run import run_scenario_online as run_trial
from repro.scenario.run import run_trial_summary

__all__ = ["run_trial", "run_trial_summary"]
