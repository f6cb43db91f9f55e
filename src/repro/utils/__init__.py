"""Small generic utilities shared across the library.

* :mod:`repro.utils.rng` — deterministic random-number helpers.
* :mod:`repro.utils.intervals` — busy-interval timelines used to enforce the
  one-port communication model.
* :mod:`repro.utils.checks` — argument validation helpers.
* :mod:`repro.utils.ascii` — plain-text tables and plots for experiment reports.
* :mod:`repro.utils.lazy` — lazy re-exports for package ``__init__`` modules.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "rng": ("ensure_rng", "spawn_rngs"),
        "intervals": ("Interval", "Timeline", "earliest_common_slot"),
        "checks": (
            "check_positive",
            "check_non_negative",
            "check_probability",
            "check_type",
        ),
        "ascii": ("format_table", "ascii_plot"),
    },
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "Interval",
    "Timeline",
    "earliest_common_slot",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_type",
    "format_table",
    "ascii_plot",
]
