"""Frozen stdout of ``repro-streaming runtime --sweep``.

The failure-regime sweep report (header, cache line, panel names, curve
labels, table cells and ASCII plots) is compared byte for byte against
``tests/golden/runtime_sweep_report.json``.  The cases are the two sweep
commands of the CI smoke step (the three-axis grid, and the grid extended
with crash-group and load-coupling axes) plus a cold and a warm run over one
``--cache-dir``, whose path is scrubbed from the output.

Regenerate (only for a deliberate change of the report, with the reason in
CHANGES.md)::

    PYTHONPATH=src python tests/unit/test_sweep_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from repro.cli import main

GOLDEN_PATH = (
    Path(__file__).resolve().parents[1] / "golden" / "runtime_sweep_report.json"
)

_SMALL = [
    "runtime", "--sweep", "--trials", "1", "--datasets", "20", "--tasks", "12",
    "--processors", "6", "--epsilon", "1",
]

#: case name -> argv; ``{cache}`` stands for one cache directory shared by
#: every case of a run, so the warm case follows the cold one.
CASES: dict[str, list[str]] = {
    "three-axis": [
        *_SMALL, "--sweep-mttf", "40,80", "--sweep-mttr", "none",
        "--sweep-shapes", "1", "--no-plot",
    ],
    "extra-axes": [
        *_SMALL, "--sweep-mttf", "40", "--sweep-mttr", "none",
        "--sweep-shapes", "1", "--sweep-group-sizes", "none,2",
        "--sweep-load", "0,0.5", "--no-plot",
    ],
    "cache-cold": [
        *_SMALL, "--sweep-mttf", "40,80", "--sweep-mttr", "none,25",
        "--sweep-shapes", "1", "--cache-dir", "{cache}",
    ],
    "cache-warm": [
        *_SMALL, "--sweep-mttf", "40,80", "--sweep-mttr", "none,25",
        "--sweep-shapes", "1", "--cache-dir", "{cache}",
    ],
}


def produce_reports(cache_dir: Path) -> dict[str, str]:
    """Run every case in order; stdout with *cache_dir* scrubbed to ``<cache>``."""
    reports = {}
    for name, argv in CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([arg.replace("{cache}", str(cache_dir)) for arg in argv])
        assert code == 0, f"{name}: exit {code}"
        reports[name] = out.getvalue().replace(str(cache_dir), "<cache>")
    return reports


def test_runtime_sweep_report_matches_golden(tmp_path):
    goldens = json.loads(GOLDEN_PATH.read_text())
    produced = produce_reports(tmp_path / "cache")
    assert list(produced) == list(goldens)
    for name, report in produced.items():
        assert report == goldens[name], f"runtime --sweep report changed: {name}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        reports = produce_reports(Path(scratch) / "cache")
    GOLDEN_PATH.write_text(json.dumps(reports, indent=2, ensure_ascii=False) + "\n")
