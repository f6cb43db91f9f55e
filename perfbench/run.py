"""The repository benchmark: one workload per run, checked outputs, one JSON line.

Run from the root of a source checkout (it builds nothing: the program is
pure Python and runs from ``src/``)::

    python3 perfbench/run.py --workload stream-saturated --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
once untraced and once with spans around the public calls of every layer,
and prints the per-layer ledger instead.  Human-readable lines come first —
the run's environment, then every metric the workload defines, with its unit
and direction — and the last line is the JSON result.  ``perfbench/README.md``
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import time
from importlib import metadata
from pathlib import Path

import tracing
import workloads

#: end-to-end metrics: every workload reports each (see README.md for what
#: each means on each workload).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("latency_periods", "periods"),
    ("miss_frac", "frac"),
)


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(root: Path) -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "missing"
    return {
        "git_commit": git_commit(root),
        "source_digest": source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {root / 'src' / 'repro'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    tmp = root / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    ctx = workloads.Context(root, tmp, args.seed, args.seconds, bool(args.trace))
    print(f"perfbench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("env: " + json.dumps(environment(root)))
    started = time.perf_counter()
    try:
        report = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # kept while another run still uses it
        except OSError:
            pass
    elapsed = time.perf_counter() - started

    units = dict(tracing.LAYER_METRICS if args.trace else END_TO_END)
    missing = [name for name in units if name not in report.metrics]
    for reason in report.ledger.reasons:
        print(f"failure: {reason}")
    if missing:
        print(f"perfbench: {args.workload} produced no value for {', '.join(missing)}",
              file=sys.stderr)
        return 1
    for line in report.details:
        print(line)
    print(f"wall                  {elapsed:.1f} s for the whole run")
    result = {
        "correct": report.ledger.failed == 0,
        "attempted": max(1, report.ledger.attempted),
        "failed": report.ledger.failed,
        "metrics": {
            name: {"value": report.metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
