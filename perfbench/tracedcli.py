"""Run the ``repro-streaming`` CLI with the benchmark's span wrappers installed.

Usage::

    python perfbench/tracedcli.py --trace-dir DIR -- suite run suite.json --jobs 2

Times ``import repro.cli`` (the start-up cost every CLI call pays), wraps the
public calls of each layer (see ``tracing.install``), runs the command, and
leaves one span dump per process — pool workers included — in ``DIR``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import tracing


def main() -> int:
    split = sys.argv.index("--")
    options, argv = sys.argv[1:split], sys.argv[split + 1 :]
    if options[:1] != ["--trace-dir"] or len(options) != 2:
        raise SystemExit("usage: tracedcli.py --trace-dir DIR -- <repro-streaming arguments>")
    start = time.perf_counter()
    import repro.cli

    recorder = tracing.Recorder()
    recorder.samples["cli.import_s"].append(time.perf_counter() - start)
    tracing.install(recorder, Path(options[1]))
    return repro.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
