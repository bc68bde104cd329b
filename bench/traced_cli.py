"""``z2cover`` CLI entry point with the benchmark's span tracer installed.

Usage: ``BENCH_SPANS=<file> python3 bench/traced_cli.py <z2cover args>``.
Behaves like ``python3 -m z2cover.cli`` (same stdout and exit code) and,
when it ends, writes the spans of the run and the monotonic start and end
of ``cli.main`` to the file named by ``BENCH_SPANS``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import tracer  # noqa: E402
from z2cover import cli  # noqa: E402


def main() -> int:
    tr = tracer.Tracer()
    absent = tr.install()
    start = time.monotonic()
    try:
        return cli.main(sys.argv[1:])
    finally:
        end = time.monotonic()
        sys.stdout.flush()
        record = {"main_start": start, "main_end": end, "absent": absent, "spans": tr.export()}
        Path(os.environ["BENCH_SPANS"]).write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
