"""Machine-speed calibration for a shared, noisy machine.

The shared 2-CPU virtual machine this benchmark was defined on changes
speed by up to 2x within a minute, because other tenants share its
cores.  Raw times from runs made minutes apart are therefore not
comparable.  A fixed pure-Python snippet is timed between ops.  Its work
resembles an op's: argparse, ``Fraction``, ``json``, ``dict`` and
``int`` work.  It always runs in a process that never imports the
library: ``run.py``'s own, or between ops the helper process of
``Calibrator``.  So neither the library's code nor its heap,
garbage-collector state or threads can move it.  Every reported time is
divided by the slowness factor measured around it, which gives seconds on a
reference machine where the snippet takes ``REFERENCE_S``.  A regression
in the program raises the time of its ops but not the snippet's, so it
still shows in full.  The raw times and the factors are printed in the
report next to the normalised ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.010
EVERY_S = 0.25  # calibrate before an op once this much time passed since the last


def _snippet() -> float:
    t0 = time.perf_counter()
    for _ in range(4):
        parser = argparse.ArgumentParser(prog="calibration")
        sub = parser.add_subparsers(dest="command")
        for i in range(8):
            p = sub.add_parser(f"c{i}")
            p.add_argument("--s", type=int)
            p.add_argument("path")
        parser.parse_args(["c3", "--s", "4", "cover.json"])
    acc = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 200):
        acc += Fraction(i, i + 7) ** 2
        table[i & 63] = table.get(i & 63, 0) + (i * i) % 11
    json.dumps({"k": [str(acc)] * 50, "v": list(range(200))}, indent=2)
    x = 0
    for i in range(5000):
        x += (i ^ (i >> 3)) & 7
    return time.perf_counter() - t0


def factor() -> float:
    """How much slower this machine runs right now than the reference."""
    return statistics.median(_snippet() for _ in range(3)) / REFERENCE_S


class Calibrator:
    """A helper process that measures ``factor()`` whenever asked over a pipe.

    It inherits the caller's CPU affinity, so start it after pinning.
    """

    def __init__(self, env: dict | None = None):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True
        )

    def factor(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration helper exited with code {self._proc.wait()}")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()

    def __enter__(self) -> Calibrator:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def op_factors(cals: list[tuple[int, float]], n_ops: int) -> list[float]:
    """Per-op factor: the mean of the calibrations just before and after it.

    ``cals`` holds ``(position, factor)`` pairs, a calibration made just
    before op ``position``; it must start at position 0 and end at
    ``n_ops``, after the last op.
    """
    out = []
    j = 0
    for i in range(n_ops):
        while cals[j + 1][0] <= i:
            j += 1
        after = next(f for pos, f in cals[j + 1 :] if pos > i)
        out.append((cals[j][1] + after) / 2)
    return out


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(factor()), flush=True)
