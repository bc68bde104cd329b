"""Self-test of the benchmark itself (not of the library).

    python3 bench/selftest.py

Checks that a corrupted output and an unexpected exit code count as failed
ops, that the input generator is deterministic for a seed, that a short
smoke run of every workload prints exactly the metric names and units of
``BENCHMARK.json``, and that the benchmark refuses to run without the
library sources.  Takes about a minute.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import WORK  # noqa: E402
from worker import check_op, load_references, run_in_process  # noqa: E402


def _files(ops) -> dict:
    out = {}
    for op in ops:
        for arg in op.argv:
            if arg.endswith(".json"):
                out[Path(arg).name] = (ROOT / arg).read_bytes()
    return out


def test_generator_deterministic() -> None:
    for workload in ("invariants", "geography"):
        a = workloads.build(workload, 3, WORK / "selftest-a", 2)
        files_a = _files(a)
        b = workloads.build(workload, 3, WORK / "selftest-b", 2)
        c = workloads.build(workload, 4, WORK / "selftest-c", 2)
        assert [(op.id, op.params) for op in a] == [(op.id, op.params) for op in b], workload
        assert files_a == _files(b), workload
        assert [op.params for op in a] != [op.params for op in c], workload


def _corrupt(out: bytes) -> bytes:
    """Flip one value of a JSON output, or add output where there was none."""
    if b"true" in out:
        return out.replace(b"true", b"false", 1)
    if b"false" in out:
        return out.replace(b"false", b"true", 1)
    return out + b"x"


def test_failures_counted() -> None:
    from z2cover import cli

    # a seed-independent op, checked against its stored hash
    fixed, _ = load_references("geography", 5)
    op = next(op for op in workloads.build("geography", 5, WORK, 2) if op.fixed)
    rc, out, _ = run_in_process(cli, op)
    sha = hashlib.sha256(out).hexdigest()
    assert check_op(op, rc, out, sha, fixed, None, {}, False) is None
    bad = _corrupt(out)
    assert check_op(op, rc, bad, hashlib.sha256(bad).hexdigest(), fixed, None, {}, False)
    assert check_op(op, 1, out, sha, fixed, None, {}, False)

    # a seeded op on a seed without references: the oracle decides
    ops = workloads.build("invariants", 5, WORK / "selftest-a", 2)
    for kind in ("cover check", "cover invariants", "deform check"):
        op = next(op for op in ops if op.kind == kind)
        rc, out, _ = run_in_process(cli, op)
        sha = hashlib.sha256(out).hexdigest()
        assert check_op(op, rc, out, sha, {}, None, {}, False) is None, kind
        bad = _corrupt(out)
        assert check_op(op, rc, bad, sha, {}, None, {}, False), kind
        assert check_op(op, rc + 1, out, sha, {}, None, {}, False), kind

    # the threaded sample must reproduce the serial one byte for byte
    op = next(op for op in workloads.build("geography", 5, WORK, 2) if op.same_as)
    rc, out, _ = run_in_process(cli, op)
    sha = hashlib.sha256(out).hexdigest()
    assert check_op(op, rc, out, sha, {}, None, {op.same_as: out}, False) is None
    assert check_op(op, rc, out, sha, {}, None, {op.same_as: out + b" "}, False)


def _result(cmd, cwd) -> tuple[int, str]:
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def test_smoke_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", workload, "--seed", "0", "--seconds", "1",
                   "--trace", str(trace), "--limit-ops", "3"]
            rc, last = _result(cmd, ROOT)
            assert rc == 0, (workload, trace, rc)
            res = json.loads(last)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want[trace], (workload, trace, set(got) ^ set(want[trace]))


def test_refuses_without_sources() -> None:
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rc, last = _result([*spec["command"], "--workload", "classify", "--seed", "0", "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    assert rc != 0 and '"correct"' not in last, (rc, last)


def main() -> int:
    os.chdir(ROOT)  # generated ops name their cover files relative to the root
    tests = [test_generator_deterministic, test_failures_counted, test_smoke_metric_names, test_refuses_without_sources]
    for test in tests:
        test()
        print(f"ok {test.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
