"""One benchmark process: set up a workload, run its ops, check them.

Started by ``run.py``.  It imports the library, generates the seed's
inputs and prints ``{"ready": <monotonic time>}``; that line ends set-up.
In ``setup`` mode it exits there.  In ``pass`` mode it then runs every op
of the workload once in a closed loop, with a machine-speed calibration
between ops (see ``calib.py``), collects the outputs, and only after the
last op checks them and prints one ``{"pass": ...}`` line.
``record`` mode is a pass that skips the reference comparison and reports
the hashes instead.

``classify`` ops run as fresh interpreters, because the library's caches
are process-wide and users pay them cold on every run; the other
workloads call ``cli.main`` in this process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

THREADS_ENV = "Z2COVER_THREADS"
OP_TIMEOUT_S = 120.0
REFERENCES = BENCH / "references.json"


def child_env(hash_seed: int) -> dict:
    """Environment for a process the benchmark starts.

    ``hash_seed`` fixes ``PYTHONHASHSEED``: set and dict layouts move a
    ``classify`` op's time by about 15%, so every run uses the same
    sequence of layouts, indexed by pass and op, never by ``--seed``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    env.pop(THREADS_ENV, None)
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_references(workload: str, seed: int) -> tuple[dict, dict | None]:
    """``(fixed, seeded)`` maps op id -> [exit code, sha256]; seeded may be None."""
    if not REFERENCES.is_file():
        return {}, None
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    fixed = refs["fixed"].get(workload, {})
    seeded = refs["seeded"].get(str(seed))
    return fixed, None if seeded is None else seeded.get(workload, {})


def check_op(op, rc: int, out: bytes, sha: str, fixed: dict, seeded: dict | None, outputs: dict, record: bool):
    """Reason the op failed, or None.  Never skipped for a completed op."""
    if not record:
        refs = fixed if op.fixed else seeded
        if refs is not None:
            want = refs.get(op.id)
            if want is None:
                return "no stored reference"
            if [rc, sha] != want:
                return f"exit {rc} sha {sha[:12]} differs from reference exit {want[0]} sha {want[1][:12]}"
    if op.kind:
        why = oracle.check(op.kind, op.params, rc, out)
        if why:
            return why
    elif rc != 0:
        return f"exit code {rc}"
    if op.same_as is not None and out != outputs.get(op.same_as):
        return f"stdout differs from {op.same_as!r}"
    return None


def run_in_process(cli, op) -> tuple[int, bytes, str | None]:
    """Run one op through ``cli.main``; returns (rc, stdout, error or None)."""
    if op.threads is None:
        os.environ.pop(THREADS_ENV, None)
    else:
        os.environ[THREADS_ENV] = str(op.threads)
    buf = io.StringIO()
    error = None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the op failed; the loop goes on
            rc = -1
            error = "exception: " + traceback.format_exc().strip().splitlines()[-1]
    return rc, buf.getvalue().encode(), error


def run_child(op, trace: bool, spans_path: Path, deadline: float, hash_seed: int):
    """Run one classify op as a fresh interpreter.

    Returns ``(rc, stdout, error or None, spawn time)``.
    """
    env = child_env(hash_seed)
    if trace:
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), *op.argv]
        env["BENCH_SPANS"] = str(spans_path)
    else:
        cmd = [sys.executable, "-m", "z2cover.cli", *op.argv]
    timeout = max(0.1, min(OP_TIMEOUT_S, deadline - time.monotonic()))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, b"", f"timeout after {timeout:.0f} s", spawned
    return proc.returncode, proc.stdout, None, spawned


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "record"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--deadline", type=float, required=True)
    ap.add_argument("--limit-ops", type=int, default=0)
    args = ap.parse_args()

    from z2cover import cli

    work = Path(args.work)
    ops = workloads.build(args.workload, args.seed, work, nproc())
    if args.limit_ops:
        ops = ops[: args.limit_ops]
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    if args.mode == "setup":
        return 0

    trace = bool(args.trace)
    in_process = args.workload != "classify"
    # Children and the calibration helper inherit the pinning, so the
    # calibrations measure the CPU the ops run on.  A threaded op gets every
    # CPU back for its own duration; its pool threads inherit that.
    cpus = os.sched_getaffinity(0)
    pinned = {min(cpus)}
    os.sched_setaffinity(0, pinned)
    tr = tracer.Tracer() if trace else None
    absent = tr.install() if trace and in_process else []
    results = []  # [op, rc, stdout, elapsed_s, error, extra]
    cals = []  # (position, factor): machine speed measured just before op `position`
    last_cal = float("-inf")
    with calib.Calibrator(child_env(0)) as calibrator:
        for index, op in enumerate(ops):
            if time.perf_counter() - last_cal >= calib.EVERY_S:
                cals.append((index, calibrator.factor()))
                last_cal = time.perf_counter()
            if time.monotonic() > args.deadline:
                results.append([op, None, b"", 0.0, "not run: run deadline reached", None])
                continue
            if in_process:
                if tr is not None:
                    tr.op = index
                os.sched_setaffinity(0, cpus if (op.threads or 1) > 1 else pinned)
                t0 = time.perf_counter()
                rc, out, error = run_in_process(cli, op)
                results.append([op, rc, out, time.perf_counter() - t0, error, None])
            else:
                spans_path = work / f"spans-{os.getpid()}-{index}.json"
                t0 = time.perf_counter()
                hash_seed = 1000 * int(os.environ["PYTHONHASHSEED"]) + index
                rc, out, error, spawned = run_child(op, trace, spans_path, args.deadline, hash_seed)
                elapsed = time.perf_counter() - t0
                extra = None
                if trace and spans_path.is_file():
                    extra = json.loads(spans_path.read_text(encoding="utf-8"))
                    spans_path.unlink()
                    extra["spawned"] = spawned
                results.append([op, rc, out, elapsed, error, extra])
        cals.append((len(ops), calibrator.factor()))
    factors = calib.op_factors(cals, len(ops))
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )

    fixed, seeded = load_references(args.workload, args.seed)
    record = args.mode == "record"
    outputs = {op.id: out for op, rc, out, *_ in results if rc is not None}
    report_ops = []
    for (op, rc, out, elapsed, error, _), f in zip(results, factors):
        sha = hashlib.sha256(out).hexdigest()
        why = error or check_op(op, rc, out, sha, fixed, seeded, outputs, record)
        report_ops.append({"id": op.id, "rc": rc, "sha": sha, "s": elapsed, "f": f, "fail": why})

    report = {"rss_kb": usage, "factor": statistics.median(f for _, f in cals), "ops": report_ops}
    if trace:
        report["trace"] = _trace_summary(tr, results, in_process, absent)
    print(json.dumps({"pass": report}), flush=True)
    return 0


def _trace_summary(tr, results, in_process: bool, absent: list[str]) -> dict:
    """Per-function aggregates, CLI self time and span coverage of a pass.

    ``heavy`` breaks the ops that take at least a twentieth of the pass down
    by module, so the attribution of single large ops can be read off.
    """
    wall = sum(r[3] for r in results)
    funcs: dict = {}
    covered_all = cli_self = 0.0
    start = None
    per_op = {}
    if in_process:
        funcs, covered_all, per_op = tracer.aggregate(tr.export())
        cli_self = wall - covered_all
    else:
        start = 0.0
        for index, (op, rc, out, elapsed, error, extra) in enumerate(results):
            if extra is None:
                continue
            agg, covered, ops = tracer.aggregate(extra["spans"])
            tracer.merge(funcs, agg)
            absent = extra["absent"]
            covered_all += covered
            cli_self += extra["main_end"] - extra["main_start"] - covered
            start += extra["main_start"] - extra["spawned"]
            if None in ops:
                per_op[index] = ops[None]
    heavy = []
    for index, (op, rc, out, elapsed, error, extra) in enumerate(results):
        if elapsed >= wall / 20 and index in per_op:
            heavy.append({"id": op.id, "s": elapsed, **per_op[index]})
    return {
        "functions": funcs,
        "absent": absent,
        "covered_s": covered_all,
        "cli_self_s": cli_self,
        "process_start_s": start,
        "heavy": heavy,
    }


if __name__ == "__main__":
    sys.exit(main())
