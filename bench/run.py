"""z2cover benchmark: three closed-loop CLI workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload classify --seed 0 --seconds 30 --trace 0

One client, one op at a time: the next op starts when the previous one
returns.  Every op's exit code and stdout are checked (stored sha256
references on the reference seeds, the independent oracle in
``oracle.py`` on every seed).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the human-readable report.

Other modes:

    python3 bench/run.py --slow-cases                  # tracked slow paths, never gated
    python3 bench/run.py --record-references           # rewrite references.json
    python3 bench/selftest.py                           # the benchmark's own checks
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "z2cover-bench"

sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import child_env, nproc  # noqa: E402

# Every pass is the workload's whole op set (about 15 s each when the
# benchmark was defined, on a shared 2-CPU virtual machine with Python
# 3.11.7).  A run makes max(1, round(seconds / PASS_SECONDS)) passes, so the
# sample set is the same on every commit for a given --seconds and never
# depends on program speed.
PASS_SECONDS = 15
SETUP_PROBES = 9
RUN_BUDGET_S = 150.0  # a run must end within 180 s; workers are killed 10 s after it
REFERENCE_SEEDS = (0, 1)
TAIL_BEYOND = 10
SLOW_CASE_TIMEOUT_S = 60.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# per-function layer metrics: (function, fields, should move, on, no change on)
LAYERS = (
    ("gf2.canonicalize", ("calls", "self_s"), "wall_s, op_tail_ms", "classify", "invariants, geography"),
    ("gf2.orbit_reps", ("calls", "self_s", "inputs", "orbits"), "wall_s, op_tail_ms", "classify", "invariants, geography"),
    ("classify._reconstruct_distribution", ("calls", "self_s", "yielded"), "wall_s", "classify", "invariants, geography"),
    ("classify.l_distribution_candidates", ("calls", "self_s", "returned"), "wall_s", "classify", "invariants, geography"),
    ("classify.m_profiles", ("calls", "self_s"), "wall_s", "classify", "invariants, geography"),
    ("classify.is_pluricanonical", ("calls", "self_s", "admissible_ratio"), "wall_s", "classify, invariants", "geography"),
    ("wps.monomial_count", ("calls", "self_s"), "wall_s", "classify, invariants", "geography"),
    ("walsh.forward", ("calls", "self_s"), "op_p50_ms", "invariants", "classify, geography"),
    ("cover.eigensheaf_degrees", ("calls", "self_s"), "op_p50_ms", "invariants", "classify, geography"),
    ("cover.half_point_count", ("calls", "self_s"), "op_p50_ms", "invariants", "classify, geography"),
    ("cover.validate", ("calls", "self_s"), "op_p50_ms", "invariants", "classify, geography"),
    ("moduli.deformation_criteria", ("calls", "self_s"), "op_p50_ms", "invariants", "classify, geography"),
    ("invariants.topological_euler", ("calls", "self_s"), "wall_s, op_tail_ms", "invariants", "classify, geography"),
    ("invariants.holomorphic_euler", ("calls", "self_s"), "wall_s, op_tail_ms", "invariants", "classify, geography"),
    ("invariants.invariant_report", ("calls", "total_s"), "wall_s, op_tail_ms", "invariants", "classify, geography"),
    ("invariants.geography_point", ("calls", "self_s"), "wall_s, op_p50_ms, threads_speedup", "geography", "classify"),
    ("invariants.hunt_scan", ("calls", "self_s"), "wall_s, op_p50_ms", "geography", "classify"),
)
MODULES = ("gf2", "walsh", "wps", "cover", "invariants", "classify", "moduli", "cli")
RUN_LAYERS = (("process.start_s", "s"), ("uncovered_share", "%"), ("trace_overhead_s", "s"))
FIELD_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "admissible_ratio": "ratio"}


def per_layer_units() -> list[tuple[str, str]]:
    out = []
    for fn, fields, *_ in LAYERS:
        out += [(f"{fn}.{f}", FIELD_UNITS.get(f, "count")) for f in fields]
    out += [(f"{m}.self_s", "s") for m in MODULES]
    out += list(RUN_LAYERS)
    return out


class WorkerError(RuntimeError):
    pass


def spawn(
    workload: str, seed: int, mode: str, trace: int, deadline: float, limit: int, hash_seed: int
) -> tuple[float, dict | None]:
    """Start one worker; return (set-up seconds, pass report or None)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--trace", str(trace), "--work", str(WORK), "--deadline", repr(deadline),
        "--limit-ops", str(limit),
    ]
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(hash_seed), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline + 10.0 - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    lines = [json.loads(line) for line in out.decode().splitlines() if line.startswith("{")]
    ready = next((line["ready"] for line in lines if "ready" in line), None)
    report = next((line["pass"] for line in lines if "pass" in line), None)
    if ready is None:
        raise WorkerError(f"worker failed during set-up (exit {proc.returncode}):\n{err.decode()[-2000:]}")
    if mode != "setup" and report is None:
        print(f"# worker pass died (exit {proc.returncode}): {err.decode()[-500:]}", file=sys.stderr)
    return ready - started, report


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it: (value, pct)."""
    ranked = sorted(values)
    n = len(ranked)
    if n <= TAIL_BEYOND:
        return ranked[-1], 100.0
    return ranked[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def machine() -> str:
    return f"nproc={nproc()} python={platform.python_version()} {platform.machine()}"


def count_failures(reports: list[dict], n_ops: int, passes: int) -> tuple[int, int, list[str]]:
    attempted = n_ops * passes
    failed, why = 0, []
    done = 0
    for rep in reports:
        for op in rep["ops"]:
            done += 1
            if op["fail"] is not None:
                failed += 1
                why.append(f"{op['id']}: {op['fail']}")
    failed += attempted - done  # ops of passes whose worker died
    return attempted, failed, why


def _walls(rep: dict) -> tuple[float, float]:
    """(normalised, raw) time to finish a pass's op set."""
    ops = [op for op in rep["ops"] if op["rc"] is not None]
    return sum(op["s"] / op["f"] for op in ops), sum(op["s"] for op in ops)


def run_untraced(args, n_ops: int, deadline: float) -> tuple[dict, int, int, list[str]]:
    passes = max(1, round(args.seconds / PASS_SECONDS))
    setups, raw_setups, reports = [], [], []
    for probe in range(SETUP_PROBES):
        before = calib.factor()
        setup, _ = spawn(args.workload, args.seed, "setup", 0, deadline, args.limit_ops, 100 + probe)
        setups.append(setup / ((before + calib.factor()) / 2))
        raw_setups.append(setup)
    for index in range(passes):
        _, rep = spawn(args.workload, args.seed, "pass", 0, deadline, args.limit_ops, index + 1)
        if rep is not None:
            reports.append(rep)
    attempted, failed, why = count_failures(reports, n_ops, passes)
    if not reports:
        raise WorkerError("no pass completed")
    done = [op for rep in reports for op in rep["ops"] if op["rc"] is not None]
    latencies = [1000.0 * op["s"] / op["f"] for op in done]
    raw_latencies = [1000.0 * op["s"] for op in done]
    walls = [_walls(rep) for rep in reports]
    rss = [rep["rss_kb"] / 1024.0 for rep in reports]
    tail_ms, tail_pct = tail(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(w for w, _ in walls),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(rss),
    }
    raw = {
        "setup_s": statistics.median(raw_setups),
        "wall_s": statistics.median(r for _, r in walls),
        "op_p50_ms": statistics.median(raw_latencies),
        "op_tail_ms": tail(raw_latencies)[0],
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups (interpreter start, import, input generation)",
        "wall_s": f"median of {len(walls)} passes of {n_ops} ops",
        "op_p50_ms": f"median of {len(latencies)} ops",
        "op_tail_ms": f"p{tail_pct:.1f} of {len(latencies)} ops, {min(TAIL_BEYOND, len(latencies) - 1)} beyond",
        "peak_rss_mb": f"median of {len(rss)} passes, getrusage maxrss of worker and children",
    }
    factors = [op["f"] for op in done]
    print(
        f"# times are reference-machine time: raw time / machine slowness factor "
        f"(calib.py); factor median {statistics.median(factors):.3f}, "
        f"range {min(factors):.3f}..{max(factors):.3f}"
    )
    units = dict(END_TO_END)
    for name, _ in END_TO_END:
        shown = f"raw {raw[name]:.4f}; " if name in raw else ""
        print(f"{name:<16} {values[name]:>12.4f} {units[name]:<5} {shown}{notes[name]}")
    print(f"{'failed_frac':<16} {failed / attempted:>12.4f} {'1':<5} {failed} of {attempted} ops")
    ratios = []
    for rep in reports:
        by_id = {op["id"]: op["s"] / op["f"] for op in rep["ops"]}
        if "sample s6 big threaded" in by_id:
            ratios.append(by_id["sample s6 big serial"] / by_id["sample s6 big threaded"])
    if ratios:
        print(
            f"{'threads_speedup':<16} {statistics.median(ratios):>12.4f} {'x':<5} "
            f"serial/threaded wall of one 300-point sample, median of {len(ratios)} passes, "
            f"Z2COVER_THREADS={nproc()}"
        )
    return {name: metric(values[name], unit) for name, unit in END_TO_END}, attempted, failed, why


def run_traced(args, n_ops: int, deadline: float) -> tuple[dict, int, int, list[str]]:
    _, plain = spawn(args.workload, args.seed, "pass", 0, deadline, args.limit_ops, 1)
    setup, traced = spawn(args.workload, args.seed, "pass", 1, deadline, args.limit_ops, 1)
    reports = [rep for rep in (plain, traced) if rep is not None]
    attempted, failed, why = count_failures(reports, n_ops, 2)
    if plain is None or traced is None:
        raise WorkerError("a pass of the traced run did not complete")
    tr = traced["trace"]
    f = traced["factor"]
    funcs = tr["functions"]
    values: dict[str, float] = {}
    notes: dict[str, str] = {}
    for fn, fields, moves, on, still in LAYERS:
        rec = funcs.get(fn, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "counts": None})
        counts = rec["counts"] or []
        for field in fields:
            if field == "calls":
                v = rec[field]
            elif field in ("self_s", "total_s"):
                v = rec[field] / f
            elif field == "admissible_ratio":
                v = counts[0] / rec["calls"] if rec["calls"] else 0.0
            else:
                v = counts[tracer.COUNTERS[fn][1].index(field)] if counts else 0
            values[f"{fn}.{field}"] = v
            absent = " (absent at this commit)" if fn in tr["absent"] else ""
            notes[f"{fn}.{field}"] = f"moves {moves} on {on}; no change on {still}{absent}"
    for m in MODULES:
        if m == "cli":
            values["cli.self_s"] = tr["cli_self_s"] / f
            notes["cli.self_s"] = "op time under no library span (argparse, emitters)"
        else:
            values[f"{m}.self_s"] = sum((r["self_s"] for k, r in funcs.items() if k.startswith(m + ".")), 0.0) / f
            notes[f"{m}.self_s"] = f"self time of the traced {m} functions"
    values["process.start_s"] = (tr["process_start_s"] if tr["process_start_s"] is not None else setup) / f
    notes["process.start_s"] = (
        "child start and import, summed over ops; moves op_p50_ms, setup_s on classify"
        if tr["process_start_s"] is not None
        else "start, import and input generation of the one worker process"
    )
    wall, raw_wall = _walls(traced)
    plain_wall = _walls(plain)[0]
    values["uncovered_share"] = 100.0 * (raw_wall - tr["covered_s"]) / raw_wall
    notes["uncovered_share"] = "share of traced wall_s under no library span"
    values["trace_overhead_s"] = wall - plain_wall
    notes["trace_overhead_s"] = f"traced wall_s {wall:.4f} minus untraced wall_s {plain_wall:.4f}"
    print(f"# times are reference-machine time: raw / machine slowness factor {f:.3f} of the traced pass")
    units = dict(per_layer_units())
    for name, unit in per_layer_units():
        v = values[name]
        shown = f"{v:>14.6f}" if isinstance(v, float) else f"{v:>14d}"
        print(f"{name:<46} {shown} {unit:<6} {notes[name]}")
    for op in tr["heavy"]:
        parts = ", ".join(f"{m} {v:.3f} s" for m, v in sorted(op["modules"].items(), key=lambda kv: -kv[1]))
        print(
            f"# heavy op {op['id']}: raw {op['s']:.3f} s, library spans cover "
            f"{100.0 * op['covered_s'] / op['s']:.1f}%; self time {parts}"
        )
    print(f"# absent traced functions: {', '.join(tr['absent']) or 'none'}")
    return {name: metric(values[name], units[name]) for name in values}, attempted, failed, why


def run(args) -> int:
    if not (ROOT / "src" / "z2cover" / "cli.py").is_file():
        print(f"error: no z2cover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    n_ops = len(workloads.build(args.workload, args.seed, WORK, nproc()))
    if args.limit_ops:
        n_ops = min(n_ops, args.limit_ops)
    print(f"# z2cover benchmark workload={args.workload} seed={args.seed} trace={args.trace} {machine()}")
    try:
        if args.trace:
            metrics, attempted, failed, why = run_traced(args, n_ops, deadline)
        else:
            metrics, attempted, failed, why = run_untraced(args, n_ops, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in why[:20]:
        print(f"# FAILED {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# tracked slow paths and reference recording


def _limit_memory() -> None:
    cap = 3 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def slow_cases() -> int:
    """Run each known slow path once with a timeout; report, never gate."""
    WORK.mkdir(parents=True, exist_ok=True)
    dense8 = workloads.make_cover(random.Random("slow:0"), (1, 8, 255, workloads.P3, (2, 4), workloads.VALID))
    path = WORK / "dense-rank8.json"
    path.write_text(workloads.cover_json(dense8) + "\n", encoding="utf-8")
    cases = [
        ("classify", "--s", "5", "--m", "1", "--base", "projective"),
        ("classify", "--s", "6", "--m", "1"),
        ("cover", "invariants", os.path.relpath(path, ROOT)),
        ("geography", "sample", "--s", "14", "--count", "1"),
    ]
    print(f"# tracked slow cases, timeout {SLOW_CASE_TIMEOUT_S:g} s, memory cap 3 GiB, {machine()}")
    results = {}
    for argv in cases:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "z2cover.cli", *argv], cwd=ROOT, env=child_env(1),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, preexec_fn=_limit_memory,
        )
        try:
            rc = proc.wait(timeout=SLOW_CASE_TIMEOUT_S)
            outcome = f"{time.monotonic() - t0:.2f} s (exit {rc})"
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            outcome = "timeout"
        results[" ".join(argv)] = outcome
        print(f"{' '.join(argv):<60} {outcome}", flush=True)
    print(json.dumps({"slow_cases": results, "timeout_s": SLOW_CASE_TIMEOUT_S}))
    return 0


def record_references() -> int:
    """Run every workload on the reference seeds and store the output hashes."""
    WORK.mkdir(parents=True, exist_ok=True)
    fixed: dict[str, dict] = {}
    seeded: dict[str, dict] = {}
    for seed in REFERENCE_SEEDS:
        for workload in workloads.WORKLOADS:
            _, rep = spawn(workload, seed, "record", 0, time.monotonic() + 600.0, 0, 1)
            if rep is None:
                raise WorkerError(f"{workload} seed {seed}: pass did not complete")
            ops = {op.id: op for op in workloads.build(workload, seed, WORK, nproc())}
            for op in rep["ops"]:
                if op["fail"] is not None:
                    raise WorkerError(f"{workload} seed {seed}: {op['id']}: {op['fail']}")
                target = fixed.setdefault(workload, {}) if ops[op["id"]].fixed else (
                    seeded.setdefault(str(seed), {}).setdefault(workload, {})
                )
                entry = [op["rc"], op["sha"]]
                if target.get(op["id"], entry) != entry:
                    raise WorkerError(f"{op['id']}: output differs between reference seeds")
                target[op["id"]] = entry
            print(f"# recorded {workload} seed {seed}: {len(rep['ops'])} ops", flush=True)
    refs = {"machine": machine(), "fixed": fixed, "seeded": seeded}
    (BENCH / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit-ops", type=int, default=0, help="run only the first N ops (self-test)")
    ap.add_argument("--slow-cases", action="store_true")
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args(argv)
    if args.slow_cases:
        return slow_cases()
    if args.record_references:
        return record_references()
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
