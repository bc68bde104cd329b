"""Seeded op lists for the three workloads.

An op is one user-facing CLI call.  ``fixed`` ops do not depend on the
seed, so their reference hashes hold for every seed; the others are checked
against the oracle on every seed and against stored hashes on the
reference seeds.  The seed changes which group elements carry which
degree and which ``--seed`` values the sampler gets, never the shape or
size of the work, so every seed costs about the same.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracle

WORKLOADS = ("classify", "invariants", "geography")


@dataclass(frozen=True)
class Op:
    id: str
    argv: tuple[str, ...]
    kind: str  # oracle kind, or "" when only a reference hash can check it
    fixed: bool = False
    params: dict = field(default_factory=dict, compare=False)
    threads: int | None = None  # Z2COVER_THREADS for this op
    same_as: str | None = None  # op whose stdout this op must reproduce


# ---------------------------------------------------------------------------
# classify: one fresh interpreter per op, seed-independent


def classify_ops() -> list[Op]:
    cases = [(s, m, ()) for s in (1, 2, 3, 4) for m in (1, 2, 3, 4)]
    cases += [(5, m, ()) for m in (2, 3, 4)]
    cases += [(5, 1, ("--base", "flat")), (3, 1, ("--bounds-report",))]
    ops = []
    for s, m, extra in cases:
        argv = ("classify", "--s", str(s), "--m", str(m)) + extra
        ops.append(Op(" ".join(argv), argv, "", fixed=True))
    return ops


# ---------------------------------------------------------------------------
# invariants: seeded cover files, three ops per cover

P3 = (1, 1, 1, 1)
VALID, ODD_PARITY, FRACTIONAL_HALF = "valid", "odd-parity", "fractional-half-points"

# (covers, rank, support size, weights, degree palette, intent).  Even
# degrees keep the eigensheaf degrees integral; multiples of 6 on
# (1,1,2,3) keep the half-point count integral; (1,1,1,3) with degrees 2
# and 4 is drawn until the half-point count is fractional.
COVER_SHAPES = (
    (20, 4, 15, P3, (2, 4), VALID),
    (12, 4, 15, (1, 1, 1, 2), (2, 4), VALID),
    (16, 5, 31, P3, (2, 4), VALID),
    (12, 5, 12, (1, 1, 2, 3), (6, 12), VALID),
    (16, 6, 16, P3, (2, 4), VALID),
    (6, 6, 63, P3, (2, 4), VALID),
    (8, 7, 32, P3, (2, 4), VALID),
    (2, 7, 127, P3, (2, 4), VALID),
    (6, 8, 64, P3, (2, 4), VALID),
    (6, 4, 15, P3, (2, 4), ODD_PARITY),
    (6, 6, 20, P3, (2, 4), ODD_PARITY),
    (4, 4, 15, (1, 1, 1, 3), (2, 4), FRACTIONAL_HALF),
    (4, 5, 31, (1, 1, 1, 3), (2, 4), FRACTIONAL_HALF),
)


def make_cover(rng: random.Random, shape) -> oracle.Cover:
    """Draw one cover of a ``COVER_SHAPES`` shape and assert its intent."""
    _, s, support, weights, palette, intent = shape
    n = 1 << s
    values = [palette[i % len(palette)] for i in range(support)]
    for _ in range(100):
        rng.shuffle(values)
        d = [0] * n
        for g, v in zip(rng.sample(range(1, n), support), values):
            d[g] = v
        if intent == ODD_PARITY:
            g = rng.choice([g for g in range(1, n) if d[g]])
            d[g] += 1
        cover = oracle.Cover(weights, s, d)
        if intent != FRACTIONAL_HALF or not cover.half_integral:
            break
    wanted = {
        VALID: cover.ok,
        ODD_PARITY: not cover.parity_ok,
        FRACTIONAL_HALF: cover.parity_ok and cover.integral and not cover.half_integral,
    }[intent]
    if not wanted:
        raise AssertionError(f"generated rank-{s} cover is not {intent}")
    return cover


def cover_json(cover: oracle.Cover) -> str:
    s = cover.s
    d = {
        "".join("1" if (g >> i) & 1 else "0" for i in range(s)): v
        for g, v in enumerate(cover.d)
        if v
    }
    return json.dumps({"weights": list(cover.weights), "s": s, "d": d}, sort_keys=True)


def invariants_ops(seed: int, work: Path) -> list[Op]:
    """Write the seed's cover files under ``work`` and list their ops."""
    rng = random.Random(f"invariants:{seed}")
    covers = [make_cover(rng, shape) for shape in COVER_SHAPES for _ in range(shape[0])]
    order = list(range(len(covers)))
    rng.shuffle(order)
    work.mkdir(parents=True, exist_ok=True)
    ops = []
    for i in order:
        cover = covers[i]
        text = cover_json(cover)
        parsed = json.loads(text)
        if parsed["s"] != cover.s or len(parsed["d"]) != sum(1 for v in cover.d if v):
            raise AssertionError("cover file does not round-trip")
        path = work / f"cover{i:03d}.json"
        path.write_text(text + "\n", encoding="utf-8")
        params = {"weights": cover.weights, "s": cover.s, "d": cover.d}
        rel = os.path.relpath(path)
        for kind in ("cover check", "cover invariants", "deform check"):
            argv = tuple(kind.split()) + (rel,)
            ops.append(Op(f"{kind} cover{i:03d}", argv, kind, params=params))
    return ops


# ---------------------------------------------------------------------------
# geography: Fraction arithmetic, the only user of the thread pool

SMALL_SAMPLES, SMALL_COUNT = 40, 36
MID_SAMPLES, MID_COUNT = 12, 25
BIG_COUNT = 300


def geography_ops(seed: int, threads: int) -> list[Op]:
    rng = random.Random(f"geography:{seed}")
    seeds = rng.sample(range(1, 10**6), SMALL_SAMPLES + MID_SAMPLES + 1)
    ops = []

    def sample(op_id: str, s: int, count: int, sample_seed: int, **kw) -> Op:
        argv = ("geography", "sample", "--s", str(s), "--count", str(count), "--seed", str(sample_seed))
        params = {"s": s, "seed": sample_seed, "count": count}
        return Op(op_id, argv, "geography sample", params=params, **kw)

    for i in range(SMALL_SAMPLES):
        ops.append(sample(f"sample s3 #{i:02d}", 3, SMALL_COUNT, seeds[i]))
    for i in range(MID_SAMPLES):
        ops.append(sample(f"sample s6 #{i:02d}", 6, MID_COUNT, seeds[SMALL_SAMPLES + i]))
    big = seeds[-1]
    ops.append(sample("sample s6 big serial", 6, BIG_COUNT, big, threads=1))
    ops.append(
        sample("sample s6 big threaded", 6, BIG_COUNT, big, threads=threads, same_as="sample s6 big serial")
    )
    for s in range(3, 7):
        argv = ("geography", "hunt", "--s", str(s))
        ops.append(Op(" ".join(argv), argv, "", fixed=True))
    for s in range(2, 9):
        argv = ("geography", "extremes", "--s", str(s))
        ops.append(Op(" ".join(argv), argv, "", fixed=True))
    return ops


def build(workload: str, seed: int, work: Path, threads: int) -> list[Op]:
    if workload == "classify":
        return classify_ops()
    if workload == "invariants":
        return invariants_ops(seed, work / f"covers-{seed}")
    if workload == "geography":
        return geography_ops(seed, threads)
    raise ValueError(f"unknown workload {workload!r}")
