"""Acceptance gate: ten end-to-end checks of the package's headline claims.

Every check prints one verdict line (visible under ``pytest -s``; pytest
shows captured output for failing checks anyway) and enforces its own
wall-clock budget.  Check 8 proves that the rank-3 scan family has a positive
index exactly between the roots t0 ~ 0.54397 and t1 ~ 0.68888 of
144t^4 - 200t^3 + 87t^2 - 15t + 2, with F(1/2) = -1/36 below the window.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from z2cover import classify
from z2cover.cover import BranchData, CoverSpec, half_point_count, is_flat
from z2cover.invariants import (
    SCI_MAX,
    SCI_MIN,
    Y_MIN,
    barycenter_ratio,
    geography_coordinates,
    holomorphic_euler,
    hunt_scan,
    random_ratio,
    topological_euler,
    vertex_ratio,
    volume,
)
from z2cover.moduli import deformation_criteria, gen_new_component, gen_unbounded
from z2cover.walsh import forward, inverse
from z2cover.wps import Weights, monomial_count

from oracles import branch_profiles, canonical_form, canonical_forms, xor_convolution

MAIN = "main"


def _verdict(num, name, failures, started, budget):
    elapsed = time.monotonic() - started
    if elapsed >= budget:
        failures.append(f"runtime {elapsed:.1f}s over the {budget:.0f}s budget")
    print(f"criterion {num:2d} ({name}): {'FAIL' if failures else 'PASS'} [{elapsed:.1f}s]")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


def _p3(s, d):
    return CoverSpec(weights=Weights((1, 1, 1, 1)), branch=BranchData(s, tuple(d)))


# the thirteen canonical double-cover towers: (weights, 2L, W/L, first t)
TOWER_CATALOG = {
    ((1, 1, 1, 1), 2, 4, 5),
    ((1, 1, 2, 2), 4, 3, 4),
    ((1, 1, 1, 3), 6, 2, 3),
    ((1, 1, 2, 4), 8, 2, 3),
    ((1, 2, 3, 6), 12, 2, 3),
    ((1, 1, 4, 6), 24, 1, 2),
    ((1, 2, 2, 5), 20, 1, 2),
    ((1, 2, 6, 9), 36, 1, 2),
    ((1, 3, 4, 4), 24, 1, 2),
    ((1, 3, 8, 12), 48, 1, 2),
    ((1, 4, 5, 10), 40, 1, 2),
    ((1, 6, 14, 21), 84, 1, 2),
    ((2, 3, 10, 15), 60, 1, 2),
}

# the twenty-one rank-2 admissible solutions: (m, weights, d, k, p_m)
RANK2_TABLE = {
    (1, (1, 1, 1, 2), (0, 2, 6, 6), 1, 7),
    (1, (1, 1, 1, 3), (0, 6, 6, 6), 1, 11),
    (1, (1, 1, 2, 2), (0, 0, 8, 8), 1, 5),
    (1, (1, 1, 2, 2), (0, 4, 4, 8), 1, 5),
    (1, (1, 1, 2, 4), (0, 8, 8, 8), 1, 10),
    (1, (1, 1, 4, 4), (0, 4, 12, 12), 1, 7),
    (1, (1, 2, 3, 6), (0, 12, 12, 12), 1, 8),
    (1, (1, 1, 1, 2), (0, 6, 6, 6), 2, 22),
    (1, (1, 1, 2, 2), (0, 4, 8, 8), 2, 14),
    (1, (1, 1, 4, 4), (0, 12, 12, 12), 2, 22),
    (1, (1, 1, 1, 1), (0, 2, 6, 6), 3, 20),
    (1, (1, 1, 1, 1), (0, 4, 4, 6), 3, 20),
    (1, (1, 1, 2, 2), (0, 8, 8, 8), 3, 30),
    (1, (1, 1, 1, 1), (0, 4, 6, 6), 4, 35),
    (1, (1, 1, 1, 1), (0, 6, 6, 6), 5, 56),
    (2, (1, 1, 1, 2), (0, 4, 4, 4), 1, 7),
    (2, (1, 1, 2, 2), (0, 2, 6, 6), 1, 5),
    (2, (1, 1, 4, 4), (0, 8, 8, 8), 1, 7),
    (2, (1, 1, 1, 1), (0, 2, 4, 4), 2, 10),
    (3, (1, 1, 3, 3), (0, 6, 6, 6), 1, 6),
    (4, (1, 1, 1, 1), (0, 3, 3, 3), 2, 10),
}

RANK3_TABLE = {
    (1, (1, 1, 1, 2), (0, 2, 2, 2, 2, 2, 2, 2), 1, 7),
    (1, (1, 1, 2, 2), (0, 0, 0, 0, 4, 4, 4, 4), 1, 5),
    (1, (1, 1, 2, 2), (0, 0, 2, 2, 2, 2, 4, 4), 1, 5),
    (1, (1, 1, 4, 4), (0, 4, 4, 4, 4, 4, 4, 4), 1, 7),
    (1, (1, 1, 1, 1), (0, 2, 2, 2, 2, 2, 2, 2), 3, 20),
    (2, (1, 1, 2, 2), (0, 2, 2, 2, 2, 2, 2, 2), 1, 5),
}

ITEM5 = (0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 2)
NINE_ONES = (0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1)
TWELVE_ONES = (0, 0, 0, 0) + (1,) * 12
HALF_ONES = (0,) * 16 + (1,) * 16

RANK4_M1_TABLE = {
    (1, (1, 1, 2, 2), (0,) * 8 + (2,) * 8, 1, 5),
    (1, (1, 1, 2, 2), (0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2), 1, 5),
    (1, (1, 1, 1, 1), TWELVE_ONES, 2, 10),
}

# straight-projective windows: (m, k, D) with the ranks where each applies
PROJECTIVE_WINDOWS = [
    (1, 1, 10, (2, 3, 4, 5, 6)),
    (1, 2, 12, (2, 3, 4, 5, 6)),
    (1, 3, 14, (2,)),
    (1, 3, 14, (3,)),
    (1, 4, 16, (2,)),
    (1, 5, 18, (2,)),
    (2, 1, 9, (2, 3, 4, 5, 6)),
    (2, 2, 10, (2,)),
    (4, 2, 9, (2,)),
]

SCAN_MASSES = (
    Fraction(1, 2),
    Fraction(11, 20),
    Fraction(3, 5),
    Fraction(13, 20),
    Fraction(17, 25),
)

# On the scan family r[1] = t and r[3] = r[5] = r[7] = (1 - t)/3, so
# F = 7a - 9b^2 = -(144t^4 - 200t^3 + 87t^2 - 15t + 2)/9.  The quartic has two
# real roots, t0 ~ 0.543970 and t1 ~ 0.688880, and the index is positive
# exactly on (t0, t1); each pair below brackets one root.
SCAN_WINDOW_BRACKETS = (
    (Fraction(543, 1000), Fraction(544, 1000)),
    (Fraction(688, 1000), Fraction(689, 1000)),
)


def _main_rows(*cells):
    rows = set()
    for s, m in cells:
        for sol in classify.enumerate_flat(s, m) + classify.enumerate_L1(s, m):
            if sol.status == MAIN:
                rows.add((sol.m, sol.weights.a, canonical_form(sol.d), sol.k, sol.p_m))
    return rows


def test_criterion_01_rank_one_tower_catalog():
    t0 = time.monotonic()
    failures = []
    families = classify.enumerate_s1(1)
    mains = [f for f in families if f.status == MAIN]
    got = {
        (f.weights.a, f.degree_coefficient, f.weights.W // f.weights.L, f.t_min)
        for f in mains
    }
    if got != TOWER_CATALOG:
        failures.append(f"main tower set mismatch: {got ^ TOWER_CATALOG}")
    if any(not f.note for f in families if f.status != MAIN):
        failures.append("extra towers must carry an explanatory note")
    for fam in mains:
        offset = fam.weights.W // fam.weights.L
        for t in range(fam.t_min, 11):
            branch = BranchData(1, (0, fam.degree_coefficient * t))
            rep = classify.is_pluricanonical(fam.weights, branch, fam.m)
            if not rep.admissible or rep.k != t - offset:
                failures.append(f"{fam.weights.a} at t={t}: {rep.reasons}, k={rep.k}")
    _verdict(1, "rank-one tower catalog", failures, t0, 10.0)


def test_criterion_02_rank_two_table():
    t0 = time.monotonic()
    failures = []
    got = _main_rows(*((2, m) for m in (1, 2, 3, 4)))
    if got != RANK2_TABLE:
        failures.append(f"row set mismatch: {got ^ RANK2_TABLE}")
    if (4, (1, 1, 1, 1), (0, 3, 3, 3), 2, 10) not in got:
        failures.append("p_4 = 10 anchor row missing")
    if (1, (1, 1, 2, 2), (0, 8, 8, 8), 3, 30) not in got:
        failures.append("p_1 = 30 anchor row missing")
    _verdict(2, "rank-two admissible table", failures, t0, 60.0)


def test_criterion_03_higher_rank_catalog():
    t0 = time.monotonic()
    failures = []
    s3 = _main_rows((3, 1), (3, 2))
    if s3 != RANK3_TABLE:
        failures.append(f"rank 3 mismatch: {s3 ^ RANK3_TABLE}")

    rows42 = classify.enumerate_flat(4, 2) + classify.enumerate_L1(4, 2)
    mains42 = [r for r in rows42 if r.status == MAIN]
    extras42 = [r for r in rows42 if r.status != MAIN]
    if [(r.d, r.k) for r in mains42] != [(ITEM5, 1)]:
        failures.append(f"rank 4 bicanonical main: {[(r.d, r.k) for r in mains42]}")
    if [(r.d, r.status) for r in extras42] != [(NINE_ONES, "supplementary")]:
        failures.append("the all-ones-on-nine orbit must be flagged separately")

    s41 = _main_rows((4, 1))
    if s41 != RANK4_M1_TABLE:
        failures.append(f"rank 4 canonical mismatch: {s41 ^ RANK4_M1_TABLE}")

    s51 = _main_rows((5, 1))
    if s51 != {(1, (1, 1, 2, 2), HALF_ONES, 1, 5)}:
        failures.append(f"rank 5 canonical mismatch: {s51}")
    _verdict(3, "higher-rank catalog", failures, t0, 300.0)


def test_criterion_04_exclusion_windows():
    t0 = time.monotonic()
    failures = []
    flat_cells = [(2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3),
                  (4, 4), (5, 2), (5, 3)] + [(6, m) for m in range(1, 7)]
    for s, m in flat_cells:
        got = classify.enumerate_flat(s, m)
        if got:
            failures.append(f"flat({s},{m}) not empty: {len(got)} rows")
        report = classify.bounds_report(s, m)
        if not report.startswith(f"rank s={s}") or len(report.splitlines()) < 2:
            failures.append(f"bounds report for ({s},{m}) looks wrong")

    windows = set()
    for m in range(1, 7):
        for s in range(2, 7):
            for k, L, W, _ in classify._cells(s, m):
                if L == 1:
                    windows.add((m, k, 2 * W + 2 * k // m, s))
    wanted = {(m, k, D, s) for m, k, D, ranks in PROJECTIVE_WINDOWS for s in ranks}
    if windows != wanted:
        failures.append(f"projective windows mismatch: {windows ^ wanted}")

    for s, m in [(2, 3), (3, 3), (4, 3), (5, 3), (3, 4), (4, 4), (5, 4),
                 (2, 5), (3, 5), (2, 6), (4, 6)]:
        got = classify.enumerate_L1(s, m)
        if got:
            failures.append(f"L1({s},{m}) should be outside every window: {len(got)} rows")
    _verdict(4, "exclusion windows", failures, t0, 300.0)


def _brute_orbits(s, D, min_l):
    """Independent search: place every candidate degree multiset on the
    nonzero group elements and keep the functions whose half-sums are all
    even with l >= min_l; no spectral reconstruction involved."""
    n = 1 << s
    n_chars = n - 1
    mask = [0] * n  # per position, packed +1 over the characters it meets
    for g in range(1, n):
        acc = 0
        for chi in range(1, n):
            if (chi & g).bit_count() & 1:
                acc += 1 << (8 * (chi - 1))
        mask[g] = acc
    lo = 2 * min_l
    found = []

    def place(values, positions, packed, placed):
        if not values:
            half = packed.to_bytes(n_chars, "little")
            if all(h % 2 == 0 and h >= lo for h in half):
                d = [0] * n
                for pos, val in placed:
                    d[pos] = val
                found.append(d)
            return
        val, cnt = values[0]
        for combo in combinations(positions, cnt):
            add = 0
            for pos in combo:
                add += mask[pos]
            rest = tuple(p for p in positions if p not in combo)
            place(values[1:], rest, packed + val * add,
                  placed + [(pos, val) for pos in combo])

    for profile in branch_profiles(s, D, min_l):
        counts = {}
        for v in profile:
            counts[v] = counts.get(v, 0) + 1
        place(sorted(counts.items(), reverse=True), tuple(range(1, n)), 0, [])
    return set(canonical_forms(found))


def _spectral_orbits(s, D, min_l):
    orbits = set()
    for dist in classify.l_distribution_candidates(s, D, min_l):
        orbits.update(classify.reconstruct_branch(dist))
    return orbits


def test_criterion_05_orbit_oracle_equivalence():
    t0 = time.monotonic()
    failures = []
    for (s, D, min_l), want in (((4, 9, 2), 2), ((4, 12, 3), 1)):
        brute = _brute_orbits(s, D, min_l)
        spectral = _spectral_orbits(s, D, min_l)
        if brute != spectral:
            failures.append(
                f"(D={D}) routes disagree: brute-only {brute - spectral}, "
                f"spectral-only {spectral - brute}"
            )
        if len(spectral) != want:
            failures.append(f"(D={D}) expected {want} orbits, got {len(spectral)}")
    _verdict(5, "orbit oracle equivalence", failures, t0, 300.0)


def test_criterion_06_transform_properties():
    t0 = time.monotonic()
    failures = []
    rng = random.Random(20260823)
    for s in range(2, 9):
        n = 1 << s
        for round_no in range(1000):
            f = [rng.randrange(-9, 10) for _ in range(n)]
            g = [rng.randrange(-9, 10) for _ in range(n)]
            hf, hg = forward(f), forward(g)
            if tuple(inverse(hf)) != tuple(f):
                failures.append(f"s={s} round {round_no}: inversion broke")
                break
            if sum(hf) != n * f[0]:
                failures.append(f"s={s} round {round_no}: first moment broke")
                break
            if sum(v * v for v in hf) != n * sum(v * v for v in f):
                failures.append(f"s={s} round {round_no}: Parseval broke")
                break
            if sum(a * b for a, b in zip(hf, hg)) != n * sum(
                a * b for a, b in zip(f, g)
            ):
                failures.append(f"s={s} round {round_no}: Plancherel broke")
                break
            if s <= 5:
                conv = xor_convolution(f, g)
                if list(forward(conv)) != [a * b for a, b in zip(hf, hg)]:
                    failures.append(f"s={s} round {round_no}: convolution broke")
                    break
            if s <= 6:
                direct = sum(v * c for v, c in zip(f, xor_convolution(f, f)))
                if sum(v**3 for v in hf) != n * direct:
                    failures.append(f"s={s} round {round_no}: cubic moment broke")
                    break
    _verdict(6, "transform property suite", failures, t0, 30.0)


def test_criterion_07_ratio_simplex_bounds():
    t0 = time.monotonic()
    failures = []
    for s in (2, 3, 4):
        for g in (1, (1 << s) - 1):
            x, y, sci = geography_coordinates(vertex_ratio(s, g))
            if (x, y, sci) != (2, Fraction(1, 2), Fraction(-1, 2)):
                failures.append(f"vertex s={s} g={g}: ({x}, {y}, {sci})")
    bary_y = {}
    for s in range(2, 7):
        _, y, _ = geography_coordinates(barycenter_ratio(s))
        want = 2 - Fraction(4, 1 << s) + Fraction(1, 1 << (2 * s - 1))
        bary_y[s] = y
        if y != want:
            failures.append(f"barycenter s={s}: y={y} != {want}")
    for s in (2, 3, 4):
        rng = random.Random(1000 + s)
        for i in range(10_000):
            x, y, sci = geography_coordinates(random_ratio(s, rng))
            if not (SCI_MIN <= sci <= SCI_MAX and x <= 2 and Y_MIN <= y <= bary_y[s]):
                failures.append(f"s={s} sample {i} escaped: x={x} y={y} sci={sci}")
                break
    _verdict(7, "ratio-simplex bounds", failures, t0, 60.0)


def _scan_f(t):
    """``F = 7a - 9b^2`` of the rank-3 scan family, from its four masses."""
    masses = (t, *[(1 - t) / 3] * 3)
    a = sum(m**3 for m in masses)
    b = sum(m**2 for m in masses)
    return 7 * a - 9 * b**2


def test_criterion_08_scan_positivity_window():
    t0 = time.monotonic()
    failures = []
    f_anchor, _ = hunt_scan(3, Fraction(3, 5))
    if f_anchor != Fraction(136, 5625):
        failures.append(f"F(4, 3/5) = {f_anchor} != 136/5625")
    f_half, _ = hunt_scan(3, Fraction(1, 2))
    if f_half != Fraction(-1, 36):
        failures.append(f"F(4, 1/2) = {f_half} != -1/36")
    (below, opens), (closes, above) = SCAN_WINDOW_BRACKETS
    for t in SCAN_MASSES + (below, opens, closes, above):
        f, (_, _, sci) = hunt_scan(3, t)
        if f != _scan_f(t):
            failures.append(f"F(4, {t}) = {f} != closed form {_scan_f(t)}")
        inside = opens <= t <= closes
        sign = 1 if inside else -1
        if not (sign * f > 0 and sign * sci > 0):
            failures.append(
                f"F(4, {t}) = {f}, SCI = {sci}: expected "
                f"{'positive inside' if inside else 'negative outside'} "
                "the window"
            )
    _verdict(8, "scan positivity window", failures, t0, 1.0)


def test_criterion_09_invariant_spot_checks():
    t0 = time.monotonic()
    failures = []
    quadric = _p3(1, (0, 2))
    e, exact = topological_euler(quadric)
    got = (volume(quadric), holomorphic_euler(quadric), e, exact)
    if got != (-54, 1, 4, True):
        failures.append(f"quadric double cover: {got}")

    dec = _p3(1, (0, 10))
    e, exact = topological_euler(dec)
    got = (volume(dec), holomorphic_euler(dec), e, exact)
    if got != (2, -3, -652, True):
        failures.append(f"decic double cover: {got}")

    bidouble = _p3(2, (0, 3, 3, 3))
    e, exact = topological_euler(bidouble)
    got = (volume(bidouble), holomorphic_euler(bidouble), e, exact)
    if got != (Fraction(1, 2), 1, -92, True):
        failures.append(f"(3,3,3) bidouble cover: {got}")
    if half_point_count(bidouble) != 27:
        failures.append(f"(3,3,3) half points: {half_point_count(bidouble)}")
    _verdict(9, "invariant spot checks", failures, t0, 1.0)


def test_criterion_10_generated_example_families():
    t0 = time.monotonic()
    failures = []
    for kind, first in (("canonical", 4), ("bicanonical", 3)):
        for s in range(first, 25):
            fam = gen_unbounded(s, kind)
            L = fam.weights.L
            checks = (
                fam.M == L
                and fam.weights.a == (1, 1, L, L)
                and fam.total == fam.height << (s - 1)
                and fam.l_on == fam.total // 2
                and fam.l_off == fam.total // 4
                and fam.m * (fam.total // 2 - fam.weights.W) == fam.M
                and fam.l_off > fam.M
                and monomial_count(fam.weights, fam.M - fam.l_off) == 0
                and fam.p_m == L + 3
            )
            if not checks:
                failures.append(f"{kind} s={s}: closed-form values broke")
            boundary = kind == "canonical" and s in (4, 5)
            if fam.flat != boundary:
                failures.append(f"{kind} s={s}: flat={fam.flat}, expected {boundary}")
            if s <= 10:
                spec = fam.cover_spec()
                report = classify.is_pluricanonical(spec.weights, spec.branch, fam.m)
                if not (report.admissible and report.k == 1
                        and report.flat == fam.flat and report.p_m == fam.p_m):
                    failures.append(f"{kind} s={s}: materialized check failed")
    for M in range(4, 21, 2):
        spec = gen_new_component(M)
        report = deformation_criteria(spec)
        if not report.ok:
            failures.append(f"M={M}: deformation criteria failed {report.failing_pairs}")
        if is_flat(spec):
            failures.append(f"M={M}: the cover must not be flat")
    _verdict(10, "generated example families", failures, t0, 30.0)
