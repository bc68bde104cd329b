"""Classification engine: admissibility, pruning bounds, and the catalogs.

The expected rows below are the complete enumeration outputs; they double as
a regression net for the distribution/reconstruction pipeline, so any change
to the search must reproduce them bit for bit.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from math import factorial, lcm

import pytest

import z2cover.classify
from z2cover.classify import (
    CLASSICAL,
    MAIN,
    SUPPLEMENTARY,
    AdmissibleSolution,
    DistributionCounts,
    _cell_reps,
    _cells,
    _lift_candidates,
    _s1_windows,
    _unit_fraction_quadruples,
    _weights_with_ratio,
    bound_prune,
    bounds_report,
    enumerate_L1,
    enumerate_flat,
    enumerate_s1,
    is_pluricanonical,
    l_distribution_candidates,
    reconstruct_branch,
)
from z2cover.cover import BranchData, CoverSpec, eigensheaf_degrees, is_flat
from z2cover.walsh import NonIntegralError, forward
from z2cover.wps import Weights, monomial_count

from oracles import branch_profiles, canonical_form, canonical_forms, degree_distributions
from oracles import largest_admissible_m, lifts, parity_vector, partitions, rank_one_towers
from oracles import realizations, s1_windows, unit_fraction_quadruples, weights_with_ratio

P3 = Weights((1, 1, 1, 1))


def _p3_cells(s, m):
    """``(k, D)`` of the window's ``P^3`` cells (``L = 1``, ``W = 4``)."""
    return [(k, 2 * W + 2 * k // m) for k, L, W, _ in _cells(s, m) if L == 1]


def branch(d):
    return BranchData((len(d)).bit_length() - 1, tuple(d))


class TestIsPluricanonical:
    def test_tricanonical_quadric_pair(self):
        rep = is_pluricanonical(Weights((1, 1, 3, 3)), branch((0, 6, 6, 6)), 3)
        assert rep.admissible
        assert (rep.M, rep.k, rep.p_m) == (3, 1, 6)
        assert rep.l == (0, 6, 6, 6) and rep.flat

    def test_quadrucanonical_triple_planes(self):
        rep = is_pluricanonical(Weights((1, 1, 1, 1)), branch((0, 3, 3, 3)), 4)
        assert rep.admissible
        assert (rep.M, rep.k, rep.p_m) == (2, 2, 10)

    def test_canonical_octic_triple(self):
        rep = is_pluricanonical(Weights((1, 1, 2, 2)), branch((0, 8, 8, 8)), 1)
        assert rep.admissible
        assert (rep.M, rep.k, rep.p_m) == (6, 3, 30)

    def test_rejected_with_reasons(self):
        # M = 1 is positive but not a multiple of L = 3
        rep = is_pluricanonical(Weights((1, 1, 3, 3)), branch((0, 6, 6, 6)), 1)
        assert not rep.admissible
        assert any("lcm" in r for r in rep.reasons)
        # sections survive: M - l = 0 is effective
        rep6 = is_pluricanonical(Weights((1, 1, 3, 3)), branch((0, 6, 6, 6)), 6)
        assert not rep6.admissible
        assert any("survive" in r for r in rep6.reasons)
        # non-positive M
        low = is_pluricanonical(Weights((1, 1, 1, 1)), branch((0, 2, 2, 2)), 1)
        assert not low.admissible

    def test_admissible_past_min_l_across_a_gap(self):
        # M = 6 > min l(chi != 0) = 5, and M - 5 = 1 is a gap of (2, 2, 3, 3)
        weights = Weights((2, 2, 3, 3))
        for d, m in (((0, 0, 10, 14), 3), ((0, 2, 8, 12), 6)):
            rep = is_pluricanonical(weights, branch(d), m)
            assert rep.admissible, (d, m)
            assert rep.M == 6 and min(rep.l[1:]) == 5

    def test_parity_failure_raises(self):
        with pytest.raises(NonIntegralError):
            is_pluricanonical(Weights((1, 1, 1, 1)), branch((0, 1, 2, 2)), 1)
        with pytest.raises(ValueError):
            is_pluricanonical(Weights((1, 1, 1, 1)), branch((0, 3, 3, 3)), 0)


def test_rows_listed_at_their_largest_admissible_m():
    # every row of the window at s = 2..7, m = 1..6 against the oracle's
    # search; only two P^3 rows at rank 2 are admissible at a larger m
    rows = [x for s in range(2, 8) for m in range(1, 7)
            for x in enumerate_L1(s, m) + enumerate_flat(s, m)]
    assert len(rows) == 68
    larger = {}
    for x in rows:
        top = largest_admissible_m(x.weights.a, x.d)
        if top != x.m:
            assert x.note == f"also admissible with m = {top}; listed there", x
            assert x.status == SUPPLEMENTARY
            larger[x.weights.a, x.m, x.d] = top
        else:
            assert not x.note.startswith("also admissible"), x
    assert larger == {(P3.a, 1, (0, 2, 4, 4)): 2, (P3.a, 2, (0, 3, 3, 3)): 4}


class TestBounds:
    def test_bound_prune_examples(self):
        assert bound_prune(2, 3, 3, 8, 1)
        assert bound_prune(2, 1, 2, 6, 3)
        # rank 4 double solids: window floor 13/4 exceeds the ceiling 3
        assert not bound_prune(4, 2, 2, 6, 1)
        # k = 4 at (s, m) = (2, 1) is already infeasible
        for L in range(2, 7):
            assert not bound_prune(2, 1, L, 2 * L + 2, 4)
        with pytest.raises(ValueError):
            bound_prune(2, 1, 0, 6, 1)

    def test_forbidden_flat_region(self):
        # the bounds report's last line: no flat row from (2, 4), (3, 3),
        # (4, 2) and (6, 1) on, and some just below
        for s, m in ((2, 4), (3, 3), (4, 2), (6, 1)):
            assert flat_rows(s, m) == 0, (s, m)
        for s, m in ((2, 3), (3, 2), (4, 1), (5, 1)):
            assert flat_rows(s, m) > 0, (s, m)
        # the empty region is monotone in both arguments
        for s in range(2, 7):
            for m in range(1, 6):
                if not flat_rows(s, m):
                    assert not flat_rows(s, m + 1)
                    assert not flat_rows(s + 1, m)

    def test_forbidden_flat_region_is_empty(self):
        # the count read off the window's L >= 2 cells against the flat
        # lists, and the reason given for each empty one
        by_reconstruction = [(2, 4)] + [(s, 1) for s in range(6, 17)]
        reasons = Counter()
        for s in range(2, 17):
            for m in range(1, 13):
                last = bounds_report(s, m).splitlines()[-1]
                assert int(last.split()[2]) == len(enumerate_flat(s, m)), (s, m)
                if (s, m) in by_reconstruction:
                    assert last == "flat rows: 0 (every L >= 2 cell reconstructs to nothing)"
                elif last.startswith("flat rows: 0"):
                    assert last == "flat rows: 0 (no L >= 2 cell in the window)", (s, m)
                    assert all(L == 1 for _, L, _, _ in _cells(s, m)), (s, m)
                reasons[last.partition(" (")[2]] += 1
        assert reasons == {
            "every L >= 2 cell reconstructs to nothing)": 12,
            "no L >= 2 cell in the window)": 161,
            "": 7,
        }

    def test_projective_cases_match_bound_prune(self):
        # the paper's closed rank inequalities against the window's L = 1
        # cells, where D = 8 + 2k/m must be an integer
        def admits(s, m, k):
            if m == 1:
                return (k - 2) * 2**s <= 2 * k + 2
            if m == 2:
                return (3 * k - 4) * 2**s <= 4 * k + 4
            return (s, m, k) == (2, 4, 2)

        for s in range(2, 17):
            for m in range(1, 13):
                assert all((L, W, w) == (1, 4, P3) for k, L, W, w in _cells(s, m) if L < 2)
                want = [(k, 8 + 2 * k // m) for k in range(1, 64)
                        if (2 * k) % m == 0 and admits(s, m, k)]
                assert _p3_cells(s, m) == want, (s, m)


def test_m_profiles_rank4():
    assert branch_profiles(4, 9, 2) == [
        (3, 1, 1, 1, 1, 1, 1),
        (2, 2, 1, 1, 1, 1, 1),
        (2, 1, 1, 1, 1, 1, 1, 1),
        (1, 1, 1, 1, 1, 1, 1, 1, 1),
    ]
    profiles12 = branch_profiles(4, 12, 3)
    assert len(profiles12) == 10
    assert (2, 2, 2, 2, 2, 2) in profiles12
    assert (1,) * 12 in profiles12
    # every profile spans the group and respects the hyperplane cap
    for p in profiles12:
        assert len(p) >= 4
        assert sum(p[:3]) <= 12 - 2 * 3
    assert branch_profiles(3, 9, 5) == []


def test_l_distribution_candidates_rigidity_cases():
    hit = l_distribution_candidates(4, 9, 2)
    assert [c.counts for c in hit] == [
        ((2, 11), (3, 2), (4, 2)),
        ((2, 10), (3, 4), (4, 1)),
        ((2, 9), (3, 6)),
    ]
    hit12 = l_distribution_candidates(4, 12, 3)
    assert [c.counts for c in hit12] == [
        ((3, 14), (6, 1)),
        ((3, 13), (4, 1), (5, 1)),
        ((3, 12), (4, 3)),
    ]
    # neither is reconstructed here: the second alone has C(31, 10)
    # placements, and the classification lifts P^3 at rank 5 instead
    hit5 = l_distribution_candidates(5, 9, 2)
    assert [c.counts for c in hit5] == [((2, 22), (3, 8), (4, 1)), ((2, 21), (3, 10))]
    with pytest.raises(ValueError):
        l_distribution_candidates(1, 9, 2)


def test_l_distribution_moment_identities():
    for c in l_distribution_candidates(4, 9, 2) + l_distribution_candidates(4, 12, 3):
        mults = dict(c.counts)
        assert sum(mults.values()) == (1 << c.s) - 1
        assert sum(v * n for v, n in mults.items()) == (1 << (c.s - 2)) * c.D


ITEM5 = (0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 2)
NINE_ONES = (0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1)
TWELVE_ONES = (0, 0, 0, 0) + (1,) * 12


class TestReconstruct:
    def test_seven_ones_and_a_two(self):
        dist = DistributionCounts(s=4, D=9, base=2, counts=((2, 10), (3, 4), (4, 1)))
        assert reconstruct_branch(dist) == [ITEM5]

    def test_nine_ones_two_planes(self):
        dist = DistributionCounts(s=4, D=9, base=2, counts=((2, 9), (3, 6)))
        assert reconstruct_branch(dist) == [NINE_ONES]

    def test_twelve_ones_off_a_plane(self):
        dist = DistributionCounts(s=4, D=12, base=3, counts=((3, 12), (4, 3)))
        assert reconstruct_branch(dist) == [TWELVE_ONES]

    def test_incomplete_distribution_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_branch(DistributionCounts(4, 9, 2, ((2, 10),)))

    def test_linear_moment_mismatch_rejected(self):
        # the degrees of a D = 9 distribution sum to 36, not 4 * 10
        with pytest.raises(ValueError):
            reconstruct_branch(DistributionCounts(4, 10, 2, ((2, 10), (3, 4), (4, 1))))

    def test_large_excess_matches_unpacked_loop(self):
        # excess masses of 16 and more, with fixed and random branch functions
        rng = random.Random(16)
        fixed = [(0, 20, 0, 0, 0, 0, 0, 0), (0,) * 8 + (14,) + (0,) * 7]
        checked = 0
        while checked < 12:
            if fixed:
                d = fixed.pop()
            else:
                d = (0,) + tuple(rng.randrange(12) for _ in range(7))
                if not any(d) or parity_vector(d):
                    continue
            s = len(d).bit_length() - 1
            l = eigensheaf_degrees(BranchData(s, d))[1:]
            base = min(l)
            counts = tuple(sorted(Counter(l).items()))
            if sum((v - base) * c for v, c in counts) < 16:
                continue
            got = reconstruct_branch(DistributionCounts(s, sum(d), base, counts))
            assert got == canonical_forms(realizations(s, sum(d), counts))
            assert canonical_form(d) in got
            checked += 1


def _smallest_class(dist):
    """Size of the smallest eigensheaf-degree class: 1, 2, or 3 for three or more."""
    return min(3, min(c for _, c in dist.counts if c))


def _seeded_distributions(rng, s, top, per_kind, max_placements):
    """Distinct distributions of random branch functions with values in 1..top.

    Only distributions with at most ``max_placements`` placements are kept,
    up to ``per_kind`` for each size of the smallest class.
    """
    n = 1 << s
    found = {1: {}, 2: {}, 3: {}}
    for _ in range(3000):
        d = [0] * n
        for g in rng.sample(range(1, n), rng.randint(s, n - 1)):
            d[g] = rng.randint(1, top)
        if parity_vector(d):
            continue
        l = eigensheaf_degrees(BranchData(s, tuple(d)))[1:]
        counts = tuple(sorted(Counter(l).items()))
        placements = factorial(n - 1)
        for _, c in counts:
            placements //= factorial(c)
        if placements > max_placements or len(counts) == 1:
            continue
        dist = DistributionCounts(s, sum(d), min(l), counts)
        bucket = found[_smallest_class(dist)]
        if len(bucket) < per_kind:
            bucket.setdefault(counts, (tuple(d), dist))
    return [case for bucket in found.values() for case in bucket.values()]


def test_pruned_search_matches_full_placement_oracle():
    cases = [(3, D, k + 1) for m in range(1, 5) for k, D in _p3_cells(3, m)]
    cases.append((4, 12, 3))
    dists = [(None, dist) for s, D, min_l in cases for dist in l_distribution_candidates(s, D, min_l)]
    assert len(dists) == 15  # 12 at rank 3, 3 for (s, D, min_l) = (4, 12, 3)
    rng = random.Random(2014)
    seeded = []
    for s, top in ((2, 3), (3, 3), (4, 2)):
        seeded += _seeded_distributions(rng, s, top, 3, 6000)
    # a smallest class of one or two characters is placed only on (1,) or
    # (1, 2); one of three or more is placed everywhere
    assert {_smallest_class(dist) for _, dist in seeded} == {1, 2, 3}
    for d, dist in dists + seeded:
        want = canonical_forms(realizations(dist.s, dist.D, dist.counts))
        assert reconstruct_branch(dist) == want, dist
        assert canonical_forms(realizations(dist.s, dist.D, dist.counts, up_to_gl=True)) == want
        if d is not None:
            assert canonical_form(d) in want


def test_projective_cases():
    assert _p3_cells(2, 1) == [(1, 10), (2, 12), (3, 14), (4, 16), (5, 18)]
    assert _p3_cells(3, 1) == [(1, 10), (2, 12), (3, 14)]
    assert _p3_cells(2, 2) == [(1, 9), (2, 10)]
    assert _p3_cells(2, 4) == [(2, 9)]
    for s in range(2, 17):
        if s >= 4:
            assert _p3_cells(s, 1) == [(1, 10), (2, 12)], s
        if s >= 3:
            assert _p3_cells(s, 2) == [(1, 9)], s
            assert _p3_cells(s, 4) == [], s
        assert _p3_cells(s, 3) == _p3_cells(s, 5) == [], s


# (weights, d, k, p_m) for every flat solution over bases with L >= 2
FLAT_EXPECTED = {
    (2, 1): [
        ((1, 1, 1, 2), (0, 2, 6, 6), 1, 7),
        ((1, 1, 1, 3), (0, 6, 6, 6), 1, 11),
        ((1, 1, 2, 2), (0, 0, 8, 8), 1, 5),
        ((1, 1, 2, 2), (0, 4, 4, 8), 1, 5),
        ((1, 1, 2, 4), (0, 8, 8, 8), 1, 10),
        ((1, 1, 4, 4), (0, 4, 12, 12), 1, 7),
        ((1, 2, 3, 6), (0, 12, 12, 12), 1, 8),
        ((1, 1, 1, 2), (0, 6, 6, 6), 2, 22),
        ((1, 1, 2, 2), (0, 4, 8, 8), 2, 14),
        ((1, 1, 4, 4), (0, 12, 12, 12), 2, 22),
        ((1, 1, 2, 2), (0, 8, 8, 8), 3, 30),
    ],
    (2, 2): [
        ((1, 1, 1, 2), (0, 4, 4, 4), 1, 7),
        ((1, 1, 2, 2), (0, 2, 6, 6), 1, 5),
        ((1, 1, 4, 4), (0, 8, 8, 8), 1, 7),
    ],
    (2, 3): [((1, 1, 3, 3), (0, 6, 6, 6), 1, 6)],
    (2, 4): [],
    (3, 1): [
        ((1, 1, 1, 2), (0,) + (2,) * 7, 1, 7),
        ((1, 1, 2, 2), (0, 0, 0, 0, 4, 4, 4, 4), 1, 5),
        ((1, 1, 2, 2), (0, 0, 2, 2, 2, 2, 4, 4), 1, 5),
        ((1, 1, 4, 4), (0,) + (4,) * 7, 1, 7),
    ],
    (3, 2): [((1, 1, 2, 2), (0,) + (2,) * 7, 1, 5)],
    (3, 3): [],
    (4, 1): [
        ((1, 1, 2, 2), (0,) * 8 + (2,) * 8, 1, 5),
        ((1, 1, 2, 2), (0, 0, 0, 0) + (1,) * 8 + (2, 2, 2, 2), 1, 5),
    ],
    (4, 2): [],
}


@pytest.mark.parametrize("cell", sorted(FLAT_EXPECTED))
def test_enumerate_flat_catalog(cell):
    sols = enumerate_flat(*cell)
    got = [(x.weights.a, x.d, x.k, x.p_m) for x in sols]
    assert got == FLAT_EXPECTED[cell]
    for x in sols:
        assert x.flat and x.status == MAIN
        assert x.m == cell[1] and x.s == cell[0]


def test_enumerate_flat_rank_window():
    with pytest.raises(ValueError):
        enumerate_flat(1, 1)
    # past rank 5 the windows leave one cell, (k, L, W) = (1, 2, 6), and no cover
    for s in range(7, 17):
        assert enumerate_flat(s, 1) == []


def test_enumerate_flat_solutions_verify():
    for (s, m), rows in FLAT_EXPECTED.items():
        for x in enumerate_flat(s, m):
            rep = is_pluricanonical(x.weights, BranchData(s, x.d), m)
            assert rep.admissible
            assert rep.k == x.k and rep.p_m == x.p_m and rep.l == x.l
            assert x.D == sum(x.d)
            assert x.p_m == monomial_count(x.weights, x.k * x.weights.L)
            # rank-2 branch degrees are determined by the l-triple
            if s == 2:
                l = x.l
                assert x.d[1] == l[1] - l[2] + l[3]
                assert x.d[2] == -l[1] + l[2] + l[3]
                assert x.d[3] == l[1] + l[2] - l[3]


@pytest.mark.parametrize("s", range(2, 17))
def test_enumerate_flat_matches_excess_partition_loop(s):
    # FLAT_EXPECTED pins only some cells; on every L >= 2 cell of each (s, m)
    # the moment-filtered route must give the covers of every partition of
    # the excess in steps of L, each realized by placement
    n_chars = (1 << s) - 1
    for m in range(1, 7):
        rows = enumerate_flat(s, m)
        assert rows == sorted(rows, key=AdmissibleSolution.sort_key)
        found = 0
        for k, L, W, weights in _cells(s, m):
            D, base = 2 * W + 2 * k * L // m, (k + 1) * L
            excess = (1 << (s - 2)) * D - n_chars * base
            if L == 1 or excess < 0 or excess % L:
                continue
            realized = []
            for part in partitions(excess // L, (D // 2 - base) // L, n_chars):
                counts = Counter(base + t * L for t in part)
                counts[base] += n_chars - len(part)
                realized += realizations(s, D, counts.items(), up_to_gl=True)
            want = canonical_forms(realized)
            cell = [x for x in rows if (x.k, x.weights) == (k, weights)]
            assert [x.d for x in cell] == want and all((x.s, x.m, x.D) == (s, m, D) for x in cell)
            found += len(want)
        assert len(rows) == found, m


# (d, k, p_m, status) for covers of the straight projective space
L1_EXPECTED = {
    (2, 1): [
        ((0, 0, 4, 6), 1, 4, CLASSICAL),
        ((0, 2, 2, 6), 1, 4, CLASSICAL),
        ((0, 2, 4, 4), 1, 4, SUPPLEMENTARY),
        ((0, 0, 6, 6), 2, 10, SUPPLEMENTARY),
        ((0, 2, 4, 6), 2, 10, SUPPLEMENTARY),
        ((0, 4, 4, 4), 2, 10, SUPPLEMENTARY),
        ((0, 2, 6, 6), 3, 20, MAIN),
        ((0, 4, 4, 6), 3, 20, MAIN),
        ((0, 4, 6, 6), 4, 35, MAIN),
        ((0, 6, 6, 6), 5, 56, MAIN),
    ],
    (2, 2): [
        ((0, 1, 3, 5), 1, 4, SUPPLEMENTARY),
        ((0, 3, 3, 3), 1, 4, SUPPLEMENTARY),
        ((0, 2, 4, 4), 2, 10, MAIN),
    ],
    (2, 3): [],
    (2, 4): [((0, 3, 3, 3), 2, 10, MAIN)],
    (3, 2): [
        ((0, 0, 0, 1, 1, 2, 2, 3), 1, 4, SUPPLEMENTARY),
        ((0, 0, 1, 2, 1, 2, 1, 2), 1, 4, SUPPLEMENTARY),
        ((0, 1, 1, 1, 1, 1, 1, 3), 1, 4, SUPPLEMENTARY),
    ],
    (4, 2): [
        (ITEM5, 1, 4, MAIN),
        (NINE_ONES, 1, 4, SUPPLEMENTARY),
    ],
}


@pytest.mark.parametrize("cell", sorted(L1_EXPECTED))
def test_enumerate_projective_catalog(cell):
    sols = enumerate_L1(*cell)
    assert [(x.d, x.k, x.p_m, x.status) for x in sols] == L1_EXPECTED[cell]
    for x in sols:
        assert x.weights.a == (1, 1, 1, 1)
        assert x.flat  # L = 1 divides everything


def test_enumerate_projective_rank3_canonical():
    sols = enumerate_L1(3, 1)
    assert len(sols) == 13
    by_status = {}
    for x in sols:
        by_status.setdefault(x.status, []).append(x)
    assert len(by_status[CLASSICAL]) == 8
    assert all(x.D == 10 and x.k == 1 for x in by_status[CLASSICAL])
    assert len(by_status[SUPPLEMENTARY]) == 4
    assert all(x.D == 12 and x.k == 2 for x in by_status[SUPPLEMENTARY])
    assert [x.d for x in by_status[MAIN]] == [(0,) + (2,) * 7]
    assert by_status[MAIN][0].k == 3 and by_status[MAIN][0].p_m == 20


def test_enumerate_projective_rank4_canonical():
    sols = enumerate_L1(4, 1)
    assert len(sols) == 10
    mains = [x for x in sols if x.status == MAIN]
    assert [(x.d, x.k, x.p_m) for x in mains] == [(TWELVE_ONES, 2, 10)]
    assert sum(1 for x in sols if x.status == CLASSICAL) == 9


@pytest.mark.parametrize("m, k", [(1, 1), (1, 2), (2, 1)])
def test_rank4_lift_matches_spectral_route(monkeypatch, m, k):
    active = {(mm, kk): D for mm in range(1, 5) for kk, D in _p3_cells(4, mm)}
    assert active.keys() == {(1, 1), (1, 2), (2, 1)}
    D = active[m, k]
    assert D < (1 << 4) - 1
    spectral = set()
    for dist in l_distribution_candidates(4, D, k + 1):
        spectral.update(reconstruct_branch(dist))
    # a rank-4 cell cached by an earlier test would never reach the lift
    _cell_reps.cache_clear()
    _cell_reps(3, 1, k + 1, D)  # the parents, reconstructed before it is forbidden

    def forbidden(*args):
        raise AssertionError("rank 4 must lift from rank 3, not reconstruct")

    monkeypatch.setattr(z2cover.classify, "reconstruct_branch", forbidden)
    monkeypatch.setattr(z2cover.classify, "_reconstruct_distribution", forbidden)
    lifted = _cell_reps(4, 1, k + 1, D)
    assert lifted == tuple(sorted(spectral))
    assert lifted


def test_cell_below_its_rank_is_empty_without_recursion():
    # D < s cannot span (Z/2)^s: rank 16 answers both of its cells at once
    # instead of recursing through every rank down to the total degree
    _cell_reps.cache_clear()
    assert enumerate_L1(16, 1) == []
    assert _cell_reps.cache_info().currsize == 2


def _reconstructed_cells():
    """Every (s, L, base, D) cell up to rank 6 that the classification
    reconstructs rather than lifts: flat at ranks 2..6 and P^3 at ranks
    2..3, with m in 1..6."""
    cells = set()
    for m in range(1, 7):
        for s in range(2, 7):
            for k, L, W, _ in _cells(s, m):
                if L >= 2 or s <= 3:
                    cells.add((s, L, (k + 1) * L, 2 * W + 2 * k * L // m))
    return sorted(cells)


def test_one_pass_distributions_cover_profile_route():
    # the one-pass list holds every distribution some profile's square sum
    # reaches, and the extra ones realize no further representative
    cells = _reconstructed_cells()
    assert len(cells) == 33
    extra = 0
    for s, L, base, D in cells:
        one_pass = l_distribution_candidates(s, D, base)
        old = degree_distributions(s, D, base)
        assert set(old) <= set(one_pass), (s, L, base, D)
        extra += len(one_pass) - len(old)
        in_steps = [x for x in one_pass if all((v - base) % L == 0 for v, _ in x.counts)]
        got = tuple(sorted({r for x in in_steps for r in reconstruct_branch(x)}))
        realized = [d for x in old if all((v - base) % L == 0 for v, _ in x[3])
                    for d in realizations(s, D, x[3], up_to_gl=True)]
        assert got == tuple(canonical_forms(realized)) == _cell_reps(s, L, base, D), (s, L, base, D)
    assert extra > 0


def test_enumerations_return_fresh_lists():
    for enumerate_ in (enumerate_L1, enumerate_flat):
        first = enumerate_(2, 1)
        want = list(first)
        first.clear()
        assert enumerate_(2, 1) == want and want


@pytest.mark.parametrize("m", [1, 2])
def test_lift_spectral_bound_is_admissibility(m):
    # the lift yields only integral candidates and keeps one when
    # max S(chi) <= D - 4(k+1) over the nontrivial characters; on P^3 that
    # is exactly is_pluricanonical
    checked = kept = 0
    for k, D in _p3_cells(4, m):
        for parent in enumerate_L1(3, m):
            if (parent.k, parent.D) != (k, D):
                continue
            for cand in _lift_candidates(parent.d):
                assert not parity_vector(cand), cand
                spectral = max(forward(cand)[1:]) <= D - 4 * (k + 1)
                report = is_pluricanonical(P3, BranchData(4, cand), m)
                assert spectral == report.admissible, cand
                checked += 1
                kept += spectral
    assert 0 < kept < checked


def test_lift_candidates_are_the_integral_splits():
    # an integral parent's split is integral exactly when its top half has
    # an even sum; the lift yields those splits and no others
    parents = sorted({x.d for s in (3, 4) for m in range(1, 7) for x in enumerate_L1(s, m)})
    assert {len(d) for d in parents} == {8, 16}
    kept = odd = 0
    for parent in parents:
        splits = lifts(parent)
        want = [d for d in splits if not parity_vector(d)]
        assert list(_lift_candidates(parent)) == want, parent
        assert all(sum(d[len(parent):]) % 2 == 0 for d in want)
        kept += len(want)
        odd += len(splits) - len(want)
    assert kept > 0 and odd > 0


def test_admissible_cover_need_not_be_flat():
    # a canonical cover of P(1,1,2,2) whose eigensheaf degrees are not all
    # multiples of lcm = 2; a lift of the flat lists must filter on flatness
    weights = Weights((1, 1, 2, 2))
    d = (0,) * 19 + (2, 0, 2, 2, 2) + (1,) * 8
    report = is_pluricanonical(weights, BranchData(5, d), 1)
    assert report.admissible and report.D == 16 and report.k == 1
    assert set(report.l[1:]) == {3, 4, 5, 8}
    assert not report.flat
    assert not is_flat(CoverSpec(weights, BranchData(5, d)))


def test_enumerate_projective_rejects_rank_one():
    with pytest.raises(ValueError):
        enumerate_L1(1, 1)


def test_replace_keeps_every_other_field():
    sol = next(x for x in enumerate_flat(2, 1) if x.status == MAIN)
    moved = sol._replace(status=SUPPLEMENTARY, note="listed elsewhere")
    assert isinstance(moved, AdmissibleSolution)
    assert (moved.status, moved.note) == (SUPPLEMENTARY, "listed elsewhere")
    assert (sol.status, sol.note) == (MAIN, "")
    for name in AdmissibleSolution._fields:
        if name not in ("status", "note"):
            assert getattr(moved, name) == getattr(sol, name)


def test_enumerate_projective_status_notes():
    notes = {x.note for x in enumerate_L1(2, 1)}
    assert "classical family of low-degree canonical covers" in notes
    assert "also admissible with m = 2; listed there" in notes
    assert "not among the catalogued families at this rank" in notes
    assert {x.note for x in enumerate_L1(4, 2) if x.status == SUPPLEMENTARY} == {
        "branch divisor splits into distinct planes; listed separately"
    }


TOWERS_M1 = [
    ((1, 1, 1, 1), 2, 5),
    ((1, 1, 2, 2), 4, 4),
    ((1, 1, 1, 3), 6, 3),
    ((1, 1, 2, 4), 8, 3),
    ((1, 2, 3, 6), 12, 3),
    ((1, 1, 4, 6), 24, 2),
    ((1, 2, 2, 5), 20, 2),
    ((1, 2, 6, 9), 36, 2),
    ((1, 3, 4, 4), 24, 2),
    ((1, 3, 8, 12), 48, 2),
    ((1, 4, 5, 10), 40, 2),
    ((1, 6, 14, 21), 84, 2),
    ((2, 3, 10, 15), 60, 2),
]


def test_unit_fraction_quadruples_match_fraction_recursion():
    # every target enumerate_s1 uses for m = 1..6, and the W = 2L target
    targets = {Fraction(c, m) for m in range(1, 7) for c in range(1, 4 * m + 1)}
    targets.add(Fraction(2))
    total = 0
    for target in sorted(targets):
        got = list(_unit_fraction_quadruples(target))
        assert got == unit_fraction_quadruples(target), target
        assert all(sum(Fraction(1, b) for b in quad) == target for quad in got)
        total += len(got)
    assert total > 1000


def test_weights_with_ratio_match_reciprocal_search():
    # the window reaches only 2L <= W <= 2L + 2 and L <= 40
    reached = {(L, W) for s in range(2, 17) for m in range(1, 13) for _, L, W, _ in _cells(s, m)}
    assert all(L <= 40 and 2 * L <= W <= 2 * L + 2 for L, W in reached)
    total = 0
    for L in range(1, 41):
        for W in range(2 * L, 2 * L + 3):
            got = [w.a for w in _weights_with_ratio(Fraction(W, L)) if w.L == L]
            assert got == [a for a in weights_with_ratio(Fraction(W, L)) if lcm(*a) == L], (L, W)
            total += len(got)
    assert total == 44


class TestRankOneTowers:
    def test_main_catalog(self):
        fams = enumerate_s1(1)
        mains = [f for f in fams if f.status == MAIN]
        assert [(f.weights.a, f.degree_coefficient, f.t_min) for f in mains] == TOWERS_M1
        assert all(f.t_sup is None for f in mains)

    def test_extra_tower_flagged(self):
        extra = [f for f in enumerate_s1(1) if f.status == SUPPLEMENTARY]
        assert [(f.weights.a, f.degree_coefficient, f.t_min) for f in extra] == [
            ((2, 3, 3, 4), 24, 2)
        ]
        assert extra[0].note == "valid tower missing from the reference catalog"

    def test_window_truncation(self):
        fams = enumerate_s1(1, t_max=10)
        assert all(f.t_sup == 11 for f in fams)
        assert len(fams) == 14

    def test_bicanonical_windows(self):
        fams = enumerate_s1(2)
        assert len(fams) == 14
        head = fams[0]
        assert head.weights.a == (1, 1, 1, 1) and (head.t_min, head.t_sup) == (5, 8)
        for f in fams:
            W, L = f.weights.W, f.weights.L
            assert L * f.t_min > W  # window opens strictly above W/L
            assert f.t_sup is not None  # every m >= 2 window is finite
            assert L * (f.t_sup - 1) * 1 <= 2 * W  # and closes by 2 W/L

    def test_tricanonical_count(self):
        fams = enumerate_s1(3)
        assert len(fams) == 9
        assert fams[2].weights.a == (1, 1, 3, 3) and (fams[2].t_min, fams[2].t_sup) == (3, 4)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_windows_are_tight(self, m):
        def admissible(fam, t):
            branch = BranchData(1, (0, fam.degree_coefficient * t))
            return is_pluricanonical(fam.weights, branch, m).admissible

        for fam in enumerate_s1(m):
            # an unbounded window is checked on its first 8 members
            top = fam.t_min + 8 if fam.t_sup is None else fam.t_sup
            assert all(admissible(fam, t) for t in range(fam.t_min, top)), fam
            assert not admissible(fam, fam.t_min - 1), fam
            if fam.t_sup is not None:
                assert not admissible(fam, fam.t_sup), fam

    def test_rejects_bad_multiple(self):
        with pytest.raises(ValueError):
            enumerate_s1(0)

    def test_window_first_search_matches_full_search(self):
        for m in range(1, 13):
            for t_max in (None, 1, 3, 7):
                fams = enumerate_s1(m, t_max)
                want = rank_one_towers(m, t_max)
                assert [(f.weights.a, f.t_min, f.t_sup) for f in fams] == want, (m, t_max)
                assert all(f.m == m and (f.status, f.note) == (
                    (SUPPLEMENTARY, "valid tower missing from the reference catalog")
                    if (m, f.weights.a) == (1, (2, 3, 3, 4)) else (MAIN, "")) for f in fams)

    def test_windows_built_match_the_scan(self):
        # the built targets, their windows and the bounds report's target
        # lines against the scan over every c = 1..4m
        for m in range(1, 401):
            want = s1_windows(m)
            assert list(_s1_windows(m)) == want, m
            lines = [line for line in bounds_report(1, m).splitlines()
                     if line.startswith("  target ")]
            assert lines == [
                f"  target W/L={target}: "
                + (f"t >= {t_min}" if t_sup is None else f"{t_min} <= t < {t_sup}")
                for target, t_min, t_sup in want
            ], m

    def test_large_multiple_finishes(self):
        # the full search ran for minutes at m = 40; a target's window is
        # known before its search, and none is open at this multiple
        start = time.perf_counter()
        assert enumerate_s1(40) == []
        assert time.perf_counter() - start < 5


def flat_rows(s, m):
    """The flat row count on the last line of ``bounds_report(s, m)``."""
    return int(bounds_report(s, m).splitlines()[-1].split()[2])


def test_bounds_report_content():
    text = bounds_report(2, 3)
    assert "s=2" in text and "m=3" in text
    assert "cell k=1 L=3 W=8" in text
    assert " L=1 " not in text  # m = 3 has no P^3 cell
    assert text.endswith("\nflat rows: 1")
    text43 = bounds_report(4, 3)
    assert "no surviving (k, L, W) cells" in text43
    assert text43.endswith("\nflat rows: 0 (no L >= 2 cell in the window)")
    # the window still holds a cell past rank 6, and it reconstructs to nothing
    text71 = bounds_report(7, 1)
    assert "cell k=1 L=2 W=6 weights=(1,1,2,2) D=16" in text71
    assert text71.endswith("\nflat rows: 0 (every L >= 2 cell reconstructs to nothing)")
    text21 = bounds_report(2, 1)
    assert "  cell k=5 L=1 W=4 weights=(1,1,1,1) D=18" in text21.splitlines()
    assert text21.endswith("\nflat rows: 11")
    # rank 1 states the tower window and counts the towers enumerate_s1 lists
    text11 = bounds_report(1, 1).splitlines()
    assert text11[0] == "rank s=1, multiple m=1"
    assert text11[1] == "towers d = 2Lt on weights L/b, sum(1/b) = W/L = c/1 <= 4, W/L < t"
    assert text11[2:] == [f"  target W/L={c}: t >= {c + 1}" for c in range(1, 5)] + ["towers: 14"]
    text12 = bounds_report(1, 2)
    assert "W/L = c/2 <= 4, W/L < t < (1 + 1/1) W/L, 1 | 2W\n" in text12
    assert "\n  target W/L=5/2: 3 <= t < 5\n" in text12
    assert "W/L=1/2" not in text12  # floor(1/2) + 1 = 1 is not below ceil(1)
    for m in range(1, 7):
        text = bounds_report(1, m)
        assert "cell" not in text and "flat rows" not in text
        assert text.endswith(f"\ntowers: {len(enumerate_s1(m))}")


def test_thirty_two_deformation_types():
    # the paper's count of main rows at rank >= 2 over the multiples 1..6,
    # over every rank the command line accepts, so the empty ranks are checked
    flat, projective = Counter(), Counter()
    for m in range(1, 7):
        for s in range(2, 17):
            flat[s] += sum(x.status == MAIN for x in enumerate_flat(s, m))
            projective[s] += sum(x.status == MAIN for x in enumerate_L1(s, m))
    assert +flat == {2: 15, 3: 5, 4: 2, 5: 1}
    assert +projective == {2: 6, 3: 1, 4: 2}
    assert +(flat + projective) == {2: 21, 3: 6, 4: 4, 5: 1}
    assert (flat + projective).total() == 32
