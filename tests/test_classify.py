"""Classification engine: admissibility, pruning bounds, and the catalogs.

The expected rows below are the complete enumeration outputs; they double as
a regression net for the distribution/reconstruction pipeline, so any change
to the search must reproduce them bit for bit.
"""

import random
from collections import Counter
from itertools import combinations
from math import comb, factorial

import pytest

from z2cover.classify import (
    CLASSICAL,
    MAIN,
    SUPPLEMENTARY,
    DistributionCounts,
    ProjectiveCase,
    _subset_reps,
    bound_prune,
    bounds_report,
    enumerate_L1,
    enumerate_flat,
    enumerate_s1,
    forbidden_flat,
    is_pluricanonical,
    l_distribution_candidates,
    m_profiles,
    max_admissible_m,
    projective_cases,
    reconstruct_branch,
)
from z2cover.cover import BranchData, eigensheaf_degrees
from z2cover.gf2 import canonicalize, orbit_reps, parity_vector
from z2cover.walsh import NonIntegralError
from z2cover.wps import Weights, monomial_count

from gl_table import perm_table


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

    def test_parity_failure_raises(self):
        with pytest.raises(NonIntegralError):
            is_pluricanonical(Weights((1, 1, 1, 1)), branch((0, 1, 2, 2)), 1)
        with pytest.raises(ValueError):
            is_pluricanonical(Weights((1, 1, 1, 1)), branch((0, 3, 3, 3)), 0)


def test_max_admissible_m():
    assert max_admissible_m(Weights((1, 1, 3, 3)), branch((0, 6, 6, 6))) == 3
    assert max_admissible_m(Weights((1, 1, 1, 1)), branch((0, 3, 3, 3))) == 4
    assert max_admissible_m(Weights((1, 1, 1, 1)), branch((0, 6, 6, 6))) == 1
    # no positive excess: never pluricanonical
    assert max_admissible_m(Weights((1, 1, 1, 1)), branch((0, 2, 2, 2))) is None


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
        assert forbidden_flat(2, 4)
        assert forbidden_flat(3, 3)
        assert forbidden_flat(4, 2)
        assert forbidden_flat(6, 1)
        assert not forbidden_flat(2, 3)
        assert not forbidden_flat(3, 2)
        assert not forbidden_flat(4, 1)
        assert not forbidden_flat(5, 1)
        # monotone in both arguments
        for s in range(2, 7):
            for m in range(1, 6):
                if forbidden_flat(s, m):
                    assert forbidden_flat(s, m + 1)
                    assert forbidden_flat(s + 1, m)


def test_m_profiles_rank4():
    assert m_profiles(4, 9, 2) == [
        (3, 1, 1, 1, 1, 1, 1),
        (2, 2, 1, 1, 1, 1, 1),
        (2, 1, 1, 1, 1, 1, 1, 1),
        (1, 1, 1, 1, 1, 1, 1, 1, 1),
    ]
    profiles12 = m_profiles(4, 12, 3)
    assert len(profiles12) == 10
    assert (2, 2, 2, 2, 2, 2) in profiles12
    assert (1,) * 12 in profiles12
    # every profile spans the group and respects the hyperplane cap
    for p in profiles12:
        assert len(p) >= 4
        assert sum(p[:3]) <= 12 - 2 * 3
    assert m_profiles(3, 9, 5) == []


def test_l_distribution_candidates_rigidity_cases():
    hit = l_distribution_candidates(4, 9, 2, 11)
    assert [c.counts for c in hit] == [((2, 10), (3, 4), (4, 1))]
    hit12 = l_distribution_candidates(4, 12, 3, 12)
    assert [c.counts for c in hit12] == [((3, 12), (4, 3))]
    # the rank-5 profile passes the linear moments but fails the cubic one
    assert l_distribution_candidates(5, 9, 2, 9) == []
    with pytest.raises(ValueError):
        l_distribution_candidates(1, 9, 2, 9)


def test_l_distribution_moment_identities():
    for c in l_distribution_candidates(4, 9, 2, 11) + l_distribution_candidates(4, 12, 3, 12):
        mults = dict(c.counts)
        assert sum(mults.values()) == (1 << c.s) - 1
        assert sum(v * n for v, n in mults.items()) == (1 << (c.s - 2)) * c.D


ITEM5 = (0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 2)
NINE_ONES = (0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1)
TWELVE_ONES = (0, 0, 0, 0) + (1,) * 12


class TestReconstruct:
    def test_seven_ones_and_a_two(self):
        dist = DistributionCounts(s=4, D=9, base=2, counts=((2, 10), (3, 4), (4, 1)))
        assert reconstruct_branch(4, 9, dist) == [ITEM5]

    def test_nine_ones_two_planes(self):
        dist = DistributionCounts(s=4, D=9, base=2, counts=((2, 9), (3, 6)))
        assert reconstruct_branch(4, 9, dist) == [NINE_ONES]

    def test_twelve_ones_off_a_plane(self):
        dist = DistributionCounts(s=4, D=12, base=3, counts=((3, 12), (4, 3)))
        assert reconstruct_branch(4, 12, dist) == [TWELVE_ONES]

    def test_incomplete_distribution_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_branch(4, 9, DistributionCounts(4, 9, 2, ((2, 10),)))

    def test_large_excess_matches_unpacked_loop(self):
        # excess mass of 16 or more overflows a fixed 4-bit packing
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
            l = eigensheaf_degrees(BranchData(s, d)).l[1:]
            base = min(l)
            counts = tuple(sorted(Counter(l).items()))
            excess = tuple((v, c) for v, c in counts if v != base)
            if sum((v - base) * c for v, c in excess) < 16:
                continue
            want = sorted(orbit_reps(set(_reconstruct_unpacked(s, sum(d), base, excess)), s))
            got = reconstruct_branch(s, sum(d), DistributionCounts(s, sum(d), base, counts))
            assert got == want
            assert canonicalize(d) in got
            checked += 1


def _reconstruct_unpacked(s, D, base, excess):
    """Reference reconstruction: sums each placement's excesses without packing."""
    n = 1 << s
    div = 1 << (s - 2)
    const = base - sum((v - base) * c for v, c in excess)
    values = sorted({v for v, _ in excess}, reverse=True)
    mult = dict(excess)

    def place(vi, avail, assigned):
        if vi == len(values):
            yield assigned
            return
        v = values[vi]
        for combo in combinations(avail, mult[v]):
            taken = set(combo)
            yield from place(
                vi + 1,
                tuple(c for c in avail if c not in taken),
                {**assigned, **{chi: v - base for chi in combo}},
            )

    for assigned in place(0, tuple(range(1, n)), {}):
        d = [0] * n
        for x in range(1, n):
            t = sum(e for chi, e in assigned.items() if (chi & x).bit_count() & 1)
            num = const + 2 * t
            if num < 0 or num % div:
                break
            d[x] = num // div
        else:
            assert sum(d) == D
            yield tuple(d)


# GL_s orbits of c-subsets of the nonzero characters, for c = 0 .. 2^s - 1
SUBSET_ORBIT_COUNTS = {
    2: (1, 1, 1, 1),
    3: (1, 1, 1, 2, 2, 1, 1, 1),
    4: (1, 1, 1, 2, 3, 4, 5, 6, 6, 5, 4, 3, 2, 1, 1, 1),
}


@pytest.mark.parametrize("s", sorted(SUBSET_ORBIT_COUNTS))
def test_subset_reps_one_per_orbit(s):
    # canonicalize takes the least relabeling over the whole group, so a
    # representative fixed by it whose orbit under the full group table is
    # disjoint from the others is the canonical form of exactly those subsets
    n = 1 << s
    group = perm_table(s)
    for c, want in enumerate(SUBSET_ORBIT_COUNTS[s]):
        reps = _subset_reps(s, c)
        assert len(reps) == want
        covered = Counter()
        for rep in reps:
            indicator = tuple(int(chi in rep) for chi in range(n))
            assert canonicalize(indicator) == indicator
            covered.update({frozenset(p[chi] for chi in rep) for p in group})
        assert set(covered) == {frozenset(x) for x in combinations(range(1, n), c)}
        assert set(covered.values()) == {1}


def _pivot_kind(dist):
    """Which class has strictly the most placements: 'base', 'excess' or None."""
    n_chars = (1 << dist.s) - 1
    sizes = sorted(((comb(n_chars, c), v == dist.base) for v, c in dist.counts), reverse=True)
    if len(sizes) > 1 and sizes[0][0] == sizes[1][0]:
        return None
    return "base" if sizes[0][1] else "excess"


def _seeded_distributions(rng, s, top, per_kind, max_placements):
    """Distinct distributions of random branch functions with values in 1..top.

    Only distributions with at most ``max_placements`` placements are kept,
    up to ``per_kind`` of each pivot kind.
    """
    n = 1 << s
    found = {"base": {}, "excess": {}, None: {}}
    for _ in range(3000):
        d = [0] * n
        for g in rng.sample(range(1, n), rng.randint(s, n - 1)):
            d[g] = rng.randint(1, top)
        if parity_vector(d):
            continue
        l = eigensheaf_degrees(BranchData(s, tuple(d))).l[1:]
        counts = tuple(sorted(Counter(l).items()))
        placements = factorial(n - 1)
        for _, c in counts:
            placements //= factorial(c)
        if placements > max_placements or len(counts) == 1:
            continue
        dist = DistributionCounts(s, sum(d), min(l), counts)
        bucket = found[_pivot_kind(dist)]
        if len(bucket) < per_kind:
            bucket.setdefault(counts, (tuple(d), dist))
    return [case for bucket in found.values() for case in bucket.values()]


def test_pruned_search_matches_full_placement_oracle():
    cases = []
    for m in range(1, 5):
        for case in projective_cases(m):
            if case.s_min <= 3 and (case.s_max is None or 3 <= case.s_max):
                cases.append((3, case.D, case.k + 1))
    cases.append((4, 12, 3))
    dists = [
        (None, dist)
        for s, D, min_l in cases
        for sq in {sum(v * v for v in p) for p in m_profiles(s, D, min_l)}
        for dist in l_distribution_candidates(s, D, min_l, sq)
    ]
    assert len(dists) == 14  # 11 at rank 3, 3 for (s, D, min_l) = (4, 12, 3)
    rng = random.Random(2014)
    seeded = []
    for s, top in ((2, 3), (3, 3), (4, 2)):
        seeded += _seeded_distributions(rng, s, top, 3, 6000)
    assert {_pivot_kind(dist) for _, dist in seeded} == {"base", "excess", None}
    for d, dist in dists + seeded:
        s, D = dist.s, dist.D
        excess = tuple((v, c) for v, c in dist.counts if v != dist.base)
        want = sorted(orbit_reps(set(_reconstruct_unpacked(s, D, dist.base, excess)), s))
        got = reconstruct_branch(s, D, dist)
        assert got == want, dist
        if d is not None:
            assert canonicalize(d) in got


def test_projective_cases():
    assert projective_cases(1) == [
        ProjectiveCase(m=1, k=1, D=10, s_min=2, s_max=None),
        ProjectiveCase(m=1, k=2, D=12, s_min=2, s_max=None),
        ProjectiveCase(m=1, k=3, D=14, s_min=2, s_max=3),
        ProjectiveCase(m=1, k=4, D=16, s_min=2, s_max=2),
        ProjectiveCase(m=1, k=5, D=18, s_min=2, s_max=2),
    ]
    assert projective_cases(2) == [
        ProjectiveCase(m=2, k=1, D=9, s_min=2, s_max=None),
        ProjectiveCase(m=2, k=2, D=10, s_min=2, s_max=2),
    ]
    assert projective_cases(3) == []
    assert projective_cases(4) == [ProjectiveCase(m=4, k=2, D=9, s_min=2, s_max=2)]
    assert projective_cases(5) == []


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
    with pytest.raises(ValueError):
        enumerate_flat(7, 1)


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


def test_enumerate_projective_rejects_rank_one():
    with pytest.raises(ValueError):
        enumerate_L1(1, 1)


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

    def test_instantiate(self):
        fam = next(f for f in enumerate_s1(1) if f.weights.a == (1, 1, 4, 6))
        assert fam.k_of(2) == 1 and fam.k_of(5) == 4
        sol = fam.instantiate(2)
        assert sol.d == (0, 48) and sol.k == 1 and sol.D == 48
        assert is_pluricanonical(sol.weights, BranchData(1, sol.d), 1).admissible
        with pytest.raises(ValueError):
            fam.instantiate(1)

    def test_instantiate_respects_upper_window(self):
        fam = next(f for f in enumerate_s1(2) if f.weights.a == (1, 1, 1, 1))
        sols = [fam.instantiate(t) for t in range(fam.t_min, fam.t_sup)]
        assert [x.D for x in sols] == [10, 12, 14]
        with pytest.raises(ValueError):
            fam.instantiate(fam.t_sup)

    def test_rejects_bad_multiple(self):
        with pytest.raises(ValueError):
            enumerate_s1(0)


def test_bounds_report_content():
    text = bounds_report(2, 3)
    assert "s=2" in text and "m=3" in text
    assert "cell k=1 L=3 W=8" in text
    assert "no (m, k) case admits this rank" in text  # m = 3 has no projective window
    text43 = bounds_report(4, 3)
    assert "no surviving (k, L, W) cells" in text43
    assert "flat exclusion region hit: True" in text43
    text21 = bounds_report(2, 1)
    assert "case m=1 k=5 D=18" in text21
