"""Group arithmetic, parity obstructions, and GL-orbit utilities."""

import random
from itertools import product
from operator import itemgetter

import pytest

from z2cover.classify import enumerate_flat, enumerate_L1
from z2cover.gf2 import (
    CANONICAL_RANK_CAP,
    RankLimitError,
    _generator_perms,
    affine_hyperplane_min_intersection,
    canonicalize,
    dot,
    orbit_reps,
    parity_vector,
)

from gl_table import table_canonicalize


def test_dot_small_table():
    # rank 2 by hand: chi=3 pairs nontrivially with 1, 2 and trivially with 3.
    assert [dot(3, g) for g in range(4)] == [0, 1, 1, 0]
    assert dot(0b101, 0b110) == 1
    assert dot(0b101, 0b101) == 0


def test_dot_is_bilinear():
    rng = random.Random(11)
    for _ in range(200):
        chi, g, h = (rng.randrange(256) for _ in range(3))
        assert dot(chi, g ^ h) == (dot(chi, g) + dot(chi, h)) % 2
        assert dot(chi ^ g, h) == (dot(chi, h) + dot(g, h)) % 2
        assert dot(chi, g) == dot(g, chi)


def test_parity_vector_examples():
    assert parity_vector([0, 0, 0, 0]) == 0
    # odd values at 1 and 2 xor to 3
    assert parity_vector([0, 1, 1, 2]) == 3
    assert parity_vector([0, 1, 2, 2]) == 1
    assert parity_vector([0, 2, 6, 6, 0, 2, 2, 6]) == 0


@pytest.mark.parametrize("s", [2, 3, 4])
def test_parity_vector_is_the_half_sum_obstruction(s):
    """parity_vector(d) == 0 iff every affine half-sum of d is even."""
    n = 1 << s
    rng = random.Random(100 + s)
    for _ in range(60):
        d = [0] + [rng.randrange(7) for _ in range(n - 1)]
        halves = [sum(d[g] for g in range(n) if dot(chi, g)) for chi in range(1, n)]
        all_even = all(h % 2 == 0 for h in halves)
        assert (parity_vector(d) == 0) == all_even


def test_canonicalize_known_pair():
    # swapping the two coordinates of rank 2 carries (0,6,2,6) to (0,2,6,6)
    assert canonicalize((0, 6, 2, 6)) == (0, 2, 6, 6)
    assert canonicalize((0, 2, 6, 6)) == (0, 2, 6, 6)


def test_canonicalize_is_idempotent_and_minimal():
    rng = random.Random(7)
    for s in (2, 3):
        n = 1 << s
        for _ in range(40):
            d = tuple(rng.randrange(4) for _ in range(n))
            c = canonicalize(d)
            assert canonicalize(c) == c
            assert c <= d  # the representative is the least element of the orbit


@pytest.mark.parametrize("s", [2, 3])
def test_canonicalize_constant_on_brute_force_orbits(s):
    """Exhaustive cross-check against the orbits that orbit_reps closes."""
    n = 1 << s
    funcs = [f for f in product((0, 1, 2), repeat=n) if sum(1 for v in f if v) <= 4]
    groups = orbit_reps(funcs, s)
    for rep, members in groups.items():
        assert canonicalize(rep) == rep
        for m in members:
            assert canonicalize(m) == rep


def test_canonicalize_rank_cap():
    assert CANONICAL_RANK_CAP == 5
    with pytest.raises(RankLimitError):
        canonicalize([0] * 64)
    # rank 5 still goes through the branch-and-bound path; the least
    # relabeling pushes the lone nonzero value to the top element
    d = [0] * 32
    d[7] = 1
    assert canonicalize(d) == tuple([0] * 31 + [1])


# rank-4 catalog rows with large stabilizers (see tests/test_classify.py)
ITEM5 = (0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 2)
NINE_ONES = (0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1)
TWELVE_ONES = (0, 0, 0, 0) + (1,) * 12


def _tie_heavy(s):
    """Functions whose automorphism groups are large, so many bases tie."""
    n = 1 << s
    funcs = [(0,) * n, (1,) * n, (0,) + (1,) * (n - 1)]
    for g in (0, 1, n - 1):
        funcs.append(tuple(int(x == g) for x in range(n)))
    for chi in (1, n - 1):
        funcs.append(tuple(1 - dot(chi, g) for g in range(n)))  # hyperplane
        funcs.append(tuple(dot(chi, g) for g in range(n)))  # its complement
    if s == 4:
        funcs += [ITEM5, NINE_ONES, TWELVE_ONES]
    return funcs


@pytest.mark.parametrize("s", [2, 3, 4])
def test_canonicalize_matches_full_group_table(s):
    """canonicalize equals the minimum over every element of GL_s(F_2)."""
    n = 1 << s
    rng = random.Random(900 + s)
    funcs = _tie_heavy(s)
    for top in (1, 2, 3, 6):
        for _ in range(25):
            funcs.append(tuple(rng.randint(0, top) for _ in range(n)))
    for _ in range(25):
        f = [0] * n
        for g in rng.sample(range(1, n), rng.randint(1, min(4, n - 1))):
            f[g] = rng.randint(1, 2)
        funcs.append(tuple(f))
    for f in funcs:
        assert canonicalize(f) == table_canonicalize(f), f


def test_canonicalize_merges_equivalent_onset_characters():
    # degree 2 on {g : chi.g = 1}: any nonzero chi gives the same orbit.
    s = 4
    n = 1 << s
    for chi in (1, 3, 9, 15):
        d = tuple(2 if dot(chi, g) else 0 for g in range(n))
        assert canonicalize(d) == canonicalize(tuple(2 if dot(1, g) else 0 for g in range(n)))


def test_orbit_reps_partition():
    s, n = 2, 4
    funcs = list(product((0, 1), repeat=n))
    groups = orbit_reps(funcs, s)
    members = [m for ms in groups.values() for m in ms]
    assert sorted(members) == sorted(funcs)
    # value multiset is orbit-invariant, so count orbits per multiset:
    # weight 0 and 4 are singletons; weight 1 splits by position of the 1
    # only through 0 vs nonzero; weight 2 splits by whether the support
    # is a subgroup.
    assert len(groups[(0, 0, 0, 0)]) == 1
    assert len(groups[(1, 1, 1, 1)]) == 1
    weight1 = [rep for rep in groups if sum(rep) == 1]
    assert len(weight1) == 2  # supported at 0, or at any nonzero element


def test_orbit_reps_rejects_length_mismatch():
    with pytest.raises(ValueError):
        orbit_reps([(0, 1, 2)], 2)


def _swaps_and_transvections(s):
    """Reference generating set of GL_s: every coordinate swap and every
    elementary transvection ``e_i -> e_i + e_j``, as index maps."""
    n = 1 << s
    perms = []
    for i in range(s):
        for j in range(s):
            if i == j:
                continue
            if i < j:
                swap = []
                for g in range(n):
                    bi, bj = (g >> i) & 1, (g >> j) & 1
                    h = g & ~(1 << i) & ~(1 << j)
                    swap.append(h | (bj << i) | (bi << j))
                perms.append(swap)
            perms.append([g ^ (((g >> i) & 1) << j) for g in range(n)])
    return perms


def _closure(f, perms):
    acts = [itemgetter(*p) for p in perms]
    orbit = {tuple(f)}
    frontier = [tuple(f)]
    while frontier:
        cur = frontier.pop()
        for act in acts:
            nxt = act(cur)
            if nxt not in orbit:
                orbit.add(nxt)
                frontier.append(nxt)
    return orbit


def test_generator_perms_are_two_permutations():
    assert _generator_perms(1) == []
    for s in range(2, 8):
        perms = _generator_perms(s)
        assert len(perms) == 2
        for p in perms:
            assert sorted(p) == list(range(1 << s))
            assert p[0] == 0


@pytest.mark.parametrize("s, order", [(2, 6), (3, 168), (4, 20160)])
def test_generators_reach_all_of_gl(s, order):
    # a function with distinct values everywhere has a trivial stabilizer,
    # so its orbit has one element per group element
    assert len(_closure(range(1 << s), _generator_perms(s))) == order


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
def test_two_generator_orbits_match_full_generating_set(s):
    n = 1 << s
    rng = random.Random(600 + s)
    max_support = 3 if s <= 4 else 2
    funcs = []
    for _ in range(42):
        f = [0] * n
        for g in rng.sample(range(n), rng.randint(1, max_support)):
            f[g] = rng.randint(1, 3)
        funcs.append(tuple(f))
    old = _swaps_and_transvections(s)
    pool = set(funcs)
    groups = orbit_reps(funcs, s)
    reps = set()
    for f in pool:
        orbit = _closure(f, old)
        assert _closure(f, _generator_perms(s)) == orbit
        rep = min(orbit)
        assert groups[rep] == sorted(orbit & pool)
        reps.add(rep)
    assert len(groups) == len(reps)


@pytest.mark.parametrize("s", [2, 3, 4])
def test_enumerated_representatives_are_canonical(s):
    # orbit_reps names each orbit by its least element; canonicalize finds
    # the least relabeling independently, so every emitted d is a fixed point
    for m in range(1, 5):
        for sol in enumerate_flat(s, m) + enumerate_L1(s, m):
            assert canonicalize(sol.d) == sol.d


def test_min_intersection_examples():
    # singletons: some hyperplane misses the point entirely
    assert affine_hyperplane_min_intersection([1], 3) == 0
    assert affine_hyperplane_min_intersection([], 4) == 0
    # a basis of rank 3: chi = e_i^* sees exactly one point
    assert affine_hyperplane_min_intersection([1, 2, 4], 3) == 1
    with pytest.raises(ValueError):
        affine_hyperplane_min_intersection([8], 3)


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
def test_min_intersection_full_support(s):
    # every affine hyperplane holds exactly half the group
    pts = range(1, 1 << s)
    assert affine_hyperplane_min_intersection(pts, s) == 1 << (s - 1)


def test_min_intersection_matches_character_loop():
    rng = random.Random(8192)
    for _ in range(300):
        s = rng.randint(1, 6)
        n = 1 << s
        # repeated points count with multiplicity
        pts = [rng.randrange(n) for _ in range(rng.randint(1, n + 3))]
        direct = min(sum(1 for g in pts if dot(chi, g)) for chi in range(1, n))
        assert affine_hyperplane_min_intersection(pts, s) == direct
