"""Group arithmetic, parity obstructions, and GL-orbit utilities."""

import random
from itertools import product

import pytest

from z2cover.gf2 import (
    CANONICAL_RANK_CAP,
    RankLimitError,
    affine_hyperplane_min_intersection,
    canonicalize,
    dot,
    orbit_reps,
    orbit_signature,
    parity_vector,
)


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
    """Exhaustive cross-check against orbits generated by swaps/transvections."""
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


def test_canonicalize_merges_equivalent_onset_characters():
    # degree 2 on {g : chi.g = 1}: any nonzero chi gives the same orbit.
    s = 4
    n = 1 << s
    for chi in (1, 3, 9, 15):
        d = tuple(2 if dot(chi, g) else 0 for g in range(n))
        assert canonicalize(d) == canonicalize(tuple(2 if dot(1, g) else 0 for g in range(n)))


def test_orbit_signature_respects_orbits():
    rng = random.Random(5)
    s, n = 3, 8
    gens_applied = []
    for _ in range(30):
        d = tuple(rng.randrange(3) for _ in range(n))
        c = canonicalize(d)
        assert orbit_signature(d) == orbit_signature(c)
        gens_applied.append((d, c))
    # signatures distinguish at least some non-equivalent functions
    sig_a = orbit_signature((0, 1, 0, 0, 0, 0, 0, 0))
    sig_b = orbit_signature((0, 2, 0, 0, 0, 0, 0, 0))
    assert sig_a != sig_b


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
