"""Group arithmetic, parity obstructions, and GL-orbit utilities."""

import random
from itertools import product

import pytest

from z2cover.classify import enumerate_flat, enumerate_L1
from z2cover.cover import BranchData, eigensheaf_degrees
from z2cover.gf2 import (
    _generator_perms,
    dot,
    orbit_reps,
)
from z2cover.walsh import NonIntegralError

from oracles import canonical_form, canonical_forms, closure, eigensheaf_degrees as degrees
from oracles import gl_orbit, parity_vector


def spectrum_is_integral(d):
    """Whether ``eigensheaf_degrees`` accepts ``d``: the spectral integrality test."""
    try:
        eigensheaf_degrees(BranchData(len(d).bit_length() - 1, d))
    except NonIntegralError:
        return False
    return True


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
    # the oracle's value, and whether the spectrum of the same d is integral
    for d, parity in [
        ((0, 2), 0),
        ((0, 1), 1),
        ((0, 1, 1, 2), 3),  # odd values at 1 and 2 xor to 3
        ((0, 1, 2, 2), 1),
        ((0, 2, 6, 6, 0, 2, 2, 6), 0),
        ((0, 1, 1, 1, 0, 0, 0, 0), 0),  # three odd values xor to zero
    ]:
        assert parity_vector(d) == parity
        assert spectrum_is_integral(d) == (parity == 0)


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
def test_parity_vector_is_the_half_sum_obstruction(s):
    """parity_vector(d) == 0 iff every affine half-sum of d is even, iff
    ``eigensheaf_degrees`` accepts d."""
    n = 1 << s
    rng = random.Random(100 + s)
    seen = set()
    for _ in range(60):
        d = [0] + [rng.randrange(7) for _ in range(n - 1)]
        if not any(d):
            continue
        all_even = all(v.denominator == 1 for v in degrees(d))
        assert (parity_vector(d) == 0) == all_even == spectrum_is_integral(d)
        seen.add(all_even)
    assert seen == {False, True}


def test_canonicalize_known_pair():
    # swapping the two coordinates of rank 2 carries (0,6,2,6) to (0,2,6,6)
    assert canonical_form((0, 6, 2, 6)) == (0, 2, 6, 6)
    assert canonical_form((0, 2, 6, 6)) == (0, 2, 6, 6)


def test_canonicalize_is_idempotent_and_minimal():
    rng = random.Random(7)
    for s in (2, 3):
        n = 1 << s
        for _ in range(40):
            d = tuple(rng.randrange(4) for _ in range(n))
            c = canonical_form(d)
            assert canonical_form(c) == c
            assert c <= d  # the representative is the least element of the orbit


@pytest.mark.parametrize("s", [2, 3])
def test_canonicalize_constant_on_brute_force_orbits(s):
    """Exhaustive cross-check against the orbits that orbit_reps closes."""
    n = 1 << s
    funcs = [f for f in product((0, 1, 2), repeat=n) if sum(1 for v in f if v) <= 4]
    assert orbit_reps(funcs, s) == canonical_forms(funcs)


def test_canonicalize_rank5_one_point():
    # the least relabeling pushes the lone nonzero value to the top element
    d = [0] * 32
    d[7] = 1
    assert canonical_form(d) == tuple([0] * 31 + [1])


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
    """orbit_reps names the orbit of each function, tie-heavy or random, by
    its least relabeling over every element of GL_s(F_2)."""
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
    assert orbit_reps(funcs, s) == canonical_forms(funcs)


def test_canonicalize_merges_equivalent_onset_characters():
    # degree 2 on {g : chi.g = 1}: any nonzero chi gives the same orbit.
    s = 4
    n = 1 << s
    for chi in (1, 3, 9, 15):
        d = tuple(2 if dot(chi, g) else 0 for g in range(n))
        assert canonical_form(d) == canonical_form(tuple(2 if dot(1, g) else 0 for g in range(n)))


def test_orbit_reps_partition():
    s, n = 2, 4
    funcs = list(product((0, 1), repeat=n))
    reps = orbit_reps(funcs, s)
    assert reps == canonical_forms(funcs)
    # value multiset is orbit-invariant, so count orbits per multiset:
    # weight 0 and 4 are singletons; weight 1 splits by position of the 1
    # only through 0 vs nonzero; weight 2 splits by whether the support
    # is a subgroup.
    assert [rep for rep in reps if sum(rep) in (0, 4)] == [(0, 0, 0, 0), (1, 1, 1, 1)]
    weight1 = [rep for rep in reps if sum(rep) == 1]
    assert len(weight1) == 2  # supported at 0, or at any nonzero element


def test_orbit_reps_rejects_length_mismatch():
    with pytest.raises(ValueError):
        orbit_reps([(0, 1, 2)], 2)


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
    assert len(closure(range(1 << s), _generator_perms(s))) == order


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
    for f in set(funcs):
        assert closure(f, _generator_perms(s)) == gl_orbit(f)
    assert orbit_reps(funcs, s) == canonical_forms(funcs)


@pytest.mark.parametrize("s", [2, 3, 4])
def test_enumerated_representatives_are_canonical(s):
    # orbit_reps names each orbit by its least element; canonical_form finds
    # the least relabeling independently, so every emitted d is a fixed point
    for m in range(1, 5):
        for sol in enumerate_flat(s, m) + enumerate_L1(s, m):
            assert canonical_form(sol.d) == sol.d

