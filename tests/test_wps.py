"""Weighted monomial counting and line-bundle Euler characteristics."""

import json
import random
import time
from itertools import combinations_with_replacement
from math import comb, lcm

import pytest

from z2cover.cli import main
from z2cover.wps import Weights, euler_char_line, monomial_count, well_formed

import oracles


class TestWeights:
    def test_sorted_and_validated(self):
        w = Weights([3, 1, 2, 1])
        assert w.a == (1, 1, 2, 3)
        assert str(w) == "(1,1,2,3)"
        assert list(w) == [1, 1, 2, 3]

    def test_derived_quantities(self):
        w = Weights((1, 2, 3, 6))
        assert (w.L, w.W, w.A) == (6, 12, 36)
        assert Weights((1, 1, 1, 1)).L == 1

    @pytest.mark.parametrize("bad", [(1, 2, 3), (1, 2, 3, 4, 5), (0, 1, 1, 1), (1, 1, 1, -2)])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            Weights(bad)

    def test_well_formedness(self):
        assert well_formed((1, 1, 2, 2))
        assert well_formed((1, 2, 3, 6))
        assert not well_formed((1, 2, 2, 2))
        assert not well_formed((2, 2, 2, 3))
        assert well_formed((2, 2, 3, 3))  # every triple mixes a 2 and a 3
        assert Weights((1, 1, 4, 4)).well_formed
        assert Weights((1, 6, 14, 21)).well_formed
        for a in combinations_with_replacement(range(1, 13), 4):
            assert well_formed(a) == oracles.well_formed(a), a


def test_monomial_count_frozen_values():
    assert monomial_count((1, 1, 1, 1), 2) == 10
    assert monomial_count((1, 1, 2, 4), 4) == 10
    assert monomial_count((1, 1, 1, 2), 2) == 7
    assert monomial_count((1, 1, 2, 2), 2) == 5
    assert monomial_count((1, 1, 1, 3), 3) == 11
    assert monomial_count((1, 2, 3, 6), 6) == 8
    assert monomial_count((1, 1, 2, 2), 0) == 1
    assert monomial_count((1, 1, 2, 2), -3) == 0


@pytest.mark.parametrize("bad", [(True, 1, 1, 1), (-1, 1, 1, 1), (0, 1, 1, 1), (1, 1, 1)])
def test_counts_check_plain_weights(bad):
    # a plain iterable goes through the Weights check, not past it
    for count in (monomial_count, euler_char_line):
        for n in (-1, 3):
            with pytest.raises(ValueError, match="weights"):
                count(bad, n)


def test_unsorted_weights_count_as_their_sorted_quadruple():
    weights = Weights((3, 1, 2, 1))
    for n in range(-10, 40):
        assert monomial_count((3, 1, 2, 1), n) == monomial_count(weights, n)
        assert euler_char_line((3, 1, 2, 1), n) == euler_char_line(weights, n)


def test_monomial_count_straight_projective_space():
    # ordinary P^3: binomial(n+3, 3)
    for n in range(0, 40):
        assert monomial_count((1, 1, 1, 1), n) == comb(n + 3, 3)
    assert monomial_count((1, 1, 1, 1), 10**6) == comb(10**6 + 3, 3)


@pytest.mark.parametrize(
    "weights",
    [(1, 1, 2, 2), (1, 1, 1, 3), (1, 2, 3, 6), (1, 3, 8, 12), (2, 3, 10, 15), (1, 6, 14, 21)],
)
def test_monomial_count_matches_brute_force(weights):
    counts = oracles.monomial_counts(weights, 120)
    for n in range(0, 120, 7):
        assert monomial_count(weights, n) == counts[n]


def _oracle_weight_sets():
    """Seeded weight quadruples with lcm at most 60, plus fixed ones at 42
    and 60, and ``(4, 6, 6, 12)``, whose two smallest weights share the
    factor 2 with ``4 / 2 > 1``, so the walk's progressions have step 2."""
    rng = random.Random(17)
    sets = [(1, 6, 14, 21), (3, 4, 5, 6), (1, 4, 5, 12), (1, 1, 1, 1), (4, 6, 6, 12)]
    while len(sets) < 19:
        weights = tuple(sorted(rng.randrange(1, 13) for _ in range(4)))
        if lcm(*weights) <= 60 and weights not in sets:
            sets.append(weights)
    return sets


def test_monomial_count_generating_function_oracle():
    # every n from below -W up to 21 L: every residue class, the loop below
    # 3L, the cubic from 3L on, and n < 0 including the window (-W, 0)
    for weights in _oracle_weight_sets():
        L, W = lcm(*weights), sum(weights)
        limit = 21 * L
        coeffs = oracles.monomial_counts(weights, limit)
        for n in range(-W - 3, limit + 1):
            assert monomial_count(weights, n) == (coeffs[n] if n >= 0 else 0), (weights, n)
        # the edge between the two paths
        assert monomial_count(weights, 3 * L - 1) == coeffs[3 * L - 1]
        assert monomial_count(weights, 3 * L) == coeffs[3 * L]


def test_monomial_count_walk_far_from_the_origin():
    # 3L = 51051, so n = 10^4 is counted by the walk itself, over about
    # 230,000 (e3, e2) steps
    weights = (7, 11, 13, 17)
    counts = oracles.monomial_counts(weights, 10**4)
    for n in (10**4 - 1, 10**4):
        assert monomial_count(weights, n) == counts[n], n


def test_monomial_count_large_lcm():
    # L = 997 * 1009, so every n here stays on the lattice loop; a count
    # seeded at r + 3L instead would walk millions of lattice points
    weights = (1, 1, 997, 1009)
    edges = {997 * i + 1009 * j + k for i in range(4) for j in range(3) for k in (-1, 0, 1)}
    elapsed = 0.0
    counts = oracles.monomial_counts(weights, 3000)
    for n in sorted(set(range(0, 3001, 97)) | {n for n in edges if 0 <= n <= 3000}):
        started = time.monotonic()
        count = monomial_count(weights, n)
        elapsed += time.monotonic() - started
        assert count == counts[n], n
    assert elapsed < 1.0


UNBOUNDED_STDOUT = {
    ("canonical", 16): {
        "kind": "canonical", "s": 16, "m": 1, "weights": [1, 1, 10922, 10922],
        "height": 2, "L": 10922, "M": 10922, "k": 1, "l_on": 32768, "l_off": 16384,
        "total_degree": 65536, "flat": False, "p_m": 10925,
    },
    ("canonical", 40): {
        "kind": "canonical", "s": 40, "m": 1,
        "weights": [1, 1, 183251937962, 183251937962], "height": 2,
        "L": 183251937962, "M": 183251937962, "k": 1, "l_on": 549755813888,
        "l_off": 274877906944, "total_degree": 1099511627776, "flat": False,
        "p_m": 183251937965,
    },
    ("bicanonical", 16): {
        "kind": "bicanonical", "s": 16, "m": 2, "weights": [1, 1, 19660, 19660],
        "height": 3, "L": 19660, "M": 19660, "k": 1, "l_on": 49152, "l_off": 24576,
        "total_degree": 98304, "flat": False, "p_m": 19663,
    },
    ("bicanonical", 40): {
        "kind": "bicanonical", "s": 40, "m": 2,
        "weights": [1, 1, 329853488332, 329853488332], "height": 3,
        "L": 329853488332, "M": 329853488332, "k": 1, "l_on": 824633720832,
        "l_off": 412316860416, "total_degree": 1649267441664, "flat": False,
        "p_m": 329853488335,
    },
}


@pytest.mark.parametrize("kind,s", sorted(UNBOUNDED_STDOUT))
def test_unbounded_family_stdout_frozen(capsys, kind, s):
    # p_m counts at n = L < 3L on P(1,1,L,L), with L up to 3.3e11
    assert main(["examples", "unbounded", "--kind", kind, "--s", str(s)]) == 0
    assert capsys.readouterr().out == json.dumps(UNBOUNDED_STDOUT[kind, s], indent=2) + "\n"


def test_euler_char_line_serre_duality():
    # chi(O(n)) = -chi(O(-n - W)) in every case
    for weights in [(1, 1, 1, 1), (1, 1, 2, 2), (1, 2, 3, 6), (1, 1, 4, 6)]:
        W = sum(weights)
        for n in range(-30, 30):
            assert euler_char_line(weights, n) == -euler_char_line(weights, -n - W)


def test_euler_char_line_values():
    # on P^3 the second term only activates once n <= -4
    assert euler_char_line((1, 1, 1, 1), 0) == 1
    assert euler_char_line((1, 1, 1, 1), -4) == -1
    assert euler_char_line((1, 1, 1, 1), -2) == 0
    assert euler_char_line((1, 1, 2, 2), 4) == 14
