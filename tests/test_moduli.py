"""Deformation criteria and the example generators."""

import random
from collections import Counter

import pytest

from z2cover.classify import is_pluricanonical
from z2cover.cover import BranchData, CoverSpec, eigensheaf_degrees, is_flat
from z2cover.moduli import (
    STABILITY_NOTE,
    _failing_pairs,
    deformation_criteria,
    gen_new_component,
    gen_unbounded,
)
from z2cover.wps import Weights, monomial_count

import oracles


def p3_cover(d):
    s = (len(d)).bit_length() - 1
    return CoverSpec(Weights((1, 1, 1, 1)), BranchData(s, tuple(d)))


class TestDeformationCriteria:
    def test_passing_cover(self):
        rep = deformation_criteria(p3_cover((0,) + (2,) * 7))
        assert rep.ok
        assert rep.pairwise_ok and rep.total_degree_ok and rep.weights_coprime
        assert rep.failing_pairs == ()
        assert rep.genericity_assumed
        assert rep.messages == (STABILITY_NOTE,)

    def test_pair_criterion_failure(self):
        rep = deformation_criteria(p3_cover((0, 6, 6, 6)))
        assert not rep.ok
        assert not rep.pairwise_ok
        # one failing (g, chi) pair per character at rank 2
        assert rep.failing_pairs == ((2, 1), (1, 2), (3, 3))
        assert rep.total_degree_ok
        assert any("reaches the eigensheaf degree" in m for m in rep.messages)
        assert rep.messages[-1] == STABILITY_NOTE

    def test_rank2_pair_criterion_is_never_satisfiable(self):
        # summing 2 d_g < sum of the other two over the three pairs is absurd
        for d in [(0, 2, 4, 6), (0, 8, 8, 8), (0, 2, 2, 8)]:
            assert not deformation_criteria(p3_cover(d)).pairwise_ok

    def test_total_degree_and_coprimality_flags(self):
        small = deformation_criteria(p3_cover((0, 2, 2, 4)))
        assert not small.total_degree_ok  # D = 8 = 2W
        weighted = CoverSpec(Weights((1, 1, 2, 2)), BranchData(2, (0, 4, 8, 8)))
        wrep = deformation_criteria(weighted)
        assert not wrep.weights_coprime
        assert not wrep.ok


# degree palettes: the benchmark's (2, 4) and (6, 12), a spread with zeros,
# and spikes that pull a few degrees above most eigensheaf degrees
PALETTES = ((2, 4), (6, 12), (0, 2, 4, 6), (0, 0, 2, 2, 40), (0, 0, 0, 0, 2, 100))


def seeded_covers():
    """Integral P^3 covers at ranks 1-8, plus rank-2 ties.

    Dense covers take every palette; sparse ones put small degrees and one
    spike on a few elements, so that the spike fails in every character
    vanishing on it, and a support inside a hyperplane gives a character
    with ``l = 0`` that only the elements of positive degree reach.
    """
    rng = random.Random(2024)
    covers = [p3_cover((0, 6, 6, 6)), p3_cover((0, 2, 4, 6)), p3_cover((0, 0, 4, 4))]
    for s in range(1, 9):
        n = 1 << s
        for palette in PALETTES:
            for _ in range(3 if s < 8 else 1):
                d = [0] + [rng.choice(palette) for _ in range(n - 1)]
                if not any(d):
                    d[1] = 2
                covers.append(p3_cover(d))
        for _ in range(4):
            d = [0] * n
            support = rng.sample(range(1, n), min(n - 1, rng.randrange(1, 2 * s + 1)))
            for g in support:
                d[g] = rng.choice((2, 4, 6))
            d[support[0]] = 100
            covers.append(p3_cover(d))
    return covers


class TestFailingPairs:
    def test_matches_double_loop_on_seeded_covers(self):
        ties = many = 0
        for spec in seeded_covers():
            s, d = spec.branch.s, spec.branch.d
            l = oracles.eigensheaf_degrees(d)
            expected = oracles.failing_pairs(s, d, l)
            assert _failing_pairs(s, d, l) == expected, d
            assert deformation_criteria(spec).failing_pairs == tuple(expected)
            ties += any(d[g] == l[chi] for g, chi in expected)
            many += len({chi for _, chi in expected}) >= (1 << s) // 2
        # the set exercises ties d(g) = l(chi) and covers failing almost everywhere
        assert ties >= 10 and many >= 10

    @pytest.mark.parametrize("M", [4, 6, 8, 20, 30])
    def test_matches_double_loop_on_new_component(self, M):
        spec = gen_new_component(M)
        d = spec.branch.d
        l = oracles.eigensheaf_degrees(d)
        assert _failing_pairs(4, d, l) == oracles.failing_pairs(4, d, l) == []

    def test_matches_double_loop_on_arbitrary_bounds(self):
        # bounds need not be eigensheaf degrees: zero bounds reach every
        # element of positive degree but none of degree 0, and every bound
        # equal to a degree is a tie
        rng = random.Random(7)
        for _ in range(300):
            s = rng.randrange(1, 7)
            n = 1 << s
            d = [0] + [rng.choice((0, 0, 1, 2, 3, 5, 8)) for _ in range(n - 1)]
            if not any(d):  # branch data has a positive degree
                d[1] = 1
            l = [0] + [rng.randrange(0, 10) for _ in range(n - 1)]
            assert _failing_pairs(s, d, l) == oracles.failing_pairs(s, d, l)


    def test_at_most_two_reached_elements_per_character_are_not_pairs(self):
        # an element reaching u >= l(chi) off chi^perp carries at least u of
        # the mass 2 l(chi) <= 2u on chi.g = 1, so at most two such exist
        most = 0
        for spec in seeded_covers():
            s, d = spec.branch.s, spec.branch.d
            l = oracles.eigensheaf_degrees(d)
            levels = sorted(set(d[1:]) - {0})
            for chi in range(1, 1 << s):
                reached = [u for u in levels if u >= l[chi]]
                if reached:
                    off = [g for g in range(1, 1 << s)
                           if d[g] >= reached[0] and (chi & g).bit_count() & 1]
                    assert len(off) <= 2, (d, chi)
                    most = max(most, len(off))
        assert most == 2  # the bound is met


class TestNewComponent:
    @pytest.mark.parametrize("M", [4, 6, 8, 20])
    def test_construction(self, M):
        spec = gen_new_component(M)
        assert spec.weights.a == (1, 1, 1, M)
        assert spec.branch.d[:2] == (0, 2)
        assert set(spec.branch.d[2:]) == {M}
        assert not is_flat(spec)
        assert deformation_criteria(spec).ok

    def test_eigensheaf_degrees_split(self):
        assert set(eigensheaf_degrees(gen_new_component(4).branch)[1:]) == {15, 16}
        assert set(eigensheaf_degrees(gen_new_component(6).branch)[1:]) == {22, 24}
        assert set(eigensheaf_degrees(gen_new_component(20).branch)[1:]) == {71, 80}

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            gen_new_component(5)
        with pytest.raises(ValueError):
            gen_new_component(2)


CANONICAL_EXPECTED = {
    # s: (L, height, l_on, l_off, flat)
    4: (2, 2, 8, 4, True),
    5: (2, 1, 8, 4, True),
    6: (10, 2, 32, 16, False),
    7: (10, 1, 32, 16, False),
    10: (170, 2, 512, 256, False),
    24: (2796202, 2, 8388608, 4194304, False),
}

BICANONICAL_EXPECTED = {
    3: (4, 6, 12, 6, False),
    4: (4, 3, 12, 6, False),
    5: (12, 4, 32, 16, False),
    24: (5033164, 3, 12582912, 6291456, False),
}


class TestUnbounded:
    @pytest.mark.parametrize("s", sorted(CANONICAL_EXPECTED))
    def test_canonical_family(self, s):
        fam = gen_unbounded(s, "canonical")
        L, height, l_on, l_off, flat = CANONICAL_EXPECTED[s]
        assert fam.weights.a == (1, 1, L, L)
        assert (fam.height, fam.l_on, fam.l_off, fam.flat) == (height, l_on, l_off, flat)
        assert fam.M == L and fam.m == 1
        assert fam.total == height << (s - 1)
        assert fam.p_m == L + 3

    @pytest.mark.parametrize("s", sorted(BICANONICAL_EXPECTED))
    def test_bicanonical_family(self, s):
        fam = gen_unbounded(s, "bicanonical")
        L, height, l_on, l_off, flat = BICANONICAL_EXPECTED[s]
        assert fam.weights.a == (1, 1, L, L)
        assert (fam.height, fam.l_on, fam.l_off, fam.flat) == (height, l_on, l_off, flat)
        assert fam.M == L and fam.m == 2
        assert fam.p_m == L + 3

    def test_canonical_degree_identity(self):
        # D = 2W + 2L with W = 2L + 2, so the total degree is 6L + 4
        for s in range(4, 25):
            fam = gen_unbounded(s, "canonical")
            assert 6 * fam.L == fam.total - 4
            assert fam.flat == (s in (4, 5))

    def test_bicanonical_degree_identity(self):
        for s in range(3, 25):
            fam = gen_unbounded(s, "bicanonical")
            assert 5 * fam.L == fam.total - 4
            assert not fam.flat
            assert 1 <= fam.height <= 9

    @pytest.mark.parametrize("s,kind", [(4, "canonical"), (5, "canonical"),
                                        (6, "canonical"), (3, "bicanonical"),
                                        (5, "bicanonical"), (8, "bicanonical")])
    def test_materialized_cover_matches_closed_form(self, s, kind):
        fam = gen_unbounded(s, kind)
        spec = fam.cover_spec()
        degs = eigensheaf_degrees(spec.branch)
        assert Counter(degs[1:]) == {fam.l_on: 1, fam.l_off: 2**s - 2}
        assert degs[1] == fam.l_on  # the defining character carries the on-degree
        assert spec.branch.total == fam.total
        rep = is_pluricanonical(fam.weights, spec.branch, fam.m)
        assert rep.admissible
        assert rep.k == 1 and rep.M == fam.M
        assert rep.p_m == fam.p_m
        assert rep.flat == fam.flat

    def test_admissibility_closed_form_large(self):
        # no materialization: vanishing needs l > M for both degree values
        for s in range(4, 25):
            for kind in ("canonical", "bicanonical") if s > 3 else ("bicanonical",):
                fam = gen_unbounded(s, kind)
                assert fam.l_off > fam.M
                assert monomial_count(fam.weights, fam.M - fam.l_off) == 0
                assert fam.M % fam.weights.L == 0 and fam.M > 0

    def test_kind_and_rank_validation(self):
        with pytest.raises(ValueError):
            gen_unbounded(3, "canonical")
        with pytest.raises(ValueError):
            gen_unbounded(2, "bicanonical")
        with pytest.raises(ValueError):
            gen_unbounded(5, "pluri")
