"""A window-free completeness check of the classification on bounded bases.

Every row of ``enumerate_flat`` and ``enumerate_L1`` comes through one
pipeline: the ``bound_prune`` window of cells, the cubic moment filter,
spectral reconstruction or the lift, and orbit closure.  The search here
uses none of them.  A flat admissible cover has ``M = m(D/2 - W) = kL``
with ``k >= 1``, and every nontrivial ``l(chi)`` is a multiple of ``L``
above ``M``: every nonnegative multiple of ``L`` is the degree of a
monomial, so ``l(chi) <= M`` would leave a twisted section.  Hence
``l(chi) >= M + L``, and since the ``l(chi)`` sum to ``2^(s-2) D`` with
``D = 2W + 2kL/m``, ``(2^s - 1)(M + L) <= 2^(s-2) D``, a sharper form of
``(2^s - 1) M < 2^(s-2) D`` that bounds ``k`` for each base and ``m``.
For each such ``(base, m, k)`` every branch function of total ``D`` is
enumerated, pruned by the same fact read on one character at a time: the
elements of ``chi^perp`` carry ``D - 2 l(chi)``, at most ``D - 2(M + L)``
and congruent to ``D`` mod ``2L``.  A candidate is kept when ``validate``,
``is_pluricanonical`` and ``is_flat`` accept it, and named by
``oracles.canonical_forms``.

Scope: ranks 2 and 3 over every well-formed base with weights at most 12,
at ``m = 1..6``: the catalog's 29 rank-2 rows, and at rank 3 its 21 rows
(13, 3, 0 and 0 orbits on ``P^3`` at ``m = 1..4``).  This is evidence about
the window on these bases, not a proof of it: larger weights, ranks and
multiples are not searched.  The whole search takes under a second; rank 4
on ``P^3`` at ``m = 1`` alone would take about 6 s.
"""

import functools
from itertools import combinations_with_replacement

import pytest

from z2cover import classify
from z2cover.classify import enumerate_flat, enumerate_L1, is_pluricanonical
from z2cover.cover import BranchData, CoverSpec, is_flat, validate
from z2cover.wps import Weights

import oracles

BASES = [a for a in combinations_with_replacement(range(1, 13), 4) if oracles.well_formed(a)]
RANKS = (2, 3)
MULTIPLES = range(1, 7)


def _branch_functions(s, D, L, least):
    """Every ``d`` with ``d(0) = 0`` and total ``D`` whose nontrivial
    ``2 l(chi)``, ``D`` less the sum over the nonzero elements of
    ``chi^perp``, are multiples of ``2L`` and at least ``2 least``; each is
    checked once the last element of its ``chi^perp`` is placed."""
    n = 1 << s
    cap = D - 2 * least  # no element of a chi^perp carries more
    # the characters whose chi^perp closes at each element, as element lists
    closing = [[] for _ in range(n)]
    for chi in range(1, n):
        perp = [g for g in range(1, n) if not (chi & g).bit_count() & 1]
        closing[perp[-1]].append(perp)
    d = [0] * n

    def fits(g):
        for perp in closing[g]:
            twice_l = D - sum(d[h] for h in perp)
            if twice_l < 2 * least or twice_l % (2 * L):
                return False
        return True

    def place(g, left):
        if g == n - 1:
            d[g] = left
            if fits(g):
                yield tuple(d)
            return
        for v in range(min(left, cap) + 1):
            d[g] = v
            if fits(g):
                yield from place(g + 1, left - v)
        d[g] = 0

    yield from place(1, D)


def _search(s, a, m):
    """Canonical forms of the flat admissible valid rank-``s`` covers of
    ``P(a)`` at multiple ``m``."""
    w = Weights(a)
    L, W = w.L, w.W
    n = 1 << s
    found = []
    k = 1
    while (n - 1) * (k + 1) * L * m <= (n >> 2) * (2 * W * m + 2 * k * L):
        if 2 * k * L % m == 0:
            D = 2 * W + 2 * k * L // m
            for d in _branch_functions(s, D, L, (k + 1) * L):
                spec = CoverSpec(w, BranchData(s, d))
                if (validate(spec).ok and is_flat(spec)
                        and is_pluricanonical(w, spec.branch, m).admissible):
                    found.append(d)
        k += 1
    return oracles.canonical_forms(found)


@functools.cache
def brute(s, m):
    """``(weights, d)`` of every cover the search finds at rank ``s``."""
    return sorted((a, d) for a in BASES for d in _search(s, a, m))


def catalog(s, m):
    """``(weights, d)`` of the catalog rows on the searched bases."""
    rows = enumerate_flat(s, m) + enumerate_L1(s, m)
    return sorted((row.weights.a, row.d) for row in rows if row.weights.a in BASES)


CASES = [(s, m) for s in RANKS for m in MULTIPLES]


@pytest.mark.parametrize("s, m", CASES)
def test_search_finds_exactly_the_catalog(s, m):
    assert brute(s, m) == catalog(s, m)


def test_search_counts():
    assert sum(len(brute(2, m)) for m in MULTIPLES) == 29
    assert [len(brute(3, m)) for m in MULTIPLES] == [17, 4, 0, 0, 0, 0]
    on_p3 = [[d for a, d in brute(3, m) if a == (1, 1, 1, 1)] for m in range(1, 5)]
    assert list(map(len, on_p3)) == [13, 3, 0, 0]


@pytest.mark.parametrize("s", RANKS)
def test_dropping_a_cell_with_a_row_is_caught(monkeypatch, s):
    # the check has teeth: a window that loses any cell holding a catalog
    # row no longer equals the search
    dropped_any = False
    for m in MULTIPLES:
        cells = classify._cells(s, m)
        for dropped in cells:
            if dropped[3].a in BASES and classify._cell_reps(*classify._cell_key(s, m, *dropped[:3])):
                kept = [cell for cell in cells if cell != dropped]
                monkeypatch.setattr(classify, "_cells", lambda s, m, kept=kept: kept)
                assert catalog(s, m) != brute(s, m), (m, dropped)
                dropped_any = True
        monkeypatch.undo()
    assert dropped_any
