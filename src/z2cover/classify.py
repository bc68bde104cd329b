"""Exhaustive classification of covers with flat pluricanonical structure.

A cell fixes the base weights, ``k`` and the total branch degree ``D``; the
covers it holds are the branch functions whose nontrivial eigensheaf
degrees are multiples of ``L``, the lcm of the weights, and at least
``(k+1)L``.  One window holds every cell: proven inequalities confine
``(k, L, W)`` to finitely many cells at every rank, with
``D = 2W + 2kL/m``.  The two ends of ``bound_prune``'s window
``(k+1) beta(s) - k/m <= W/L <= 2 + 2/L``, with ``beta(s) = 2 - 2^(1-s)``,
meet exactly when ``L <= 2^s / (k (2^s - 1 - 2^(s-1)/m) - 1)``, the cap on
``L`` in ``_cells``: one inequality in ``s``, not a table per rank.  The
straight projective space ``P^3`` is the cell ``L = 1``, ``W = 4``, where
``W/L`` peaks, so there ``D = 8 + 2k/m``.  From rank 6 on the window leaves
``P^3`` with ``k <= 2`` at ``m = 1`` and ``k = 1`` at ``m = 2``, and one cell
with ``L >= 2``: ``(k, L, W) = (1, 2, 6)`` at ``m = 1``, whose
reconstruction places one or two characters and finds no cover.

One cached routine answers every cell, keyed by ``(s, L, (k+1)L, D)``.
The cell's eigensheaf-degree distributions are enumerated once, filtered by
the cubic moment identity and by ``L`` dividing every degree, and realized
(or refuted) by spectral reconstruction.  On the projective base wherever
``D < 2^s - 1``, which is from rank 4 on, reconstruction is replaced by
lifting the same cell's rank ``s-1`` representatives, which is exhaustive
because every candidate support misses a direction.

Solutions are reported up to the GL_s(F_2) relabeling of the group, with a
status separating the reference catalog rows from supplementary and
classical items.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import combinations, product
from math import gcd, lcm

from . import walsh
from .branch import BranchData, CoverSpec, eigensheaf_degrees, hurwitz_degree, is_flat
from .gf2 import orbit_reps
from .walsh import NonIntegralError
from .wps import Weights, monomial_count, well_formed

__all__ = [
    "PluricanonicalReport",
    "AdmissibleSolution",
    "DistributionCounts",
    "is_pluricanonical",
    "bound_prune",
    "l_distribution_candidates",
    "reconstruct_branch",
    "enumerate_flat",
    "enumerate_L1",
    "RankOneFamily",
    "enumerate_s1",
    "bounds_report",
]

MAIN = "main"
SUPPLEMENTARY = "supplementary"
CLASSICAL = "classical"


class PluricanonicalReport(namedtuple("PluricanonicalReport",
                                      "m D M k l p_m flat admissible reasons")):
    """Verdict of :func:`is_pluricanonical`.  ``M`` is a Fraction; ``p_m``
    is None unless ``M`` is a positive integer, and ``k`` unless it is also
    a multiple of ``L``."""

    __slots__ = ()


class AdmissibleSolution(namedtuple("AdmissibleSolution", "weights s m k d l D p_m flat status note",
                                    defaults=(MAIN, ""))):
    __slots__ = ()

    def sort_key(self):
        return (self.m, self.k, self.weights.a, self.D, self.d)


class DistributionCounts(namedtuple("DistributionCounts", "s D base counts")):
    """Multiset of eigensheaf degrees: ``counts[i] = (value, multiplicity)``."""

    __slots__ = ()


def is_pluricanonical(weights: Weights, branch: BranchData, m: int) -> PluricanonicalReport:
    """Decide whether the m-th pluricanonical system is a flat multiple.

    ``M = (m/2) D - m W`` must be a positive multiple of ``L``, and the
    twisted sections in every nontrivial character must vanish: no monomial
    may exist in degree ``M - l(chi)``.  The count of invariant sections
    ``p_m`` and the flatness of the eigensheaf degrees are reported either
    way.
    """
    if m < 1:
        raise ValueError(f"multiple m must be positive, got {m}")
    l = eigensheaf_degrees(branch)
    spec = CoverSpec(weights, branch)
    L = weights.L
    reasons: list[str] = []
    M = m * hurwitz_degree(spec)
    if M <= 0:
        reasons.append(f"multiple degree {M} is not positive")
    if M.denominator != 1:
        reasons.append(f"multiple degree {M} is not an integer")
    k = None
    p_m = None
    if not reasons:
        M_int = int(M)
        if M_int % L:
            reasons.append(f"multiple degree {M_int} is not a multiple of lcm {L}")
        else:
            k = M_int // L
        p_m = monomial_count(weights, M_int)
        for chi in range(1, len(l)):
            if monomial_count(weights, M_int - l[chi]) != 0:
                reasons.append(
                    f"sections survive in character {chi}: degree {M_int - l[chi]} is effective"
                )
                break
    return PluricanonicalReport(
        m=m,
        D=branch.total,
        M=M,
        k=k,
        l=l,
        p_m=p_m,
        flat=is_flat(spec),
        admissible=not reasons,
        reasons=tuple(reasons),
    )


def _beta(s: int) -> Fraction:
    return 2 - Fraction(1, 1 << (s - 1))


def bound_prune(s: int, m: int, L: int, W: int, k: int) -> bool:
    """True when ``(s, m, L, W, k)`` survives the proven weight-sum window.

    The window is ``(k+1) beta(s) - k/m <= W/L`` together with
    ``W <= 2L + 2``; cells that fail cannot carry admissible branch data.
    """
    if min(s, m, L, W, k) < 1:
        raise ValueError("all arguments must be positive")
    lower = (k + 1) * _beta(s) - Fraction(k, m)
    return Fraction(W, L) >= lower and W <= 2 * L + 2


def _partitions(total: int, max_part: int, max_parts: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``total`` into at most ``max_parts`` parts <= max_part."""
    if total == 0:
        yield ()
        return
    if max_parts == 0 or max_part == 0:
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first, max_parts - 1):
            yield (first,) + rest


def l_distribution_candidates(s: int, D: int, min_l: int) -> list[DistributionCounts]:
    """Eigensheaf-degree multisets consistent with the exact moment identities.

    The ``2^s - 1`` nontrivial degrees are at least ``min_l``, at most
    ``D/2``, and sum to ``2^(s-2) D``; each excess partition of that sum is
    kept when the cubic moment ``(D^3 + sum (D - 4l)^3) / 2^s`` is a
    nonnegative integer, because it counts weighted zero-sum triples.  The
    quadratic moment ``D^2 + sum (D - 4l)^2 = 16 sum l^2 - 2^s D^2`` (by the
    linear one) adds only ``2^(s-4) | sum l^2`` without a target square sum
    of the branch degrees, which is vacuous up to rank 4 and rejects none of
    the distributions the classification reconstructs; it is not tested.
    """
    if s < 2:
        raise ValueError("need rank >= 2")
    n_chars = (1 << s) - 1
    total_l = (1 << (s - 2)) * D
    excess_total = total_l - n_chars * min_l
    if excess_total < 0:
        return []
    cap = D // 2 - min_l
    out = []
    for part in _partitions(excess_total, cap, n_chars) if cap >= 0 else []:
        counts: dict[int, int] = {}
        for t in part:
            counts[min_l + t] = counts.get(min_l + t, 0) + 1
        counts[min_l] = counts.get(min_l, 0) + n_chars - len(part)
        cubic_num = D**3 + sum(n * (D - 4 * lv) ** 3 for lv, n in counts.items())
        if cubic_num < 0 or cubic_num % (1 << s):
            continue
        out.append(DistributionCounts(s, D, min_l, tuple(sorted(counts.items()))))
    return out


def _reconstruct_distribution(
    s: int, D: int, counts: Sequence[tuple[int, int]]
) -> Iterator[tuple[int, ...]]:
    """At least one branch function from every GL_s orbit matching the distribution.

    ``counts`` lists the ``(value, multiplicity)`` pairs of the l-values of
    the nonzero characters.  A placement of the classes on those characters
    fixes the spectrum ``S(chi) = D - 4 l(chi)``, and ``walsh.inverse`` gives
    the one function with that spectrum; it is kept when it is integral and
    nonnegative.
    """
    n = 1 << s
    mult = dict(counts)
    values = sorted((v for v in mult if mult[v]), key=lambda v: mult[v])
    l = [0] * n

    def place(vi: int, avail: tuple[int, ...]) -> Iterator[None]:
        if vi == len(values):
            yield
            return
        v = values[vi]
        # GL_s is 2-transitive on the nonzero characters, so a smallest
        # class of one or two characters is placed on (1,) or (1, 2) only
        combos = [avail[: mult[v]]] if vi == 0 and mult[v] <= 2 else combinations(avail, mult[v])
        for combo in combos:
            for chi in combo:
                l[chi] = v
            taken = set(combo)
            yield from place(vi + 1, tuple(c for c in avail if c not in taken))

    for _ in place(0, tuple(range(1, n))):
        try:
            d = walsh.inverse([D - 4 * v for v in l])
        except NonIntegralError:
            continue
        if min(d) >= 0:
            assert d[0] == 0 and sum(d) == D
            yield tuple(d)


def reconstruct_branch(dist: DistributionCounts) -> list[tuple[int, ...]]:
    """Branch functions realizing an eigensheaf-degree multiset, up to GL_s."""
    s, D = dist.s, dist.D
    if sum(c for _, c in dist.counts) != (1 << s) - 1:
        raise ValueError("distribution does not cover every character")
    if sum(v * c for v, c in dist.counts) != (1 << (s - 2)) * D:
        raise ValueError(f"eigensheaf degrees do not sum to 2^(s-2) D for D = {D}")
    return orbit_reps(_reconstruct_distribution(s, D, dist.counts), s)


# ---------------------------------------------------------------------------
# one cell: rank, lcm, least eigensheaf degree and total branch degree


def _lift_candidates(parent: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Integral branch functions of one rank more projecting to ``parent``
    along the new top axis.

    ``parent`` must be integral (its parity vector, the XOR of the elements
    where it is odd, is 0).  Below the top bit a lift's parity vector is then
    the parent's, and its top bit counts the odd values on the top half; so
    exactly the lifts whose top half has an even sum are integral, and only
    those are yielded.  A lift splits each ``parent[g]`` as ``parent[g] - u``
    at ``g`` and ``u`` at ``g`` plus the top bit; the splits run in
    ``itertools.product`` order, the last support element fastest.
    """
    half = len(parent)
    support = [g for g in range(1, half) if parent[g]]
    d = [0] * (2 * half)
    for ups in product(*(range(parent[g] + 1) for g in support)):
        if sum(ups) % 2 == 0:
            for g, up in zip(support, ups):
                d[g], d[g | half] = parent[g] - up, up
            yield tuple(d)


@functools.cache
def _cell_reps(s: int, L: int, base: int, D: int) -> tuple[tuple[int, ...], ...]:
    """Orbit representatives of rank-s branch functions of total ``D`` whose
    nontrivial eigensheaf degrees are multiples of ``L`` and at least ``base``.

    A cell of ``(k, weights)`` is ``(s, L, (k+1) L, D)``; it does not depend
    on ``m`` or on the weights beyond ``L``, so equal cells reached from
    several multiples or weight quadruples are computed once.

    On ``P^3`` (``L = 1``) with ``D < 2^s - 1`` every support misses a
    direction, so its projection to rank ``s-1`` is again a solution of the
    cell there: those representatives are lifted and a candidate kept when
    every nontrivial ``S(chi) = D - 4 l(chi)`` of its spectrum is at most
    ``D - 4 base``; the lift yields only integral candidates.  Every
    other cell is reconstructed from the moment-filtered distributions
    whose values are ``base`` plus multiples of ``L``.
    """
    # a support inside a proper subgroup leaves a nonzero character that
    # vanishes on it, with l(chi) = 0 < base; so the support spans (Z/2)^s,
    # needs s points, and a total below s leaves the cell empty
    if D < s:
        return ()
    if L == 1 and D < (1 << s) - 1:
        top = D - 4 * base
        survivors = {
            cand
            for parent in _cell_reps(s - 1, L, base, D)
            for cand in _lift_candidates(parent)
            if max(walsh.forward(cand)[1:]) <= top
        }
        return tuple(orbit_reps(survivors, s))
    reps: set[tuple[int, ...]] = set()
    for dist in l_distribution_candidates(s, D, base):
        if any((v - base) % L for v, _ in dist.counts):
            continue
        reps.update(reconstruct_branch(dist))
    return tuple(sorted(reps))


# ---------------------------------------------------------------------------
# the cell window


def _unit_fraction_quadruples(target: Fraction) -> Iterator[tuple[int, ...]]:
    """Nondecreasing quadruples with sum of reciprocals equal to target.

    The remaining sum ``p/q`` is carried as a reduced integer pair; with
    ``slots`` parts left the next part runs from ``ceil(q/p)`` (and the
    previous part) up to ``floor(slots q/p)``.
    """

    def rec(prefix: tuple[int, ...], p: int, q: int) -> Iterator[tuple[int, ...]]:
        slots = 4 - len(prefix)
        if slots == 0:
            if p == 0:
                yield prefix
            return
        if p <= 0:
            return
        lo = max(prefix[-1] if prefix else 1, -(-q // p))
        hi = slots * q // p
        for b in range(lo, hi + 1):
            num, den = p * b - q, q * b  # p/q - 1/b
            g = gcd(num, den)
            yield from rec(prefix + (b,), num // g, den // g)

    yield from rec((), target.numerator, target.denominator)


def _weights_with_ratio(target: Fraction) -> Iterator[Weights]:
    """Well-formed weights with ``W/L = target``.

    Each reciprocal quadruple ``b`` of ``target`` gives ``a = L/b`` with
    ``L = lcm(b)``; it is kept when ``lcm(a) = L`` and ``a`` is well formed,
    in the order of the quadruples.
    """
    for quad in _unit_fraction_quadruples(target):
        L = lcm(*quad)
        a = tuple(L // b for b in quad)
        if lcm(*a) == L and well_formed(a):
            yield Weights(a)


def _cells(s: int, m: int) -> list[tuple[int, int, int, Weights]]:
    """All ``(k, L, W, weights)`` cells surviving the proven window."""
    if m < 1:
        raise ValueError("multiple must be positive")
    cells: list[tuple[int, int, int, Weights]] = []

    def add(k: int, L: int, W: int) -> None:
        cells.extend((k, L, W, w) for w in _weights_with_ratio(Fraction(W, L)) if w.L == L)

    k = 1
    while bound_prune(s, m, 1, 4, k):  # W/L <= 2 + 2/L peaks at 4, on P^3
        bracket = k * ((1 << s) - 1 - Fraction(1 << (s - 1), m)) - 1
        if bracket <= 0:
            # only (s, m, k) = (2, 1, 1); W = 2L is closed by reciprocal sums
            assert (s, m, k) == (2, 1, 1), "unbounded cell outside the known window"
            cells.extend((k, w.L, 2 * w.L, w) for w in _weights_with_ratio(Fraction(2)))
            for c in (1, 2):  # W = 2L + c leaves excess 2c, and L must divide it
                for L in range(1, 2 * c + 1):
                    if (2 * c) % L == 0:
                        add(k, L, 2 * L + c)
            k += 1
            continue
        L_max = math.floor(Fraction(1 << s) / bracket)
        for L in range(1, L_max + 1):
            if (2 * k * L) % m:
                continue
            for W in range(1, 2 * L + 3):
                if bound_prune(s, m, L, W, k):
                    add(k, L, W)
        k += 1
    return cells


def _cell_key(s: int, m: int, k: int, L: int, W: int) -> tuple[int, int, int, int]:
    """The ``_cell_reps`` key ``(s, L, (k+1)L, D = 2W + 2kL/m)`` of a cell."""
    return s, L, (k + 1) * L, 2 * W + 2 * k * L // m


def _finish_solution(
    weights: Weights, s: int, m: int, rep: tuple[int, ...]
) -> AdmissibleSolution:
    branch = BranchData(s, rep)
    report = is_pluricanonical(weights, branch, m)
    assert report.admissible and report.k is not None and report.p_m is not None
    sol = AdmissibleSolution(
        weights=weights,
        s=s,
        m=m,
        k=report.k,
        d=rep,
        l=report.l,
        D=report.D,
        p_m=report.p_m,
        flat=report.flat,
    )
    # the row's largest admissible multiple, read off its cell (k, L): each
    # nontrivial l(chi) is a multiple of L and at least (k+1)L, and the
    # m'-th system has M' = m' kL/m.  It is a flat multiple exactly when
    # k' = m'k/m is a positive integer (L | M', that is m | m'k) and
    # k' < min l/L, since a degree jL with j >= 0 carries the monomial
    # x_i^(jL/a_i) and a negative degree carries none.  So the answer is the
    # largest j <= (min l/L - 1) m/k with m | jk, that is with m/gcd(m, k)
    # dividing j, and j = m qualifies since k < min l/L.  Dropping m | jk
    # moves no row of the window, but it is the condition L | M' itself, so
    # it stays
    k = report.k
    hi = (min(report.l[1:]) // weights.L - 1) * m // k
    top = hi - hi % (m // gcd(m, k))
    if top != m:
        sol = sol._replace(
            status=SUPPLEMENTARY,
            note=f"also admissible with m = {top}; listed there",
        )
    if weights.L == 1:
        sol = _apply_projective_status(sol)
    return sol


def _apply_projective_status(sol: AdmissibleSolution) -> AdmissibleSolution:
    if sol.status == SUPPLEMENTARY:  # non-maximal m wins over the P^3 labels
        return sol
    if sol.m == 1 and sol.k == 1:
        return sol._replace(
            status=CLASSICAL,
            note="classical family of low-degree canonical covers",
        )
    if (sol.m, sol.k) in ((1, 2), (2, 1)) and sol.s <= 3:
        return sol._replace(
            status=SUPPLEMENTARY,
            note="not among the catalogued families at this rank",
        )
    if sol.s == 4 and sol.m == 2 and max(sol.d) == 1:
        return sol._replace(
            status=SUPPLEMENTARY,
            note="branch divisor splits into distinct planes; listed separately",
        )
    return sol


def _enumerate(s: int, m: int, projective: bool) -> list[AdmissibleSolution]:
    """Admissible covers of the cells with ``L == 1`` or, if not
    ``projective``, with ``L >= 2``."""
    if s < 2:
        raise ValueError("rank-1 towers are families; use enumerate_s1")
    sols = [
        _finish_solution(weights, s, m, rep)
        for k, L, W, weights in _cells(s, m)
        if (L == 1) == projective
        for rep in _cell_reps(*_cell_key(s, m, k, L, W))
    ]
    sols.sort(key=AdmissibleSolution.sort_key)
    return sols


def enumerate_flat(s: int, m: int) -> list[AdmissibleSolution]:
    """Complete list of admissible covers over bases with ``L >= 2``.

    Exhaustive at every rank ``s >= 2``: the cell windows are finite, and
    each cell's eigensheaf-degree distributions pass the moment tests before
    one Walsh transform per placement inverts them.  Past rank 5 the only
    cell is ``(k, L, W) = (1, 2, 6)`` on ``P(1,1,2,2)`` with ``D = 16``,
    whose degrees exceed the base ``4`` by ``4`` in all, so each placement
    puts one or two characters.  Unlike the projective lists these are
    never lifted from rank ``s-1``: lifting that cell's representatives and
    filtering the candidates' spectra took 0.48 s at rank 5 and 1.77 s at
    rank 6, against under 1 ms for reconstruction (2-CPU Xeon VM,
    Python 3.11).
    """
    return _enumerate(s, m, projective=False)


def enumerate_L1(s: int, m: int) -> list[AdmissibleSolution]:
    """Complete list of admissible covers of the straight projective space."""
    return _enumerate(s, m, projective=True)


# ---------------------------------------------------------------------------
# rank 1: unbounded families


class RankOneFamily(namedtuple("RankOneFamily", "weights m t_min t_sup status note",
                               defaults=(MAIN, ""))):
    """One-parameter tower of double covers: ``d = 2 L t`` on one component.

    ``t`` runs over integers with ``t_min <= t`` and, when the window is
    bounded, ``t < t_sup``; ``t_sup`` is None for an unbounded window.
    """

    __slots__ = ()

    @property
    def degree_coefficient(self) -> int:
        return 2 * self.weights.L


def _s1_windows(m: int) -> list[tuple[Fraction, int, int | None]]:
    """``(W/L, t_min, t_sup)`` of every rank-1 target ``c/m``, ``c = 1..4m``,
    with a window, by increasing ``c``; the reciprocals sum to ``W/L``, so
    it is known before the search.  For ``m = 1`` the windows ``t > c`` are
    unbounded.  For ``m >= 2``, ``c/m < t < c/(m-1)`` holds an integer ``t``
    exactly when ``(m-1)t < c < mt``, and ``c <= 4m`` bounds ``t`` by
    ``4m // (m-1)``, so the targets are built from those ranges of ``c``
    (at most six once ``m >= 5``), not scanned."""
    if m == 1:
        return [(Fraction(c), c + 1, None) for c in range(1, 5)]
    targets = sorted({c for t in range(1, 4 * m // (m - 1) + 1)
                      for c in range((m - 1) * t + 1, min(m * t, 4 * m + 1))})
    return [(Fraction(c, m), c // m + 1, -(-c // (m - 1))) for c in targets]


def enumerate_s1(m: int, t_max: int | None = None) -> list[RankOneFamily]:
    """All rank-1 towers for the given multiple.

    For ``m = 1`` the base must satisfy ``L | W``; the families are the
    reciprocal-sum quadruples with ``W/L`` in 1..4 and the window is
    unbounded above.  For ``m >= 2`` the constraints are ``L | mW`` and
    ``m-1 | 2W`` with the finite window ``W/L < t < (1 + 1/(m-1)) W/L``.
    ``t_max``, when given, truncates the reported unbounded windows.
    """
    if m < 1:
        raise ValueError("multiple must be positive")
    families: list[RankOneFamily] = []
    for target, t_min, t_sup in _s1_windows(m):
        if t_max is not None:
            if t_min > t_max:
                continue
            if t_sup is None or t_sup > t_max + 1:
                t_sup = t_max + 1
        for w in _weights_with_ratio(target):
            status, note = MAIN, ""
            if m == 1 and w.a == (2, 3, 3, 4):
                status = SUPPLEMENTARY
                note = "valid tower missing from the reference catalog"
            elif m > 1 and (2 * w.W) % (m - 1):
                continue
            families.append(
                RankOneFamily(
                    weights=w, m=m, t_min=t_min, t_sup=t_sup, status=status, note=note
                )
            )
    families.sort(key=lambda f: (-Fraction(f.weights.W, f.weights.L), f.weights.a))
    return families


# ---------------------------------------------------------------------------
# reporting


def bounds_report(s: int, m: int) -> str:
    """Human-readable certificate of the window behind an enumeration.

    At rank 1 it states the reciprocal-sum targets, the ``t`` window of
    each and the number of towers of ``enumerate_s1(m)``.  From rank 2 on
    it lists every cell, and the last line counts the rows of
    ``enumerate_flat(s, m)`` from the cells with ``L >= 2``, through the
    same cached ``_cell_reps``, and at 0 says why: the window has no such
    cell, or every such cell reconstructs to nothing.
    """
    lines = [f"rank s={s}, multiple m={m}"]
    if s == 1:
        upper = "" if m == 1 else f" < (1 + 1/{m - 1}) W/L, {m - 1} | 2W"
        lines.append(f"towers d = 2Lt on weights L/b, sum(1/b) = W/L = c/{m} <= 4, W/L < t{upper}")
        for target, t_min, t_sup in _s1_windows(m):
            window = f"t >= {t_min}" if t_sup is None else f"{t_min} <= t < {t_sup}"
            lines.append(f"  target W/L={target}: {window}")
        lines.append(f"towers: {len(enumerate_s1(m))}")
        return "\n".join(lines)
    lines.append(f"weight window (k+1)*{_beta(s)} - k/{m} <= W/L <= 2 + 2/L, D = 2W + 2kL/m")
    cells = _cells(s, m)
    flat_cells = rows = 0
    for k, L, W, w in cells:
        key = _cell_key(s, m, k, L, W)
        lines.append(f"  cell k={k} L={L} W={W} weights={w} D={key[3]}")
        if L >= 2:
            flat_cells += 1
            rows += len(_cell_reps(*key))
    if not cells:
        lines.append("  no surviving (k, L, W) cells")
    if rows:
        lines.append(f"flat rows: {rows}")
    elif flat_cells:
        lines.append("flat rows: 0 (every L >= 2 cell reconstructs to nothing)")
    else:
        lines.append("flat rows: 0 (no L >= 2 cell in the window)")
    return "\n".join(lines)
