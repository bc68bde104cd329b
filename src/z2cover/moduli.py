"""Deformation criteria and generators for the example cover families.

A cover whose branch degrees stay strictly below the eigensheaf degree of
every character vanishing on them deforms only to abelian covers of the
same kind of base; together with positive total branching and pairwise
coprime weights this pins the cover to its own family.  Quasi-smoothness
of the branch divisors is a genericity hypothesis that is flagged but not
checked yet, although it has a numerical test (Iano-Fletcher, "Working
with weighted complete intersections", Thm 8.1); stability is only backed
by the degree proxy, never verified geometrically.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from itertools import combinations
from math import gcd

from .branch import BranchData, CoverSpec, _message_bits, eigensheaf_degrees, hurwitz_degree
from .gf2 import dot
from .wps import Weights, monomial_count

__all__ = [
    "DeformationReport",
    "UnboundedFamily",
    "deformation_criteria",
    "gen_new_component",
    "gen_unbounded",
]

STABILITY_NOTE = "stable by pair criterion, not verified"


class DeformationReport(namedtuple("DeformationReport",
                                   "pairwise_ok failing_pairs total_degree_ok weights_coprime"
                                   " genericity_assumed messages")):
    """Outcome of the numeric rigidity conditions for one cover."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.pairwise_ok and self.total_degree_ok and self.weights_coprime


def _failing_pairs(s: int, d, l) -> list[tuple[int, int]]:
    """Pairs (g, chi), g a branch component and chi vanishing on g, where
    d(g) >= l(chi), in the order chi ascending, then g ascending.

    An element with ``d(g) = 0`` carries no divisor, so it never fails, not
    even against a character with ``l(chi) = 0``.  Only characters with
    ``l(chi) <= max(d)`` can fail.  Such a character reads the elements
    reaching its least threshold ``u >= l(chi)`` among the positive branch
    degrees, a list built once per threshold, and keeps those on
    ``chi^perp``.  The listing is output-sensitive without a transform:
    when ``l`` holds the eigensheaf degrees, a reached element off
    ``chi^perp`` lies on ``chi.g = 1``, whose mass is ``2 l(chi) <= 2u``,
    and carries at least ``u``, so at most two reached elements per
    character are not failing pairs.
    """
    n = 1 << s
    levels = sorted(set(d[1:]) - {0})
    reach: dict[int, list[int]] = {}
    out = []
    for chi in range(1, n):
        if l[chi] > levels[-1]:
            continue
        u = levels[bisect_left(levels, l[chi])]
        if u not in reach:
            reach[u] = [g for g in range(1, n) if d[g] >= u]
        out.extend((g, chi) for g in reach[u] if not dot(chi, g))
    return out


def deformation_criteria(spec: CoverSpec) -> DeformationReport:
    s = spec.branch.s
    l = eigensheaf_degrees(spec.branch)
    failing = tuple(_failing_pairs(s, spec.branch.d, l))
    total_ok = hurwitz_degree(spec) > 0
    coprime = all(gcd(a, b) == 1 for a, b in combinations(spec.weights, 2))
    messages = []
    for g, chi in failing:
        messages.append(
            f"branch degree {spec.branch.d[g]} at {_message_bits(g, s)} reaches the"
            f" eigensheaf degree {l[chi]} of character {_message_bits(chi, s)}"
        )
    if not total_ok:
        messages.append("total branch degree does not exceed twice the weight sum")
    if not coprime:
        messages.append("weights are not pairwise coprime")
    messages.append(STABILITY_NOTE)
    return DeformationReport(
        pairwise_ok=not failing,
        failing_pairs=failing,
        total_degree_ok=total_ok,
        weights_coprime=coprime,
        genericity_assumed=True,
        messages=tuple(messages),
    )


def gen_new_component(M: int) -> CoverSpec:
    """Branch data on P(1,1,1,M) rigid inside the abelian-cover locus.

    One divisor of degree 2, fourteen of degree M.  Eigensheaf degrees
    come out as ``1 + 7M/2`` and ``4M``, never both multiples of M, so
    the cover is not flat, yet it passes every deformation criterion.
    """
    if M % 2 or M <= 2:
        raise ValueError(f"M must be an even integer > 2, got {M}")
    d = [M] * 16
    d[0] = 0
    d[1] = 2
    return CoverSpec(weights=Weights((1, 1, 1, M)), branch=BranchData(4, tuple(d)))


class UnboundedFamily(namedtuple("UnboundedFamily",
                                 "kind s m weights chi0 height l_on l_off total M flat")):
    """One member of the unbounded pluricanonical families on P(1,1,L,L).

    The branch degrees are constant (``height``) on the affine hyperplane
    ``chi0 . g = 1`` and zero elsewhere, so everything about the cover has
    a closed form and members stay cheap even at ranks where the dense
    degree table would not fit in memory.
    """

    __slots__ = ()

    @property
    def L(self) -> int:
        return self.weights.L

    @property
    def p_m(self) -> int:
        return monomial_count(self.weights, self.M)

    def cover_spec(self) -> CoverSpec:
        """Materialize the dense degree table; only sane for small rank.
        ``chi0 . 0 = 0`` keeps the identity off the support."""
        d = tuple(self.height * dot(self.chi0, g) for g in range(1 << self.s))
        return CoverSpec(weights=self.weights, branch=BranchData(self.s, d))


def gen_unbounded(s: int, kind: str) -> UnboundedFamily:
    """The rank-s member of the canonical or bicanonical unbounded family.

    canonical (m=1): L = (2^s - 4)/6 with degree 2 for even s >= 4,
    L = (2^{s-1} - 4)/6 with degree 1 for odd s >= 5.  bicanonical
    (m=2): s >= 3, degree t minimal with 5 | t*2^{s-1} - 4 and L >= 1,
    L = (t*2^{s-1} - 4)/5.  Both put M = L with every eigensheaf degree
    strictly larger, so the m-th system is a flat multiple of the base.
    """
    if kind == "canonical":
        m = 1
        if s >= 4 and s % 2 == 0:
            height = 2
            num = (1 << s) - 4
        elif s >= 5 and s % 2:
            height = 1
            num = (1 << (s - 1)) - 4
        else:
            raise ValueError(f"canonical family needs even s >= 4 or odd s >= 5, got {s}")
        L, r = divmod(num, 6)
    elif kind == "bicanonical":
        m = 2
        if s < 3:
            raise ValueError(f"bicanonical family needs s >= 3, got {s}")
        height = 4 * pow(pow(2, s - 1, 5), -1, 5) % 5
        if (height << (s - 1)) <= 4:
            height += 5
        L, r = divmod((height << (s - 1)) - 4, 5)
    else:
        raise ValueError(f"kind must be canonical or bicanonical, got {kind!r}")
    assert r == 0 and L >= 1, "family parameter fell outside its proven window"
    l_on = height << (s - 2)
    l_off = height << (s - 3)
    return UnboundedFamily(
        kind=kind,
        s=s,
        m=m,
        weights=Weights((1, 1, L, L)),
        chi0=1,
        height=height,
        l_on=l_on,
        l_off=l_off,
        total=height << (s - 1),
        M=L,
        flat=l_on % L == 0 and l_off % L == 0,
    )
