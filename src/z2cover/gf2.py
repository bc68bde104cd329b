"""Elementary (Z/2)^s arithmetic: pairings, parity data, GL_s(F_2) orbits.

Group elements and characters are both encoded as Python ints in
``range(2**s)``; bit ``i`` is coordinate ``i``.  A function on the group is
any sequence of length ``2**s`` indexed by element.  The integer order on
encoded elements is the order used whenever functions are compared
lexicographically, in particular by :func:`canonicalize`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Sequence

from .walsh import forward

__all__ = [
    "RankLimitError",
    "CANONICAL_RANK_CAP",
    "dot",
    "parity_vector",
    "canonicalize",
    "orbit_reps",
    "affine_hyperplane_min_intersection",
]

# Exhaustive GL traversal is cached per rank; |GL_4| = 20160 is the largest
# table kept in memory, rank 5 switches to branch-and-bound.
CANONICAL_RANK_CAP = 5


class RankLimitError(ValueError):
    """Raised when an exact orbit computation is requested above the cap."""


def dot(chi: int, g: int) -> int:
    """Standard bilinear pairing (Z/2)^s x (Z/2)^s -> Z/2, as 0 or 1."""
    return (chi & g).bit_count() & 1


def parity_vector(d: Sequence[int]) -> int:
    """XOR of all group elements where ``d`` takes an odd value.

    This is the obstruction to halving the character sums of ``d``: every
    half-sum (over an affine hyperplane) is integral iff the result is 0.
    """
    acc = 0
    for g, value in enumerate(d):
        if value & 1:
            acc ^= g
    return acc


def _rank_of_length(n: int) -> int:
    s = n.bit_length() - 1
    if n <= 0 or n != 1 << s:
        raise ValueError(f"function length {n} is not a power of two")
    return s


def _perm_from_columns(cols: Sequence[int], n: int) -> list[int]:
    # img[g] = sum of cols[i] over set bits i of g, built by prefix DP.
    img = [0] * n
    for g in range(1, n):
        low = (g & -g).bit_length() - 1
        img[g] = img[g & (g - 1)] ^ cols[low]
    return img


def _independent_tuples(s: int) -> Iterable[tuple[int, ...]]:
    """All ordered bases of F_2^s, i.e. column tuples of GL_s(F_2)."""
    n = 1 << s

    def extend(chosen: tuple[int, ...], span: set[int]) -> Iterable[tuple[int, ...]]:
        if len(chosen) == s:
            yield chosen
            return
        for c in range(1, n):
            if c not in span:
                yield from extend(chosen + (c,), span | {v ^ c for v in span})

    yield from extend((), {0})


_PERM_TABLES: dict[int, list[list[int]]] = {}


def _perm_table(s: int) -> list[list[int]]:
    if s not in _PERM_TABLES:
        n = 1 << s
        _PERM_TABLES[s] = [_perm_from_columns(cols, n) for cols in _independent_tuples(s)]
    return _PERM_TABLES[s]


_CANON_CACHE: dict[tuple[int, ...], tuple[int, ...]] = {}


def canonicalize(d: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically least relabeling of ``d`` under GL_s(F_2).

    Two functions have equal output iff some invertible change of basis of
    the group carries one to the other.  Exact for rank <= 5; ranks 2..4 use
    a cached table of the full group, rank 5 runs a lexicographic
    branch-and-bound over basis images.
    """
    n = len(d)
    s = _rank_of_length(n)
    key = tuple(d)
    if s <= 1:
        return key
    if s > CANONICAL_RANK_CAP:
        raise RankLimitError(f"rank {s} exceeds the exhaustive-traversal cap {CANONICAL_RANK_CAP}")
    hit = _CANON_CACHE.get(key)
    if hit is not None:
        return hit
    if s <= 4:
        best = min(tuple(d[p[g]] for g in range(n)) for p in _perm_table(s))
    else:
        best = _canonicalize_bnb(key, s)
    _CANON_CACHE[key] = best
    return best


def _canonicalize_bnb(d: tuple[int, ...], s: int) -> tuple[int, ...]:
    n = 1 << s
    # Partial state: images of the first t basis vectors, stored as the
    # filled prefix img[0:2^t].  Keep every state achieving the least prefix.
    states: list[tuple[list[int], set[int]]] = [([0], {0})]
    prefix: list[int] = []
    for _ in range(s):
        half = len(states[0][0])
        best_block: tuple[int, ...] | None = None
        nxt: list[tuple[list[int], set[int]]] = []
        for img, span in states:
            for c in range(1, n):
                if c in span:
                    continue
                block = tuple(d[img[r] ^ c] for r in range(half))
                if best_block is None or block < best_block:
                    best_block = block
                    nxt = []
                if block == best_block:
                    nxt.append((img + [v ^ c for v in img], span | {v ^ c for v in span}))
        assert best_block is not None
        prefix.extend(best_block)
        states = nxt
    # prefix holds positions 1 .. 2^s-1 in order; position 0 is fixed.
    return tuple([d[0]] + prefix)


def _generator_perms(s: int) -> list[list[int]]:
    """Index maps of two generators of GL_s: a transvection and a cycle.

    The transvection is ``e_0 -> e_0 + e_1``; the cycle sends ``e_i`` to
    ``e_{i+1}`` with indices mod ``s``.  For ``s >= 3`` conjugating the
    transvection by powers of the cycle gives every ``e_i -> e_i + e_{i+1}``,
    their commutators give every elementary transvection, and those generate
    ``SL_s(F_2) = GL_s(F_2)``.  At ``s = 2`` the cycle is the coordinate swap,
    which with the transvection generates ``GL_2 = S_3``.
    """
    if s < 2:
        return []
    n = 1 << s
    # e_0 -> e_0 + e_1: on points, flip bit 1 when bit 0 is set.
    transvection = [g ^ ((g & 1) << 1) for g in range(n)]
    cycle = [((g << 1) | (g >> (s - 1))) & (n - 1) for g in range(n)]
    return [transvection, cycle]


def orbit_reps(funcs: Iterable[Sequence[int]], s: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Partition ``funcs`` into GL_s-orbits.

    Returns representative -> members found in the input.  The orbit of each
    previously unseen member is closed under two generators of GL_s, and its
    lexicographically least element names it; that is the value
    :func:`canonicalize` gives every member, at any rank.
    """
    n = 1 << s
    gens = [itemgetter(*p) for p in _generator_perms(s)]
    pool = {tuple(f) for f in funcs}
    for f in pool:
        if len(f) != n:
            raise ValueError("function length does not match rank")
    out: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    unseen = set(pool)
    while unseen:
        start = unseen.pop()
        orbit = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for act in gens:
                nxt = act(cur)
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        unseen -= orbit
        out[min(orbit)] = sorted(orbit & pool)
    return out


def affine_hyperplane_min_intersection(points: Iterable[int], s: int) -> int:
    """Least size of ``A & {g : chi.g = 1}`` over nonzero characters chi.

    With ``S`` the spectrum of the indicator of ``A``, that intersection has
    ``(|A| - S(chi)) / 2`` points.
    """
    pts = list(points)
    if not pts:
        return 0
    n = 1 << s
    indicator = [0] * n
    for g in pts:
        if not 0 <= g < n:
            raise ValueError(f"point {g} outside group of rank {s}")
        indicator[g] += 1
    spectrum = forward(indicator)
    return min(len(pts) - sc for sc in spectrum[1:]) // 2
