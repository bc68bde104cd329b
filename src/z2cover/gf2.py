"""Elementary (Z/2)^s arithmetic: pairings, parity data, GL_s(F_2) orbits.

Group elements and characters are both encoded as Python ints in
``range(2**s)``; bit ``i`` is coordinate ``i``.  A function on the group is
any sequence of length ``2**s`` indexed by element.  The integer order on
encoded elements is the order used whenever functions are compared
lexicographically, in particular by :func:`canonicalize`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .walsh import forward

__all__ = [
    "RankLimitError",
    "CANONICAL_RANK_CAP",
    "dot",
    "parity_vector",
    "canonicalize",
    "orbit_signature",
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


def orbit_signature(d: Sequence[int]) -> tuple:
    """Cheap GL-invariant fingerprint, usable at any rank.

    Not a complete invariant: equal signatures do not prove equal orbits.
    Combines the value multiset, the multiset of affine half-sums, and the
    multiset of value sums over 2-dimensional subspaces.
    """
    n = len(d)
    s = _rank_of_length(n)
    values = tuple(sorted(d))
    spectrum = forward(d)
    half = tuple(sorted((spectrum[0] - sc) // 2 for sc in spectrum[1:]))
    planes = []
    for u in range(1, n):
        for v in range(u + 1, n):
            if u ^ v > v:
                planes.append(d[u] + d[v] + d[u ^ v])
    return (s, values, half, tuple(sorted(planes)))


def _generator_perms(s: int) -> list[list[int]]:
    """Index maps of a generating set of GL_s: swaps and transvections."""
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
            # e_i -> e_i + e_j: on points, flip bit j when bit i is set.
            perms.append([g ^ (((g >> i) & 1) << j) for g in range(n)])
    return perms


def orbit_reps(funcs: Iterable[Sequence[int]], s: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Partition ``funcs`` into GL_s-orbits.

    Returns canonical representative -> members found in the input.  The
    orbit of each previously unseen member is closed under a generating set,
    so :func:`canonicalize` runs once per orbit rather than once per member.
    """
    n = 1 << s
    gens = _generator_perms(s)
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
            for p in gens:
                nxt = tuple(cur[p[g]] for g in range(n))
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        members = sorted(orbit & pool)
        unseen -= orbit
        if s <= CANONICAL_RANK_CAP:
            rep = canonicalize(start)
        else:
            rep = min(orbit)
        out[rep] = members
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
