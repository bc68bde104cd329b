"""Two independent GL_s(F_2) canonical forms, the oracles for ``orbit_reps``.

Both give the lexicographically least relabeling of a function on F_2^s,
the element ``orbit_reps`` names each orbit by, without closing an orbit:
``canonicalize`` by branch-and-bound over basis images (ranks up to 5), and
``table_canonicalize`` by brute force over every group element, |GL_4| =
20160 of them at rank 4.
"""

from functools import cache
from operator import itemgetter
from typing import Sequence

from z2cover.walsh import _rank

# canonicalize keeps every basis prefix tied for the least relabeling, and
# the bases that tie to the end are a coset of Aut(d), so its work grows
# with |Aut(d)|.  A one-point function has |GL_s| / (2^s - 1) automorphisms:
# 322,560 at rank 5 and 319,979,520 at rank 6.


def canonicalize(d: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically least relabeling of ``d`` under GL_s(F_2).

    Two functions have equal output iff some invertible change of basis of
    the group carries one to the other.  Found by a lexicographic
    branch-and-bound over basis images, fast enough up to rank 5.
    """
    key = tuple(d)
    s = _rank(len(key))
    if s <= 1:
        return key
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
                block = tuple(key[img[r] ^ c] for r in range(half))
                if best_block is None or block < best_block:
                    best_block = block
                    nxt = []
                if block == best_block:
                    nxt.append((img + [v ^ c for v in img], span | {v ^ c for v in span}))
        assert best_block is not None
        prefix.extend(best_block)
        states = nxt
    # prefix holds positions 1 .. 2^s-1 in order; position 0 is fixed.
    return tuple([key[0]] + prefix)


def _bases(s):
    """Every ordered basis of F_2^s, i.e. the column tuples of GL_s(F_2)."""
    n = 1 << s

    def extend(chosen, span):
        if len(chosen) == s:
            yield chosen
            return
        for c in range(1, n):
            if c not in span:
                yield from extend(chosen + (c,), span | {v ^ c for v in span})

    yield from extend((), {0})


@cache
def perm_table(s):
    """Index map ``g -> A g`` of every A in GL_s(F_2), for s >= 2."""
    n = 1 << s
    table = []
    for cols in _bases(s):
        # img[g] = xor of cols[i] over the set bits i of g, by prefix DP
        img = [0] * n
        for g in range(1, n):
            img[g] = img[g & (g - 1)] ^ cols[(g & -g).bit_length() - 1]
        table.append(img)
    return table


@cache
def _actions(s):
    return [itemgetter(*p) for p in perm_table(s)]


def table_canonicalize(d):
    """Least ``g -> d(A g)`` over the whole table, for ``len(d)`` in 4..16."""
    d = tuple(d)
    s = len(d).bit_length() - 1
    return min(act(d) for act in _actions(s))
