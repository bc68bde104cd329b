"""Elementary (Z/2)^s arithmetic: the pairing and GL_s(F_2) orbits.

Group elements and characters are both encoded as Python ints in
``range(2**s)``; bit ``i`` is coordinate ``i``.  A function on the group is
any sequence of length ``2**s`` indexed by element.  The integer order on
encoded elements is the order used whenever functions are compared
lexicographically, in particular to name a GL_s-orbit by its least element.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import itemgetter

__all__ = [
    "dot",
    "orbit_reps",
]


def dot(chi: int, g: int) -> int:
    """Standard bilinear pairing (Z/2)^s x (Z/2)^s -> Z/2, as 0 or 1."""
    return (chi & g).bit_count() & 1


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


def orbit_reps(funcs: Iterable[Sequence[int]], s: int) -> list[tuple[int, ...]]:
    """Sorted representatives of the GL_s-orbits that meet ``funcs``.

    The orbit of each previously unseen input is closed under two generators
    of GL_s, and its lexicographically least element represents it.
    """
    n = 1 << s
    gens = [itemgetter(*p) for p in _generator_perms(s)]
    unseen = {tuple(f) for f in funcs}
    for f in unseen:
        if len(f) != n:
            raise ValueError("function length does not match rank")
    reps = []
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
        reps.append(min(orbit))
    return sorted(reps)

