"""All of GL_s(F_2) as a table of index maps: the reference for ranks 2..4.

``canonicalize`` finds the least relabeling by branch-and-bound; this module
takes the same minimum by brute force over every group element, |GL_4| =
20160 of them at rank 4, which is what makes it an independent oracle.
"""

from functools import cache
from operator import itemgetter


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
