"""The profile route the classification used before its one-pass moment filter.

Kept as an oracle: ``m_profiles`` lists the branch-degree multisets a cell
admits, and ``distributions_by_profile`` routes each distinct square sum of
those profiles to the distributions meeting its quadratic moment target and
the cubic moment test.
"""

from z2cover.classify import DistributionCounts, _partitions


def m_profiles(s, D, min_l):
    """Candidate branch-degree multisets for a rank-s cover of total D.

    The support must span (so at least ``s`` parts) and fit in the group;
    any ``s-1`` degrees sit inside one affine hyperplane of mass at most
    ``D - 2 min_l``, which bounds the sum of the ``s-1`` largest parts.
    """
    cap = D - 2 * min_l
    if cap < 1:
        return []
    return [
        p
        for p in _partitions(D, cap, (1 << s) - 1)
        if len(p) >= s and sum(p[: s - 1]) <= cap
    ]


def distributions_for_square_sum(s, D, min_l, sum_sq):
    """Distributions whose quadratic moment ``sum (D - 4l)^2`` over all
    characters is ``2^s sum_sq - D^2`` and whose cubic moment is a
    nonnegative integer."""
    n_chars = (1 << s) - 1
    excess_total = (1 << (s - 2)) * D - n_chars * min_l
    cap = D // 2 - min_l
    if excess_total < 0 or cap < 0:
        return []
    out = []
    for part in _partitions(excess_total, cap, n_chars):
        counts = {}
        for t in part:
            counts[min_l + t] = counts.get(min_l + t, 0) + 1
        counts[min_l] = counts.get(min_l, 0) + n_chars - len(part)
        quad = sum(n * (D - 4 * lv) ** 2 for lv, n in counts.items())
        if quad != (1 << s) * sum_sq - D * D:
            continue
        cubic_num = D**3 + sum(n * (D - 4 * lv) ** 3 for lv, n in counts.items())
        if cubic_num < 0 or cubic_num % (1 << s):
            continue
        out.append(DistributionCounts(s, D, min_l, tuple(sorted(counts.items()))))
    return out


def distributions_by_profile(s, D, min_l):
    """Every distribution reached from some profile's square sum."""
    sums = sorted({sum(v * v for v in p) for p in m_profiles(s, D, min_l)})
    return [dist for sq in sums for dist in distributions_for_square_sum(s, D, min_l, sq)]
