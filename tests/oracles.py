"""Independent oracles: one naive definition for each fact the library computes.

Each function computes its fact by the most direct loop over the defining
formula, cited in its docstring, on plain values, and imports nothing from
``z2cover``.  A function on ``(Z/2)^s`` is a sequence of length ``2^s``
indexed by element, bit ``i`` of an element or character is coordinate
``i``, and ``chi.g`` is the parity of ``chi & g``.  A fact has a second
oracle only where the first cannot reach a test's inputs, as its docstring
says.  A rewrite's new tests compare with this module and copy no parent.
"""

import json
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import gcd, lcm, prod
from operator import itemgetter


def walsh_spectrum(d):
    """``S(chi) = sum_x d(x) (-1)^(chi.x)`` for every character: the
    defining sum, quadratic in ``2^s``."""
    return [sum(-v if (chi & x).bit_count() & 1 else v for x, v in enumerate(d))
            for chi in range(len(d))]


def xor_convolution(f, g):
    """``(f * g)(z) = sum_{x ^ y = z} f(x) g(y)``, whose spectrum is the
    pointwise product of the spectra of ``f`` and ``g``."""
    out = [0] * len(f)
    for x, u in enumerate(f):
        for y, v in enumerate(g):
            out[x ^ y] += u * v
    return out


def walsh_butterfly(d):
    """The spectrum by the textbook butterfly, one pair at a time: a second
    oracle, for rank 16, where the defining sum takes ``4^16`` steps;
    ``test_forward_matches_naive`` checks the two agree at ranks 1-8."""
    out = list(d)
    h = 1
    while h < len(out):
        for start in range(0, len(out), 2 * h):
            for i in range(start, start + h):
                out[i], out[i + h] = out[i] + out[i + h], out[i] - out[i + h]
        h *= 2
    return out


def parity_vector(d):
    """The XOR of the elements where ``d`` is odd: the parity of
    ``sum_{chi.g = 1} d(g)`` is ``chi`` paired with it, so every such sum
    is even iff it is 0."""
    acc = 0
    for g, value in enumerate(d):
        if value & 1:
            acc ^= g
    return acc


def eigensheaf_degrees(d):
    """``l(chi) = (1/2) sum_{chi.g = 1} d(g)`` as Fractions: the building
    data ``2 L_chi = sum_{chi(g) = 1} D_g`` of a ``(Z/2)^s`` cover (Pardini,
    "Abelian covers of algebraic varieties", 1991)."""
    support = [(g, v) for g, v in enumerate(d) if v]
    return tuple(Fraction(sum(v for g, v in support if (chi & g).bit_count() & 1), 2)
                 for chi in range(len(d)))


def zero_sum_triple_mass(d):
    """``sum d_p d_q d_r`` over the sets ``{p, q, r}`` of nonzero elements
    with ``p ^ q ^ r = 0``, the third counted from each pair ``p < q`` when
    it exceeds ``q``; over ``prod(a)``, the triple points of the branch
    divisor on ``P(a)`` (Bezout)."""
    support = [g for g in range(1, len(d)) if d[g]]
    acc = 0
    for i, p in enumerate(support):
        for q in support[i + 1:]:
            if p ^ q > q:
                acc += d[p] * d[q] * d[p ^ q]
    return acc


def closure(d, perms):
    """Every ``g -> d(p(g))`` for ``p`` in the group the index maps
    ``perms`` generate, found by closing ``{d}`` under them."""
    acts = [itemgetter(*p) for p in perms]
    start = tuple(d)
    orbit, frontier = {start}, [start]
    while frontier:
        cur = frontier.pop()
        for act in acts:
            nxt = act(cur)
            if nxt not in orbit:
                orbit.add(nxt)
                frontier.append(nxt)
    return orbit


_GROUP = {}  # rank -> every element of GL_s(F_2), as item getters


def gl_orbit(d):
    """``{g -> d(A g) : A in GL_s(F_2)}``, generated by the coordinate swaps
    and transvections ``e_i -> e_i + e_j`` (Gaussian elimination).  Up to
    rank 4 the group is found once, as the orbit of ``g -> g``
    (``|GL_4| = 20160``), and applied to ``d``; from rank 5
    (``|GL_5| = 9,999,360``) ``d`` is closed under the generators, at its
    orbit's size times ``s^2``."""
    d = tuple(d)
    s = len(d).bit_length() - 1
    n = 1 << s
    if s < 2:
        return {d}
    if s > 4 or s not in _GROUP:
        gens = []
        for i in range(s):
            for j in range(s):
                if i != j:
                    gens.append([g ^ (((g >> i) & 1) << j) for g in range(n)])
                if i < j:
                    flip = (1 << i) | (1 << j)
                    gens.append([g ^ flip if ((g >> i) ^ (g >> j)) & 1 else g for g in range(n)])
        if s > 4:
            return closure(d, gens)
        _GROUP[s] = [itemgetter(*p) for p in closure(range(n), gens)]
    return {act(d) for act in _GROUP[s]}


def canonical_form(d):
    """The least relabeling ``min gl_orbit(d)``: two functions are
    GL_s-equivalent iff their canonical forms are equal."""
    return min(gl_orbit(d))


def canonical_forms(funcs):
    """The sorted canonical forms of ``funcs``, without repeats; each orbit
    is closed once."""
    left = {tuple(f) for f in funcs}
    reps = []
    while left:
        orbit = gl_orbit(left.pop())
        left -= orbit
        reps.append(min(orbit))
    return sorted(reps)


def well_formed(a):
    """Every three of the four weights are coprime."""
    return all(gcd(*(a[:i] + a[i + 1:])) == 1 for i in range(4))


def monomial_counts(weights, limit):
    """``N(n)``, the monomials of weighted degree ``n``, for ``n = 0..limit``:
    the coefficients of ``prod 1/(1 - t^a)`` (Sylvester's denumerant; Beck
    and Robins, "Computing the Continuous Discretely", ch. 1)."""
    coeffs = [1] + [0] * limit
    for a in weights:
        for n in range(a, limit + 1):
            coeffs[n] += coeffs[n - a]
    return coeffs


def holomorphic_euler(weights, d):
    """``chi(O_X) = sum_chi chi(O(-l(chi)))``, as ``pi_* O_X`` is the sum of
    the ``L_chi^{-1}`` (Pardini), with ``chi(O(n)) = N(n) - N(-n - W)`` on
    ``P(a)`` by Serre duality, ``K = O(-W)``.  Every ``l`` must be integral."""
    l = eigensheaf_degrees(d)
    assert all(v.denominator == 1 for v in l)
    W = sum(weights)
    N = monomial_counts(weights, int(max(l)) - W)
    return sum((v == 0) - (N[int(v) - W] if v >= W else 0) for v in l)


def topological_euler(weights, d):
    """``e(X)`` by inclusion-exclusion over the branch strata, ``2^(s-k)``
    points of ``X`` over a point on ``k`` components:
    ``e = 2^s (4 - sum e(B_p)/2 + sum e(B_p B_q)/4 - #triple points/8)``
    with ``e(B_p) = d_p (d_p^2 - W d_p + sigma_2(a)) / A``,
    ``e(B_p B_q) = d_p d_q (W - d_p - d_q) / A`` and ``d_p d_q d_r / A``
    triple points, zero-sum triples left out (they meet over the 4-fold
    points)."""
    a = sorted(weights)
    A, W = prod(a), sum(a)
    sigma2 = sum(a[i] * a[j] for i in range(4) for j in range(i + 1, 4))
    n = len(d)
    support = [v for v in d if v]
    singles = sum(v * (v * v - v * W + sigma2) for v in support)
    pairs = sum(p * q * (W - p - q) for p, q in combinations(support, 2))
    triples = sum(p * q * r for p, q, r in combinations(support, 3))
    triples -= zero_sum_triple_mass(d)
    return 4 * n - Fraction(n * (4 * singles - 2 * pairs + triples), 8 * A)


def chern_invariants(weights, d):
    """``(K^3, chi, e, x, y, SCI)``: ``K_X`` pulls back
    ``K_P + (1/2) sum D_g`` (Hurwitz), so ``K^3 = 2^s (D/2 - W)^3 / A``;
    ``x = e / (24 chi)``, ``y = -K^3 / (24 chi)``, ``SCI = y (3x + 1) - 4``,
    all three ``None`` at ``chi = 0``."""
    k3 = Fraction(len(d) * (sum(d) - 2 * sum(weights)) ** 3, 8 * prod(weights))
    chi = holomorphic_euler(weights, d)
    e = topological_euler(weights, d)
    if not chi:
        return k3, chi, e, None, None, None
    x, y = e / (24 * chi), -k3 / (24 * chi)
    return k3, chi, e, x, y, y * (3 * x + 1) - 4


def largest_admissible_m(weights, d):
    """The largest ``m`` whose m-canonical map is the flat one, or ``None``:
    ``M = m (D/2 - W)`` a positive multiple of ``L = lcm(a)`` and
    ``N(M - l(chi)) = 0`` for every ``chi != 0``, with integral ``l``.  Past
    ``max(l) + 4 max(a)^2`` every ``M - l`` exceeds the Frobenius number of
    the weights and is effective, so the search stops there."""
    l = eigensheaf_degrees(d)
    excess = Fraction(sum(d), 2) - sum(weights)
    if excess <= 0 or any(v.denominator != 1 for v in l):
        return None
    L, top = lcm(*weights), int(max(l)) + 4 * max(weights) ** 2
    N = monomial_counts(weights, top)
    best = None
    for m in range(1, int(top / excess) + 1):
        M = m * excess
        if M.denominator == 1 and M % L == 0 and all(
                M < v or N[int(M - v)] == 0 for v in l[1:]):
            best = m
    return best


def geography_point(r):
    """``(s, a, b, T, phi, x, y, SCI)`` of the ratio vector ``r / sum(r)``:
    ``a = sum r^3``, ``b = sum r^2``, ``T`` six times the zero-sum triple
    mass, ``phi = (8 / 2^s) sum_chi m(chi)^3`` over the hyperplane masses
    ``m(chi) = sum_{chi.g = 1} r_g``, and the paper's limit ratios
    ``y = 2 / phi``, ``x = (14a + 6b + phi) / (3 phi)``,
    ``SCI = y (3x + 1) - 4``; the sums in integers over a common denominator."""
    n = len(r)
    scale = lcm(*(Fraction(v).denominator for v in r))
    w = [int(Fraction(v) * scale) for v in r]
    total = sum(w)
    support = [(g, v) for g, v in enumerate(w) if v]
    cubes = sum(sum(v for g, v in support if (chi & g).bit_count() & 1) ** 3
                for chi in range(1, n))
    a = Fraction(sum(v**3 for v in w), total**3)
    b = Fraction(sum(v * v for v in w), total**2)
    phi = Fraction(8 * cubes, n * total**3)
    x, y = (14 * a + 6 * b + phi) / (3 * phi), 2 / phi
    return (n.bit_length() - 1, a, b, Fraction(6 * zero_sum_triple_mass(w), total**3),
            phi, x, y, y * (3 * x + 1) - 4)


def random_ratio_weights(s, rng):
    """The weights ``random_ratio`` draws: ``[0]`` and one
    ``rng.randint(0, 9)`` per nonzero element, drawn again while all are 0."""
    while True:
        picks = [rng.randint(0, 9) for _ in range((1 << s) - 1)]
        if any(picks):
            return [0] + picks


def partitions(total, max_part, max_parts):
    """Nonincreasing tuples of at most ``max_parts`` parts in
    ``1..max_part`` summing to ``total``, the largest first part first."""
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in partitions(total - first, first, max_parts - 1):
            yield (first,) + rest


def branch_profiles(s, D, min_l):
    """The multisets of positive branch degrees of a rank-``s`` cover of
    total ``D`` with every ``l(chi != 0) >= min_l``: the support spans the
    group (``s`` to ``2^s - 1`` parts), and any ``s - 1`` of its elements
    lie in a hyperplane ``chi.g = 0``, off which ``2 l(chi)`` lies, so they
    sum to at most ``D - 2 min_l``."""
    cap = D - 2 * min_l
    if cap < 1:
        return []
    return [p for p in partitions(D, cap, (1 << s) - 1)
            if len(p) >= s and sum(p[: s - 1]) <= cap]


def degree_distributions(s, D, base):
    """The multisets ``(s, D, base, counts)`` of nontrivial eigensheaf
    degrees, as sorted ``(value, multiplicity)`` pairs, with the moments of
    a spectrum ``S(chi) = D - 4 l(chi)``: degrees in ``base..D/2`` summing to
    ``2^(s-2) D``; ``D^2 + sum (D - 4l)^2 = 2^s sum d^2`` (Parseval) for a
    :func:`branch_profiles` profile ``d``; and ``D^3 + sum (D - 4l)^3``,
    ``2^s`` times the ordered zero-sum triples, in ``2^s N``."""
    n = 1 << s
    square_sums = {sum(v * v for v in p) for p in branch_profiles(s, D, base)}
    excess = (n >> 2) * D - (n - 1) * base
    cap = D // 2 - base
    if excess < 0 or cap < 0:
        return []
    out = []
    for part in partitions(excess, cap, n - 1):
        counts = {base: n - 1 - len(part)}
        for t in part:
            counts[base + t] = counts.get(base + t, 0) + 1
        quad = D * D + sum(c * (D - 4 * v) ** 2 for v, c in counts.items())
        cubic = D**3 + sum(c * (D - 4 * v) ** 3 for v, c in counts.items())
        if quad % n == 0 and quad // n in square_sums and cubic >= 0 and cubic % n == 0:
            out.append((s, D, base, tuple(sorted(counts.items()))))
    return out


def realizations(s, D, counts, up_to_gl=False):
    """Branch functions of total ``D`` whose nontrivial eigensheaf degrees
    have the ``(value, multiplicity)`` pairs ``counts``.  Every placement of
    the values on the characters is inverted by the half-sum relation,
    ``d(x) = (2 sum_{chi.x = 1} l(chi) - 2^(s-2) D) / 2^(s-2)`` for
    ``x != 0``, and kept when nonnegative and integral; the most frequent
    value is the base the others are placed against.

    With ``up_to_gl`` a least frequent class of one or two characters is
    placed on ``(1,)`` or ``(1, 2)`` only, as ``GL_s(F_2)`` is 2-transitive
    on the nonzero characters: a second oracle, for rank 16, where two
    characters have ``2 * 10^9`` placements;
    ``test_pruned_search_matches_full_placement_oracle`` checks the two
    agree at ranks 2-4."""
    n = 1 << s
    quarter = n >> 2
    mult = {v: c for v, c in counts if c}
    base = max(mult, key=lambda v: (mult[v], v))
    values = sorted((v for v in mult if v != base), key=lambda v: (mult[v], v))
    const = n * base - quarter * D  # 2 sum_{chi.x = 1} base - 2^(s-2) D

    def place(vi, avail, placed):
        if vi == len(values):
            yield placed
            return
        c = mult[values[vi]]
        combos = [avail[:c]] if up_to_gl and vi == 0 and c <= 2 else combinations(avail, c)
        for combo in combos:
            yield from place(vi + 1, tuple(x for x in avail if x not in combo),
                             placed + [(chi, values[vi] - base) for chi in combo])

    for placed in place(0, tuple(range(1, n)), []):
        d = [0] * n
        for x in range(1, n):
            num = const + 2 * sum(e for chi, e in placed if (chi & x).bit_count() & 1)
            if num < 0 or num % quarter:
                break
            d[x] = num // quarter
        else:
            assert sum(d) == D
            yield tuple(d)


def lifts(parent):
    """Every function on ``(Z/2)^(s+1)`` projecting to ``parent`` along the
    new coordinate: each ``parent(g)`` split as ``(parent(g) - u, u)``
    between ``g`` and ``g + e_s``, in lexicographic order of the ``u``."""
    half = len(parent)
    support = [g for g in range(1, half) if parent[g]]
    out = []
    for ups in product(*(range(parent[g] + 1) for g in support)):
        d = [0] * (2 * half)
        for g, up in zip(support, ups):
            d[g], d[g | half] = parent[g] - up, up
        out.append(tuple(d))
    return out


def unit_fraction_quadruples(target):
    """Nondecreasing quadruples ``b`` with ``sum 1/b = target``, in
    lexicographic order: with ``k`` parts left to reach ``rho``, the next
    is at least the previous one and ``1/rho``, and ``k/b >= rho``."""
    out = []

    def rec(prefix, rho):
        slots = 4 - len(prefix)
        if slots == 0 or rho <= 0:
            if slots == 0 and rho == 0:
                out.append(prefix)
            return
        lo = max(prefix[-1] if prefix else 1, -(-rho.denominator // rho.numerator))
        for b in range(lo, slots * rho.denominator // rho.numerator + 1):
            rec(prefix + (b,), rho - Fraction(1, b))

    rec((), Fraction(target))
    return out


@cache
def weights_with_ratio(target):
    """The well-formed sorted weights ``a`` with ``W/L = target``,
    ``L = lcm(a)``: ``b = L/a`` has ``sum 1/b = W/L``, so each quadruple
    ``b`` gives ``a = lcm(b)/b``, kept when its ``W/L`` is ``target``.  A
    tuple in the order of the quadruples, kept per target."""
    out = []
    for quad in unit_fraction_quadruples(target):
        a = tuple(sorted(lcm(*quad) // b for b in quad))
        if Fraction(sum(a), lcm(*a)) == target and well_formed(a):
            out.append(a)
    return tuple(out)


def s1_windows(m):
    """``(c/m, t_min, t_sup)`` of the rank-1 targets with a window, by
    increasing ``c``: every ``c = 1..4m`` is scanned, and the window
    ``c/m < t``, for ``m >= 2`` also ``t < m/(m-1) * c/m``, is kept when
    an integer lies in it; ``t_min`` is the least such integer and
    ``t_sup`` (``None`` for ``m = 1``) the least one above it."""
    windows = []
    for c in range(1, 4 * m + 1):
        target = Fraction(c, m)
        t_min = int(target) + 1
        if m == 1:
            windows.append((target, t_min, None))
            continue
        upper = m * target / (m - 1)
        t_sup = -(-upper.numerator // upper.denominator)
        if t_min < t_sup:
            windows.append((target, t_min, t_sup))
    return windows


def rank_one_towers(m, t_max=None):
    """``(weights, t_min, t_sup)`` of the rank-1 towers for ``m``, ``t_sup``
    exclusive or ``None``.  A double cover branched in degree ``2Lt`` is
    m-canonical when ``M = m(Lt - W)`` is a positive multiple of ``L`` below
    the twisted degree ``Lt``: ``W/L = c/m``, ``c = 1..4m`` (each
    ``a <= L``), ``t`` in the window of ``s1_windows(m)`` and, for
    ``m >= 2``, ``m - 1 | 2W``.  Every windowed target is searched,
    ``t <= t_max`` kept; sorted by decreasing ``W/L``, then weights."""
    towers = []
    for target, t_min, t_sup in s1_windows(m):
        for a in weights_with_ratio(target):
            if m > 1 and 2 * sum(a) % (m - 1):
                continue
            top = t_sup
            if t_max is not None and (top is None or top > t_max + 1):
                top = t_max + 1
            if top is None or t_min < top:
                towers.append((a, t_min, top))
    return sorted(towers, key=lambda x: (-Fraction(sum(x[0]), lcm(*x[0])), x[0]))


def failing_pairs(s, d, l):
    """The ``(g, chi)``, characters ascending, then elements, that break
    the deformation criterion ``d(g) < l(chi)``: ``d(g) > 0`` and
    ``chi != 0`` vanishing on ``g``."""
    n = 1 << s
    return [(g, chi) for chi in range(1, n) for g in range(1, n)
            if d[g] > 0 and d[g] >= l[chi] and not (chi & g).bit_count() & 1]


def load_cover(text):
    """``(sorted weights, s, d)`` of a cover file, or ``ValueError`` with
    the format's message.  The file is a JSON object, no key repeated in any
    object, mapping length-``s`` bit strings, bit 0 first, to degrees (0
    when omitted); the keys are checked in file order, then the degrees in
    element order: each an ``int``, not ``bool``, nonnegative, 0 at the
    identity and not all 0."""

    def unique(pairs):
        keys = [key for key, _ in pairs]
        for key in keys:
            if keys.count(key) > 1:
                raise ValueError(f"duplicate key {key!r}")
        return dict(pairs)

    try:
        payload = json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    s = payload["s"]
    d = [0] * (1 << s)
    for key, value in payload["d"].items():
        if len(key) != s or set(key) - {"0", "1"}:
            raise ValueError(f"bad group element {key!r} for rank {s}")
        d[sum(1 << i for i, bit in enumerate(key) if bit == "1")] = value
    for g, v in enumerate(d):
        if type(v) is not int or v < 0:
            key = "".join(str((g >> i) & 1) for i in range(s))
            raise ValueError(f"bad degree {v!r} at {key!r}")
    if d[0]:
        raise ValueError("the identity must carry degree 0")
    if not any(d):
        raise ValueError("at least one branch degree must be positive")
    return tuple(sorted(payload["weights"])), s, tuple(d)
