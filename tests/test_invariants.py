"""Cover invariants and the exact Chern-ratio geography."""

import random
from fractions import Fraction
from math import lcm

import pytest

from z2cover import walsh
from z2cover.cover import BranchData, CoverSpec, eigensheaf_degrees
from z2cover.gf2 import dot, parity_vector
from z2cover.invariants import (
    SCI_MAX,
    SCI_MIN,
    Y_MIN,
    GeographyPoint,
    barycenter_ratio,
    geography_point,
    holomorphic_euler,
    hunt_scan,
    invariant_report,
    random_ratio,
    topological_euler,
    vertex_ratio,
    volume,
)
from z2cover.wps import Weights, euler_char_line


def cover(weights, d):
    s = (len(d)).bit_length() - 1
    return CoverSpec(Weights(weights), BranchData(s, tuple(d)))


# Double covers of P^3 branched in a single surface of degree 2t:
# classical textbook values pin the three closed formulas at once.
def test_double_cover_of_p3_low_degree():
    spec = cover((1, 1, 1, 1), (0, 2))
    assert volume(spec) == -54
    assert holomorphic_euler(spec) == 1
    e, exact = topological_euler(spec)
    assert exact and e == 4


def test_double_cover_of_p3_general_type():
    spec = cover((1, 1, 1, 1), (0, 10))
    assert volume(spec) == 2
    assert holomorphic_euler(spec) == -3
    e, exact = topological_euler(spec)
    assert exact and e == -652


def test_bidouble_cover_triple_planes():
    spec = cover((1, 1, 1, 1), (0, 3, 3, 3))
    assert volume(spec) == Fraction(1, 2)
    assert holomorphic_euler(spec) == 1
    e, exact = topological_euler(spec)
    assert exact and e == -92


def test_euler_not_certified_off_p3():
    _, exact = topological_euler(cover((1, 1, 2, 2), (0, 4, 4, 8)))
    assert not exact


def test_invariant_report_fields():
    rep = invariant_report(cover((1, 1, 1, 1), (0, 3, 3, 3)))
    assert (rep.k3, rep.chi, rep.euler) == (Fraction(1, 2), 1, -92)
    assert rep.euler_exact and rep.flat
    assert rep.hurwitz == Fraction(1, 2)
    assert rep.half_points == 27
    assert rep.x == Fraction(-92, 24)
    assert rep.y == Fraction(-1, 48)
    assert rep.sci == rep.y * (3 * rep.x + 1) - 4


def test_invariant_report_chi_zero_leaves_geography_empty():
    # degree-8 double solid: chi = 0, so the ratios are undefined
    spec = cover((1, 1, 1, 1), (0, 8))
    rep = invariant_report(spec)
    assert rep.chi == 0
    assert rep.x is None and rep.y is None and rep.sci is None


def test_vertex_and_barycenter():
    assert vertex_ratio(3).d == (0, 1, 0, 0, 0, 0, 0, 0)
    assert barycenter_ratio(2).d == (0, 1, 1, 1)
    with pytest.raises(ValueError):
        vertex_ratio(2, 4)


def test_geography_is_scale_invariant():
    # every field is a quotient of integer sums of equal degree in the
    # weights, so the point depends only on the ray through them
    rng = random.Random(6)
    for _ in range(120):
        s = rng.randint(1, 6)
        w = [0] + [rng.randint(0, 9) for _ in range((1 << s) - 1)]
        if not any(w):
            w[rng.randrange(1, 1 << s)] = 1
        c = rng.randint(2, 7)
        assert geography_point(BranchData(s, w)) == geography_point(
            BranchData(s, [c * v for v in w])
        )


def random_ratio_by_randint(s, rng):
    """The draw ``random_ratio`` must reproduce: one ``randint(0, 9)`` per weight."""
    while True:
        picks = [rng.randint(0, 9) for _ in range((1 << s) - 1)]
        if any(picks):
            return BranchData(s, [0] + picks)


@pytest.mark.parametrize("s", range(1, 9))
def test_random_ratio_draws_as_randint(s):
    # at s = 1 a tenth of the draws are all zero and drawn again
    for k in range(200):
        rng, ref = random.Random(f"{s}:{k}"), random.Random(f"{s}:{k}")
        got = [random_ratio(s, rng) for _ in range(3)]
        assert got == [random_ratio_by_randint(s, ref) for _ in range(3)]
        assert rng.getstate() == ref.getstate()


def test_vertex_geography_is_rank_free():
    # a single-component branch divisor behaves like a double cover; the
    # vertex attains the least index at every rank `geography extremes` serves
    for s in range(2, 9):
        p = geography_point(vertex_ratio(s))
        assert (p.x, p.y, p.sci) == (2, Fraction(1, 2), Fraction(-1, 2))
        assert p.sci == SCI_MIN


def test_barycenter_y_values():
    # y at the barycenter: 2 - 2^(2-s) + 2^(1-2s)
    expected = {
        2: Fraction(9, 8),
        3: Fraction(49, 32),
        4: Fraction(225, 128),
        5: Fraction(961, 512),
        6: Fraction(3969, 2048),
    }
    for s, want in expected.items():
        p = geography_point(barycenter_ratio(s))
        assert p.y == want
        assert p.y == 2 - Fraction(4, 1 << s) + Fraction(1, 1 << (2 * s - 1))
    # the largest index ever sampled: a support spanning a rank-2 subgroup
    assert geography_point(barycenter_ratio(2)).sci == Fraction(1, 2)


def test_geography_moment_identity_random():
    rng = random.Random(77)
    for s in (2, 3, 4):
        n = 1 << s
        for _ in range(25):
            masses = [rng.randrange(0, 5) for _ in range(n - 1)]
            if not any(masses):
                continue
            p = geography_point(BranchData(s, [0] + masses))
            # the identity phi = 3b - T + 1 is asserted inside; check ranges
            assert SCI_MIN <= p.sci <= SCI_MAX
            assert p.y >= Y_MIN
            assert p.phi > 0


@pytest.mark.parametrize("s", range(3, 9))
def test_hunt_scan_at_full_mass_is_the_vertex(s):
    assert hunt_scan(s, 1)[1] == geography_point(vertex_ratio(s))


def _random_cover(rng):
    s = rng.randint(1, 6)
    n = 1 << s
    d = [0] + [rng.choice((0, 0, 1, 2, 3, 4, 5)) for _ in range(n - 1)]
    if not any(d):
        d[rng.randrange(1, n)] = 1
    return cover([rng.randint(1, 5) for _ in range(4)], d)


def _euler_by_strata(spec):
    """Reference Euler number: explicit loops over pairs and triples."""
    d = spec.branch.d
    n = len(d)
    a, A, W = spec.weights.a, spec.weights.A, spec.weights.W
    sigma2 = sum(a[i] * a[j] for i in range(4) for j in range(i + 1, 4))
    singles = sum(Fraction(dp * (dp * dp - dp * W + sigma2), A) for dp in d if dp)
    pairs = triples = 0
    for p in range(1, n):
        for q in range(p + 1, n):
            pairs += d[p] * d[q] * (W - d[p] - d[q])
            for r in range(q + 1, n):
                if p ^ q ^ r:
                    triples += d[p] * d[q] * d[r]
    return (
        4 * n
        - Fraction(n, 2) * singles
        + Fraction(n, 4) * Fraction(pairs, A)
        - Fraction(n, 8) * Fraction(triples, A)
    )


def test_topological_euler_matches_stratum_loops():
    rng = random.Random(2024)
    for _ in range(300):
        spec = _random_cover(rng)
        e, exact = topological_euler(spec)
        assert e == _euler_by_strata(spec)
        assert exact == (spec.weights.a == (1, 1, 1, 1))


def _holomorphic_by_characters(spec):
    """Reference chi(O): one line-bundle term per character."""
    return sum(euler_char_line(spec.weights, -lv) for lv in eigensheaf_degrees(spec.branch))


def test_holomorphic_euler_matches_character_loop():
    rng = random.Random(3031)
    for _ in range(240):
        spec = _random_cover(rng)
        d = list(spec.branch.d)
        # make every eigensheaf degree integral: adding 1 at g toggles g in
        # the XOR of the odd-valued elements
        odd = parity_vector(d)
        if odd:
            d[odd] += 1
        spec = cover(spec.weights.a, d)
        assert holomorphic_euler(spec) == _holomorphic_by_characters(spec)


def _geography_by_characters(r):
    """Reference moments: ``a``, ``b``, ordered zero-sum triples and ``phi``, the
    cubed hyperplane masses times ``8 / 2^s``."""
    n = len(r)
    a = sum(v**3 for v in r)
    b = sum(v**2 for v in r)
    t3 = Fraction(0)
    for p in range(1, n):
        for q in range(p + 1, n):
            if p ^ q > q:
                t3 += r[p] * r[q] * r[p ^ q]
    q = sum(sum(r[g] for g in range(1, n) if dot(chi, g)) ** 3 for chi in range(1, n))
    return a, b, 6 * t3, Fraction(8, n) * q


def _unlike_denominator_weights(rng, n):
    """Masses with unlike denominators, and the same point as integer weights."""
    masses = [Fraction(rng.choice((0, 0, 1, 2, 3, 5)), rng.randint(1, 7)) for _ in range(n - 1)]
    if not any(masses):
        masses[rng.randrange(n - 1)] = Fraction(1)
    scale = lcm(*(m.denominator for m in masses))
    total = sum(masses)
    r = (Fraction(0),) + tuple(m / total for m in masses)
    return r, [0] + [int(m * scale) for m in masses]


def test_geography_matches_character_loops():
    rng = random.Random(4048)
    for _ in range(300):
        s = rng.randint(1, 6)
        r, w = _unlike_denominator_weights(rng, 1 << s)
        assert tuple(Fraction(v, sum(w)) for v in w) == r
        p = geography_point(BranchData(s, w))
        assert (p.a, p.b, p.zero_sum_triples, p.phi) == _geography_by_characters(r)


def _geography_by_fractions(s, r):
    """Reference point: Fraction moments over the lcm of the denominators of ``r``."""
    n = 1 << s
    delta = lcm(*(v.denominator for v in r))
    num = [v.numerator * (delta // v.denominator) for v in r]
    spectrum = walsh.forward(num)
    s0 = spectrum[0]
    a = Fraction(sum(v**3 for v in num), delta**3)
    b = Fraction(sum(v * v for v in num), delta**2)
    t3 = Fraction(sum(v**3 for v in spectrum), n * delta**3)
    q = Fraction(sum((s0 - sc) ** 3 for sc in spectrum), 8 * delta**3)
    phi = Fraction(8, n) * q
    assert phi == 3 * b - t3 + 1
    y = 2 / phi
    x = (14 * a + 6 * b + phi) / (3 * phi)
    sci = y * (3 * x + 1) - 4
    return GeographyPoint(s=s, a=a, b=b, zero_sum_triples=t3, phi=phi, x=x, y=y, sci=sci)


def test_geography_integer_weights_match_fraction_reference():
    rng = random.Random(5150)
    # 3 kinds cycled against 8 ranks: every rank meets every kind
    for i in range(300):
        s = 1 + i % 8
        n = 1 << s
        kind = ("picks", "unlike", "vertex")[i % 3]
        if kind == "picks":
            w = [0] + [rng.randint(0, 9) for _ in range(n - 1)]
            if not any(w):
                w[rng.randrange(1, n)] = 1
            total = sum(w)
            r = tuple(Fraction(v, total) for v in w)
        elif kind == "unlike":
            r, w = _unlike_denominator_weights(rng, n)
        else:
            g = rng.randrange(1, n)
            w = [0] * n
            w[g] = rng.randint(1, 5)
            r = tuple(Fraction(int(x == g)) for x in range(n))
        point = geography_point(BranchData(s, w))
        assert point == _geography_by_fractions(s, r)
        assert all(type(v) is Fraction for v in point[1:])


def test_geography_limit_matches_large_covers():
    # blowing up the branch degree drives (x, y) to the ratio-vector point
    ratio = barycenter_ratio(2)
    target = geography_point(ratio)
    prev = None
    for t in (30, 60, 120):
        spec = cover((1, 1, 1, 1), (0, t, t, t))
        rep = invariant_report(spec)
        gap = abs(rep.y - target.y) + abs(rep.x - target.x)
        if prev is not None:
            assert gap < prev / 2  # better than linear convergence in 1/t
        prev = gap
    # on P^3, e, chi and K^3 of the cover 2t d are cubics in t, so their
    # third forward differences over t = 1..4 are six times the leading
    # coefficients, whose ratios are the limit point exactly
    rng = random.Random(1993)
    for i in range(40):
        s = 2 + i % 5
        n = 1 << s
        d = [0] + [rng.choice((0, 0, 1, 2, 3, 5, 8)) for _ in range(n - 1)]
        if not any(d):
            d[rng.randrange(1, n)] = 1
        e, chi, k3 = [], [], []
        for t in range(1, 5):
            spec = cover((1, 1, 1, 1), [2 * t * v for v in d])
            e.append(topological_euler(spec)[0])
            chi.append(holomorphic_euler(spec))
            k3.append(volume(spec))
        de, dchi, dk3 = (f[3] - 3 * f[2] + 3 * f[1] - f[0] for f in (e, chi, k3))
        point = geography_point(BranchData(s, d))
        assert (point.x, point.y) == (de / (24 * dchi), -dk3 / (24 * dchi)), d


def test_hunt_scan_window_values():
    # frozen scan of the four-point hunt family (rank 3)
    expect = {
        Fraction(1, 2): Fraction(-1, 36),
        Fraction(11, 20): Fraction(17, 5000),
        Fraction(3, 5): Fraction(136, 5625),
        Fraction(13, 20): Fraction(1063, 45000),
        Fraction(17, 25): Fraction(26726, 3515625),
    }
    for t, want in expect.items():
        f, point = hunt_scan(3, t)
        assert f == want
        assert point.zero_sum_triples == 0
        assert 4 * f == point.sci * point.phi**2


def test_hunt_scan_left_endpoint_is_negative():
    # F < 0 at t = 1/2: the positivity window opens strictly afterwards
    f, point = hunt_scan(3, Fraction(1, 2))
    assert f == Fraction(-1, 36)
    assert point.sci < 0


def test_hunt_scan_interior_positive():
    for t in (Fraction(11, 20), Fraction(3, 5), Fraction(13, 20), Fraction(17, 25)):
        f, point = hunt_scan(3, t)
        assert f > 0
        assert point.sci > 0


def test_hunt_scan_sci_formula():
    f, point = hunt_scan(3, Fraction(3, 5))
    assert point.sci == Fraction(17, 882)
    f1, p1 = hunt_scan(3, 1)
    assert f1 == -2 and p1.sci == Fraction(-1, 2)


def test_hunt_scan_domain():
    with pytest.raises(ValueError):
        hunt_scan(2, Fraction(1, 2))
    with pytest.raises(ValueError):
        hunt_scan(3, 0)
    with pytest.raises(ValueError):
        hunt_scan(3, Fraction(6, 5))
    # Fraction(0.6) is 5404319552844595/9007199254740992, not 3/5
    for t in (0.6, 1.0, True):
        with pytest.raises(ValueError, match="mass must be an int or a Fraction"):
            hunt_scan(3, t)


def test_hunt_scan_rank_dependence():
    # the same mass profile on larger groups stays zero-sum-free
    for s in (3, 4, 5):
        f, point = hunt_scan(s, Fraction(3, 5))
        assert point.zero_sum_triples == 0
        assert point.s == s
