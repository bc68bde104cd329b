"""Cover invariants and the exact Chern-ratio geography."""

import random
from fractions import Fraction
from math import lcm

import pytest

from z2cover.cover import BranchData, CoverSpec, zero_sum_triple_mass
from z2cover.invariants import (
    SCI_MAX,
    SCI_MIN,
    Y_MIN,
    barycenter_ratio,
    geography_coordinates,
    holomorphic_euler,
    hunt_scan,
    invariant_report,
    random_ratio,
    topological_euler,
    vertex_ratio,
    volume,
)
from z2cover.wps import Weights

import oracles
from oracles import parity_vector


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
    # each coordinate is a quotient of integer sums of equal degree in the
    # weights, so the point depends only on the ray through them
    rng = random.Random(6)
    for _ in range(120):
        s = rng.randint(1, 6)
        w = [0] + [rng.randint(0, 9) for _ in range((1 << s) - 1)]
        if not any(w):
            w[rng.randrange(1, 1 << s)] = 1
        c = rng.randint(2, 7)
        assert geography_coordinates(BranchData(s, w)) == geography_coordinates(
            BranchData(s, [c * v for v in w])
        )


@pytest.mark.parametrize("s", range(1, 9))
def test_random_ratio_draws_as_randint(s):
    # at s = 1 a tenth of the draws are all zero and drawn again
    for k in range(200):
        rng, ref = random.Random(f"{s}:{k}"), random.Random(f"{s}:{k}")
        got = [random_ratio(s, rng).d for _ in range(3)]
        assert got == [tuple(oracles.random_ratio_weights(s, ref)) for _ in range(3)]
        assert rng.getstate() == ref.getstate()


def test_vertex_geography_is_rank_free():
    # a single-component branch divisor behaves like a double cover; the
    # vertex attains the least index at every rank `geography extremes` serves
    for s in range(2, 9):
        x, y, sci = geography_coordinates(vertex_ratio(s))
        assert (x, y, sci) == (2, Fraction(1, 2), Fraction(-1, 2))
        assert sci == SCI_MIN


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
        _, y, _ = geography_coordinates(barycenter_ratio(s))
        assert y == want
        assert y == 2 - Fraction(4, 1 << s) + Fraction(1, 1 << (2 * s - 1))
    # the largest index ever sampled: a support spanning a rank-2 subgroup
    assert geography_coordinates(barycenter_ratio(2)) == (1, Fraction(9, 8), Fraction(1, 2))


def test_geography_moment_identity_random():
    rng = random.Random(77)
    for s in (2, 3, 4):
        n = 1 << s
        for _ in range(25):
            masses = [rng.randrange(0, 5) for _ in range(n - 1)]
            if not any(masses):
                continue
            x, y, sci = geography_coordinates(BranchData(s, [0] + masses))
            # the identity phi = 3b - T + 1 is asserted inside; check ranges,
            # and phi = 2 / y > 0
            assert SCI_MIN <= sci <= SCI_MAX
            assert y >= Y_MIN


@pytest.mark.parametrize("s", range(3, 9))
def test_hunt_scan_at_full_mass_is_the_vertex(s):
    assert hunt_scan(s, 1)[1] == geography_coordinates(vertex_ratio(s))


def _random_cover(rng):
    s = rng.randint(1, 6)
    n = 1 << s
    d = [0] + [rng.choice((0, 0, 1, 2, 3, 4, 5)) for _ in range(n - 1)]
    if not any(d):
        d[rng.randrange(1, n)] = 1
    return cover([rng.randint(1, 5) for _ in range(4)], d)


def _sparse_cover(rng, s, weights):
    """A cover of rank ``s`` with at most 16 branch components, every
    eigensheaf degree integral."""
    n = 1 << s
    d = [0] * n
    for g in rng.sample(range(1, n), rng.randint(1, min(n - 1, 16))):
        d[g] = rng.randint(1, 12)
    if parity_vector(d):
        d[parity_vector(d)] += 1
    return cover(weights, d)


BASES = [(1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 3), (1, 2, 3, 5), (2, 2, 3, 3)]


def test_topological_euler_matches_stratum_loops():
    rng = random.Random(2024)
    specs = [_random_cover(rng) for _ in range(300)]
    specs += [_sparse_cover(rng, s, a) for s in (7, 8) for a in BASES for _ in range(4)]
    for spec in specs:
        e, exact = topological_euler(spec)
        assert e == oracles.topological_euler(spec.weights.a, spec.branch.d)
        assert exact == (spec.weights.a == (1, 1, 1, 1))


def test_invariant_report_matches_fraction_chains():
    rng = random.Random(4047)
    specs = [_sparse_cover(rng, s, a) for s in range(1, 9) for a in BASES for _ in range(5)]
    # chi = 0 on P^3 and on weighted bases; chi < 0 on the degree-10 double solid
    specs += [cover((1, 1, 1, 1), (0, 8)), cover((1, 1, 1, 2), (0, 0, 0, 10)),
              cover((1, 1, 2, 3), (0, 0, 2, 12)), cover((1, 1, 1, 1), (0, 10))]
    signs = set()
    for spec in specs:
        rep = invariant_report(spec)
        assert rep.k3 == volume(spec)
        assert (rep.k3, rep.chi, rep.euler, rep.x, rep.y, rep.sci) == oracles.chern_invariants(
            spec.weights.a, spec.branch.d)
        signs.add((rep.chi > 0) - (rep.chi < 0))
    assert signs == {-1, 0, 1}


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
        assert holomorphic_euler(spec) == oracles.holomorphic_euler(spec.weights.a, d)


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
        assert geography_coordinates(BranchData(s, w)) == oracles.geography_point(r)[5:]


def test_geography_reads_the_kept_cube_sum():
    # the ordered triple sum is sum(S^3) / (2^s delta^3), and sum(S^3) is
    # 6 * 2^s times the unordered mass, whichever of the coordinates and the
    # mass is read first
    rng = random.Random(2718)
    for i in range(60):
        s = rng.randint(1, 8)
        w = [0] + [rng.randint(0, 9) for _ in range((1 << s) - 1)]
        if not any(w):
            continue
        branch = BranchData(s, w)
        if i % 2:
            mass = zero_sum_triple_mass(branch)
            coordinates = geography_coordinates(branch)
        else:
            coordinates = geography_coordinates(branch)
            mass = zero_sum_triple_mass(branch)
        point = oracles.geography_point([Fraction(v, sum(w)) for v in w])
        assert coordinates == point[5:]
        cubes = point[3] * (1 << s) * sum(w) ** 3
        assert cubes == branch.cube_sum == 6 * (1 << s) * mass
        assert cubes == sum(v**3 for v in oracles.walsh_spectrum(w))


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
        coordinates = geography_coordinates(BranchData(s, w))
        assert coordinates == oracles.geography_point(r)[5:]
        assert [type(v) for v in coordinates] == [Fraction] * 3


def test_geography_limit_matches_large_covers():
    # blowing up the branch degree drives (x, y) to the ratio-vector point
    ratio = barycenter_ratio(2)
    x, y, _ = geography_coordinates(ratio)
    prev = None
    for t in (30, 60, 120):
        spec = cover((1, 1, 1, 1), (0, t, t, t))
        rep = invariant_report(spec)
        gap = abs(rep.y - y) + abs(rep.x - x)
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
        x, y, _ = geography_coordinates(BranchData(s, d))
        assert (x, y) == (de / (24 * dchi), -dk3 / (24 * dchi)), d


@pytest.mark.parametrize("s", range(1, 9))
def test_geography_coordinates_are_the_points_last_three_fields(s):
    # the last three of the oracle's (s, a, b, T, phi, x, y, SCI)
    rng = random.Random(f"coordinates:{s}")
    for _ in range(20):
        branch = random_ratio(s, rng)
        coordinates = geography_coordinates(branch)
        total = sum(branch.d)
        assert coordinates == oracles.geography_point([Fraction(v, total) for v in branch.d])[5:]
        assert [type(v) for v in coordinates] == [Fraction] * 3


def _scan_ratio(s, t):
    """The scan family's dense ratio vector: ``t`` on element 1 and
    ``(1 - t) / (h - 1)`` on each other odd element, ``h = 2^(s-1)``."""
    h = 1 << (s - 1)
    r = [Fraction(0)] * (2 * h)
    r[3::2] = [(1 - t) / (h - 1)] * (h - 1)
    r[1] = t
    return r


@pytest.mark.parametrize("s", range(3, 13))
def test_hunt_scan_closed_form_matches_the_dense_vector(s):
    # the oracle's cost grows as 4^s on the dense vector, so ranks 11 and
    # 12 take three masses: below the rank-3 window, inside it and the vertex
    for i in range(1, 38) if s <= 10 else (20, 25, 37):
        t = Fraction(i, 37)
        f, coordinates = hunt_scan(s, t)
        _, a, b, triples, _, *point = oracles.geography_point(_scan_ratio(s, t))
        assert (coordinates, triples) == (tuple(point), 0)
        assert f == 7 * a - 9 * b**2


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
        f, (_, y, sci) = hunt_scan(3, t)
        assert f == want
        # phi = 2 / y
        assert 4 * f == sci * (2 / y) ** 2


def test_hunt_scan_left_endpoint_is_negative():
    # F < 0 at t = 1/2: the positivity window opens strictly afterwards
    f, (_, _, sci) = hunt_scan(3, Fraction(1, 2))
    assert f == Fraction(-1, 36)
    assert sci < 0


def test_hunt_scan_interior_positive():
    for t in (Fraction(11, 20), Fraction(3, 5), Fraction(13, 20), Fraction(17, 25)):
        f, (_, _, sci) = hunt_scan(3, t)
        assert f > 0
        assert sci > 0


def test_hunt_scan_sci_formula():
    assert hunt_scan(3, Fraction(3, 5)) == (
        Fraction(136, 5625), (Fraction(1103, 945), Fraction(25, 28), Fraction(17, 882)))
    assert hunt_scan(3, 1) == (-2, (2, Fraction(1, 2), Fraction(-1, 2)))


def test_hunt_scan_domain():
    with pytest.raises(ValueError):
        hunt_scan(2, Fraction(1, 2))
    with pytest.raises(ValueError):
        hunt_scan(3, 0)
    with pytest.raises(ValueError):
        hunt_scan(3, Fraction(6, 5))
    # the least masses give moments of hundreds of thousands of bits
    f, (_, y, sci) = hunt_scan(3, Fraction(1, 10**20000))
    assert 4 * f == sci * (2 / y) ** 2
    # Fraction(0.6) is 5404319552844595/9007199254740992, not 3/5
    for t in (0.6, 1.0, True):
        with pytest.raises(ValueError, match="mass must be an int or a Fraction"):
            hunt_scan(3, t)


def test_hunt_scan_rank_dependence():
    # the same mass profile on larger groups stays zero-sum-free, where
    # SCI = 4F / phi^2 with phi = 2 / y, and F moves with the rank
    values = set()
    for s in (3, 4, 5):
        f, (_, y, sci) = hunt_scan(s, Fraction(3, 5))
        assert 4 * f == sci * (2 / y) ** 2
        values.add(f)
    assert len(values) == 3
