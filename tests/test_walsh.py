"""Exact Walsh spectra: packed kernel vs butterfly vs definition, inversion,
zero-sum triple counts."""

import random
import time

import pytest

from z2cover import walsh
from z2cover.cover import BranchData, zero_sum_triple_mass
from z2cover.walsh import NonIntegralError, forward, inverse

import oracles


def signed_with_total(rng, n, total):
    """``n`` random signed ints whose absolute values sum to exactly ``total``."""
    shares = [rng.randrange(1, 1000) for _ in range(n)]
    whole = sum(shares)
    size = [total * v // whole for v in shares]
    size[rng.randrange(n)] += total - sum(size)
    return [v if rng.randrange(2) else -v for v in size]


# each side of every lane-width boundary: 16-, 32- and 64-bit lanes hold
# sum(|d|) < 2^15, 2^31 and 2^63, and from 2^63 the entries are split into
# low digits in 64-bit lanes and high digits transformed again; 2^14, 2^30
# and 2^62 are the boundaries of a lane with two spare bits.  At ranks 0-16
# the split recurses once at 2^70 and twice at 2^127 and 2^130
LANE_TOTALS = [2**k + e for k in (14, 15, 30, 31, 62, 63) for e in (-1, 0)]
LANE_TOTALS += [2**70, 2**127, 2**130]


@pytest.mark.parametrize("s", range(17))
def test_forward_matches_butterfly_at_lane_boundaries(s):
    rng = random.Random(100 + s)
    for total in LANE_TOTALS:
        d = signed_with_total(rng, 1 << s, total)
        assert sum(map(abs, d)) == total
        assert forward(d) == oracles.walsh_butterfly(d), total


def test_packed_inverse_roundtrip_and_error_element():
    rng = random.Random(6)
    d = [rng.randrange(-9, 10) for _ in range(64)]
    spectrum = forward(d)
    assert inverse(spectrum) == d
    # moving one unit of S(0) to S(32) adds 1 - (-1)^(x_5) to 64 * d(x),
    # which first breaks divisibility at element 32
    spectrum[0] += 1
    spectrum[32] -= 1
    with pytest.raises(NonIntegralError) as info:
        inverse(spectrum)
    assert info.value.element == 32


@pytest.mark.parametrize("total", [9, 2**40])
def test_cold_rank16_forward_is_fast(total):
    d = signed_with_total(random.Random(16), 1 << 16, total)
    walsh._plan.cache_clear()
    start = time.perf_counter()
    forward(d)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6, 7, 8])
def test_forward_matches_naive(s):
    n = 1 << s
    rng = random.Random(40 + s)
    for _ in range(25):
        d = [rng.randrange(-9, 10) for _ in range(n)]
        assert forward(d) == oracles.walsh_spectrum(d) == oracles.walsh_butterfly(d)


def test_forward_known_spectrum():
    # branch degrees (0,6,2,6): S(0)=14, and each character drops a half-sum twice
    assert forward([0, 6, 2, 6]) == [14, -10, -2, -2]
    assert forward([1, 0, 0, 0]) == [1, 1, 1, 1]
    assert forward([0, 0, 0, 1]) == [1, -1, -1, 1]


def test_forward_rejects_bad_length():
    with pytest.raises(ValueError):
        forward([1, 2, 3])
    with pytest.raises(ValueError):
        forward([])


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
def test_roundtrip(s):
    n = 1 << s
    rng = random.Random(60 + s)
    for _ in range(20):
        d = [rng.randrange(0, 8) for _ in range(n)]
        assert inverse(forward(d)) == d


def test_inverse_flags_non_integral():
    # spectrum (1,0,0,0) would invert to the constant 1/4
    with pytest.raises(NonIntegralError) as info:
        inverse([1, 0, 0, 0])
    assert info.value.element == 0
    with pytest.raises(NonIntegralError):
        inverse([14, -10, -2, -1])


def test_zeroth_coefficient_and_parseval():
    rng = random.Random(3)
    for s in (2, 3, 4):
        n = 1 << s
        for _ in range(20):
            d = [rng.randrange(0, 6) for _ in range(n)]
            hat = forward(d)
            assert hat[0] == sum(d)
            assert sum(v * v for v in hat) == n * sum(v * v for v in d)


def test_convolution_theorem():
    # pointwise product of spectra is the spectrum of the xor-convolution
    rng = random.Random(9)
    for s in (2, 3, 4):
        n = 1 << s
        for _ in range(10):
            a = [rng.randrange(0, 5) for _ in range(n)]
            b = [rng.randrange(0, 5) for _ in range(n)]
            conv = oracles.xor_convolution(a, b)
            assert forward(conv) == [p * q for p, q in zip(forward(a), forward(b))]


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
def test_triple_convolution_counts_zero_sum_triples(s):
    n = 1 << s
    rng = random.Random(80 + s)
    d = [0] + [rng.randrange(0, 4) for _ in range(n - 1)]
    # sum(S^3) / 2^s counts the ordered triples; the cover keeps the unordered sixth
    assert zero_sum_triple_mass(BranchData(s, d)) == oracles.zero_sum_triple_mass(d)


@pytest.mark.parametrize("s", [0, 1, 3])
def test_forward_splits_wide_entries_in_logarithmic_depth(s):
    # entries of 70,000 bits and more, of both signs: the split peels half
    # the bit length per level, so no recursion limit is reached
    rng = random.Random(70 + s)
    d = [rng.choice((-1, 1)) * rng.getrandbits(70_000 + 1_000 * i) for i in range(1 << s)]
    assert forward(d) == oracles.walsh_spectrum(d)
    assert forward([0, 1 << 70_000, 0, 0]) == [1 << 70_000, -(1 << 70_000)] * 2
