"""Exact Walsh spectra: butterfly vs definition, inversion, pruning sums."""

import random

import pytest

from z2cover.gf2 import dot
from z2cover.walsh import (
    NonIntegralError,
    forward,
    inverse,
    triple_convolution_at_zero,
)


def forward_naive(d):
    """The quadratic definition ``S(chi) = sum_x d(x) (-1)^(chi.x)``, as an oracle."""
    n = len(d)
    return [sum(v if not dot(chi, x) else -v for x, v in enumerate(d)) for chi in range(n)]


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_forward_matches_naive(s):
    n = 1 << s
    rng = random.Random(40 + s)
    for _ in range(25):
        d = [rng.randrange(-9, 10) for _ in range(n)]
        assert forward(d) == forward_naive(d)


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
            conv = [0] * n
            for x in range(n):
                for y in range(n):
                    conv[x ^ y] += a[x] * b[y]
            assert forward(conv) == [p * q for p, q in zip(forward(a), forward(b))]


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
def test_triple_convolution_counts_zero_sum_triples(s):
    n = 1 << s
    rng = random.Random(80 + s)
    d = [rng.randrange(0, 4) for _ in range(n)]
    direct = sum(
        d[x] * d[y] * d[x ^ y] for x in range(n) for y in range(n)
    )
    assert triple_convolution_at_zero(forward(d)) == direct


def test_triple_convolution_prunes_impossible_spectra():
    # an integer spectrum that no nonnegative function realises
    value = triple_convolution_at_zero([2, 2, 2, -6])
    assert value < 0
    frac = triple_convolution_at_zero([1, 1, 1, 0])
    assert frac.denominator != 1
