"""Unnormalized Walsh-Hadamard transforms of integer group functions.

``forward`` computes ``S(chi) = sum_x d(x) * (-1)^(chi.x)`` with the usual
in-place butterfly, and it is the one place in the library where a character
sum is taken.  Every invariant of a cover is a moment of this spectrum: the
sum of a function over the affine hyperplane ``chi.x = 1`` is
``(S(0) - S(chi)) / 2``, and ``sum(S^3) / 2^s`` (see
:func:`triple_convolution_at_zero`) is the weighted count of ordered
zero-sum triples.  ``inverse`` divides the same butterfly by ``2**s`` and
insists on an integral result, so a spectrum with no integer preimage raises
:class:`NonIntegralError` instead of rounding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = [
    "NonIntegralError",
    "forward",
    "inverse",
    "triple_convolution_at_zero",
]


class NonIntegralError(ArithmeticError):
    """An exact integer was required but division left a remainder.

    ``element`` identifies the offending group element or character when the
    caller supplied one.
    """

    def __init__(self, message: str, element: int | None = None):
        super().__init__(message)
        self.element = element


def _rank(n: int) -> int:
    s = n.bit_length() - 1
    if n <= 0 or n != 1 << s:
        raise ValueError(f"length {n} is not a power of two")
    return s


def forward(d: Sequence[int]) -> list[int]:
    """Spectrum of ``d``; entry ``chi`` is the signed sum over the group."""
    s = _rank(len(d))
    out = list(d)
    h = 1
    for _ in range(s):
        for start in range(0, len(out), h * 2):
            for i in range(start, start + h):
                a, b = out[i], out[i + h]
                out[i], out[i + h] = a + b, a - b
        h *= 2
    return out


def inverse(spectrum: Sequence[int]) -> list[int]:
    """Unique ``d`` with ``forward(d) == spectrum``, or NonIntegralError.

    The butterfly is an involution up to the factor ``2**s``; any entry not
    divisible by it certifies that no integer function has this spectrum.
    """
    n = len(spectrum)
    back = forward(spectrum)
    for x, value in enumerate(back):
        if value % n:
            raise NonIntegralError(
                f"spectrum inverts to {Fraction(value, n)} at element {x}", element=x
            )
    return [value // n for value in back]


def triple_convolution_at_zero(spectrum: Sequence[int]) -> Fraction:
    """``2^-s * sum(S^3)``, the triple self-convolution at the origin.

    For the spectrum of a function ``d`` this is
    ``sum over x ^ y ^ z = 0 of d(x) d(y) d(z)``, the weighted count of
    ordered zero-sum triples that ``half_point_count``,
    ``topological_euler`` and ``geography_point`` read off.
    """
    n = len(spectrum)
    _rank(n)
    return Fraction(sum(v**3 for v in spectrum), n)
