"""Unnormalized Walsh-Hadamard transforms of integer group functions.

``forward`` computes ``S(chi) = sum_x d(x) * (-1)^(chi.x)``, and it is the
one place in the library where a character sum is taken.  At every rank
it packs all ``2^s`` entries into one Python ``int`` and runs each butterfly
stage as a handful of whole-integer operations (see :func:`_packed_forward`);
when ``sum(|d|) >= 2^63`` leaves no lane wide enough, it splits every entry
into low and high digits, at bit ``62 - s`` or at half the bit length of the
widest entry, whichever is higher, transforms both recursively, and adds
the two.  Every invariant of a cover is a moment of this spectrum:
the sum of a function over the affine hyperplane ``chi.x = 1`` is
``(S(0) - S(chi)) / 2``, and ``sum(S^3) / 2^s`` is the weighted count of
ordered zero-sum triples.  ``inverse`` divides the same transform by
``2**s`` and insists on an integral result, so a spectrum with no integer
preimage raises :class:`NonIntegralError` instead of rounding.
"""

from __future__ import annotations

import functools
import struct
from collections.abc import Sequence
from fractions import Fraction

__all__ = [
    "NonIntegralError",
    "forward",
    "inverse",
]

# lane widths in bits with their signed little-endian ``struct`` codes
_LANES = ((16, "h"), (32, "i"), (64, "q"))


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
    total = sum(map(abs, d))
    for width, code in _LANES:
        if total < 1 << (width - 1):
            return _packed_forward(d, s, width, code)
    # no lane is wide enough: split every entry at bit b (see _packed_forward)
    b = max(62 - s, (max(d, key=abs).bit_length() + 1) // 2)
    low = forward([v & ((1 << b) - 1) for v in d])
    return [(h << b) + v for h, v in zip(forward([v >> b for v in d]), low)]


@functools.cache
def _plan(s: int, width: int):
    """Lane constants of the packed transform at rank ``s`` and lane ``width``.

    Returns ``(top, stages)``: ``top`` has the high bit of every lane set, and
    stage ``j`` is ``(shift, mask, offset)`` with ``shift = width * 2^j``,
    ``mask`` all ones on the low half of every block of ``2^(j+1)`` lanes,
    and ``offset`` the lane bias ``2^(width-1)`` on those same lanes.  Each
    constant is one repeated byte string, so a rank-16 plan costs a few
    ``bytes`` copies, not ``2^16`` big-integer additions.
    """
    nbytes = width // 8
    bias = (1 << (width - 1)).to_bytes(nbytes, "little")
    stages = []
    for j in range(s):
        half = nbytes << j
        blocks = 1 << (s - j - 1)
        mask = (b"\xff" * half + bytes(half)) * blocks
        offset = (bias * (1 << j) + bytes(half)) * blocks
        stages.append(
            (width << j, int.from_bytes(mask, "little"), int.from_bytes(offset, "little"))
        )
    return int.from_bytes(bias * (1 << s), "little"), tuple(stages)


def _packed_forward(d: Sequence[int], s: int, width: int, code: str) -> list[int]:
    """The butterfly on ``2^s`` lanes of ``width`` bits packed in one ``int``.

    Lane ``i`` holds ``d[i] + 2^(width-1)``.  A stage splits every block of
    ``2 * 2^j`` lanes into halves ``a`` (low) and ``b`` (high): with
    ``lo = x & mask`` and ``hi = (x >> shift) & mask`` the ``a`` and ``b``
    lanes both sit on the low half, and
    ``x = (lo + hi - offset) | ((lo - hi + offset) << shift)`` puts
    ``a + b`` on the low half and ``a - b`` on the high half, each again
    plus the bias.

    Exactness: every entry after every stage is a signed sum of entries of
    ``d``, so its absolute value is at most ``sum(|d|) < 2^(width-1)``, and
    every biased lane lies in ``[1, 2^width - 1]``.  ``lo + hi - offset``
    is, as an integer, the sum over the low lanes of
    ``(a + b + 2^(width-1)) * 2^(width * i)``; with every coefficient inside
    ``[0, 2^width)`` that sum is the packed form of those lanes, whatever
    the carries of the intermediate ``lo + hi`` did.  The same holds for
    ``a - b``, and the two results occupy disjoint lanes, so ``|`` adds
    them.  Flipping the high bit of a lane turns ``v + 2^(width-1)`` into
    the two's complement of ``v`` and back, so ``struct``'s signed codes
    pack and unpack the bias in C.

    From ``sum(|d|) >= 2^63`` :func:`forward` splits ``v = high * 2^b + low``
    with ``low = v & (2^b - 1)`` and transforms both halves again, and by
    linearity ``forward(d) = forward(high) * 2^b + forward(low)`` exactly.
    ``b`` is ``62 - s`` or, for wider entries, half the bit length ``k`` of
    the widest one, rounded up.  At ``b = 62 - s`` the low digits sum to
    less than ``2^s * 2^b = 2^62`` and fit 64-bit lanes, and the high ones
    sum to at most ``sum(|d|) / 2^b + 2^s < sum(|d|)``; at ``b = ceil(k/2)``
    both halves are at most ``ceil(k/2) + 1`` bits wide.  So the recursion
    ends, at a depth logarithmic in ``k``, and the total work grows as
    ``k log k``.
    """
    top, stages = _plan(s, width)
    fmt = f"<{len(d)}{code}"
    x = int.from_bytes(struct.pack(fmt, *d), "little") ^ top
    for shift, mask, offset in stages:
        lo = x & mask
        hi = (x >> shift) & mask
        x = (lo + hi - offset) | ((lo - hi + offset) << shift)
    return list(struct.unpack(fmt, (x ^ top).to_bytes((width // 8) << s, "little")))


def inverse(spectrum: Sequence[int]) -> list[int]:
    """Unique ``d`` with ``forward(d) == spectrum``, or NonIntegralError.

    The transform is an involution up to the factor ``2**s``; any entry not
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
