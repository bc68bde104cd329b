"""Branch data for (Z/2)^s-covers of weighted projective 3-spaces.

A cover is specified by the base weights and a branch-degree function ``d``
on the group with ``d(0) = 0``: the component of the branch divisor indexed
by ``g`` has degree ``d(g)``.  The eigensheaf attached to a character chi has
degree ``l(chi) = (1/2) * sum of d over the affine hyperplane chi.g = 1``;
integrality of all these half-sums is exactly the buildability of the cover.

Two bit orders are in use.  A cover-file key, and the key that names a bad
degree, writes bit 0 of the element first, so ``"100"`` is element 1.  The
check messages write elements and characters with ``_message_bits``, bit 0
last: on ``P^3`` the file ``{"100": 2, "010": 10, "001": 4}`` gets
``deform check``'s ``branch degree 4 at 100`` for its key ``"001"``.

This module is the model that ``classify`` reads; the cover-file format,
validation and the half-point counts are in :mod:`z2cover.cover`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import walsh
from .walsh import NonIntegralError
from .wps import Frozen

__all__ = [
    "CoverSpecError",
    "BranchData",
    "CoverSpec",
    "check_rank",
    "eigensheaf_degrees",
    "is_flat",
    "hurwitz_degree",
]


# largest rank accepted: a cover file, a CLI flag or a dense BranchData
MAX_RANK = 16


class CoverSpecError(ValueError):
    """Malformed cover description (bad JSON shape, keys, or ranges)."""


def check_rank(s) -> int:
    """Return ``s`` if it is an ``int`` (not ``bool``) in ``1..MAX_RANK``;
    raise :class:`CoverSpecError` otherwise."""
    if type(s) is not int or not 1 <= s <= MAX_RANK:
        raise CoverSpecError(f"rank must be an integer in 1..{MAX_RANK}, got {s!r}")
    return s


class BranchData(Frozen):
    """Nonnegative ``int`` branch degrees (no ``bool``) indexed by group
    element; ``d[0] == 0``.

    The one check of branch degrees, cover files included: a bad degree is
    named by its cover-file key.

    Immutable and compared by ``(s, d)``.  ``spectrum`` is
    ``walsh.forward(d)``, transformed once on construction; the
    eigensheaf-degree table and the cube sum ``sum(S^3)`` read off it are
    computed on first use and kept, so every invariant of one cover reads
    the same transform, table and cube sum.
    """

    __slots__ = ("s", "d", "spectrum", "_degrees", "_cube_sum")
    _fields = ("s", "d")
    s: int
    d: tuple[int, ...]
    spectrum: tuple[int, ...]

    def __init__(self, s: int, d: tuple[int, ...]):
        d = tuple(d)  # a caller's list could change under the kept spectrum
        check_rank(s)
        if len(d) != 1 << s:
            raise CoverSpecError(f"need {1 << s} degrees for rank {s}, got {len(d)}")
        for g, v in enumerate(d):
            if type(v) is not int or v < 0:
                raise CoverSpecError(f"bad degree {v!r} at {_bits(g, s)!r}")
        if d[0] != 0:
            raise CoverSpecError("the identity must carry degree 0")
        if not any(d):
            raise CoverSpecError("at least one branch degree must be positive")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "spectrum", tuple(walsh.forward(d)))
        object.__setattr__(self, "_degrees", None)
        object.__setattr__(self, "_cube_sum", None)

    @property
    def total(self) -> int:
        return self.spectrum[0]

    @property
    def cube_sum(self) -> int:
        """``sum(S^3)`` over the spectrum, computed on first use and kept."""
        if self._cube_sum is None:
            object.__setattr__(self, "_cube_sum", sum([v**3 for v in self.spectrum]))
        return self._cube_sum


CoverSpec = namedtuple("CoverSpec", "weights branch")


def eigensheaf_degrees(branch: BranchData) -> tuple[int, ...]:
    """Halved hyperplane sums ``l(chi)`` of the branch degrees, indexed by
    character; ``l[0] == 0``.

    Raises :class:`NonIntegralError` naming the first character whose
    half-sum is fractional.  An integral table is built once per
    :class:`BranchData` and kept there.
    """
    if branch._degrees is not None:
        return branch._degrees
    spectrum = branch.spectrum
    s0 = spectrum[0]
    table = tuple([(s0 - v) >> 2 for v in spectrum])
    # exact degrees total 2^(s-2) S(0) (sum(S) = 2^s d(0) = 0); a fractional one's floor is less
    if sum(table) << 2 != s0 << branch.s:
        chi = next(chi for chi, v in enumerate(spectrum) if (s0 - v) & 3)
        raise NonIntegralError(
            f"degree {Fraction(s0 - spectrum[chi], 4)} at character"
            f" {_message_bits(chi, branch.s)} is not integral",
            element=chi,
        )
    object.__setattr__(branch, "_degrees", table)
    return branch._degrees


def is_flat(spec: CoverSpec) -> bool:
    """True when every eigensheaf degree is a multiple of lcm(weights)."""
    L = spec.weights.L
    return all(v % L == 0 for v in eigensheaf_degrees(spec.branch))


def hurwitz_degree(spec: CoverSpec) -> Fraction:
    """Degree excess ``D/2 - W`` controlling the sign of the canonical class."""
    weights, branch = spec
    return Fraction(branch.total - 2 * weights.W, 2)


def _bits(g: int, s: int) -> str:
    return "".join("1" if (g >> i) & 1 else "0" for i in range(s))


def _message_bits(g: int, s: int) -> str:
    """An element or character as check messages write it, bit 0 last."""
    return f"{g:0{s}b}"
