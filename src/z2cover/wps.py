"""Weighted projective 3-space combinatorics.

Everything here is exact lattice counting: the number ``N(n)`` of
weighted-degree-n monomials in four variables and the derived Euler
characteristic ``chi(O(n)) = N(n) - N(-n - W)``, where ``W`` is the weight
sum.  The second term implements Serre duality for the canonical weight
``-W``.

``N`` is Sylvester's denumerant: on each residue class ``n = qL + r`` modulo
``L = lcm(a)`` it is a cubic polynomial in ``q``, exact for every ``n >= 0``
(Beck & Robins, *Computing the Continuous Discretely*, ch. 1).  Four lattice
counts per residue class fix that cubic, so a count costs O(1) once its
class is known, whatever the size of ``n``.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Iterator

from ._frozen import Frozen

__all__ = ["Weights", "well_formed", "monomial_count", "euler_char_line"]


class Weights(Frozen):
    """Sorted quadruple of positive weights for P(a0, a1, a2, a3).

    Immutable, compared and hashed by ``a``.
    """

    __slots__ = ("a",)
    _fields = ("a",)
    a: tuple[int, int, int, int]

    def __init__(self, a: Iterable[int]):
        quad = tuple(sorted(a))
        if len(quad) != 4:
            raise ValueError(f"need exactly four weights, got {quad}")
        if any(not isinstance(w, int) or isinstance(w, bool) or w < 1 for w in quad):
            raise ValueError(f"weights must be positive integers, got {quad}")
        object.__setattr__(self, "a", quad)

    def __iter__(self) -> Iterator[int]:
        return iter(self.a)

    def __str__(self) -> str:
        return "(" + ",".join(str(w) for w in self.a) + ")"

    @property
    def L(self) -> int:
        """lcm of the weights."""
        return lcm(*self.a)

    @property
    def W(self) -> int:
        """Sum of the weights."""
        return sum(self.a)

    @property
    def A(self) -> int:
        """Product of the weights."""
        a = self.a
        return a[0] * a[1] * a[2] * a[3]

    @property
    def well_formed(self) -> bool:
        return well_formed(self.a)


def well_formed(a: Iterable[int]) -> bool:
    """True when every triple of weights is coprime.

    Equivalently: no weight may share a factor with all three others, so the
    space has no quasi-reflections.
    """
    quad = tuple(a)
    if len(quad) != 4:
        raise ValueError("need exactly four weights")
    for skip in range(4):
        triple = [quad[i] for i in range(4) if i != skip]
        if gcd(*triple) != 1:
            return False
    return True


def _progression_count(rem: int, step: int, mod: int) -> int:
    """#{e >= 0 : step*e <= rem and step*e == rem (mod mod)}, for rem >= 0."""
    g = gcd(step, mod)
    if rem % g:
        return 0
    m = mod // g
    # least e with step*e == rem mod `mod`; reduce to a unit inverse mod m
    e0 = (rem // g * pow(step // g, -1, m)) % m if m > 1 else 0
    if step * e0 > rem:
        return 0
    return (rem - step * e0) // (step * m) + 1


# Newton forward differences of N at r, r + L, r + 2L, r + 3L, keyed by
# (weights, r); each entry fixes the cubic of one residue class mod L
_NEWTON: dict[tuple[tuple[int, ...], int], tuple[int, int, int, int]] = {}


def _lattice_count(quad: tuple[int, ...], n: int) -> int:
    """N(n) for n >= 0 by two explicit loops over the largest weights.

    The exponent of the second variable is counted per congruence class, so
    the cost is governed by ``(n/a2) * (n/a3)`` rather than the lattice
    volume.
    """
    a0, a1, a2, a3 = quad
    total = 0
    for e3 in range(n // a3 + 1):
        r3 = n - e3 * a3
        for e2 in range(r3 // a2 + 1):
            total += _progression_count(r3 - e2 * a2, a1, a0)
    return total


def monomial_count(weights: Weights | Iterable[int], n: int) -> int:
    """Number of monomials of weighted degree exactly ``n`` (0 for n < 0).

    With ``L = lcm(a)`` and ``n = qL + r``, the count is a cubic polynomial
    in ``q`` on each residue class ``r``.  Below ``3L`` the lattice loop
    answers directly, at cost ``(n/a2) * (n/a3)``.  From ``3L`` on, the
    loop counts at ``r, r + L, r + 2L, r + 3L`` (all at most ``n``) give the
    cubic's Newton forward differences, cached per ``(weights, r)``, and
    the count is their binomial combination in ``q``: O(1) after the first
    call in a class, never more than four loop calls at its own ``n``.
    """
    if n < 0:
        return 0
    quad = tuple(weights)
    L = lcm(*quad)
    q, r = divmod(n, L)
    if q < 3:
        return _lattice_count(quad, n)
    key = (quad, r)
    diffs = _NEWTON.get(key)
    if diffs is None:
        v0, v1, v2, v3 = (_lattice_count(quad, r + k * L) for k in range(4))
        diffs = _NEWTON[key] = (v0, v1 - v0, v2 - 2 * v1 + v0, v3 - 3 * v2 + 3 * v1 - v0)
    d0, d1, d2, d3 = diffs
    return d0 + q * d1 + q * (q - 1) // 2 * d2 + q * (q - 1) * (q - 2) // 6 * d3


def euler_char_line(weights: Weights | Iterable[int], n: int) -> int:
    """Euler characteristic of O(n) on the weighted projective 3-space."""
    quad = tuple(weights)
    return monomial_count(quad, n) - monomial_count(quad, -n - sum(quad))
