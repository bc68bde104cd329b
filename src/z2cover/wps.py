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

import functools
from collections.abc import Iterable, Iterator
from math import gcd, lcm

__all__ = ["Weights", "well_formed", "monomial_count", "euler_char_line"]


class Frozen:
    """Base class for the immutable records that validate their input.

    A subclass names its value fields in ``_fields``, declares them (and any
    cached extras) in ``__slots__`` and sets them in ``__init__`` with
    ``object.__setattr__``.  It gets equality and hash by the field tuple, a
    ``Name(field=value, ...)`` repr and pickling through its constructor;
    every later assignment raises :class:`AttributeError`.  The methods are
    written once here rather than generated per class at import.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple()


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


def _lattice_count(quad: tuple[int, ...], n: int) -> int:
    """N(n) for n >= 0 by a walk over the exponents of the two largest weights.

    At each remainder ``rem`` the ``e1`` with ``a1*e1 == rem (mod a0)`` and
    ``a1*e1 <= rem`` exist only when ``g = gcd(a1, a0)`` divides ``rem``, and
    then step by ``m = a0/g`` from the least one, found by the inverse of
    ``a1/g`` mod ``m``, fixed once per walk: ``(n/a2) * (n/a3)`` steps.
    """
    a0, a1, a2, a3 = quad
    g = gcd(a1, a0)
    m = a0 // g
    inverse = pow(a1 // g, -1, m)
    total = 0
    for r3 in range(n, -1, -a3):
        for rem in range(r3, -1, -a2):
            if rem % g == 0:
                e0 = rem // g * inverse % m
                if a1 * e0 <= rem:
                    total += (rem - a1 * e0) // (a1 * m) + 1
    return total


@functools.cache
def _newton(quad: tuple[int, ...], r: int) -> tuple[int, int, int, int]:
    """Newton forward differences of N at ``r, r + L, r + 2L, r + 3L``: the
    cubic of residue class ``r`` mod ``L = lcm(quad)``."""
    L = lcm(*quad)
    v0, v1, v2, v3 = (_lattice_count(quad, r + k * L) for k in range(4))
    return v0, v1 - v0, v2 - 2 * v1 + v0, v3 - 3 * v2 + 3 * v1 - v0


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
    if type(weights) is not Weights:
        weights = Weights(weights)
    if n < 0:
        return 0
    quad = weights.a
    L = lcm(*quad)
    q, r = divmod(n, L)
    if q < 3:
        return _lattice_count(quad, n)
    d0, d1, d2, d3 = _newton(quad, r)
    return d0 + q * d1 + q * (q - 1) // 2 * d2 + q * (q - 1) * (q - 2) // 6 * d3


def euler_char_line(weights: Weights | Iterable[int], n: int) -> int:
    """Euler characteristic of O(n) on the weighted projective 3-space."""
    if type(weights) is not Weights:
        weights = Weights(weights)
    return monomial_count(weights, n) - monomial_count(weights, -n - weights.W)
