"""Exact numerical invariants of covers and their Chern-ratio geography.

The cover-level quantities (canonical volume, holomorphic and topological
Euler characteristics) are computed from branch data by closed formulas over
the strata of the branch configuration.  The geography side studies the
exact rational coordinates

    x = e / (24 chi) = c3 / (c1 c2)    y = -K^3 / (24 chi) = c1^3 / (c1 c2)
    SCI = y(3x + 1) - 4

in the limit of large branch degree, as functions of the normalized ratio
vector ``r = d / sum(d)``.  They depend only on the ray through ``d``: a
point of the branch-ratio simplex is the :class:`BranchData` of any integer
weights ``w`` with ``r = w / sum(w)``, so its moments are integer sums and
only the returned coordinates are Fractions; no floats anywhere.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .cover import (
    BranchData,
    CoverSpec,
    eigensheaf_degrees,
    half_point_count,
    hurwitz_degree,
    is_flat,
    zero_sum_triple_mass,
)
from .walsh import NonIntegralError
from .wps import euler_char_line

__all__ = [
    "SCI_MAX",
    "SCI_MIN",
    "Y_MIN",
    "volume",
    "holomorphic_euler",
    "topological_euler",
    "InvariantReport",
    "invariant_report",
    "vertex_ratio",
    "barycenter_ratio",
    "random_ratio",
    "GeographyPoint",
    "geography_point",
    "hunt_scan",
]

# proven range of the index SCI over the whole simplex, and the floor of y;
# the ceiling of y is the barycenter value, which depends on the rank
SCI_MIN = Fraction(-1, 2)
SCI_MAX = Fraction(8, 3)
Y_MIN = Fraction(1, 2)


def volume(spec: CoverSpec) -> Fraction:
    """Self-intersection ``K^3`` of the canonical class of the cover."""
    excess = hurwitz_degree(spec)
    return Fraction(1 << spec.branch.s, spec.weights.A) * excess**3


def holomorphic_euler(spec: CoverSpec) -> int:
    """``chi(O)`` of the cover: one line-bundle term per character.

    Characters with equal eigensheaf degree give equal terms, so each
    distinct degree is evaluated once and weighted by its multiplicity.
    """
    return sum(
        count * euler_char_line(spec.weights, -lv)
        for lv, count in Counter(eigensheaf_degrees(spec.branch)).items()
    )


def topological_euler(spec: CoverSpec) -> tuple[Fraction, bool]:
    """Topological Euler number with inclusion-exclusion over branch strata.

    Returns ``(value, exact)``; the stratum formulas assume the generic
    member of each linear system, and the count is certified exact only on
    the straight projective space (all weights 1).  Zero-sum triples are
    excluded from the triple stratum: those intersections sit over the
    4-fold points of the configuration and do not move the Euler number.

    Each stratum is a symmetric polynomial in the power sums ``p_k`` of the
    branch degrees: the singles, the pairs ``d_p d_q (W - d_p - d_q)`` and
    the triples ``d_p d_q d_r``, the last minus the zero-sum triple mass
    ``sum(S^3) / (6 * 2^s)`` of the Walsh spectrum ``S`` of ``d``.
    """
    d = spec.branch.d
    s = spec.branch.s
    a = spec.weights.a
    A = spec.weights.A
    W = spec.weights.W
    sigma2 = sum(a[i] * a[j] for i in range(4) for j in range(i + 1, 4))
    p1 = sum(d)
    p2 = sum(v * v for v in d)
    p3 = sum(v**3 for v in d)
    e2 = (p1 * p1 - p2) // 2
    e3 = (p1**3 - 3 * p1 * p2 + 2 * p3) // 6
    zero_sum = zero_sum_triple_mass(spec.branch)
    singles = Fraction(p3 - W * p2 + sigma2 * p1, A)
    pairs = Fraction(W * e2 - (p1 * p2 - p3), A)
    triples = (e3 - zero_sum) / A
    e = (
        Fraction(4 << s)
        - Fraction(1 << s, 2) * singles
        + Fraction(1 << s, 4) * pairs
        - Fraction(1 << s, 8) * triples
    )
    return e, a == (1, 1, 1, 1)


class InvariantReport(NamedTuple):
    k3: Fraction
    chi: int
    euler: Fraction
    euler_exact: bool
    hurwitz: Fraction
    half_points: int | None
    flat: bool
    x: Fraction | None
    y: Fraction | None
    sci: Fraction | None


def invariant_report(spec: CoverSpec) -> InvariantReport:
    """All invariants of one cover, plus its limit-geography coordinates.

    ``x = e / (24 chi)`` and ``y = -K^3 / (24 chi)`` are reported when
    ``chi`` is nonzero; they converge to the ratio-vector geography of
    ``d / sum(d)`` as the branch degrees grow.
    """
    k3 = volume(spec)
    chi = holomorphic_euler(spec)
    e, exact = topological_euler(spec)
    try:
        half = half_point_count(spec)
    except NonIntegralError:
        half = None
    x = y = sci = None
    if chi:
        x = e / (24 * chi)
        y = -k3 / (24 * chi)
        sci = y * (3 * x + 1) - 4
    return InvariantReport(
        k3=k3,
        chi=chi,
        euler=e,
        euler_exact=exact,
        hurwitz=hurwitz_degree(spec),
        half_points=half,
        flat=is_flat(spec),
        x=x,
        y=y,
        sci=sci,
    )


def vertex_ratio(s: int, g: int = 1) -> BranchData:
    if not 0 < g < 1 << s:
        raise ValueError("vertex must be a nonzero group element")
    w = [0] * (1 << s)
    w[g] = 1
    return BranchData(s, w)


def barycenter_ratio(s: int) -> BranchData:
    return BranchData(s, [0] + [1] * ((1 << s) - 1))


def random_ratio(s: int, rng) -> BranchData:
    """Random rational point of the branch-ratio simplex, drawn from the
    :class:`random.Random` ``rng`` as the branch data of its weights.

    Each nonzero element gets a weight in ``0..9``: ``rng.getrandbits(4)``,
    drawn again while it exceeds 9.  That is exactly how ``randint(0, 9)``
    draws, so the weights and the state ``rng`` is left in are those of
    ``randint``, at a fraction of its cost.  A vector of all zeros is
    drawn again as a whole.
    """
    n = 1 << s
    draw = rng.getrandbits
    while True:
        picks = [0]
        for _ in range(n - 1):
            r = draw(4)
            while r > 9:
                r = draw(4)
            picks.append(r)
        if any(picks):
            return BranchData(s, picks)


class GeographyPoint(NamedTuple):
    s: int
    a: Fraction  # cubic moment  sum r^3
    b: Fraction  # quadratic moment  sum r^2
    zero_sum_triples: Fraction  # ordered distinct zero-sum triple sum
    phi: Fraction
    x: Fraction
    y: Fraction
    sci: Fraction


def geography_point(branch: BranchData) -> GeographyPoint:
    """Limit Chern-ratio coordinates of the branch-ratio vector of ``branch``.

    With ``w = branch.d``, ``r = w / delta``, ``delta = sum(w)``, and ``S``
    the kept Walsh spectrum of ``w`` (so ``S(0) = delta``), the hyperplane
    mass of character chi is ``(delta - S(chi)) / (2 delta)`` and the ordered
    zero-sum triple sum is ``sum(S^3) / (2^s delta^3)``.  Every moment is an
    integer sum over ``delta`` powers, and each returned field is one
    Fraction of integer sums of equal degree in ``w``, so every multiple of
    ``w`` gives the same point.  ``phi`` is computed both from the character
    sums and from the moment identity ``phi = 3b - T + 1``, which times
    ``2^s delta^3`` reads ``Q = 3 * 2^s p2 delta - sum(S^3) + 2^s delta^3``
    with ``Q = sum((delta - S)^3)``; disagreement would mean an arithmetic
    bug, so it is asserted.  The cube sum is taken here in integers, not
    through ``zero_sum_triple_mass``, which would build one more Fraction.
    """
    s, w = branch.s, branch.d
    n = 1 << s
    spectrum = branch.spectrum
    delta = spectrum[0]
    d3 = delta**3
    p2 = sum(v * v for v in w)
    p3 = sum(v**3 for v in w)
    c3 = sum(v**3 for v in spectrum)
    big_q = sum((delta - v) ** 3 for v in spectrum)
    assert big_q == 3 * n * p2 * delta - c3 + n * d3, "moment identity failed"
    # phi = Q / (n delta^3), y = 2 / phi, x = (14a + 6b + phi) / (3 phi)
    x_num = 14 * n * p3 + 6 * n * p2 * delta + big_q
    return GeographyPoint(
        s=s,
        a=Fraction(p3, d3),
        b=Fraction(p2, delta * delta),
        zero_sum_triples=Fraction(c3, n * d3),
        phi=Fraction(big_q, n * d3),
        x=Fraction(x_num, 3 * big_q),
        y=Fraction(2 * n * d3, big_q),
        # y (3x + 1) - 4 over the common denominator Q^2
        sci=Fraction(2 * n * d3 * (x_num + big_q) - 4 * big_q * big_q, big_q * big_q),
    )


def hunt_scan(s: int, t: Fraction | int) -> tuple[Fraction, GeographyPoint]:
    """Scan point of the almost-uniform family concentrated near one vertex.

    The family puts mass ``t`` on a base point and spreads ``1 - t`` evenly
    over the rest of one affine hyperplane, which kills every zero-sum
    triple.  Returns ``(F, point)`` where ``F = 7a - 9b^2``; on this family
    ``SCI = 4F / phi^2``, so a positive ``F`` certifies a positive index.
    At rank 3, ``F = -(144t^4 - 200t^3 + 87t^2 - 15t + 2)/9``, and the index
    is positive exactly on ``(t0, t1)``, the quartic's two real roots
    ``t0 ~ 0.54397`` and ``t1 ~ 0.68888``; any ``0 < t <= 1`` is accepted
    (``t = 1`` is the vertex itself).  ``t`` must be an ``int`` or a
    ``Fraction``: a float would be read as its binary expansion.
    """
    if s < 3:
        raise ValueError("the scan family needs rank >= 3")
    if type(t) is not int and not isinstance(t, Fraction):
        raise ValueError(f"mass must be an int or a Fraction, got {t!r}")
    t = Fraction(t)
    if not 0 < t <= 1:
        raise ValueError(f"mass {t} outside (0, 1]")
    h = 1 << (s - 1)
    # the hyperplane is the odd elements: mass t on element 1 and
    # (1 - t) / (h - 1) on each other one, as weights over (h - 1) t.denominator
    w = [0, t.denominator - t.numerator] * h
    w[1] = t.numerator * (h - 1)
    point = geography_point(BranchData(s, w))
    assert point.zero_sum_triples == 0
    f = 7 * point.a - 9 * point.b**2
    assert 4 * f == point.sci * point.phi**2
    return f, point
