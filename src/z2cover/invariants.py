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

from collections import Counter, namedtuple
from fractions import Fraction
from operator import mul

from .branch import BranchData, CoverSpec, eigensheaf_degrees, hurwitz_degree, is_flat
from .cover import half_point_count
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
    "geography_coordinates",
    "hunt_scan",
]

# the bounds `geography extremes` prints for the index SCI over the whole
# simplex, and the floor of y; the ceiling of y is the barycenter value,
# which depends on the rank.  A hill climb over ranks 2-4 finds the index
# between -1/2, attained at every vertex, and 1/2, at the rank-2
# barycenter.  SCI_MAX is not proven: it is the value that
# TestGeography::test_extremes pins
SCI_MIN = Fraction(-1, 2)
SCI_MAX = Fraction(8, 3)
Y_MIN = Fraction(1, 2)


def volume(spec: CoverSpec) -> Fraction:
    """Self-intersection ``K^3 = 2^s / A * ((D - 2W) / 2)^3`` of the
    canonical class of the cover."""
    weights, branch = spec
    return Fraction((branch.total - 2 * weights.W) ** 3 << branch.s, 8 * weights.A)


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
    ``sum(S^3) / (6 * 2^s)`` of the Walsh spectrum ``S`` of ``d``.  Then
    ``e = 2^s (4 - singles/2 + pairs/4 - triples/8)``, one fraction over ``48 A``.
    """
    d = spec.branch.d
    s = spec.branch.s
    a = spec.weights.a
    A = spec.weights.A
    W = spec.weights.W
    sigma2 = sum(a[i] * a[j] for i in range(4) for j in range(i + 1, 4))
    p1 = spec.branch.total
    p2 = sum(v * v for v in d)
    p3 = sum(v**3 for v in d)
    e2 = (p1 * p1 - p2) // 2
    e3 = (p1**3 - 3 * p1 * p2 + 2 * p3) // 6
    singles = p3 - W * p2 + sigma2 * p1
    pairs = W * e2 - (p1 * p2 - p3)
    # with the strata over A, the zero-sum mass enters as 2^s/8 * sum(S^3) / (6 * 2^s A)
    num = ((192 * A - 24 * singles + 12 * pairs - 6 * e3) << s) + spec.branch.cube_sum
    return Fraction(num, 48 * A), a == (1, 1, 1, 1)


class InvariantReport(namedtuple("InvariantReport",
                                 "k3 chi euler euler_exact hurwitz half_points flat x y sci")):
    """Outcome of :func:`invariant_report`: ``k3``, ``euler`` and
    ``hurwitz`` are Fractions; ``half_points`` is None when the count is
    fractional, and the Fractions ``x``, ``y`` and ``sci`` are None when
    ``chi`` is 0."""

    __slots__ = ()


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
        xd, yd = 24 * chi * e.denominator, 24 * chi * k3.denominator
        x, y = Fraction(e.numerator, xd), Fraction(-k3.numerator, yd)
        # y (3x + 1) - 4 over the common denominator yd * xd
        sci = Fraction(-k3.numerator * (3 * e.numerator + xd) - 4 * yd * xd, yd * xd)
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


def _coordinates(s: int, delta: int, p2: int, p3: int, big_q: int) -> tuple[Fraction, ...]:
    """``(x, y, SCI)`` from the integer sums named in
    :func:`geography_coordinates`.

    ``y = 2 / phi`` and ``x = (14a + 6b + phi) / (3 phi)``, each one Fraction
    of integer sums of equal degree in ``w``, so every multiple of ``w``
    gives the same point.
    """
    nd3 = delta**3 << s
    x_num = ((14 * p3 + 6 * p2 * delta) << s) + big_q
    return (
        Fraction(x_num, 3 * big_q),
        Fraction(2 * nd3, big_q),
        # y (3x + 1) - 4 over the common denominator Q^2
        Fraction(2 * nd3 * (x_num + big_q) - 4 * big_q * big_q, big_q * big_q),
    )


def geography_coordinates(branch: BranchData) -> tuple[Fraction, Fraction, Fraction]:
    """The limit Chern-ratio coordinates ``(x, y, SCI)`` of the branch-ratio
    vector of ``branch``, the coordinates ``geography sample`` and
    ``geography extremes`` print.

    With ``w = branch.d``, ``r = w / delta``, ``delta = sum(w)``, and ``S``
    the kept Walsh spectrum of ``w`` (so ``S(0) = delta``), ``p2`` and ``p3``
    are the power sums of ``w``, ``c3 = sum(S^3)`` is the cube sum kept on
    ``branch`` (the one ``zero_sum_triple_mass`` reads) and
    ``Q = sum((delta - S)^3)``.  The hyperplane mass of character chi is
    ``(delta - S(chi)) / (2 delta)``, so ``phi = Q / (2^s delta^3)``, and the
    ordered zero-sum triple sum is ``T = c3 / (2^s delta^3)``.  ``Q`` is
    computed from the spectrum and checked against the moment identity
    ``phi = 3b - T + 1``, which times ``2^s delta^3`` reads
    ``Q = 3 * 2^s p2 delta - c3 + 2^s delta^3``; disagreement would mean an
    arithmetic bug, so it is asserted.
    """
    w, spectrum = branch.d, branch.spectrum
    delta = spectrum[0]
    p2 = sum(map(mul, w, w))
    c3 = branch.cube_sum
    big_q = sum([(delta - v) ** 3 for v in spectrum])
    assert big_q == ((3 * p2 * delta + delta**3) << branch.s) - c3, "moment identity failed"
    return _coordinates(branch.s, delta, p2, sum([v**3 for v in w]), big_q)


def hunt_scan(s: int, t: Fraction | int) -> tuple[Fraction, tuple[Fraction, Fraction, Fraction]]:
    """Scan point of the almost-uniform family concentrated near one vertex.

    The family puts mass ``t`` on a base point and spreads ``1 - t`` evenly
    over the rest of one affine hyperplane, which kills every zero-sum
    triple.  Returns ``(F, (x, y, SCI))`` where ``F = 7a - 9b^2``; on this
    family ``SCI = 4F / phi^2``, so a positive ``F`` certifies a positive
    index.  At rank 3, ``F = -(144t^4 - 200t^3 + 87t^2 - 15t + 2)/9``, and
    the index is positive exactly on ``(t0, t1)``, the quartic's two real
    roots ``t0 ~ 0.54397`` and ``t1 ~ 0.68888``; any ``0 < t <= 1`` is
    accepted (``t = 1`` is the vertex itself).  ``t`` must be an ``int`` or
    a ``Fraction``: a float would be read as its binary expansion.

    The point is the family's closed form, with ``h = 2^(s-1)``:
    ``a = t^3 + (1-t)^3 / (h-1)^2``, ``b = t^2 + (1-t)^2 / (h-1)``, ``T = 0``
    and ``phi = 3b + 1``, so the cost does not grow with the rank.
    """
    if s < 3:
        raise ValueError("the scan family needs rank >= 3")
    if type(t) is not int and not isinstance(t, Fraction):
        raise ValueError(f"mass must be an int or a Fraction, got {t!r}")
    t = Fraction(t)
    if not 0 < t <= 1:
        raise ValueError(f"mass {t} outside (0, 1]")
    k = (1 << (s - 1)) - 1
    # the integer sums of the family's weights, k p on element 1 and u on
    # each of the k other odd elements; on that affine hyperplane
    # sum(S^3) = 0, which gives Q by the moment identity
    p, u = t.numerator, t.denominator - t.numerator
    delta = k * t.denominator
    p2 = k * (k * p * p + u * u)
    p3 = k * (k * k * p**3 + u**3)
    big_q = (3 * p2 * delta + delta**3) << s
    coordinates = _coordinates(s, delta, p2, p3, big_q)
    # F = 7 p3 / delta^3 - 9 p2^2 / delta^4, and 4F = SCI phi^2 times
    # 2^(2s) delta^6, with phi = Q / (2^s delta^3)
    f_num = 7 * p3 * delta - 9 * p2 * p2
    sci = coordinates[2]
    assert 4 * f_num * (delta * delta << 2 * s) * sci.denominator == sci.numerator * big_q * big_q
    return Fraction(f_num, delta**4), coordinates
