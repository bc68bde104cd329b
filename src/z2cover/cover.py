"""Branch data for (Z/2)^s-covers of weighted projective 3-spaces.

A cover is specified by the base weights and a branch-degree function ``d``
on the group with ``d(0) = 0``: the component of the branch divisor indexed
by ``g`` has degree ``d(g)``.  The eigensheaf attached to a character chi has
degree ``l(chi) = (1/2) * sum of d over the affine hyperplane chi.g = 1``;
integrality of all these half-sums is exactly the buildability of the cover.

Two bit orders are in use.  A cover-file key, and the key that names a bad
degree, writes bit 0 of the element first, so ``"100"`` is element 1.  The
check messages write elements and characters as ``f"{g:0{s}b}"``, bit 0
last: on ``P^3`` the file ``{"100": 2, "010": 10, "001": 4}`` gets
``deform check``'s ``branch degree 4 at 100`` for its key ``"001"``.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from typing import Mapping, NamedTuple

from . import walsh
from ._frozen import Frozen
from .walsh import NonIntegralError
from .wps import Weights

__all__ = [
    "CoverSpecError",
    "BranchData",
    "CoverSpec",
    "ValidationReport",
    "eigensheaf_degrees",
    "is_flat",
    "hurwitz_degree",
    "zero_sum_triple_mass",
    "half_point_count",
    "validate",
    "to_json",
    "from_json",
    "from_path",
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

    Immutable and compared by ``(s, d)``.  The Walsh spectrum of ``d`` is
    transformed on first use and kept, and so are the eigensheaf-degree
    table and the zero-sum triple mass read off it, so every invariant of
    one cover reads the same transform, table and mass.
    """

    __slots__ = ("s", "d", "_spectrum", "_degrees", "_triple_mass")
    _fields = ("s", "d")
    s: int
    d: tuple[int, ...]

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
        object.__setattr__(self, "_spectrum", None)
        object.__setattr__(self, "_degrees", None)
        object.__setattr__(self, "_triple_mass", None)

    @property
    def total(self) -> int:
        return sum(self.d)

    @property
    def spectrum(self) -> tuple[int, ...]:
        """``walsh.forward(d)``, computed once per instance."""
        if self._spectrum is None:
            object.__setattr__(self, "_spectrum", tuple(walsh.forward(self.d)))
        return self._spectrum


class CoverSpec(NamedTuple):
    weights: Weights
    branch: BranchData


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
    out = []
    for chi, sc in enumerate(spectrum):
        num = s0 - sc
        if num % 4:
            raise NonIntegralError(
                f"degree {Fraction(num, 4)} at character {chi:0{branch.s}b} is not integral",
                element=chi,
            )
        out.append(num // 4)
    object.__setattr__(branch, "_degrees", tuple(out))
    return branch._degrees


def is_flat(spec: CoverSpec) -> bool:
    """True when every eigensheaf degree is a multiple of lcm(weights)."""
    L = spec.weights.L
    return all(v % L == 0 for v in eigensheaf_degrees(spec.branch))


def hurwitz_degree(spec: CoverSpec) -> Fraction:
    """Degree excess ``D/2 - W`` controlling the sign of the canonical class."""
    weights, branch = spec
    return Fraction(branch.total - 2 * weights.W, 2)


def zero_sum_triple_mass(branch: BranchData) -> Fraction:
    """``sum(S^3) / (6 * 2^s)`` for the Walsh spectrum ``S`` of ``d``, kept on
    the branch data after the first call.

    ``sum(S^3) / 2^s`` is the triple self-convolution of ``d`` at the
    origin, ``sum over x ^ y ^ z = 0 of d(x) d(y) d(z)``: the weighted count
    of ordered zero-sum triples.  Since ``d(0) = 0`` every such triple has
    three distinct elements, and the sixth returned here is the unordered
    mass: ``d_p d_q d_r`` summed over the sets ``{p, q, r}`` with
    ``p ^ q ^ r = 0``, unlike the ordered ``GeographyPoint.zero_sum_triples``.
    """
    if branch._triple_mass is None:
        cubes = sum(v**3 for v in branch.spectrum)
        object.__setattr__(branch, "_triple_mass", Fraction(cubes, 6 << branch.s))
    return branch._triple_mass


def half_point_count(spec: CoverSpec) -> int:
    """Number of triple points of the branch divisor on the base.

    A triple point is where three branch components whose labels sum to
    zero meet; by Bezout each such unordered triple ``{p, q, r}`` meets in
    ``d_p * d_q * d_r / prod(weights)`` points.  Above each one the cover
    has ``2^(s-2)`` points of type ``1/2(1,1,1)``.  A fractional total
    raises :class:`NonIntegralError`.  The triples are counted by
    :func:`zero_sum_triple_mass`.
    """
    total = zero_sum_triple_mass(spec.branch) / spec.weights.A
    if total.denominator != 1:
        raise NonIntegralError(f"half-point count {total} is not integral")
    return int(total)


class ValidationReport(NamedTuple):
    parity_ok: bool
    integral_degrees: bool
    weights_well_formed: bool
    flat: bool
    branching_positive: bool
    connected: bool
    hurwitz: Fraction
    half_points: int | None
    half_points_integral: bool
    messages: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (
            self.parity_ok
            and self.integral_degrees
            and self.weights_well_formed
            and self.branching_positive
            and self.connected
            and self.half_points_integral
        )


def validate(spec: CoverSpec) -> ValidationReport:
    """Run every structural check once and collect the outcomes.

    Flatness is reported, not required; a negative or zero Hurwitz excess,
    any fractional quantity and a disconnected cover are failures.

    Since ``pi_* O_X`` is the sum of the ``O(-l(chi))``, ``h^0(O_X)`` counts
    the characters with ``l(chi) = 0``, the ones vanishing on the branch
    support.  They are the characters with ``S(chi) = S(0)`` in the Walsh
    spectrum, fractional degrees or not, and there are ``2^(s - r)`` of
    them when the support spans a rank-``r`` subgroup; the cover is
    connected exactly when ``r = s``.
    """
    messages: list[str] = []
    integral = True
    try:
        eigensheaf_degrees(spec.branch)
    except NonIntegralError as exc:
        # every half-sum is integral iff the branch parity vector is zero
        integral = False
        messages.append("branch parity vector is nonzero: no square root of the divisor class")
        messages.append(str(exc))
    wf = spec.weights.well_formed
    if not wf:
        messages.append(f"weights {spec.weights} are not well formed")
    flat = is_flat(spec) if integral else False
    hurwitz = hurwitz_degree(spec)
    positive = hurwitz > 0
    if not positive:
        messages.append(f"branch degree excess {hurwitz} is not positive")
    spectrum = spec.branch.spectrum
    corank = spectrum.count(spectrum[0]).bit_length() - 1
    connected = corank == 0
    if not connected:
        messages.append(
            f"branch support spans a rank-{spec.branch.s - corank} subgroup:"
            f" h^0(O_X) = 2^{corank}, the cover is not connected"
        )
    half_points: int | None = None
    half_ok = True
    try:
        half_points = half_point_count(spec)
    except NonIntegralError as exc:
        half_ok = False
        messages.append(str(exc))
    return ValidationReport(
        parity_ok=integral,
        integral_degrees=integral,
        weights_well_formed=wf,
        flat=flat,
        branching_positive=positive,
        connected=connected,
        hurwitz=hurwitz,
        half_points=half_points,
        half_points_integral=half_ok,
        messages=tuple(messages),
    )


def _bits(g: int, s: int) -> str:
    return "".join("1" if (g >> i) & 1 else "0" for i in range(s))


def to_json(spec: CoverSpec) -> str:
    payload = {
        "weights": list(spec.weights),
        "s": spec.branch.s,
        "d": {
            _bits(g, spec.branch.s): v
            for g, v in enumerate(spec.branch.d)
            if v
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object's dict, refusing a key that appears twice."""
    out = dict(pairs)
    if len(out) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        key = next(key for key, _ in pairs if counts[key] > 1)
        raise CoverSpecError(f"duplicate key {key!r}")
    return out


def from_json(text: str) -> CoverSpec:
    """Parse a cover description; omitted group elements carry degree 0.

    Only the JSON shape, the keys and the rank are checked here;
    :class:`BranchData` checks the degrees.  A key repeated in any object
    is an error rather than a silent last-one-wins.
    """
    try:
        payload = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise CoverSpecError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CoverSpecError("top level must be an object")
    try:
        weights = Weights(payload["weights"])
        s = payload["s"]
        dmap = payload["d"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CoverSpecError(f"bad cover description: {exc}") from exc
    check_rank(s)  # before the table of 2^s degrees is allocated
    if not isinstance(dmap, Mapping):
        raise CoverSpecError("'d' must map bitstrings to degrees")
    d = [0] * (1 << s)
    for key, value in dmap.items():
        if not isinstance(key, str) or len(key) != s or set(key) - {"0", "1"}:
            raise CoverSpecError(f"bad group element {key!r} for rank {s}")
        d[int(key[::-1], 2)] = value  # bit i of g is key[i]
    return CoverSpec(weights, BranchData(s, tuple(d)))


def from_path(path: str) -> CoverSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return from_json(fh.read())
    except OSError as exc:
        raise CoverSpecError(f"cannot read {path}: {exc}") from exc
