"""Branch data for (Z/2)^s-covers of weighted projective 3-spaces.

A cover is specified by the base weights and a branch-degree function ``d``
on the group with ``d(0) = 0``: the component of the branch divisor indexed
by ``g`` has degree ``d(g)``.  The eigensheaf attached to a character chi has
degree ``l(chi) = (1/2) * sum of d over the affine hyperplane chi.g = 1``;
integrality of all these half-sums is exactly the buildability of the cover.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import walsh
from .gf2 import parity_vector
from .walsh import NonIntegralError
from .wps import Weights

__all__ = [
    "CoverSpecError",
    "BranchData",
    "EigensheafDegrees",
    "CoverSpec",
    "ValidationReport",
    "eigensheaf_degrees",
    "is_flat",
    "hurwitz_degree",
    "half_point_count",
    "validate",
    "to_json",
    "from_json",
    "from_path",
]


# largest rank accepted from outside the program: a cover file or a CLI flag
MAX_RANK = 16


class CoverSpecError(ValueError):
    """Malformed cover description (bad JSON shape, keys, or ranges)."""


@dataclass(frozen=True)
class BranchData:
    """Nonnegative branch degrees indexed by group element; ``d[0] == 0``."""

    s: int
    d: tuple[int, ...]

    def __post_init__(self):
        if self.s < 1:
            raise CoverSpecError(f"rank must be >= 1, got {self.s}")
        if len(self.d) != 1 << self.s:
            raise CoverSpecError(f"need {1 << self.s} degrees for rank {self.s}, got {len(self.d)}")
        if any(not isinstance(v, int) or v < 0 for v in self.d):
            raise CoverSpecError("branch degrees must be nonnegative integers")
        if self.d[0] != 0:
            raise CoverSpecError("the identity must carry degree 0")
        if not any(self.d):
            raise CoverSpecError("at least one branch degree must be positive")

    @property
    def total(self) -> int:
        return sum(self.d)


@dataclass(frozen=True)
class EigensheafDegrees:
    """Integral degrees l(chi), indexed by character; ``l[0] == 0``."""

    s: int
    l: tuple[int, ...]


@dataclass(frozen=True)
class CoverSpec:
    weights: Weights
    branch: BranchData


def eigensheaf_degrees(branch: BranchData) -> EigensheafDegrees:
    """Halved hyperplane sums of the branch degrees, one per character.

    Raises :class:`NonIntegralError` naming the first character whose
    half-sum is fractional.
    """
    spectrum = walsh.forward(branch.d)
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
    return EigensheafDegrees(branch.s, tuple(out))


def is_flat(spec: CoverSpec) -> bool:
    """True when every eigensheaf degree is a multiple of lcm(weights)."""
    L = spec.weights.L
    degrees = eigensheaf_degrees(spec.branch)
    return all(v % L == 0 for v in degrees.l)


def hurwitz_degree(spec: CoverSpec) -> Fraction:
    """Degree excess ``D/2 - W`` controlling the sign of the canonical class."""
    return Fraction(spec.branch.total, 2) - spec.weights.W


def half_point_count(spec: CoverSpec) -> int:
    """Number of 4-fold points of the branch configuration upstairs.

    Counts unordered zero-sum triples of branch components weighted by
    ``d_p * d_q * d_r / prod(weights)``; a fractional total raises
    :class:`NonIntegralError`.  Since ``d(0) = 0``, every weighted zero-sum
    triple has three distinct elements, so the unordered count is a sixth
    of the spectral triple convolution ``sum(S^3) / 2^s``.
    """
    triples = walsh.triple_convolution_at_zero(walsh.forward(spec.branch.d)) / 6
    total = triples / spec.weights.A
    if total.denominator != 1:
        raise NonIntegralError(f"half-point count {total} is not integral")
    return int(total)


@dataclass(frozen=True)
class ValidationReport:
    parity_ok: bool
    integral_degrees: bool
    weights_well_formed: bool
    flat: bool
    branching_positive: bool
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
            and self.half_points_integral
        )


def validate(spec: CoverSpec) -> ValidationReport:
    """Run every structural check once and collect the outcomes.

    Flatness is reported, not required; a negative or zero Hurwitz excess
    and any fractional quantity are failures.
    """
    messages: list[str] = []
    parity_ok = parity_vector(spec.branch.d) == 0
    if not parity_ok:
        messages.append("branch parity vector is nonzero: no square root of the divisor class")
    integral = True
    try:
        eigensheaf_degrees(spec.branch)
    except NonIntegralError as exc:
        integral = False
        messages.append(str(exc))
    wf = spec.weights.well_formed
    if not wf:
        messages.append(f"weights {spec.weights} are not well formed")
    flat = is_flat(spec) if integral else False
    hurwitz = hurwitz_degree(spec)
    positive = hurwitz > 0
    if not positive:
        messages.append(f"branch degree excess {hurwitz} is not positive")
    half_points: int | None = None
    half_ok = True
    try:
        half_points = half_point_count(spec)
    except NonIntegralError as exc:
        half_ok = False
        messages.append(str(exc))
    return ValidationReport(
        parity_ok=parity_ok,
        integral_degrees=integral,
        weights_well_formed=wf,
        flat=flat,
        branching_positive=positive,
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


def _is_int(value) -> bool:
    # JSON true/false decode to bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def from_json(text: str) -> CoverSpec:
    """Parse a cover description; omitted group elements carry degree 0."""
    try:
        payload = json.loads(text)
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
    if not _is_int(s) or not 1 <= s <= MAX_RANK:
        raise CoverSpecError(f"rank must be an integer in 1..{MAX_RANK}, got {s!r}")
    if not isinstance(dmap, Mapping):
        raise CoverSpecError("'d' must map bitstrings to degrees")
    d = [0] * (1 << s)
    for key, value in dmap.items():
        if not isinstance(key, str) or len(key) != s or set(key) - {"0", "1"}:
            raise CoverSpecError(f"bad group element {key!r} for rank {s}")
        g = sum(1 << i for i, c in enumerate(key) if c == "1")
        if not _is_int(value) or value < 0:
            raise CoverSpecError(f"bad degree {value!r} at {key!r}")
        if g == 0 and value:
            raise CoverSpecError("the identity must carry degree 0")
        d[g] = value
    return CoverSpec(weights, BranchData(s, tuple(d)))


def from_path(path: str) -> CoverSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return from_json(fh.read())
    except OSError as exc:
        raise CoverSpecError(f"cannot read {path}: {exc}") from exc
