"""Cover files, structural validation and the branch triple points.

The branch-data model (:class:`BranchData`, :class:`CoverSpec`, the
eigensheaf degrees, flatness and the Hurwitz excess) lives in
:mod:`z2cover.branch` and is imported here, so ``z2cover.cover`` still
names it.  A cover file writes each group element as a key with bit 0
first: ``{"weights": [1, 1, 1, 1], "s": 2, "d": {"10": 3, "01": 3, "11": 3}}``
gives elements 1, 2 and 3 degree 3.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, namedtuple
from collections.abc import Mapping
from fractions import Fraction

from .branch import (
    BranchData,
    CoverSpec,
    CoverSpecError,
    _bits,
    check_rank,
    eigensheaf_degrees,
    hurwitz_degree,
    is_flat,
)
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


def zero_sum_triple_mass(branch: BranchData) -> Fraction:
    """``sum(S^3) / (6 * 2^s)`` for the Walsh spectrum ``S`` of ``d``, from the
    cube sum kept on the branch data.

    ``sum(S^3) / 2^s`` is the triple self-convolution of ``d`` at the
    origin, ``sum over x ^ y ^ z = 0 of d(x) d(y) d(z)``: the weighted count
    of ordered zero-sum triples.  Since ``d(0) = 0`` every such triple has
    three distinct elements, and the sixth returned here is the unordered
    mass: ``d_p d_q d_r`` summed over the sets ``{p, q, r}`` with
    ``p ^ q ^ r = 0``, unlike the ordered sum ``c3 = sum(S^3)`` that
    ``invariants.geography_coordinates`` reads.
    """
    return Fraction(branch.cube_sum, 6 << branch.s)


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


class ValidationReport(namedtuple("ValidationReport",
                                  "parity_ok integral_degrees weights_well_formed flat"
                                  " branching_positive connected hurwitz half_points"
                                  " half_points_integral messages")):
    """Outcome of :func:`validate`: ``hurwitz`` is a Fraction, and
    ``half_points`` is None when the count is fractional."""

    __slots__ = ()

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


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def from_json(text: str) -> CoverSpec:
    """Parse a cover description; omitted group elements carry degree 0.

    Only the JSON shape, the keys and the rank are checked here;
    :class:`BranchData` checks the degrees.  A key repeated in any object
    is an error rather than a silent last-one-wins, and so is a number
    longer than the interpreter's digit limit.
    """
    try:
        if text.startswith("\ufeff"):  # refused as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        payload = _DECODER.decode(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CoverSpecError(f"invalid JSON: {exc}") from exc
    except CoverSpecError:
        raise
    except ValueError as exc:  # the one other: int() refuses a number past the digit limit
        raise CoverSpecError(
            f"a number in the file has more than {sys.get_int_max_str_digits()} digits,"
            " the interpreter's limit (sys.set_int_max_str_digits)"
        ) from exc
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
        if len(key) != s or key.strip("01"):
            raise CoverSpecError(f"bad group element {key!r} for rank {s}")
        d[int(key[::-1], 2)] = value  # bit i of g is key[i]
    return CoverSpec(weights, BranchData(s, tuple(d)))


def from_path(path: str) -> CoverSpec:
    try:
        with open(path, "rb") as fh:  # bytes: cheaper than a text-mode read
            text = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CoverSpecError(f"cannot read {path}: {exc}") from exc
    return from_json(text.replace("\r\n", "\n").replace("\r", "\n"))  # newlines as text mode reads
