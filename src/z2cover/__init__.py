"""Exact invariants and classification for (Z/2)^s covers of weighted P^3."""

from .cover import (
    BranchData,
    CoverSpec,
    CoverSpecError,
    ValidationReport,
    eigensheaf_degrees,
    from_json,
    from_path,
    half_point_count,
    hurwitz_degree,
    is_flat,
    to_json,
    validate,
)
from .gf2 import orbit_reps
from .invariants import (
    GeographyPoint,
    InvariantReport,
    barycenter_ratio,
    geography_point,
    hunt_scan,
    invariant_report,
    vertex_ratio,
)
from .walsh import NonIntegralError
from .wps import Weights, euler_char_line, monomial_count

__version__ = "0.1.0"

__all__ = [
    "BranchData",
    "CoverSpec",
    "CoverSpecError",
    "GeographyPoint",
    "InvariantReport",
    "NonIntegralError",
    "ValidationReport",
    "Weights",
    "__version__",
    "barycenter_ratio",
    "eigensheaf_degrees",
    "euler_char_line",
    "from_json",
    "from_path",
    "geography_point",
    "half_point_count",
    "hunt_scan",
    "hurwitz_degree",
    "invariant_report",
    "is_flat",
    "monomial_count",
    "orbit_reps",
    "to_json",
    "validate",
    "vertex_ratio",
]
