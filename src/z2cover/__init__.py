"""Exact invariants and classification for (Z/2)^s covers of weighted P^3.

The package exports resolve lazily (PEP 562): ``import z2cover`` loads no
submodule, and each exported name imports its defining module on first
access, so a process loads only the modules its command runs.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "BranchData": "branch",
    "CoverSpec": "branch",
    "CoverSpecError": "branch",
    "eigensheaf_degrees": "branch",
    "hurwitz_degree": "branch",
    "is_flat": "branch",
    "ValidationReport": "cover",
    "from_json": "cover",
    "from_path": "cover",
    "half_point_count": "cover",
    "to_json": "cover",
    "validate": "cover",
    "orbit_reps": "gf2",
    "InvariantReport": "invariants",
    "barycenter_ratio": "invariants",
    "geography_coordinates": "invariants",
    "hunt_scan": "invariants",
    "invariant_report": "invariants",
    "vertex_ratio": "invariants",
    "NonIntegralError": "walsh",
    "Weights": "wps",
    "euler_char_line": "wps",
    "monomial_count": "wps",
}

__all__ = sorted(["__version__", *_EXPORTS])


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
