"""Every name a ``z2cover`` module exports in ``__all__`` exists, and the
package's own ``__all__`` is pinned so that changing the public API is a
deliberate edit here."""

import importlib
import pkgutil

import pytest

import z2cover

MODULES = ["z2cover"] + [f"z2cover.{info.name}" for info in pkgutil.iter_modules(z2cover.__path__)]


def test_every_module_is_listed():
    assert {"z2cover.classify", "z2cover.cli", "z2cover.gf2"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate export"
    assert [x for x in exported if not hasattr(module, x)] == []


PACKAGE_API = [
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


def test_package_api_is_pinned():
    assert z2cover.__all__ == PACKAGE_API
