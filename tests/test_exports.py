"""Every name a ``z2cover`` module exports in ``__all__`` exists, and the
package's own ``__all__`` is pinned so that changing the public API is a
deliberate edit here.  The test oracles stay independent of the package."""

import ast
import importlib
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

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
    "geography_coordinates",
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


def test_package_import_loads_no_submodule():
    src = str(Path(z2cover.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import z2cover; "
        "print(sorted(m for m in sys.modules if m.startswith('z2cover.')))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_each_export_is_its_modules_object():
    exports = {name: getattr(z2cover, name) for name in PACKAGE_API if name != "__version__"}
    assert [name for name, value in exports.items()
            if not value.__module__.startswith("z2cover.")
            or getattr(importlib.import_module(value.__module__), name) is not value] == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from z2cover import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PACKAGE_API


def test_dir_lists_the_exports():
    assert {"__all__", *PACKAGE_API} <= set(dir(z2cover))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match=r"^module 'z2cover' has no attribute 'nope'$"):
        z2cover.nope


# each record's fields in order (the key order of its JSON output) and its defaults
RECORDS = [
    ("classify.PluricanonicalReport", "m D M k l p_m flat admissible reasons", {}),
    ("classify.AdmissibleSolution", "weights s m k d l D p_m flat status note",
     {"status": "main", "note": ""}),
    ("classify.DistributionCounts", "s D base counts", {}),
    ("classify.RankOneFamily", "weights m t_min t_sup status note",
     {"status": "main", "note": ""}),
    ("branch.CoverSpec", "weights branch", {}),
    ("cover.ValidationReport", "parity_ok integral_degrees weights_well_formed flat"
     " branching_positive connected hurwitz half_points half_points_integral messages", {}),
    ("invariants.InvariantReport", "k3 chi euler euler_exact hurwitz half_points flat x y sci", {}),
    ("moduli.DeformationReport", "pairwise_ok failing_pairs total_degree_ok weights_coprime"
     " genericity_assumed messages", {}),
    ("moduli.UnboundedFamily", "kind s m weights chi0 height l_on l_off total M flat", {}),
]


@pytest.mark.parametrize("path, fields, defaults", RECORDS, ids=[path for path, *_ in RECORDS])
def test_record_fields_are_pinned(path, fields, defaults):
    module, name = path.split(".")
    record = getattr(importlib.import_module(f"z2cover.{module}"), name)
    assert (record._fields, record._field_defaults) == (tuple(fields.split()), defaults)
    value = record(*range(len(record._fields)))
    assert not hasattr(value, "__dict__")
    assert type(pickle.loads(pickle.dumps(value))) is record
    assert repr(value).startswith(f"{name}({record._fields[0]}=0, ")


def test_oracles_import_no_library_and_each_is_used():
    # an oracle that calls z2cover checks the library against itself, and
    # one that no test module imports checks nothing
    tests = Path(__file__).resolve().parent
    tree = ast.parse((tests / "oracles.py").read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert modules and [m for m in modules if m.startswith(("z2cover", "."))] == []
    used = set()
    for path in tests.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "oracles":
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "oracles":
                used.add(node.attr)
    defined = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert len(defined) > 20 and [name for name in defined if name not in used] == []
