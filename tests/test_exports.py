"""Every name a ``z2cover`` module exports in ``__all__`` exists."""

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
