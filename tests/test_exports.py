"""Every name a ``bsdelab`` module exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import bsdelab

MODULES = [f"bsdelab.{info.name}" for info in pkgutil.iter_modules(bsdelab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def test_the_library_modules_declare_their_exports():
    declared = {name for name in MODULES if hasattr(importlib.import_module(name), "__all__")}
    assert {"bsdelab.geometry", "bsdelab.generators", "bsdelab.solver"} <= declared
