"""The benchmark's layer tracer still finds every name it patches.

``perfbench/tracing.py`` wraps package functions and methods by name; a
deleted or renamed one makes ``install`` raise.  Installing and
uninstalling the tracer here catches that in seconds, without
running the benchmark itself.
"""

import importlib.util
from pathlib import Path

import bsdelab.conditions
import bsdelab.geometry

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot(modules):
    """Every module global, and every attribute of every class, by identity."""
    out = {}
    for module in modules:
        for name, value in vars(module).items():
            out[(module.__name__, name)] = id(value)
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    out[(module.__name__, name, attr)] = id(member)
    return out


def test_layer_tracer_installs_on_the_package_and_uninstalls_cleanly():
    tracing = _load_tracing()
    before = _snapshot(tracing._MODULES)
    tracer = tracing.LayerTracer()
    tracer.install()
    try:
        assert tracer.installed
        for name in ("check_comparison_multidim", "comparison_lhs_rhs", "matrix_lhs_rhs"):
            assert hasattr(getattr(bsdelab.conditions, name), "__wrapped__"), name
        assert hasattr(bsdelab.geometry.jump_defect, "__wrapped__")
        assert hasattr(bsdelab.geometry.Ball.dist_batch, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not tracer.installed
    assert _snapshot(tracing._MODULES) == before
