"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps named
functions and methods of `curv`; each must still exist, or that run fails."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module, name", [f[:2] for f in tracing.FUNCTIONS])
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("module, cls, methods", [m[:3] for m in tracing.METHODS])
def test_traced_methods_resolve(module, cls, methods):
    owner = getattr(importlib.import_module(module), cls)
    assert all(callable(getattr(owner, meth)) for meth in methods)
