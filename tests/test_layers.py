"""The benchmark tracer's layer list names functions that exist."""

import importlib
import importlib.util
import pathlib

import pytest

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


@pytest.mark.parametrize("module, attr", _layers())
def test_traced_layer_resolves(module, attr):
    # the tracer raises on a missing name, so `bench/run.py --trace 1`
    # breaks when a refactor renames or deletes a traced function
    obj = importlib.import_module(f"optmech.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj), f"optmech.{module}.{attr} is not callable"
