"""The benchmark's tracer rebinds `dispersat` module attributes by name;
every name it lists must exist, or a traced run fails."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    spans = _spans()
    out = [b for bindings in spans.TIMED.values() for b in bindings]
    out += [b for bindings, _ in spans.COUNTED.values() for b in bindings]
    return out


@pytest.mark.parametrize("binding", _bindings())
def test_binding_resolves_to_a_callable(binding):
    module_name, attr = binding.split(".")
    module = importlib.import_module(f"dispersat.{module_name}")
    assert callable(getattr(module, attr, None)), binding


def test_hook_dependencies_exist():
    ppz = importlib.import_module("dispersat.ppz")
    assert ppz.OracleConfig().resolve(8, 3) >= 1
    assert ppz.ball_radius(8, 3) >= 0
