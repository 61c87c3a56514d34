"""The benchmark's tracer rebinds `dispersat` module attributes by name;
every name it lists must exist, or a traced run fails."""

import importlib
import importlib.util
import types
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


def test_exact_paths_record_fwht_spans(tmp_path):
    """The exact diameter and dispersion run through the bound names, so
    a traced run sees the indicator build and the convolutions."""
    spans = _spans()
    modules = {binding.split(".")[0] for binding in _bindings()}
    ds = types.SimpleNamespace(
        **{name: importlib.import_module(f"dispersat.{name}") for name in modules}
    )
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 6 2\n1 2 0\n-3 4 0\n")
    tracer = spans.Tracer(ds)
    tracer.install()
    try:
        assert ds.cli.run(["diameter", "--algo", "fwht", str(path)]) == 0
        assert ds.cli.run(["disperse", "--s", "3", "--algo", "fwht", str(path)]) == 0
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    assert {"fwht.indicator_table", "fwht.convolve"} <= recorded
