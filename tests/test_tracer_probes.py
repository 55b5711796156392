"""The benchmark tracer wraps package functions by module and name; a
refactor that renames or moves one of them must fail here, in the ordinary
test run, and not only in the benchmark's self-tests."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_probe_resolves_to_a_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.PROBES
    for module, attr, _span, _work in tracing.PROBES:
        assert callable(getattr(module, attr, None)), (module.__name__, attr)
