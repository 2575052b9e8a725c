"""The benchmark's tracer still finds every function it is told to trace.

``bench/spans.py`` looks each traced name up with ``getattr``, so renaming or
deleting one of those functions would break ``bench/run.py --trace 1``
without failing any package test.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    # Loaded by path, leaving no bytecode cache beside the benchmark's files;
    # its dataclasses need the module registered while it runs.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _package_functions():
    """Every module-level value of every loaded locksched module, by (module, attribute)."""
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "locksched" or name.startswith("locksched."))
        for attr, value in vars(module).items()
    }


def test_tracer_installs_on_every_traced_name_and_uninstalls(spans):
    for module in spans.TRACED:
        importlib.import_module(f"locksched.{module}")
    assert set(spans.NOTES) <= set(spans.TRACED_NAMES)
    before = _package_functions()
    tracer = spans.Tracer()
    try:
        tracer.install("locksched")
        for module, functions in spans.TRACED.items():
            for name in functions:
                wrapper = getattr(sys.modules[f"locksched.{module}"], name)
                assert wrapper.__wrapped__ is before[f"locksched.{module}", name]
    finally:
        tracer.uninstall()
    after = _package_functions()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
