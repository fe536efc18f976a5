"""perfbench/tracer.py wraps library functions by (module, name); each must
still exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_trace_target_is_a_library_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read the file only
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, name, _read in tracer.TARGETS:
        library = importlib.import_module(f"sumprodlab.{module}")
        assert callable(getattr(library, name, None)), f"sumprodlab.{module}.{name}"
