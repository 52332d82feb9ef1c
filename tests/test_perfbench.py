"""The traced benchmark's entry points still exist in the package."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_entry_point_resolves():
    # A rename in sfhand would otherwise surface only as TraceGuardError
    # in a traced benchmark run.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses look their module up here
    try:
        spec.loader.exec_module(tracing)
        for ep in tracing.ENTRY_POINTS:
            ep.resolve()  # raises TraceGuardError if the entry point is gone
    finally:
        del sys.modules[spec.name]
