"""The benchmark's tracer names library functions; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"ergopump.{module}.{fn}"
        for module, fns in tracing.LAYERS.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"ergopump.{module}"), fn, None))
    ]
    assert not missing, f"bench/tracing.py times functions that are gone: {missing}"
