"""The benchmark tracer still finds every layer entry point it wraps.

`bench/tracing.py` reads a renamed or removed layer as absent (its
metrics go null) rather than failing, so this check makes such a rename
fail the test suite instead.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for name, target in tracing.LAYERS.items()
               if tracing._resolve(*target) is None]
    assert missing == []
