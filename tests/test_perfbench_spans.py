"""The benchmark's span tracer must find every function it wraps."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, path in spans.TRACED:
        owner, attr = spans._resolve(module, path)
        assert callable(getattr(owner, attr, None)), f"gestprop.{module}.{path}"
