"""The benchmark's traced layers name functions that exist.

`bench/tracing.py` records a listed layer it cannot find as absent and
carries on, so a deleted or renamed function would quietly drop out of the
per-layer metrics. This test reads `LAYERS` from the source, without
importing the benchmark, and resolves each entry.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _layers():
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {TRACING}")


@pytest.mark.parametrize("module, func", _layers(), ids=lambda v: v)
def test_traced_layer_exists(module, func):
    assert callable(getattr(importlib.import_module(f"toygrasp.{module}"), func, None))
