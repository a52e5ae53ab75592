"""Every function the benchmark's tracer wraps must exist.

The tracer in ``perfbench/spans.py`` skips a target it cannot find, so a
renamed function would silently zero its per-layer metric.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

TARGETS = sorted(
    {t for targets in spans.SPANS.values() for t in targets} | set(spans.COUNTERS.values())
)


@pytest.mark.parametrize("target", TARGETS)
def test_trace_target_resolves_to_a_callable(target):
    module, attr = target.split(":")
    assert callable(getattr(importlib.import_module(module), attr, None))
