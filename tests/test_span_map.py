"""The benchmark tracer wraps lqrec functions at named attributes
(``benchmark/tracing.py``, ``SPAN_MAP``); a refactor that removes one makes
``benchmark/run.py --trace 1`` fail before it runs anything."""

import importlib
import os

BENCHMARK_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "benchmark")


def test_span_map_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARK_DIR)
    tracing = importlib.import_module("tracing")
    missing = []
    for boundary in tracing.SPAN_MAP:
        for target in boundary.targets:
            try:
                owner, attr = tracing._resolve(target)
                getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(target)
    assert tracing.SPAN_MAP
    assert missing == []
