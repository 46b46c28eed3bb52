"""The benchmark's per-layer hooks must find what they rebind.

``tsvcbench/spans.py`` traces layers by rebinding module attributes by
name.  A hook whose target is renamed away is skipped, and its metric
goes blank without failing the run, so the targets are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "tsvcbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("tsvcbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves():
    spans = _spans()
    targets = [hook[:2] for hook in spans.SPAN_HOOKS + spans.COUNT_HOOKS]
    targets.append(tuple(spans.CANDIDATES_HOOK))
    missing = [f"{module}.{attr}" for module, attr in targets
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
