"""The benchmark's tracer reaches lidarfog through the bindings listed in
`perfbench/spans.py` (``TARGETS``).  An API cut that drops one of them makes
``perfbench/run.py --trace 1`` fail while every other test passes."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    targets = load_spans().TARGETS
    assert targets
    for module_name, attr, span in targets:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr} (span {span}) is gone"
