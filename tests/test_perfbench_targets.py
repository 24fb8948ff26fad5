"""Every function the benchmark's span tracer wraps still exists.

`perfbench/spans.py` names its targets as (module, attribute path) pairs and
looks each one up when `perfbench/run.py --trace 1` or `perfbench/selftest.py`
installs the tracer; a renamed or deleted function would break both.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    targets = _load_spans().TARGETS
    assert targets
    for modname, path, name, _ in targets:
        module = importlib.import_module(f"eymsym.{modname}")
        head, *rest = path.split(".")
        assert head in vars(module), name
        owner = vars(module)[head]
        for part in rest:
            assert hasattr(owner, part), name
            owner = getattr(owner, part)
        assert callable(owner), name
