"""The benchmark's span hooks must name functions that still exist.

`perfbench/spans.py` wraps enfuse functions by module and attribute name, so
renaming or moving a traced function breaks the traced benchmark run. This
test only imports the hook table; it changes nothing under `perfbench/`.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_hook_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    assert spans.check_targets() == []
