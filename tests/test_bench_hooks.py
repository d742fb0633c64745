"""The benchmark's span hooks and declared metrics must match the code.

`perfbench/spans.py` wraps enfuse functions by module and attribute name, so
renaming or moving a traced function breaks the traced benchmark run.
`perfbench/selfcheck.py` also compares the metric names, units and workloads
the benchmark prints with the ones `BENCHMARK.json` declares. These tests only
load the scripts; they change nothing under `perfbench/`.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_script(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves(monkeypatch):
    assert load_script("spans", monkeypatch).check_targets() == []


def test_selfcheck_reports_no_problem(monkeypatch, capsys):
    # selfcheck prepends perfbench/ and src/ to sys.path and imports `run` and
    # `spans` under those bare names; restore both afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = {name: sys.modules.get(name) for name in ("run", "spans")}
    try:
        selfcheck = load_script("selfcheck", monkeypatch)
        assert selfcheck.main([]) == 0
    finally:
        for name, module in before.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
    assert capsys.readouterr().out == "selfcheck: 0 problem(s)\n"
