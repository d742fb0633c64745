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

import numpy as np

from enfuse import explain
from enfuse.ensemble import fuse_parts, train_ensemble
from enfuse.features import FeatureMatrix

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



def test_shap_calls_predict_proba_through_explain(monkeypatch):
    """SHAP's `classifiers.predict_proba.*` spans come from the hook on
    `enfuse.explain.predict_proba`; if the ensemble's output function left
    `explain`, those spans would vanish without any error."""
    rng = np.random.default_rng(0)
    labels = np.repeat([0, 1], 6)
    parts = {name: FeatureMatrix(rng.normal(size=(12, 3)) + labels[:, None], labels=labels)
             for name in ("a", "b")}
    model = train_ensemble([parts], method="concat+pca", seed=0, k=2)[0]
    fused = fuse_parts(model.transform, parts).data
    predict_proba, calls = explain.predict_proba, []

    def counted(clf, q):
        calls.append(clf.kind)
        return predict_proba(clf, q)

    monkeypatch.setattr(explain, "predict_proba", counted)
    f = explain.ensemble_output(model)
    assert len(calls) == 0
    explain.shap_sampled(f, fused[0], fused, n_samples=8, seed=0)
    assert len(calls) == len(model.classifiers)  # the one block
    assert set(calls) == {clf.kind for clf in model.classifiers}
