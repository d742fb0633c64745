"""Spans around the enfuse functions each layer's callers look up.

Every hook replaces one attribute (a module global or a class method) with a
wrapper that records a span: name, start, end and parent. Hooks are installed
only for the traced passes of a run and removed afterwards, so untraced
iterations run the original functions. The stage functions (`cmd_<stage>`)
are hooked too, which times each stage inside `enfuse all`.

A hook names the attribute where the calling module looks it up, e.g.
`enfuse.ensemble:extract_features` rather than `enfuse.pretrain:...`,
because `from x import f` copies the reference into the caller's namespace.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name, parent, start):
        self.name, self.parent, self.start = name, parent, start
        self.end = start
        self.counts = None


class Tracer:
    """In-memory span recorder; span ids are indices into `spans`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    def root_of(self) -> list[int]:
        """For each span, the id of its outermost ancestor (parents precede children)."""
        roots = []
        for sid, span in enumerate(self.spans):
            roots.append(sid if span.parent is None else roots[span.parent])
        return roots

    def nearest(self, predicate) -> list[int | None]:
        """For each span, the closest ancestor-or-self whose name satisfies predicate."""
        out: list[int | None] = []
        for sid, span in enumerate(self.spans):
            if predicate(span.name):
                out.append(sid)
            else:
                out.append(None if span.parent is None else out[span.parent])
        return out

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct children (children never overlap)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]


# ---------------------------------------------------------------------------
# Hook table
# ---------------------------------------------------------------------------

def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _conv_name(kind):
    return lambda args, kwargs: f"nn.Conv2d.{kind}.k{args[0].kernel}"


def _conv_forward_counts(args, kwargs, result):
    layer, x = args[0], args[1]
    n, c_in, h, w = x.shape
    k2, c_out = layer.kernel * layer.kernel, layer.out_ch
    # float64 operands of the im2col GEMM: columns, weights, output
    return {"flops": 2 * n * h * w * c_in * k2 * c_out,
            "bytes": 8 * (n * h * w * c_in * k2 + c_in * k2 * c_out + n * h * w * c_out)}


def _file_bytes(path_arg: int):
    return lambda args, kwargs, result: {"bytes": os.path.getsize(args[path_arg])}


def _extract_counts(args, kwargs, result):
    model, dataset = args[0], args[1]
    params = [a for _, a in sorted(model.named_parameters().items())]
    return {"rows": len(dataset), "key": _digest(*params, dataset.images)}


def _fit_counts(kind):
    def counts(args, kwargs, result):
        x, y = args[0], args[1]
        extra = repr(sorted(kwargs.items())) + repr(args[2:])
        return {"key": (kind, _digest(np.ascontiguousarray(x, dtype=np.float64),
                                      np.ascontiguousarray(y, dtype=np.int64)), extra)}
    return counts


def _predict_name(args, kwargs):
    return f"classifiers.predict_proba.{args[0].kind.lower()}"


def _predict_counts(args, kwargs, result):
    return {"rows": len(result)}


def _ica_call(fn, args, kwargs):
    """Run fit_ica, reading per-component convergence from its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        transform = fn(*args, **kwargs)
    attempted = transform.unmixing.shape[0]
    failed = sum("did not converge" in str(w.message) for w in caught)
    return transform, {"components": attempted, "converged": attempted - failed}


def _explain_name(args, kwargs):
    what = kwargs.get("what", args[4] if len(args) > 4 else None)
    return f"cli.explain.{what}"


@dataclass(frozen=True)
class Hook:
    targets: tuple[str, ...]           # "module:attr" or "module:Class.attr"
    name: str | Callable               # span name, or f(args, kwargs) -> name
    counts: Callable | None = None     # f(args, kwargs, result) -> dict
    call: Callable | None = None       # f(fn, args, kwargs) -> (result, dict)


def _h(targets, name, counts=None, call=None):
    if isinstance(targets, str):
        targets = (targets,)
    return Hook(tuple(targets), name, counts, call)


STAGES = ("pretrain", "finetune", "ensemble", "ablate", "oodtest")
_KINDS = ("svm", "knn", "gnb", "rf", "gbt")
_PRETRAIN_OPS = ("pretrain_generic", "finetune_intermediate_tl", "pretrain_ssl",
                 "finetune_target_tl", "finetune_target_ssl")

HOOKS: tuple[Hook, ...] = (
    # cli: stage functions and the integrity bookkeeping
    *(_h(f"enfuse.cli:cmd_{s}", f"cli.{s}") for s in STAGES),
    _h("enfuse.cli:cmd_explain", _explain_name),
    _h("enfuse.cli:stage_complete", "cli.stage_complete"),
    _h("enfuse.cli:record_stage", "cli.record_stage"),
    # nn
    _h("enfuse.nn.layers:Conv2d.forward", _conv_name("forward"), _conv_forward_counts),
    _h("enfuse.nn.layers:Conv2d.backward", _conv_name("backward")),
    _h("enfuse.nn.layers:MaxPool2d.forward", "nn.MaxPool2d.forward"),
    _h("enfuse.nn.layers:MaxPool2d.backward", "nn.MaxPool2d.backward"),
    _h(("enfuse.nn.train:adam_step", "enfuse.pretrain:adam_step"), "nn.adam_step"),
    _h("enfuse.pretrain:nt_xent_loss", "nn.nt_xent_loss"),
    _h("enfuse.nn.train:cross_entropy_loss", "nn.cross_entropy_loss"),
    _h("enfuse.pretrain:train_supervised", "nn.train_supervised"),
    _h("enfuse.nn.model:EncoderModel.save", "nn.EncoderModel.save", _file_bytes(1)),
    _h("enfuse.nn.model:EncoderModel.load", "nn.EncoderModel.load"),
    # pretrain
    *(_h(f"enfuse.cli:{f}", f"pretrain.{f}") for f in _PRETRAIN_OPS),
    _h(("enfuse.ensemble:extract_features", "enfuse.cli:extract_features"),
       "pretrain.extract_features", _extract_counts),
    _h(("enfuse.cli:file_sha256", "enfuse.pretrain:file_sha256"),
       "pretrain.file_sha256", _file_bytes(0)),
    # data
    _h("enfuse.cli:make_synthetic_task", "data.make_synthetic_task"),
    _h("enfuse.pretrain:random_transform", "data.random_transform"),
    # fusion
    _h("enfuse.ensemble:fuse_pipeline", "fusion.fuse_pipeline"),
    _h("enfuse.fusion:fit_ica", "fusion.fit_ica", call=_ica_call),
    _h(("enfuse.fusion:apply_transform", "enfuse.ensemble:apply_transform",
        "enfuse.cli:apply_transform"), "fusion.apply_transform",
       lambda args, kwargs, result: {"rows": args[1].n_rows}),
    # classifiers
    *(_h(f"enfuse.ensemble:fit_{k}", f"classifiers.fit_{k}", _fit_counts(k)) for k in _KINDS),
    _h(("enfuse.classifiers:predict_proba", "enfuse.explain:predict_proba"),
       _predict_name, _predict_counts),
    _h("enfuse.cli:save_classifier", "classifiers.save_classifier", _file_bytes(1)),
    _h("enfuse.cli:load_classifier", "classifiers.load_classifier"),
    # ensemble
    _h(("enfuse.ensemble:train_ensemble", "enfuse.cli:train_ensemble"),
       "ensemble.train_ensemble"),
    _h("enfuse.ensemble:predict_ensemble", "ensemble.predict_ensemble"),
    _h("enfuse.cli:ablate", "ensemble.ablate"),
    # explain
    _h("enfuse.cli:shap_sampled", "explain.shap_sampled"),
    _h("enfuse.cli:tsne_embed", "explain.tsne_embed"),
    _h("enfuse.cli:grad_cam", "explain.grad_cam"),
)


def resolve(target: str):
    """(owner object, attribute name, raw attribute) for "module:[Class.]attr"."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if not callable(getattr(owner, attr)):
        raise TypeError(f"{target} is not callable")
    return owner, attr, raw


def check_targets() -> list[str]:
    """Every hook target that no longer resolves, with the reason."""
    missing = []
    for hook in HOOKS:
        for target in hook.targets:
            try:
                resolve(target)
            except (ImportError, AttributeError, KeyError, TypeError) as exc:
                missing.append(f"{target}: {type(exc).__name__}: {exc}")
    return missing


def _wrap(tracer: Tracer, hook: Hook, fn):
    name, counts, call = hook.name, hook.counts, hook.call
    fixed = isinstance(name, str)

    def wrapper(*args, **kwargs):
        sid = tracer.open(name if fixed else name(args, kwargs))
        try:
            if call is None:
                result = fn(*args, **kwargs)
            else:
                result, extra = call(fn, args, kwargs)
                tracer.spans[sid].counts = extra
        finally:
            tracer.close(sid)
        if counts is not None:
            tracer.spans[sid].counts = counts(args, kwargs, result)
        return result

    return wrapper


class Patches:
    """Installs a set of hooks and restores the original attributes."""

    def __init__(self, tracer: Tracer, hooks):
        self._saved = []
        for hook in hooks:
            for target in hook.targets:
                owner, attr, raw = resolve(target)
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(tracer, hook, raw.__func__))
                else:
                    new = _wrap(tracer, hook, raw)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of the traced passes
# ---------------------------------------------------------------------------

STAGE_SPANS = (*(f"cli.{s}" for s in STAGES),
               *(f"cli.explain.{w}" for w in ("shap", "tsne", "gradcam")))

# Declared per-layer metrics, in print order. Suffix -> unit and direction:
# `.calls`/`.rows` count work, `.s` is busy (inclusive) seconds, `.flops` and
# Conv2d `.bytes` are computed from call shapes, other `.bytes` are file sizes.
LAYER_METRICS: tuple[str, ...] = (
    *(f"{name}.s" for name in STAGE_SPANS),
    *(f"nn.Conv2d.forward.k{k}.{f}" for k in (3, 5) for f in ("calls", "s", "flops", "bytes")),
    *(f"nn.Conv2d.backward.k{k}.{f}" for k in (3, 5) for f in ("calls", "s")),
    "nn.MaxPool2d.forward.s", "nn.MaxPool2d.backward.s",
    "nn.adam_step.calls", "nn.adam_step.s",
    "nn.nt_xent_loss.calls", "nn.nt_xent_loss.s",
    "nn.cross_entropy_loss.s",
    "nn.train_supervised.calls", "nn.train_supervised.s",
    "nn.EncoderModel.save.s", "nn.EncoderModel.save.bytes",
    "nn.EncoderModel.load.s",
    *(f"pretrain.{op}.s" for op in _PRETRAIN_OPS),
    *(f"pretrain.extract_features.{f}" for f in ("calls", "s", "rows", "unique_ratio")),
    "pretrain.extract_features.in_ablate.calls",
    "pretrain.extract_features.in_ablate.unique_ratio",
    *(f"pretrain.file_sha256.{f}" for f in ("calls", "s", "bytes")),
    "data.make_synthetic_task.calls", "data.make_synthetic_task.s",
    "data.random_transform.calls", "data.random_transform.s",
    "fusion.fuse_pipeline.calls", "fusion.fuse_pipeline.s",
    "fusion.fit_ica.calls", "fusion.fit_ica.s", "fusion.fit_ica.converged_ratio",
    "fusion.apply_transform.calls", "fusion.apply_transform.rows", "fusion.apply_transform.s",
    *(f"classifiers.fit_{k}.{f}" for k in _KINDS for f in ("calls", "s")),
    "classifiers.fit.unique_ratio",
    *(f"classifiers.predict_proba.{k}.{f}" for k in _KINDS for f in ("calls", "rows", "s")),
    "classifiers.save_classifier.bytes", "classifiers.load_classifier.s",
    "ensemble.train_ensemble.calls", "ensemble.train_ensemble.s",
    "ensemble.predict_ensemble.calls", "ensemble.predict_ensemble.s",
    "ensemble.ablate.s", "ensemble.voted_acc",
    *(f"explain.{f}.{m}" for f in ("shap_sampled", "tsne_embed", "grad_cam")
      for m in ("calls", "s")),
    "cli.stage_complete.calls", "cli.stage_complete.s", "cli.record_stage.s",
    "trace.overhead",
)


def layer_unit(name: str) -> tuple[str, str]:
    """(unit, better) of a declared per-layer metric, from its suffix."""
    suffix = name.rsplit(".", 1)[1]
    if suffix in ("unique_ratio", "converged_ratio"):
        return "ratio", "higher"
    if name == "ensemble.voted_acc":
        return "fraction", "higher"
    if name.startswith("nn.Conv2d.") and suffix in ("flops", "bytes"):
        return {"flops": "flop-computed", "bytes": "B-computed"}[suffix], "lower"
    return {"calls": "count", "rows": "count", "s": "s", "bytes": "B",
            "overhead": "ratio"}[suffix], "lower"


def layer_metrics(tracer: Tracer, passes: set[int]) -> dict[str, float]:
    """Aggregate the spans under the pass spans in `passes`, by span name.

    `.calls` counts spans, `.s` sums their inclusive durations (no hooked
    function calls itself, so nothing is counted twice) and other fields sum
    what the hooks recorded. Keys recorded per call give the wasted-work
    ratios; distinct keys are counted within each pass.
    """
    roots = tracer.root_of()
    stage_of = tracer.nearest(STAGE_SPANS.__contains__)
    agg: dict[str, dict[str, float]] = {}
    keys: dict[str, set] = {}
    for sid, span in enumerate(tracer.spans):
        if roots[sid] not in passes or span.parent is None:
            continue
        rec = agg.setdefault(span.name, {"calls": 0, "s": 0.0})
        rec["calls"] += 1
        rec["s"] += span.end - span.start
        for field, value in (span.counts or {}).items():
            if field != "key":
                rec[field] = rec.get(field, 0) + value
                continue
            group = "fit" if span.name.startswith("classifiers.fit_") else span.name
            keys.setdefault(group, set()).add((roots[sid], value))
            stage = stage_of[sid]
            if group != "fit" and stage is not None and tracer.spans[stage].name == "cli.ablate":
                keys.setdefault(group + ".in_ablate", set()).add((stage, value))
                rec["in_ablate.calls"] = rec.get("in_ablate.calls", 0) + 1

    out = {f"{name}.{field}": value
           for name, rec in agg.items() for field, value in rec.items()}
    ext = agg.get("pretrain.extract_features", {})
    out["pretrain.extract_features.unique_ratio"] = _ratio(
        len(keys.get("pretrain.extract_features", ())), ext.get("calls", 0))
    out["pretrain.extract_features.in_ablate.unique_ratio"] = _ratio(
        len(keys.get("pretrain.extract_features.in_ablate", ())),
        ext.get("in_ablate.calls", 0))
    fits = sum(rec["calls"] for n, rec in agg.items() if n.startswith("classifiers.fit_"))
    out["classifiers.fit.unique_ratio"] = _ratio(len(keys.get("fit", ())), fits)
    ica = agg.get("fusion.fit_ica", {})
    out["fusion.fit_ica.converged_ratio"] = _ratio(ica.get("converged", 0),
                                                   ica.get("components", 0))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def stage_breakdown(tracer: Tracer, passes: set[int]) -> dict[str, dict[str, list]]:
    """stage span name -> span name -> [calls, inclusive s, self s, rows]."""
    roots = tracer.root_of()
    stage_of = tracer.nearest(STAGE_SPANS.__contains__)
    selfs = tracer.self_times()
    table: dict[str, dict[str, list]] = {}
    for sid, span in enumerate(tracer.spans):
        if roots[sid] not in passes or span.parent is None:
            continue
        stage = stage_of[sid]
        key = tracer.spans[stage].name if stage is not None else "(outside stages)"
        rec = table.setdefault(key, {}).setdefault(span.name, [0, 0.0, 0.0, 0])
        rec[0] += 1
        rec[1] += span.end - span.start
        rec[2] += selfs[sid]
        rec[3] += (span.counts or {}).get("rows", 0)
    return table
