"""Command-line pipeline driver.

Stages (pretrain -> finetune -> ensemble -> ablate / explain / oodtest) write
to `<out>/<task>/<stage>/`. The root manifest, the only integrity record, holds
each stage's inputs (the seed, each config value it read, a digest of the
`files` map of each stage it requires) and each of its files' hash. The one
rule, which `run_stage` applies: a stage is current when its recorded inputs
still hold, its record lists each file that later stages read from it
(`SUCCESSOR_FILES`), and its files hash-match. A current stage is skipped; any
other reruns and replaces its record, and drops, in the same manifest write, every
record downstream of it (requiring it directly or through other records) whose
inputs no longer hold; the files only the replaced or dropped records listed
are then deleted. Explain runs on every call and adds to its record while its
inputs hold.

Exit codes: 0 success, 2 config error (at load, or in the `RULES` of a stage the
command runs, `--instance` included), 3 stage failure or a required stage
missing or stale ("run it first", from the most upstream stage of its chain
that must rerun), 4 integrity failure (a damaged file of a stage whose inputs
hold, or a manifest that is unreadable or lists a path outside `--out`).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .artifact import write_atomic
from .classifiers import KINDS, load_classifier, save_classifier
from .data import (
    TASK_MOTIFS,
    make_synthetic_task,
    pnm_bytes,
    stratified_split,
    stratified_train_counts,
)
from .ensemble import (
    EnsembleModel,
    TargetSplit,
    ablate,
    ablation_csv,
    evaluate,
    extract_parts,
    fit_arm,
    fuse_parts,
    load_target_split,
    metrics_csv,
    save_target_split,
    scores,
    summary_text,
    train_ensemble,
)
from .errors import ConfigError, EnfuseError, IntegrityError
from .explain import (
    TSNE_MIN_ROWS,
    ensemble_output,
    grad_cam,
    render_ablation_svg,
    render_confusion_svg,
    render_embedding_svg,
    render_saliency_ppm,
    select_background,
    shap_csv,
    shap_sampled,
    tsne_embed,
)
from .fusion import (K_METHODS, METHODS, FusionTransform, load_transform, max_components,
                     save_transform)
from .fusion import apply_transform  # noqa: F401  (bench span hook target)
from .nn import EncoderModel, MaxPool2d, accuracy
from .pretrain import (
    build_backbone,
    extract_features,
    file_sha256,
    finetune_intermediate_tl,
    finetune_target_ssl,
    finetune_target_tl,
    make_classification_head,
    make_projection_head,
    make_ssl_classification_head,
    pretrain_generic,
    pretrain_ssl,
)

TOOL_VERSION = "0.1.0"
VARIANTS = ("A", "B", "C")
TARGET_KIND = "shapes3"  # the task kind of the target rung
BASE_MODEL_NAMES = tuple(f"{m}_{v}" for m in ("tl", "ssl") for v in VARIANTS)
TARGET_FILE = "target.bin"  # finetune's TargetSplit, which the later stages read

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# Every setting: section -> key -> (default, allowed). `allowed` is an
# interval for a number, "[" and "]" including the end point, "(" and ")"
# excluding it; a tuple of choices for a string; None for any string.
# `load_config` checks every value against it. Every count and size has a
# finite top, so the stages' `RULES` count in NumPy integers without overflow.
SETTINGS: dict[str, dict[str, tuple[object, str | tuple[str, ...] | None]]] = {
    "task": {
        "name": ("synthetic-ladder", None),  # one directory name: load_config checks it
    },
    "data": {
        "image_size": (16, "[16, 1024]"),  # and the pooling factor's multiple: _check_image_size
        "generic_per_class": (12, "[2, 100000]"),
        "intermediate_per_class": (15, "[2, 100000]"),
        "target_per_class": (20, "[2, 100000]"),
        "generic_noise": (0.0, "[0, inf)"),
        "intermediate_noise": (0.03, "[0, inf)"),
        "target_noise": (0.02, "[0, inf)"),
        "target_param_shift": (0.04, "[0, inf)"),
        "split_fraction": (0.8, "(0, 1)"),
    },
    "pretrain": {
        "epochs": (30, "[1, 100000]"),
        "batch": (8, "[1, 100000]"),
        "lr": (0.01, "(0, inf)"),
        "ssl_epochs": (8, "[1, 100000]"),
        "ssl_batch_pairs": (16, "[2, 100000]"),
        "ssl_lr": (0.01, "(0, inf)"),
        "temperature": (0.5, "(0, inf)"),
        "augment_blur_kernel": (3, "[1, 1023]"),  # odd, and no wider than the largest image
    },
    "finetune": {
        "epochs": (30, "[1, 100000]"),
        "batch": (8, "[1, 100000]"),
        "lr": (0.01, "(0, inf)"),
    },
    "fusion": {
        "method": ("concat+ica", METHODS),
        "k": (16, "[0, 100000]"),  # retained components; 0 = automatic (fusion.fuse_pipeline)
    },
    "explain": {
        "perplexity": (10.0, "[1, inf)"),
        "tsne_iters": (500, "[1, 100000]"),
        "shap_samples": (2048, "[1, 100000]"),
    },
    "oodtest": {
        "kind": ("binary", tuple(TASK_MOTIFS)),
        "per_class": (20, "[2, 100000]"),
        "noise": (0.05, "[0, inf)"),
    },
}


def _within(value: float, bound: str) -> bool:
    lo, hi = (float(end) for end in bound[1:-1].split(","))
    return ((lo < value if bound[0] == "(" else lo <= value)
            and (value < hi if bound[-1] == ")" else value <= hi))


def _coerce(section: str, key: str, raw: str):
    """`raw` as the type of the key's default: int, float or str."""
    try:
        return type(SETTINGS[section][key][0])(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def load_config(path: str | None) -> dict[str, dict[str, object]]:
    """Flat key=value config with [section] headers and `#` comments.

    Unknown sections or keys, values that `SETTINGS` does not allow (a
    number outside its interval, a fusion method or OOD task kind not among
    its choices), a task name that is not one directory name, an even blur
    kernel and an image size that a stack cannot pool are rejected here. The
    rules across values belong to the stages whose work needs them: `RULES`.
    """
    config = {section: {key: default for key, (default, _) in keys.items()}
              for section, keys in SETTINGS.items()}
    section = None
    try:
        lines = [] if path is None else Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.partition("#")[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SETTINGS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key = key.strip()
        if key not in SETTINGS[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        config[section][key] = _coerce(section, key, value.strip())
    for section, keys in SETTINGS.items():
        for key, (_, allowed) in keys.items():
            value = config[section][key]
            if isinstance(allowed, str) and not _within(value, allowed):
                raise ConfigError(f"[{section}] {key}: {value!r} is outside {allowed}")
            if isinstance(allowed, tuple) and value not in allowed:
                raise ConfigError(f"[{section}] {key}: {value!r} is not one of "
                                  f"{', '.join(allowed)}")
    name = config["task"]["name"]
    if name in ("", ".", "..") or "/" in name:  # joined to --out as one directory
        raise ConfigError(f"[task] name: {name!r} is not a single directory name")
    if config["pretrain"]["augment_blur_kernel"] % 2 == 0:
        raise ConfigError(f"[pretrain] augment_blur_kernel: "
                          f"{config['pretrain']['augment_blur_kernel']} is not odd")
    _check_image_size(config)
    return config


def _check_image_size(config: dict) -> None:
    """Every MaxPool2d halves the maps and needs even sides, so the image
    side must divide by 2 ** (the most pools on any stack pretrain builds).

    The SSL stacks put a head that opens with a pool on the backbone.
    """
    heads = [make_classification_head(4, 2, None), make_projection_head(4, None),
             make_ssl_classification_head(4, 2, None)]

    def pools(layers):
        return sum(isinstance(layer, MaxPool2d) for layer in layers)

    # the stacks describe only layer shapes, so they draw no weights
    backbones = [build_backbone(variant, None) for variant in VARIANTS]
    factor = 2 ** (max(map(pools, backbones)) + max(map(pools, heads)))
    size = config["data"]["image_size"]
    if size % factor:
        raise ConfigError(f"[data] image_size: {size} is not a multiple of {factor}, "
                          f"which the deepest stack's pooling needs")


def _train_counts(config: dict, per_class: int, kind: str) -> np.ndarray:
    """Per-class rows of the train split of a `kind` task with `per_class`
    images a class, counted as `stratified_split` draws them."""
    counts = [per_class] * len(TASK_MOTIFS[kind])
    return stratified_train_counts(counts, config["data"]["split_fraction"])


def _check_train_split(config: dict, section: str, key: str, kind: str) -> None:
    """Every class of the train split keeps 2 rows. GNB needs 2 rows a class;
    KNN and RF, 3 in all, which 2 classes of 2 give; SVM and GBT, 2 classes."""
    per_class = config[section][key]
    smallest = int(_train_counts(config, per_class, kind).min())
    if smallest < 2:
        raise ConfigError(f"[{section}] {key}: {per_class} per class at split_fraction "
                          f"{config['data']['split_fraction']!r} leaves a class "
                          f"{smallest} train row(s); the classifiers need 2")


def _check_test_rows(config: dict, args: argparse.Namespace) -> None:
    """The target test split holds what explain reads: `TSNE_MIN_ROWS` rows
    for t-SNE, row `--instance` for Grad-CAM and SHAP."""
    per_class = config["data"]["target_per_class"]
    train = _train_counts(config, per_class, TARGET_KIND)
    rows = per_class * len(train) - int(train.sum())
    if args.what == "tsne" and rows < TSNE_MIN_ROWS:
        raise ConfigError(f"[data] target_per_class: {per_class} per class at split_fraction "
                          f"{config['data']['split_fraction']!r} leaves {rows} target "
                          f"test row(s); explain --what tsne needs {TSNE_MIN_ROWS}")
    if args.what != "tsne" and not 0 <= args.instance < rows:
        raise ConfigError(f"--instance {args.instance}: the target test split has rows 0 "
                          f"to {rows - 1}")


def _check_fusion_k(config: dict, without_widest: bool) -> None:
    """PCA and ICA keep k <= `max_components` of the target train split's
    rows and the six encoders' feature columns, less the widest encoder's on
    ablate's narrowest refit."""
    k = config["fusion"]["k"]
    if k == 0 or config["fusion"]["method"] not in K_METHODS:
        return
    rows = int(_train_counts(config, config["data"]["target_per_class"], TARGET_KIND).sum())
    widths = 2 * [EncoderModel(build_backbone(v, None)).feature_dim for v in VARIANTS]  # TL, SSL
    columns = sum(widths) - (max(widths) if without_widest else 0)
    fit = "ablate keeps without the widest encoder" if without_widest else "ensemble fuses"
    if k > max_components(rows, columns):
        raise ConfigError(f"[fusion] k: {k} is more than the {rows} target train rows less "
                          f"one or the {columns} feature columns {fit}; lower k or set it "
                          f"to 0 (automatic)")


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

MANIFEST = "manifest.json"  # in --out


def _str_map(value) -> bool:
    return isinstance(value, dict) and all(isinstance(v, str) for v in value.values())


def _record_ok(record) -> bool:
    """A stage record maps `files` to their hashes; its `inputs`, where present
    (a record without them just reruns), hold an int seed, a `config` map and
    a `stages` map to digests."""
    if not isinstance(record, dict) or not _str_map(record.get("files")):
        return False
    if "inputs" not in record:
        return True
    inputs = record["inputs"]
    return (isinstance(inputs, dict) and type(inputs.get("seed")) is int
            and isinstance(inputs.get("config"), dict) and _str_map(inputs.get("stages")))


def load_manifest(out: Path) -> dict:
    """The manifest's stage records; any other entry an older version wrote is dropped."""
    path = out / MANIFEST
    try:
        stages = json.loads(path.read_text())["stages"] if path.exists() else {}
        malformed = [stage for stage, record in stages.items() if not _record_ok(record)]
    except (OSError, json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
        raise IntegrityError(f"unreadable manifest {path}: {exc}") from exc
    if malformed:
        raise IntegrityError(f"manifest {path}: malformed record of stage {malformed[0]!r}")
    outside = [rel for record in stages.values() for rel in record["files"]
               if rel.startswith("/") or ".." in rel.split("/")]
    if outside:  # a rerun deletes the files its old record listed
        raise IntegrityError(f"manifest {path} lists {outside[0]}, outside {out}")
    return {"version": TOOL_VERSION, "stages": stages}


def save_manifest(out: Path, manifest: dict) -> None:
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    write_atomic(out / MANIFEST, text.encode())


def _files_digest(manifest: dict, stage: str) -> str:
    """sha256 of the stage's `files` map: it changes when a listed path or hash does."""
    files = json.dumps(manifest["stages"][stage]["files"], sort_keys=True)
    return hashlib.sha256(files.encode()).hexdigest()


def _inputs_hold(manifest: dict, stage: str, config: dict, seed: int) -> bool:
    """True when the stage's record has inputs and each still holds: the seed,
    every config value the stage read, and the `files` map of every stage it
    required, whose own inputs must hold in turn; and when the record lists
    each of the stage's `SUCCESSOR_FILES`. No file is hashed."""
    record = manifest["stages"].get(stage, {})
    inputs = record.get("inputs")
    if inputs is None:  # never run, or recorded by a version without inputs
        return False
    stage_dir = Path(config["task"]["name"], stage)
    if any(str(stage_dir / name) not in record["files"]
           for name in SUCCESSOR_FILES.get(stage, ())):
        return False  # recorded by a version that wrote fewer files
    flat = {f"{section}.{key}": value
            for section, values in config.items() for key, value in values.items()}
    return (inputs["seed"] == seed and inputs["config"].items() <= flat.items()
            and all(_inputs_hold(manifest, needed, config, seed)
                    and _files_digest(manifest, needed) == digest
                    for needed, digest in inputs["stages"].items()))


def stage_complete(out: Path, manifest: dict, stage: str, config: dict, seed: int) -> bool:
    """True when the stage's recorded inputs hold and its files hash-match; a
    damaged file of a stage whose inputs hold is an integrity error."""
    if not _inputs_hold(manifest, stage, config, seed):
        return False
    for rel, digest in sorted(manifest["stages"][stage]["files"].items()):
        try:
            actual = file_sha256(out / rel)
        except OSError as exc:
            raise IntegrityError(f"stage {stage}: cannot read output file {rel}: "
                                 f"{exc.strerror}") from exc
        if actual != digest:
            raise IntegrityError(f"stage {stage}: hash mismatch for {rel}")
    return True


def _downstream(manifest: dict, stage: str) -> set[str]:
    """The records that require the stage, directly or through other records'
    `inputs["stages"]`."""
    found: set[str] = set()
    new = {stage}
    while new:
        new = {name for name, record in manifest["stages"].items() if name not in found
               and new & record.get("inputs", {}).get("stages", {}).keys()}
        found |= new
    return found


def record_stage(out: Path, manifest: dict, config: dict, stage: str, inputs: dict,
                 files: list[Path], extend: bool) -> None:
    """Save the stage's inputs and file hashes, added to its old record with
    `extend`, else replacing it, and drop every record downstream of it whose
    inputs no longer hold; then delete the files (and emptied directories) that
    only the replaced or dropped records listed. A stale record in no chain
    with the stage, such as the other stages' after `synth --seed 12`, stays:
    it is current again for its own seed and config."""
    listed = set().union(*(r["files"] for r in manifest["stages"].values()))
    record = {"inputs": inputs,
              "files": {str(p.relative_to(out)): file_sha256(p) for p in sorted(files)}}
    if extend:
        old = manifest["stages"][stage]
        for key in ("config", "stages"):
            inputs[key] = {**old["inputs"][key], **inputs[key]}
        record["files"] = {**old["files"], **record["files"]}
    manifest["stages"][stage] = record
    downstream = _downstream(manifest, stage)
    manifest["stages"] = {name: kept for name, kept in manifest["stages"].items()
                          if name not in downstream
                          or _inputs_hold(manifest, name, config, inputs["seed"])}
    save_manifest(out, manifest)
    for rel in sorted(listed.difference(*(r["files"] for r in manifest["stages"].values()))):
        try:
            (out / rel).unlink(missing_ok=True)
        except OSError as exc:
            raise IntegrityError(f"stage {stage}: cannot delete output file {rel}: "
                                 f"{exc.strerror}") from exc
        with contextlib.suppress(OSError):  # stops at a non-empty one; out holds the manifest
            os.removedirs((out / rel).parent)


# ---------------------------------------------------------------------------
# Datasets (the default synthetic ladder)
# ---------------------------------------------------------------------------

def _source_tasks(config: dict, seed: int):
    """The generic and intermediate rungs, the only data pretrain reads."""
    data = config["data"]
    size = (data["image_size"], data["image_size"])
    generic = make_synthetic_task("generic", data["generic_per_class"], size,
                                  data["generic_noise"], seed=seed + 101)
    intermediate = make_synthetic_task("shapes3", data["intermediate_per_class"],
                                       size, data["intermediate_noise"],
                                       seed=seed + 102)
    return generic, intermediate


def _target_task(config: dict, seed: int):
    """The target rung alone: each rung has its own seed, so it needs no other."""
    data = config["data"]
    size = (data["image_size"], data["image_size"])
    return make_synthetic_task(TARGET_KIND, data["target_per_class"], size,
                               data["target_noise"], seed=seed + 103,
                               param_shift=data["target_param_shift"])


def target_split(config: dict, seed: int):
    return stratified_split(_target_task(config, seed), config["data"]["split_fraction"],
                            seed + 5)


def _task_dir(out: Path, config: dict, stage: str) -> Path:
    """The stage's directory; `write_atomic` creates it with the stage's first file."""
    return out / config["task"]["name"] / stage


def _save_weights(model: EncoderModel, stage_dir: Path, name: str) -> Path:
    path = stage_dir / f"{name}.bin"
    model.save(path)
    return path


# ---------------------------------------------------------------------------
# Stage table and runner
# ---------------------------------------------------------------------------

# stage -> the stages that must be current first: the one that must run before it,
# then any other whose files it also reads. Explain's list depends on --what.
STAGES: dict[str, tuple[str, ...]] = {
    "pretrain": (),
    "finetune": ("pretrain",),
    "ensemble": ("finetune",),
    "ablate": ("ensemble", "finetune"),
    "explain": (),
    "oodtest": ("finetune",),
    "synth": (),
}
EXPLAIN_REQUIRES = {
    "gradcam": ("finetune",),
    "shap": ("ensemble", "finetune"),
    "tsne": ("ensemble", "finetune"),
}
ALL = ("pretrain", "finetune", "ensemble", "ablate")  # the stages `enfuse all` runs
# stage, or explain's --what -> the check of the config and command line its work
# needs; `run` applies those of the stages a command runs, before the first starts
RULES: dict[str, Callable[[dict, argparse.Namespace], None]] = {
    "finetune": lambda c, _: _check_train_split(c, "data", "target_per_class", TARGET_KIND),
    "ensemble": lambda c, _: _check_fusion_k(c, without_widest=False),
    "ablate": lambda c, _: _check_fusion_k(c, without_widest=True),
    "oodtest": lambda c, _: _check_train_split(c, "oodtest", "per_class", c["oodtest"]["kind"]),
    **dict.fromkeys(EXPLAIN_REQUIRES, _check_test_rows),
}
# stage -> the files in its directory that later stages read
_WEIGHTS = tuple(f"{name}.bin" for name in BASE_MODEL_NAMES)
SUCCESSOR_FILES: dict[str, tuple[str, ...]] = {
    "pretrain": _WEIGHTS,
    "finetune": (*_WEIGHTS, TARGET_FILE),
    "ensemble": ("transform.bin", *(f"clf_{kind.lower()}.bin" for kind in KINDS)),
}


class _Reads(dict):
    """A config section that notes in `reads` each value a stage command reads by `[]`."""

    def __init__(self, section: str, values: dict, reads: dict):
        super().__init__(values)
        self.section, self.reads = section, reads

    def __getitem__(self, key):
        self.reads[f"{self.section}.{key}"] = value = super().__getitem__(key)
        return value


def run_stage(stage: str, config: dict, seed: int, out: Path, manifest: dict, *args) -> None:
    """Require the stage's inputs, skip it if current, run cmd_<stage>, record it.

    `args` go to the command after (config, seed, out, stage_dir): for
    explain, --what, which picks its required stages, and --instance.
    """
    requires = EXPLAIN_REQUIRES[args[0]] if stage == "explain" else STAGES[stage]
    for needed in requires:
        if not stage_complete(out, manifest, needed, config, seed):
            chain = [needed]  # and the stages before it, each one's first requirement
            while STAGES[chain[-1]]:
                chain.append(STAGES[chain[-1]][0])
            start = next(s for s in reversed(chain) if not _inputs_hold(manifest, s, config, seed))
            raise EnfuseError(f"stage '{needed}' has not run with this config and seed; "
                              "run it first" + (f", from '{start}' on" if start != needed else ""))
    extend = stage == "explain" and _inputs_hold(manifest, stage, config, seed)
    if stage != "explain" and stage_complete(out, manifest, stage, config, seed):
        print(f"{stage}: up to date, skipping")
        return
    reads: dict[str, object] = {}
    tracked = {section: _Reads(section, values, reads) for section, values in config.items()}
    command = globals()[f"cmd_{stage}"]  # looked up per call, so wrappers apply
    files = command(tracked, seed, out, _task_dir(out, tracked, stage), *args)
    inputs = {"seed": seed, "config": reads,
              "stages": {needed: _files_digest(manifest, needed) for needed in requires}}
    record_stage(out, manifest, config, stage, inputs, files, extend)


# ---------------------------------------------------------------------------
# Stage commands: each does its work and returns the files it wrote
# ---------------------------------------------------------------------------

def cmd_pretrain(config: dict, seed: int, out: Path, stage_dir: Path) -> list[Path]:
    generic, intermediate = _source_tasks(config, seed)
    pre = config["pretrain"]
    files: list[Path] = []
    for i, variant in enumerate(VARIANTS):
        model = pretrain_generic(variant, generic, epochs=pre["epochs"],
                                 batch=pre["batch"], lr=pre["lr"],
                                 seed=seed + 10 + i)
        model = finetune_intermediate_tl(model, intermediate, epochs=pre["epochs"],
                                         batch=pre["batch"], lr=pre["lr"],
                                         seed=seed + 20 + i)
        files.append(_save_weights(model, stage_dir, f"tl_{variant}"))
        print(f"pretrain: tl_{variant} done")
    for i, variant in enumerate(VARIANTS):
        model = pretrain_ssl(variant, intermediate, temperature=pre["temperature"],
                             batch_pairs=pre["ssl_batch_pairs"],
                             blur_kernel=pre["augment_blur_kernel"],
                             epochs=pre["ssl_epochs"], lr=pre["ssl_lr"], seed=seed + 30 + i)
        files.append(_save_weights(model, stage_dir, f"ssl_{variant}"))
        print(f"pretrain: ssl_{variant} done")
    return files


def cmd_finetune(config: dict, seed: int, out: Path, stage_dir: Path) -> list[Path]:
    """Fine-tune each encoder on the target train split. Beside the weights,
    save the `TargetSplit` the later stages read, so that none of them draws
    the target task or extracts its features again."""
    train, test = target_split(config, seed)
    fin = config["finetune"]
    src_dir = _task_dir(out, config, "pretrain")
    files: list[Path] = []
    log_lines = []
    split = TargetSplit(test, {}, {}, {})
    for i, name in enumerate(BASE_MODEL_NAMES):
        method = name.split("_")[0]
        model = EncoderModel.load(src_dir / f"{name}.bin")
        tuner = finetune_target_tl if method == "tl" else finetune_target_ssl
        model = tuner(model, train, epochs=fin["epochs"], batch=fin["batch"],
                      lr=fin["lr"], seed=seed + 40 + i)
        files.append(_save_weights(model, stage_dir, name))
        split.train_parts[name] = extract_features(model, train)
        split.test_parts[name] = extract_features(model, test)
        split.head_accuracy[name] = acc = accuracy(model, test)
        log_lines.append(f"{name} {method.upper()} {acc:.4f}")
        print(f"finetune: {name} test accuracy {acc:.4f}")
    log = stage_dir / "accuracy.log"
    write_atomic(log, ("\n".join(log_lines) + "\n").encode())
    save_target_split(split, stage_dir / TARGET_FILE)
    return files + [log, stage_dir / TARGET_FILE]


def _load_target_models(out: Path, config: dict) -> list[tuple[str, EncoderModel]]:
    stage_dir = _task_dir(out, config, "finetune")
    return [(name, EncoderModel.load(stage_dir / f"{name}.bin"))
            for name in BASE_MODEL_NAMES]


def _load_split(out: Path, config: dict) -> TargetSplit:
    return load_target_split(_task_dir(out, config, "finetune") / TARGET_FILE,
                             BASE_MODEL_NAMES)


def cmd_ensemble(config: dict, seed: int, out: Path, stage_dir: Path) -> list[Path]:
    split = _load_split(out, config)
    test, train_parts, test_parts = split.test, split.train_parts, split.test_parts
    method = config["fusion"]["method"]
    k = config["fusion"]["k"]

    (ensemble,) = train_ensemble([train_parts], method=method, seed=seed, k=k)
    counts, accuracies = evaluate(ensemble, test_parts)

    reports = {
        f"metrics_seed{seed}.csv": metrics_csv(counts, accuracies),
        f"summary_seed{seed}.txt": summary_text(counts, accuracies),
        f"confusion_seed{seed}.svg": render_confusion_svg(
            counts, class_names=list(test.class_names)),
    }

    # persist the fitted transform and classifiers
    transform_file = stage_dir / "transform.bin"
    save_transform(ensemble.transform, transform_file)
    files = [transform_file]
    for kind, clf in zip(KINDS, ensemble.classifiers):
        path = stage_dir / f"clf_{kind.lower()}.bin"
        save_classifier(clf, path)
        files.append(path)

    # stage comparison: base-model heads vs fused vs transformed vs voted
    (concat_fit,) = fit_arm([(train_parts, test_parts)], "concat-only", seed, 0)
    concat_only = scores(test.labels, *concat_fit)
    lines = ["stage,name,accuracy"]
    for name, acc in split.head_accuracy.items():
        lines.append(f"base,{name},{acc:.6f}")
    lines.append(f"fused,concat-only,{concat_only['voted']:.6f}")
    mean_clf = float(np.mean([accuracies[kind] for kind in KINDS]))
    lines.append(f"selected,{method},{mean_clf:.6f}")
    lines.append(f"voted,majority,{accuracies['voted']:.6f}")
    reports[f"comparison_seed{seed}.csv"] = "\n".join(lines) + "\n"
    for name, text in reports.items():
        write_atomic(stage_dir / name, text.encode())
        files.append(stage_dir / name)

    print(f"ensemble: voted accuracy {accuracies['voted']:.4f} ({method})")
    return files


def cmd_ablate(config: dict, seed: int, out: Path, stage_dir: Path) -> list[Path]:
    split = _load_split(out, config)
    arms = ablate(_rebuild_ensemble(out, config), split.train_parts, split.test_parts,
                  method=config["fusion"]["method"], seed=seed, k=config["fusion"]["k"])
    csv_file = stage_dir / f"ablation_seed{seed}.csv"
    write_atomic(csv_file, ablation_csv(arms).encode())
    svg_file = stage_dir / f"ablation_seed{seed}.svg"
    write_atomic(svg_file, render_ablation_svg(arms).encode())
    (_, full), *rows = arms.items()
    for excluded, accuracies in rows:
        print(f"ablate: without {excluded}: voted {accuracies['voted']:.4f} "
              f"({accuracies['voted'] - full['voted']:+.4f})")
    return [csv_file, svg_file]


def _load_ensemble_transform(out: Path, config: dict) -> FusionTransform:
    return load_transform(_task_dir(out, config, "ensemble") / "transform.bin")


def _rebuild_ensemble(out: Path, config: dict) -> EnsembleModel:
    stage_dir = _task_dir(out, config, "ensemble")
    classifiers = [load_classifier(stage_dir / f"clf_{kind.lower()}.bin")
                   for kind in KINDS]
    return EnsembleModel(classifiers, _load_ensemble_transform(out, config))


def cmd_explain(config: dict, seed: int, out: Path, stage_dir: Path,
                what: str, instance: int) -> list[Path]:
    split = _load_split(out, config)
    test = split.test
    exp = config["explain"]
    outputs: dict[Path, bytes] = {}
    if what == "gradcam":
        image = test.images[instance]
        target_class = int(test.labels[instance])
        for name, model in _load_target_models(out, config):
            sal = grad_cam(model, image, target_class)
            outputs[stage_dir / f"gradcam_{name}_i{instance}_seed{seed}.ppm"] = (
                render_saliency_ppm(sal, image))
    elif what == "shap":
        ensemble = _rebuild_ensemble(out, config)
        fused_train = fuse_parts(ensemble.transform, split.train_parts)
        row = fuse_parts(ensemble.transform, split.test_parts).data[instance]
        phi, base, output = shap_sampled(ensemble_output(ensemble), row,
                                         select_background(fused_train),
                                         n_samples=exp["shap_samples"], seed=seed)
        outputs[stage_dir / f"shap_i{instance}_seed{seed}.csv"] = shap_csv(
            phi, base, output).encode()
    else:  # tsne
        fused = fuse_parts(_load_ensemble_transform(out, config), split.test_parts)
        coords, kl, perplexity = tsne_embed(fused, perplexity=exp["perplexity"],
                                            iters=exp["tsne_iters"], seed=seed)
        outputs[stage_dir / f"tsne_seed{seed}.svg"] = render_embedding_svg(
            coords, test.labels, kl, perplexity, class_names=list(test.class_names)).encode()
    for path, data in outputs.items():
        write_atomic(path, data)
        print(f"explain: wrote {path.relative_to(out)}")
    return list(outputs)


def cmd_oodtest(config: dict, seed: int, out: Path, stage_dir: Path) -> list[Path]:
    """Frozen foreign extractors on a new task vs randomly initialized ones."""
    ood = config["oodtest"]
    size = config["data"]["image_size"]
    # the task is not kept: both arms' parts are held together, and its
    # images, copied into the splits, would raise the stage's memory peak
    train, test = stratified_split(
        make_synthetic_task(ood["kind"], ood["per_class"], (size, size), ood["noise"],
                            seed=seed + 777),
        config["data"]["split_fraction"], seed + 6)
    method = config["fusion"]["method"]
    pretrained = _load_target_models(out, config)
    # run_stage has just hashed the finetune files against this record
    weights = {name: _task_dir(out, config, "finetune") / f"{name}.bin"
               for name in BASE_MODEL_NAMES}
    recorded = load_manifest(out)["stages"]["finetune"]["files"]

    random_models = []
    for i, name in enumerate(BASE_MODEL_NAMES):
        variant = name.split("_")[1]
        rng = np.random.default_rng(seed + 900 + i)
        random_models.append((name, EncoderModel(build_backbone(variant, rng))))

    arms = {label: (extract_parts(models, train), extract_parts(models, test))
            for label, models in (("pretrained", pretrained), ("random", random_models))}
    fits = fit_arm(list(arms.values()), method, seed, 0)
    results = {label: scores(test.labels, *fit)["voted"] for label, fit in zip(arms, fits)}
    for name, path in weights.items():
        if file_sha256(path) != recorded[str(path.relative_to(out))]:
            raise IntegrityError(f"oodtest modified frozen weights {name}.bin")

    margin = results["pretrained"] - results["random"]
    path = stage_dir / f"oodtest_seed{seed}.csv"
    write_atomic(path, ("extractors,accuracy\n"
                        f"pretrained,{results['pretrained']:.6f}\n"
                        f"random,{results['random']:.6f}\n"
                        f"margin,{margin:.6f}\n").encode())
    print(f"oodtest: pretrained {results['pretrained']:.4f} "
          f"vs random {results['random']:.4f} (margin {margin:+.4f})")
    return [path]


def cmd_synth(config: dict, seed: int, out: Path, stage_dir: Path) -> list[Path]:
    """Write the synthetic ladder datasets to disk as PPM class directories."""
    files: list[Path] = []
    generic, intermediate = _source_tasks(config, seed)
    target = _target_task(config, seed)
    for name, dataset in (("generic", generic), ("intermediate", intermediate),
                          ("target", target)):
        for cls, class_name in enumerate(dataset.class_names):
            for i in np.flatnonzero(dataset.labels == cls):
                path = stage_dir / name / class_name / f"{i:04d}.ppm"
                write_atomic(path, pnm_bytes(dataset.images[i]))
                files.append(path)
        print(f"synth: wrote {name} ({len(dataset)} images)")
    return files


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that NumPy's wheel
    bundles (`numpy.libs/` on Linux, `numpy/.dylibs/` on macOS), or None."""
    numpy_dir = Path(np.__file__).parent
    for path in sorted([*numpy_dir.parent.glob("numpy.libs/*openblas*"),
                        *numpy_dir.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))  # already loaded by NumPy: the same handle
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with BLAS on one thread; restore the caller's count after.

    Every matrix here is small (batches of 8, 16x16 maps, at most 128
    features), so a second thread gains nothing, and after each threaded call
    its idle worker spins, burning a core. Without a bundled OpenBLAS this
    does nothing.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _take_lock(lock: Path) -> bool:
    """Create `lock` holding this process's pid; False if another run holds it.

    A lock naming a dead process (a killed run's) is removed first. An empty
    lock counts as held: its owner may not have written its pid yet."""
    try:
        os.kill(int(lock.read_text()), 0)  # signal 0 only checks that the pid exists
    except ProcessLookupError:
        print(f"removing stale lock {lock}", file=sys.stderr)
        lock.unlink(missing_ok=True)
    except (OSError, ValueError, OverflowError):
        pass
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    with os.fdopen(fd, "w") as f:
        f.write(str(os.getpid()))
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enfuse",
        description="ensemble-over-fused-encoders pipeline")
    parser.add_argument("command",
                        choices=[*STAGES, "all"])
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default="runs", help="output directory")
    parser.add_argument("--what", default="gradcam",
                        choices=list(EXPLAIN_REQUIRES),
                        help="explain subcommand target")
    parser.add_argument("--instance", type=int, default=0,
                        help="test-set index for explain (default 0)")
    return parser


def run(argv: list[str] | None = None) -> int:
    with _one_blas_thread():
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.seed < 0:  # NumPy seeds only from whole numbers >= 0
            parser.error(f"argument --seed: {args.seed} is negative")
        out = Path(args.out)
        lock = out / ".lock"
        try:
            out.mkdir(parents=True, exist_ok=True)
            locked = _take_lock(lock)
        except OSError as exc:
            print(f"error: --out {out} is not a usable directory: {exc}", file=sys.stderr)
            return 2
        if not locked:
            print(f"error: {lock} is held by another run; remove it only if no run uses {out}",
                  file=sys.stderr)
            return 3
        try:
            config = load_config(args.config)
            plan = ALL if args.command == "all" else (args.command,)
            for stage in plan:
                RULES.get(args.what if stage == "explain" else stage, lambda *_: None)(
                    config, args)
            manifest = load_manifest(out)
            for stage in plan:
                run_stage(stage, config, args.seed, out, manifest,
                          *((args.what, args.instance) if stage == "explain" else ()))
            return 0
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except IntegrityError as exc:
            print(f"integrity error: {exc}", file=sys.stderr)
            return 4
        except EnfuseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        finally:
            if lock.exists():
                lock.unlink()


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
