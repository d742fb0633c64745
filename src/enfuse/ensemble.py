"""The ensemble: five classifiers over fused features and their plain
majority vote, with no learner over their outputs.

The ensemble works on feature parts: an ordered mapping from base-model name
to that model's features for one dataset, extracted once: by `extract_parts`,
or for the target split by the finetune stage, which saves them as a
`TargetSplit`.
Fusion reuses the train-fitted transform at test time, and the headline
number is the voted accuracy. An arm is one ensemble fitted on some parts:
`fit_arm` fits and predicts a list of arms, and `scores` turns an arm's
predictions into accuracies. `train_ensemble` fits each arm's fusion, SVM,
KNN and GNB on their own, and the forests and boosted trees of all arms
whose fused data have one shape and class count in one `fit_rf` and one
`fit_gbt` call. Also houses the
confusion-count metrics, the leave-one-base-model-out ablation, whose refits
are arms, and the `TargetSplit` artifact.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import artifact
from .classifiers import (KINDS, TrainedClassifier, fit_gbt, fit_gnb, fit_knn, fit_rf,
                          fit_svm, predict)
from .data import LabeledImageSet
from .errors import IntegrityError
from .features import FeatureMatrix
from .fusion import FusionTransform, apply_transform, concat_features, fuse_pipeline
from .nn import EncoderModel
from .pretrain import extract_features


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def confusion_from_labels(true: np.ndarray, pred: np.ndarray,
                          n_classes: int) -> np.ndarray:
    """The (k, k) int64 counts: row = true class, column = predicted class."""
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (true, pred), 1)
    return counts


def class_metrics(counts: np.ndarray) -> dict[str, np.ndarray]:
    """Per-class tp, tn, fp, fn, precision, recall and f1 of (k, k) counts as
    (k,) arrays, in the metrics CSV's column order. A ratio with a 0
    denominator is 0.0."""
    tp = np.diag(counts)
    fn = counts.sum(axis=1) - tp
    fp = counts.sum(axis=0) - tp

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros(len(counts)), where=den != 0)

    precision, recall = ratio(tp, tp + fp), ratio(tp, tp + fn)
    return {"tp": tp, "tn": counts.sum() - tp - fn - fp, "fp": fp, "fn": fn,
            "precision": precision, "recall": recall,
            "f1": ratio(2 * precision * recall, precision + recall)}


# ---------------------------------------------------------------------------
# Ensemble
# ---------------------------------------------------------------------------

@dataclass
class EnsembleModel:
    classifiers: list[TrainedClassifier]  # fixed order: SVM, KNN, GNB, RF, GBT
    transform: FusionTransform

    @property
    def n_classes(self) -> int:
        return self.classifiers[0].n_classes


def extract_parts(base_models: list[tuple[str, EncoderModel]],
                  dataset: LabeledImageSet) -> dict[str, FeatureMatrix]:
    """Each base model's features for a dataset, keyed by name in model order."""
    return {name: extract_features(model, dataset) for name, model in base_models}


def fuse_parts(transform: FusionTransform, parts: dict[str, FeatureMatrix]) -> FeatureMatrix:
    """Concatenate parts, in the base-model order the transform was fitted
    on, and apply the train-fitted transform."""
    return apply_transform(transform, concat_features(list(parts.values())))


def majority_vote(predictions: list[np.ndarray], n_classes: int) -> np.ndarray:
    """Plurality vote per sample; ties go to the lowest class index."""
    preds = np.stack([np.asarray(p, dtype=np.int64) for p in predictions])
    n = preds.shape[1]
    tally = np.zeros((n, n_classes))
    for voter in preds:
        tally[np.arange(n), voter] += 1.0
    return np.argmax(tally, axis=1)


def train_ensemble(arms: list[dict[str, FeatureMatrix]], *, method: str, seed: int,
                   k: int) -> list[EnsembleModel]:
    """Fuse each arm's training parts (`fuse_pipeline`: k = 0 is automatic)
    and fit the five classifiers on the result; one `fit_rf` and one
    `fit_gbt` call fit the arms whose fused rows, width and class count match."""
    fused = [fuse_pipeline(list(parts.values()), method=method, k=k, seed=seed)
             for parts in arms]
    classifiers = []
    groups: dict[tuple[int, int, int], list[int]] = {}  # (rows, width, classes) -> arms
    for i, (f, _) in enumerate(fused):
        x, y = f.data, f.labels
        classifiers.append([fit_svm(x, y), fit_knn(x, y), fit_gnb(x, y)])
        groups.setdefault((*x.shape, int(y.max()) + 1), []).append(i)
    for members in groups.values():
        xs, ys = [fused[i][0].data for i in members], [fused[i][0].labels for i in members]
        for i, rf, gbt in zip(members, fit_rf(xs, ys, seed=seed), fit_gbt(xs, ys)):
            classifiers[i] += (rf, gbt)
    return [EnsembleModel(clfs, transform)
            for clfs, (_, transform) in zip(classifiers, fused)]


def predict_ensemble(model: EnsembleModel, parts: dict[str, FeatureMatrix]):
    """Per-classifier predictions plus the voted labels for one dataset's parts."""
    features = fuse_parts(model.transform, parts)
    per_clf = [predict(clf, features.data) for clf in model.classifiers]
    return per_clf, majority_vote(per_clf, model.n_classes)


def fit_arm(arms: list[tuple[dict[str, FeatureMatrix], dict[str, FeatureMatrix]]],
            method: str, seed: int, k: int):
    """Fit an ensemble on each arm's train parts and predict its test parts,
    both keyed alike in the order fused: per arm, (per-classifier
    predictions, voted labels)."""
    models = train_ensemble([train for train, _ in arms], method=method, seed=seed, k=k)
    return [predict_ensemble(model, test) for model, (_, test) in zip(models, arms)]


def scores(true: np.ndarray, per_clf: list[np.ndarray], voted: np.ndarray) -> dict[str, float]:
    """Accuracy of each classifier, in `KINDS` order, then of the vote."""
    accuracies = {kind: float(np.mean(preds == true))
                  for kind, preds in zip(KINDS, per_clf)}
    accuracies["voted"] = float(np.mean(voted == true))
    return accuracies


def evaluate(model: EnsembleModel, parts: dict[str, FeatureMatrix]
             ) -> tuple[np.ndarray, dict[str, float]]:
    """Voted confusion counts and the `scores`, from one prediction."""
    true = next(iter(parts.values())).labels
    per_clf, voted = predict_ensemble(model, parts)
    counts = confusion_from_labels(true, voted, model.n_classes)
    return counts, scores(true, per_clf, voted)


# ---------------------------------------------------------------------------
# Target split artifact
# ---------------------------------------------------------------------------

TARGET_MAGIC = b"ETSEFS1\x00"


@dataclass
class TargetSplit:
    """The target split as the later stages read it: the test images, labels
    and class names, each base model's train and test parts, and the test
    accuracy of each base model's own head, all keyed in base-model order."""

    test: LabeledImageSet
    train_parts: dict[str, FeatureMatrix]
    test_parts: dict[str, FeatureMatrix]
    head_accuracy: dict[str, float]


def save_target_split(split: TargetSplit, path) -> None:
    names = list(split.train_parts)
    arrays = {"labels:train": split.train_parts[names[0]].labels,
              "labels:test": split.test.labels, "images:test": split.test.images,
              "accuracy": np.array([split.head_accuracy[name] for name in names])}
    for name in names:
        arrays[f"{name}:train"] = split.train_parts[name].data
        arrays[f"{name}:test"] = split.test_parts[name].data
    artifact.save(path, TARGET_MAGIC, {"class_names": list(split.test.class_names)}, arrays)


def load_target_split(path, names: tuple[str, ...]) -> TargetSplit:
    """The saved split of the named base models; IntegrityError for a header
    without class names, arrays that are not labels (rows,), test images
    (rows, h, w, c), an accuracy per model (models,) and each model's train
    and test parts (rows, d) with one d, or labels that are not class
    indices."""
    header, arrays = artifact.load(path, TARGET_MAGIC, "target split")
    class_names = header.get("class_names")
    if (not isinstance(class_names, list) or not class_names
            or not all(isinstance(c, str) for c in class_names)):
        raise IntegrityError("target split class names must be a list of strings")
    shapes = {"labels:train": ("train rows",), "labels:test": ("test rows",),
              "images:test": ("test rows", "h", "w", "c"), "accuracy": ("models",)}
    for name in names:
        shapes[f"{name}:train"] = ("train rows", f"{name}:d")
        shapes[f"{name}:test"] = ("test rows", f"{name}:d")
    artifact.check_shapes("target split", arrays, shapes, {"models": len(names)})
    labels = {side: arrays[f"labels:{side}"] for side in ("train", "test")}
    if not all(np.isin(y, np.arange(len(class_names))).all() for y in labels.values()):
        raise IntegrityError(f"target split labels must be whole numbers below "
                             f"{len(class_names)}")
    return TargetSplit(
        LabeledImageSet(arrays["images:test"], labels["test"], class_names),
        {name: FeatureMatrix(arrays[f"{name}:train"], labels["train"]) for name in names},
        {name: FeatureMatrix(arrays[f"{name}:test"], labels["test"]) for name in names},
        {name: float(acc) for name, acc in zip(names, arrays["accuracy"])})


# ---------------------------------------------------------------------------
# Ablation
# ---------------------------------------------------------------------------

def ablate(full: EnsembleModel, train_parts: dict[str, FeatureMatrix],
           test_parts: dict[str, FeatureMatrix], *, method: str, seed: int,
           k: int) -> dict[str | None, dict[str, float]]:
    """The `scores` of each arm, keyed by the base model it leaves out.

    The full arm comes first, under None, from `full`: the ensemble already
    fitted on all of `train_parts` with the same method, seed and k.
    """
    true = next(iter(test_parts.values())).labels
    arms = {None: scores(true, *predict_ensemble(full, test_parts))}
    left_out = [tuple({name: parts[name] for name in train_parts if name != excluded}
                      for parts in (train_parts, test_parts))
                for excluded in train_parts]
    for excluded, fit in zip(train_parts, fit_arm(left_out, method, seed, k)):
        arms[excluded] = scores(true, *fit)
    return arms


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def metrics_csv(counts: np.ndarray, accuracies: dict[str, float]) -> str:
    """Per-class metrics, voted accuracy, macro averages and the confusion counts."""
    metrics = class_metrics(counts)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["class", *metrics])
    for cls, (tp, tn, fp, fn, precision, recall, f1) in enumerate(zip(*metrics.values())):
        writer.writerow([cls, tp, tn, fp, fn, f"{precision:.6f}", f"{recall:.6f}",
                         f"{f1:.6f}"])
    writer.writerow([])
    writer.writerow(["accuracy", f"{accuracies['voted']:.6f}"])
    writer.writerow(["macro_precision", f"{float(np.mean(metrics['precision'])):.6f}"])
    writer.writerow(["macro_recall", f"{float(np.mean(metrics['recall'])):.6f}"])
    writer.writerow(["macro_f1", f"{float(np.mean(metrics['f1'])):.6f}"])
    writer.writerow([])
    writer.writerow(["confusion"] + [f"pred_{c}" for c in range(len(counts))])
    for cls in range(len(counts)):
        writer.writerow([f"true_{cls}"] + list(counts[cls]))
    return buf.getvalue()


def ablation_csv(arms: dict[str | None, dict[str, float]]) -> str:
    """One row per `ablate` arm; delta_voted is against the full (first) arm."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["excluded"] + list(KINDS)
                    + ["mean_classifier", "voted", "delta_voted"])
    full_voted = next(iter(arms.values()))["voted"]
    for excluded, accuracies in arms.items():
        per_clf = [accuracies[kind] for kind in KINDS]
        writer.writerow([excluded or "(none)"] + [f"{acc:.6f}" for acc in per_clf]
                        + [f"{float(np.mean(per_clf)):.6f}", f"{accuracies['voted']:.6f}",
                           f"{accuracies['voted'] - full_voted:+.6f}"])
    return buf.getvalue()


def summary_text(counts: np.ndarray, accuracies: dict[str, float]) -> str:
    metrics = class_metrics(counts)
    lines = [
        "ensemble evaluation",
        f"  voted accuracy : {accuracies['voted']:.4f}",
        f"  macro precision: {float(np.mean(metrics['precision'])):.4f}",
        f"  macro recall   : {float(np.mean(metrics['recall'])):.4f}",
        f"  macro F1       : {float(np.mean(metrics['f1'])):.4f}",
        "  per-classifier accuracy:",
    ]
    for kind in KINDS:
        lines.append(f"    {kind:<4}: {accuracies[kind]:.4f}")
    return "\n".join(lines) + "\n"
