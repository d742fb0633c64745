"""Two pre-training paths for the base encoders, plus feature extraction.

The transfer path runs generic -> intermediate -> target supervised
fine-tuning with progressively stronger freezing. The contrastive path
pre-trains on unlabeled images with the pair loss, then trains a fresh
classification head over a fully frozen backbone.

Three small conv backbone variants (A/B/C) with different depths stand in
for architecturally diverse production encoders.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .data import LabeledImageSet, random_transform
from .errors import EnfuseError
from .features import FeatureMatrix
from .nn import (
    Conv2d,
    Dense,
    Dropout,
    EncoderModel,
    Flatten,
    GlobalAvgPool,
    MaxPool2d,
    OptimizerState,
    ReLU,
    Softmax,
    adam_step,
    images_to_batch,
    nt_xent_loss,
    train_supervised,
)

LATENT_DIM = 128


def build_backbone(variant: str, rng: np.random.Generator | None) -> list:
    """The conv stack of backbone variant A, B or C over 3-channel images.

    With no rng, here and in the `make_*_head` functions below, the weights
    are left unset (NaN): such a stack only describes layer shapes."""
    if variant == "A":
        return [Conv2d(3, 8, 3, rng=rng), ReLU(), MaxPool2d(),
                Conv2d(8, 16, 3, rng=rng), ReLU(), MaxPool2d()]
    if variant == "B":
        return [Conv2d(3, 8, 3, rng=rng), ReLU(),
                Conv2d(8, 12, 3, rng=rng), ReLU(), MaxPool2d(),
                Conv2d(12, 20, 3, rng=rng), ReLU(), MaxPool2d()]
    return [Conv2d(3, 6, 5, rng=rng), ReLU(), MaxPool2d(),  # C
            Conv2d(6, 12, 3, rng=rng), ReLU(), MaxPool2d(),
            Conv2d(12, 16, 3, rng=rng), ReLU(),
            Conv2d(16, 24, 3, rng=rng), ReLU(), MaxPool2d()]


def make_classification_head(d_f: int, n_classes: int,
                             rng: np.random.Generator | None) -> list:
    """Transfer-path head: pooled features through three tapering dense layers."""
    h1, h2 = max(d_f // 2, 4), max(d_f // 4, 4)
    return [GlobalAvgPool(), Flatten(),
            Dense(d_f, h1, rng=rng), ReLU(),
            Dense(h1, h2, rng=rng), ReLU(),
            Dense(h2, n_classes, rng=rng),
            Dropout(0.3), Softmax()]


def make_projection_head(d_f: int, rng: np.random.Generator | None) -> list:
    """Contrastive projection head: pooled features through two dense layers."""
    h1 = max(d_f // 2, 4)
    out = Dense(h1, LATENT_DIM, rng=rng)
    out.params["b"] += 0.01  # keep projections off the exact zero vector
    return [MaxPool2d(), GlobalAvgPool(), Flatten(),
            Dense(d_f, h1, rng=rng), ReLU(), out]


def make_ssl_classification_head(d_f: int, n_classes: int,
                                 rng: np.random.Generator | None) -> list:
    """Same two-dense layout as the projection head, with a softmax output."""
    h1 = max(d_f // 2, 4)
    return [MaxPool2d(), GlobalAvgPool(), Flatten(),
            Dense(d_f, h1, rng=rng), ReLU(),
            Dense(h1, n_classes, rng=rng), Softmax()]


def _first_block_end(backbone) -> int:
    """Index one past the first conv block: its MaxPool2d, which every variant has."""
    return next(i + 1 for i, layer in enumerate(backbone) if isinstance(layer, MaxPool2d))


# ---------------------------------------------------------------------------
# Transfer-learning path
# ---------------------------------------------------------------------------

def pretrain_generic(variant: str, generic_set: LabeledImageSet, *, epochs: int,
                     batch: int, seed: int, lr: float) -> EncoderModel:
    """Supervised pre-training on the generic source task; head is discarded."""
    rng = np.random.default_rng(seed)
    model = EncoderModel(build_backbone(variant, rng))
    model.set_head(make_classification_head(model.feature_dim, generic_set.n_classes, rng))
    log = train_supervised(model, generic_set, lr, epochs=epochs, batch=batch,
                           seed=int(rng.integers(2**31)))
    model.set_head(None)
    model.meta = {"variant": variant, "stage": "generic", "train_log": log}
    return model


def finetune_intermediate_tl(model: EncoderModel, d_in: LabeledImageSet, *,
                             epochs: int, batch: int, seed: int, lr: float) -> EncoderModel:
    """Retrain on the intermediate source task with the first conv block frozen."""
    rng = np.random.default_rng(seed)
    model.freeze_backbone(upto=_first_block_end(model.backbone))
    model.set_head(make_classification_head(model.feature_dim, d_in.n_classes, rng))
    log = train_supervised(model, d_in, lr, epochs=epochs, batch=batch,
                           seed=int(rng.integers(2**31)))
    model.meta = dict(model.meta, stage="intermediate", train_log=log)
    return model


def finetune_target_tl(model: EncoderModel, d_tar_train: LabeledImageSet, *,
                       epochs: int, batch: int, seed: int, lr: float) -> EncoderModel:
    """Target fine-tuning: only the final conv block and a fresh head train."""
    rng = np.random.default_rng(seed)
    model.freeze_backbone(upto=model.last_conv_index())
    model.set_head(make_classification_head(model.feature_dim, d_tar_train.n_classes, rng))
    log = train_supervised(model, d_tar_train, lr, epochs=epochs, batch=batch,
                           seed=int(rng.integers(2**31)))
    model.meta = dict(model.meta, stage="target", method="TL", train_log=log)
    return model


# ---------------------------------------------------------------------------
# Contrastive path
# ---------------------------------------------------------------------------

def pretrain_ssl(variant: str, dataset: LabeledImageSet, *, temperature: float,
                 batch_pairs: int, blur_kernel: int, epochs: int, seed: int,
                 lr: float) -> EncoderModel:
    """Contrastive pre-training over two augmented views per image; labels are unused.

    Each step takes up to `batch_pairs` images and scores their views with
    the pair loss at `temperature`; `blur_kernel` is the augmentation's blur.
    """
    images = dataset.images
    rng = np.random.default_rng(seed)
    model = EncoderModel(build_backbone(variant, rng))
    model.set_head(make_projection_head(model.feature_dim, rng))
    opt = OptimizerState(learning_rate=lr)
    params, grads = model.flat_trainable()
    aug_rng = np.random.default_rng(int(rng.integers(2**31)))
    n = len(images)
    pairs = min(batch_pairs, n)
    log = []
    for _ in range(epochs):
        perm = rng.permutation(n)
        total, seen = 0.0, 0
        for start in range(0, n, pairs):
            idx = perm[start:start + pairs]
            if len(idx) < 2:
                continue
            # two fresh views of each image, side by side
            x = images_to_batch(random_transform(images[np.repeat(idx, 2)], blur_kernel, aug_rng))
            z = model.forward(x, training=True, keep_cache=True)
            loss, dz = nt_xent_loss(z, temperature)
            grads.fill(0.0)
            model.backward(dz)
            adam_step(opt, params, grads)
            total += loss * len(idx)
            seen += len(idx)
        log.append(total / seen)
    model.meta = {"variant": variant, "stage": "ssl-pretrain", "train_log": log}
    return model


def finetune_target_ssl(model: EncoderModel, d_tar_train: LabeledImageSet, *,
                        epochs: int, batch: int, seed: int, lr: float) -> EncoderModel:
    """Swap the projection head for a classification head; backbone stays frozen."""
    rng = np.random.default_rng(seed)
    model.freeze_backbone()
    model.set_head(make_ssl_classification_head(model.feature_dim, d_tar_train.n_classes, rng))
    log = train_supervised(model, d_tar_train, lr, epochs=epochs, batch=batch,
                           seed=int(rng.integers(2**31)))
    model.meta = dict(model.meta, stage="target", method="SSL", train_log=log)
    return model


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

def extract_features(model: EncoderModel, dataset: LabeledImageSet) -> FeatureMatrix:
    """Per-image pooled final conv maps, labels carried through.

    Dropout is off, so the result is a pure function of (weights, images).
    """
    maps = model.forward(images_to_batch(dataset.images), stop=len(model.backbone))
    if maps.ndim != 4:
        raise EnfuseError("backbone did not produce conv maps")
    return FeatureMatrix(maps.mean(axis=(2, 3)), labels=dataset.labels.copy())


# ---------------------------------------------------------------------------
# File hashing (the manifest's integrity check)
# ---------------------------------------------------------------------------

def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
