"""Supervised training loop: mini-batch Adam with the plateau schedule."""

from __future__ import annotations

import warnings

import numpy as np

from ..data import LabeledImageSet, one_hot_matrix
from .losses import cross_entropy_loss
from .model import EncoderModel
from .optim import OptimizerState, adam_step, plateau_schedule

INFERENCE_BATCH = 256  # images per forward pass when nothing is trained


def images_to_batch(images: np.ndarray) -> np.ndarray:
    """(N, H, W, C) dataset layout -> (N, C, H, W) network layout."""
    return np.ascontiguousarray(images.transpose(0, 3, 1, 2))


def train_supervised(model: EncoderModel, train_set: LabeledImageSet, lr: float,
                     epochs: int = 50, batch: int = 64, seed: int = 0) -> list[float]:
    """Train backbone+head with cross-entropy at rate `lr`; returns per-epoch mean losses.

    Shuffling and dropout are driven by `seed`, so identical inputs give
    bit-identical final parameters.
    """
    opt = OptimizerState(learning_rate=lr)
    rng = np.random.default_rng(seed)
    model.reseed_dropout(int(rng.integers(2**31)))
    n = len(train_set)
    if batch > n:
        warnings.warn(f"batch size {batch} larger than dataset ({n}); clamping")
        batch = n
    x_all = images_to_batch(train_set.images)
    y_all = one_hot_matrix(train_set.labels, train_set.n_classes)
    log: list[float] = []
    for _ in range(epochs):
        perm = rng.permutation(n)
        total, seen = 0.0, 0
        for start in range(0, n, batch):
            idx = perm[start:start + batch]
            model.zero_grads()
            logits = model.forward(x_all[idx], training=True, keep_cache=True,
                                   skip_final_softmax=True)
            loss, dlogits = cross_entropy_loss(logits, y_all[idx])
            model.backward(dlogits)
            adam_step(opt, model.named_parameters(trainable_only=True),
                      model.named_grads(trainable_only=True))
            total += loss * len(idx)
            seen += len(idx)
        epoch_loss = total / seen
        log.append(epoch_loss)
        plateau_schedule(opt, epoch_loss)
    return log


def accuracy(model: EncoderModel, dataset: LabeledImageSet) -> float:
    """Fraction of samples whose head prediction matches the label."""
    x_all = images_to_batch(dataset.images)
    correct = 0
    for start in range(0, len(dataset), INFERENCE_BATCH):
        probs = model.forward(x_all[start:start + INFERENCE_BATCH], training=False)
        correct += int((probs.argmax(axis=1)
                        == dataset.labels[start:start + INFERENCE_BATCH]).sum())
    return correct / len(dataset)
