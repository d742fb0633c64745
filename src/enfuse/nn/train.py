"""Supervised training loop: mini-batch Adam with the plateau schedule.

Training runs only what trains. The frozen prefix, every layer below the
lowest trainable layer with parameters (or below an earlier Dropout, whose
masks must be drawn at every step), runs once per training call, in
inference mode over the whole training set; each step runs the layers above
it on the prefix outputs of its batch. The result is bit for bit that of
running the whole stack at every step, because every prefix layer (Conv2d,
ReLU, MaxPool2d, GlobalAvgPool, Flatten) computes each image on its own: a
forward over a set equals the concatenation of its forwards over any split
of that set into batches. Conv2d's im2col gathers each image's patch rows
from that image alone, by the same per-image index whatever the batch, and
each output pixel is its own patch row times the weights; the other layers
are elementwise, or reduce within one image.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..data import LabeledImageSet, one_hot_matrix
from .layers import Dropout, Layer, Softmax
from .losses import cross_entropy_loss
from .model import EncoderModel
from .optim import OptimizerState, adam_step, plateau_schedule


def images_to_batch(images: np.ndarray) -> np.ndarray:
    """(N, H, W, C) dataset layout -> (N, C, H, W) network layout."""
    return np.ascontiguousarray(images.transpose(0, 3, 1, 2))


def frozen_prefix_end(layers: list[Layer]) -> int:
    """Index of the first layer a training step must run: the lowest trainable
    layer with parameters, or an earlier Dropout, whose masks are drawn anew
    at every step."""
    return next((i for i, layer in enumerate(layers)
                 if isinstance(layer, Dropout) or (layer.trainable and layer.params)),
                len(layers))


def train_supervised(model: EncoderModel, train_set: LabeledImageSet, lr: float, *,
                     epochs: int, batch: int, seed: int) -> list[float]:
    """Train backbone+head with cross-entropy at rate `lr`; returns per-epoch mean losses.

    The frozen prefix (see the module docstring) runs once, keeping no
    caches; every step then runs the layers above it, up to the logits below
    a final Softmax, keeping caches for the backward, and updates the
    trainable parameters in one flat Adam step (`EncoderModel.flat_trainable`).
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
    layers = model.layers
    stop = len(layers) - 1 if isinstance(layers[-1], Softmax) else len(layers)  # to the logits
    first = frozen_prefix_end(layers[:stop])
    x_all = images_to_batch(train_set.images)
    if first:  # from here on, x_all holds the frozen prefix's outputs
        x_all = model.forward(x_all, stop=first)
    y_all = one_hot_matrix(train_set.labels, train_set.n_classes)
    params, grads = model.flat_trainable()
    log: list[float] = []
    for _ in range(epochs):
        perm = rng.permutation(n)
        total, seen = 0.0, 0
        for start in range(0, n, batch):
            idx = perm[start:start + batch]
            grads.fill(0.0)
            logits = model.forward(x_all[idx], first, stop, training=True, keep_cache=True)
            loss, dlogits = cross_entropy_loss(logits, y_all[idx])
            model.backward(dlogits)
            adam_step(opt, params, grads)
            total += loss * len(idx)
            seen += len(idx)
        epoch_loss = total / seen
        log.append(epoch_loss)
        plateau_schedule(opt, epoch_loss)
    return log


def accuracy(model: EncoderModel, dataset: LabeledImageSet) -> float:
    """Fraction of samples whose head prediction matches the label."""
    probs = model.forward(images_to_batch(dataset.images))
    return int((probs.argmax(axis=1) == dataset.labels).sum()) / len(dataset)
