"""Adam with decoupled weight decay plus a reduce-on-plateau schedule.

A training call steps all its trainable parameters at once: they and their
gradients are views of two flat buffers (`EncoderModel.flat_trainable`), so
one step is a handful of whole-array operations. Each element is updated
exactly as a per-parameter loop would update it, as every operation is
elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
WEIGHT_DECAY = 1e-5
# plateau schedule: scale the learning rate by DECAY_FACTOR after PATIENCE
# epochs whose loss is not below the best so far by more than MIN_IMPROVE
PATIENCE = 3
DECAY_FACTOR = 0.5
MIN_IMPROVE = 1e-6


@dataclass
class OptimizerState:
    learning_rate: float
    step: int = field(init=False, default=0)
    # first and second moments, one per flat parameter; the first step makes them
    m: np.ndarray | None = field(init=False, default=None)
    v: np.ndarray | None = field(init=False, default=None)
    # plateau tracking
    best_loss: float = field(init=False, default=float("inf"))
    since_improve: int = field(init=False, default=0)


def adam_step(state: OptimizerState, params: np.ndarray, grads: np.ndarray) -> None:
    """One in-place Adam update of the flat parameters by their flat gradients.

    Weight decay is decoupled: applied directly to the parameter before the
    moment-based step. Frozen parameters are simply not in the buffers.
    """
    state.step += 1
    t = state.step
    if state.m is None:
        state.m, state.v = np.zeros_like(params), np.zeros_like(params)
    if WEIGHT_DECAY:
        params -= state.learning_rate * WEIGHT_DECAY * params
    m, v = state.m, state.v
    m *= BETA1
    m += (1 - BETA1) * grads
    v *= BETA2
    v += (1 - BETA2) * grads * grads
    mhat = m / (1 - BETA1 ** t)
    vhat = v / (1 - BETA2 ** t)
    params -= state.learning_rate * mhat / (np.sqrt(vhat) + EPS)


def plateau_schedule(state: OptimizerState, epoch_loss: float) -> None:
    """Halve the learning rate after `PATIENCE` epochs without improvement."""
    if epoch_loss < state.best_loss - MIN_IMPROVE:
        state.best_loss = min(state.best_loss, epoch_loss)
        state.since_improve = 0
        return
    state.best_loss = min(state.best_loss, epoch_loss)
    state.since_improve += 1
    if state.since_improve >= PATIENCE:
        state.learning_rate *= DECAY_FACTOR
        state.since_improve = 0
