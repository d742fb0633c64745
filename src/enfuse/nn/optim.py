"""Adam with decoupled weight decay plus a reduce-on-plateau schedule."""

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
    learning_rate: float = 0.001
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    # plateau tracking
    best_loss: float = float("inf")
    since_improve: int = 0


def adam_step(state: OptimizerState, params: dict[str, np.ndarray],
              grads: dict[str, np.ndarray]) -> None:
    """One in-place Adam update over a flat name -> array mapping.

    Weight decay is decoupled: applied directly to the parameter before the
    moment-based step. Frozen parameters are simply not passed in.
    """
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        if WEIGHT_DECAY:
            p -= state.learning_rate * WEIGHT_DECAY * p
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1 - BETA1) * g
        v *= BETA2
        v += (1 - BETA2) * g * g
        mhat = m / (1 - BETA1 ** t)
        vhat = v / (1 - BETA2 ** t)
        p -= state.learning_rate * mhat / (np.sqrt(vhat) + EPS)


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
