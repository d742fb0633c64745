"""Training losses: softmax cross-entropy and the contrastive pair loss."""

from __future__ import annotations

import numpy as np

from ..errors import EnfuseError


def cross_entropy_loss(logits: np.ndarray, onehot: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log softmax probability of the true class.

    Returns (loss, dLoss/dLogits) with the gradient already divided by the
    batch size.
    """
    logits = np.asarray(logits, dtype=np.float64)
    onehot = np.asarray(onehot, dtype=np.float64)
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logprob = shifted - logsumexp
    loss = float(-(onehot * logprob).sum() / n)
    grad = (np.exp(logprob) - onehot) / n
    return loss, grad


def nt_xent_loss(z: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """Normalized-temperature cross-entropy over positive pairs.

    Rows (0,1), (2,3), ... are the positive pairs (two views of one image).
    For each ordered pair (i, j):

        l(i, j) = -log[ exp(s_ij / tau) / sum_{k != i} exp(s_ik / tau) ]

    with s the cosine-similarity matrix, and the total loss is the mean of
    l over all 2N ordered positive pairs. The returned gradient is with
    respect to the raw (un-normalized) z.
    """
    z = np.asarray(z, dtype=np.float64)
    m = z.shape[0]
    norms = np.linalg.norm(z, axis=1)
    if np.any(norms == 0.0):
        raise EnfuseError("zero-norm projection vector")
    u = z / norms[:, None]
    s = u @ u.T
    pair = np.arange(m) ^ 1  # partner index of each row

    logits = s / tau
    np.fill_diagonal(logits, -np.inf)  # indicator k != i
    shifted = logits - logits.max(axis=1, keepdims=True)
    expl = np.exp(shifted)
    denom = expl.sum(axis=1, keepdims=True)
    p = expl / denom  # p[i, k] = softmax over k != i
    logprob = shifted - np.log(denom)
    loss = float(-logprob[np.arange(m), pair].mean())

    # dL/dS: softmax gradient per row, minus the positive-pair indicator.
    g = p.copy()
    g[np.arange(m), pair] -= 1.0
    g /= m * tau

    # Chain through s_ij = u_i . u_j and the row normalization of z.
    gsym = g + g.T
    du = gsym @ u  # pending removal of the radial part
    radial = (gsym * s).sum(axis=1)
    dz = (du - radial[:, None] * u) / norms[:, None]
    return loss, dz
