"""Dense linear-algebra helpers for fusion.

All routines work on float64 numpy arrays. Eigendecompositions here are
always of symmetric covariance matrices, so only the symmetric path is
provided.
"""

from __future__ import annotations

import numpy as np

from .errors import EnfuseError

CONST_COLUMN_EPS = 1e-12


def eigh_symmetric(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of a symmetric matrix, as np.linalg.eigh.

    Eigenvalues come back sorted descending, with matching orthonormal
    eigenvector columns; each column is normalized so its largest-magnitude
    entry is positive (deterministic sign convention).
    """
    a = np.asarray(a, dtype=np.float64)
    w, v = np.linalg.eigh(a)
    order = np.argsort(w)[::-1]
    w = w[order]
    v = v[:, order]
    for j in range(v.shape[1]):
        pivot = np.argmax(np.abs(v[:, j]))
        if v[pivot, j] < 0:
            v[:, j] = -v[:, j]
    return w, v


def standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-wise zero-mean unit-variance scaling.

    Constant columns (std below CONST_COLUMN_EPS) are mapped to zero and
    their std recorded as 1 so the transform stays invertible elsewhere.
    Returns (scaled, mean, std).
    """
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > CONST_COLUMN_EPS, std, 1.0)
    return (x - mean) / std, mean, std


def whiten(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """PCA-whiten a centered matrix down to at most k components: those of
    the top k whose covariance eigenvalue exceeds CONST_COLUMN_EPS.

    Returns (whitened, W) with whitened = x @ W.T and the sample covariance
    of the output the identity.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    if k > min(n - 1, d) or k < 1:
        raise EnfuseError(f"k={k} out of range for {n}x{d} input")
    cov = x.T @ x / (n - 1)
    eigenvalues, eigenvectors = eigh_symmetric(cov)
    rank = int(np.sum(eigenvalues[:k] > CONST_COLUMN_EPS))  # a prefix: sorted descending
    if rank == 0:
        raise EnfuseError("input has rank 0")
    w = (eigenvectors[:, :rank] / np.sqrt(eigenvalues[:rank])).T
    return x @ w.T, w
