"""Feature fusion: concatenation, alone or followed by PCA or FastICA.

The default path concatenates per-encoder feature matrices and then
applies FastICA. Fitted transforms freeze the training-set standardization
statistics so test-time application never re-estimates anything. The
linear algebra (standardization, eigendecomposition, whitening) lives here
too, as does `max_components`, the one bound on the components kept.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import artifact
from .errors import EnfuseError, IntegrityError
from .features import FeatureMatrix

TRANSFORM_MAGIC = b"ETSEFT1\x00"
DEFAULT_ICA_DIM = 128
ICA_MAX_ITER = 500  # fixed-point iterations per component
CONST_COLUMN_EPS = 1e-12

K_METHODS = ("concat+pca", "concat+ica")  # the methods that keep k components
METHODS = ("concat-only",) + K_METHODS


def max_components(n_rows: int, n_cols: int) -> int:
    """The most components PCA and ICA keep of n_rows x n_cols features."""
    return min(n_rows - 1, n_cols)


@dataclass
class FusionTransform:
    """A fitted linear transform: standardize with stored stats, then project."""

    kind: str  # "PCA" | "ICA" | "Identity"
    mean: np.ndarray
    std: np.ndarray
    components: np.ndarray  # (D_in, k)

    @property
    def in_dim(self) -> int:
        return len(self.mean)


def concat_features(parts: list[FeatureMatrix]) -> FeatureMatrix:
    """Join one image set's feature matrices column-wise, with the first
    part's labels."""
    data = np.concatenate([p.data for p in parts], axis=1)
    return FeatureMatrix(data, labels=parts[0].labels)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

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
    cov = x.T @ x / (len(x) - 1)
    eigenvalues, eigenvectors = eigh_symmetric(cov)
    rank = int(np.sum(eigenvalues[:k] > CONST_COLUMN_EPS))  # a prefix: sorted descending
    if rank == 0:
        raise EnfuseError("input has rank 0")
    w = (eigenvectors[:, :rank] / np.sqrt(eigenvalues[:rank])).T
    return x @ w.T, w


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def fit_identity(x: FeatureMatrix) -> FusionTransform:
    """Standardization-only transform (the concat-only path)."""
    _, mean, std = standardize(x.data)
    return FusionTransform("Identity", mean, std, np.eye(x.n_cols))


def fit_pca(x: FeatureMatrix, k: int) -> FusionTransform:
    scaled, mean, std = standardize(x.data)
    n = len(scaled)
    cov = scaled.T @ scaled / (n - 1)
    _, eigvecs = eigh_symmetric(cov)
    return FusionTransform("PCA", mean, std, eigvecs[:, :k].copy())


def fit_ica(x: FeatureMatrix, k: int, *, seed: int) -> FusionTransform:
    """FastICA by deflation with the log-cosh (tanh) nonlinearity.

    Components are extracted one by one in whitened space with Gram-Schmidt
    decorrelation until |w_new . w| is within 1e-6 of 1; not converging is a warning.
    """
    scaled, mean, std = standardize(x.data)
    n = len(scaled)
    xw, wh = whiten(scaled, k)  # (n, rank), (rank, d): rank <= k
    if len(wh) < k:
        warnings.warn(f"input rank {len(wh)} below requested k={k}; reducing")
        k = len(wh)
    rng = np.random.default_rng(seed)
    unmix = np.zeros((k, k))
    xw_t = xw.T
    # np.linalg.norm of a vector is sqrt(w.dot(w)) and .mean() is the sum
    # over n: the same float operations, without the wrappers' overhead
    for comp in range(k):
        found = unmix[:comp]
        w = rng.normal(size=k)
        w /= np.sqrt(w.dot(w))
        converged = False
        for _ in range(ICA_MAX_ITER):
            g = np.tanh(xw @ w)
            g_prime = 1.0 - g * g
            w_new = xw_t @ g / n - np.add.reduce(g_prime) / n * w
            if comp:  # decorrelate against already-found components
                w_new -= found.T @ (found @ w_new)
            norm = np.sqrt(w_new.dot(w_new))
            if norm < 1e-12:
                w_new = rng.normal(size=k)
                if comp:
                    w_new -= found.T @ (found @ w_new)
                norm = np.sqrt(w_new.dot(w_new))
            w_new /= norm
            if abs(abs(np.dot(w_new, w)) - 1.0) < 1e-6:
                w = w_new
                converged = True
                break
            w = w_new
        if not converged:
            warnings.warn(f"ICA component {comp} did not converge in {ICA_MAX_ITER} iterations")
        unmix[comp] = w
    components = (unmix @ wh).T  # (d, k): standardized data @ components = sources
    t = FusionTransform("ICA", mean, std, components)
    t.unmixing = unmix  # rows unit-norm in whitened space
    return t


def apply_transform(t: FusionTransform, x: FeatureMatrix) -> FeatureMatrix:
    if x.n_cols != t.in_dim:
        raise EnfuseError(f"dim mismatch: transform takes {t.in_dim}, got {x.n_cols}")
    scaled = (x.data - t.mean) / t.std
    return FeatureMatrix(scaled @ t.components, labels=x.labels)


def fuse_pipeline(parts: list[FeatureMatrix], *, method: str, k: int,
                  seed: int) -> tuple[FeatureMatrix, FusionTransform]:
    """Concatenate parts and fit the chosen transform on the result.

    k = 0 retains the automatic min(`max_components`, DEFAULT_ICA_DIM). The
    returned transform must be reused as-is on test features (no refitting).
    """
    x = concat_features(parts)
    if k == 0:
        k = min(max_components(x.n_rows, x.n_cols), DEFAULT_ICA_DIM)
    if method == "concat-only":
        t = fit_identity(x)
    elif method == "concat+pca":
        t = fit_pca(x, k)
    else:
        t = fit_ica(x, k, seed=seed)
    return apply_transform(t, x), t


# ---------------------------------------------------------------------------
# Persistence (the shared artifact container)
# ---------------------------------------------------------------------------

def save_transform(t: FusionTransform, path) -> None:
    artifact.save(path, TRANSFORM_MAGIC, {"kind": t.kind},
                  {"components": t.components, "mean": t.mean, "std": t.std})


def load_transform(path) -> FusionTransform:
    """The saved transform; IntegrityError for a header without its kind, or
    arrays that are not `components` (d, k), `mean` and `std` (d,)."""
    header, arrays = artifact.load(path, TRANSFORM_MAGIC, "transform")
    if "kind" not in header:
        raise IntegrityError("transform header has no kind")
    artifact.check_shapes("transform", arrays,
                          {"components": ("d", "k"), "mean": ("d",), "std": ("d",)}, {})
    return FusionTransform(header["kind"], arrays["mean"], arrays["std"], arrays["components"])
