"""Feature fusion: concatenation, alone or followed by PCA or FastICA.

The default path concatenates per-encoder feature matrices and then
applies FastICA. Fitted transforms freeze the training-set standardization
statistics so test-time application never re-estimates anything.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import artifact
from .errors import EnfuseError, IntegrityError
from .features import FeatureMatrix
from .linalg import eigh_symmetric, standardize, whiten

TRANSFORM_MAGIC = b"ETSEFT1\x00"
DEFAULT_ICA_DIM = 128
ICA_MAX_ITER = 500  # fixed-point iterations per component


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
    for comp in range(k):
        w = rng.normal(size=k)
        w /= np.linalg.norm(w)
        converged = False
        for _ in range(ICA_MAX_ITER):
            wx = xw @ w
            g = np.tanh(wx)
            g_prime = 1.0 - g * g
            w_new = xw.T @ g / n - g_prime.mean() * w
            # decorrelate against already-found components
            w_new -= unmix[:comp].T @ (unmix[:comp] @ w_new)
            norm = np.linalg.norm(w_new)
            if norm < 1e-12:
                w_new = rng.normal(size=k)
                w_new -= unmix[:comp].T @ (unmix[:comp] @ w_new)
                norm = np.linalg.norm(w_new)
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


METHODS = ("concat-only", "concat+pca", "concat+ica")


def fuse_pipeline(parts: list[FeatureMatrix], *, method: str, k: int,
                  seed: int) -> tuple[FeatureMatrix, FusionTransform]:
    """Concatenate parts and fit the chosen transform on the result.

    k = 0 retains the automatic min(n_rows - 1, 128, n_cols). The returned
    transform must be reused as-is on test features (no refitting).
    """
    x = concat_features(parts)
    if k == 0:
        k = min(x.n_rows - 1, DEFAULT_ICA_DIM, x.n_cols)
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
