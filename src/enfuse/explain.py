"""Model inspection: Grad-CAM saliency, Shapley attributions, t-SNE embeddings.

Grad-CAM explains the conv encoders at pixel level; SHAP explains the
classifier stage over fused features; t-SNE visualizes the fused feature
space. Renderers return PPM heatmap bytes and standalone SVG text, all
byte-deterministic; the caller writes them.
"""

from __future__ import annotations

import warnings

import numpy as np

from .classifiers import predict_proba
from .data import pnm_bytes, resize_bilinear
from .ensemble import EnsembleModel
from .features import FeatureMatrix
from .nn.layers import Softmax
from .nn.model import EncoderModel

# shap_sampled takes the coalitions of whole permutations in blocks of at most
# this many rows and calls f once per block, on the block's distinct
# coalitions; `[explain] shap_samples = 2048` over 16 features are one block of
# 2,176 rows, 1,568 of them distinct at seed 42
SHAP_BLOCK_ROWS = 4096
SHAP_BACKGROUND_ROWS = 10  # training rows whose mean stands in for a missing feature


# ---------------------------------------------------------------------------
# Grad-CAM
# ---------------------------------------------------------------------------

def grad_cam(model: EncoderModel, image: np.ndarray, target_class: int) -> np.ndarray:
    """Gradient-weighted activation map at the model's final conv layer, (H, W)
    in [0, 1].

    One pass: the layers above the final conv, less a final softmax, keep
    caches and backpropagate the class score to its activation. Channel
    weights are the spatial average of d(class score)/d(activation); the
    weighted sum is ReLU'd, bilinearly upsampled to the image size, and
    max-normalized (an all-zero map stays all-zero).
    """
    li = model.last_conv_index()
    image = np.asarray(image, dtype=np.float64)
    act = model.forward(image.transpose(2, 0, 1)[None], stop=li + 1)  # HWC -> NCHW
    above = model.layers[li + 1:]
    above = above[:-1] if above and isinstance(above[-1], Softmax) else above
    logits = act
    for layer in above:
        logits = layer.forward(logits, keep_cache=True)
    grad = np.zeros_like(logits)
    grad[0, target_class] = 1.0
    for layer in reversed(above):
        grad = layer.backward(grad)  # ends as d score / d activation
    channel_w = grad[0].mean(axis=(1, 2))
    cam = np.maximum(np.tensordot(channel_w, act[0], axes=1), 0.0)
    upsampled = resize_bilinear(cam[:, :, None], image.shape[:2])[:, :, 0]
    upsampled = np.maximum(upsampled, 0.0)
    peak = upsampled.max()
    if peak > 0:
        upsampled = upsampled / peak
    return upsampled


# ---------------------------------------------------------------------------
# SHAP
# ---------------------------------------------------------------------------

def ensemble_output(model: EnsembleModel, instance: np.ndarray):
    """f: (n, D) -> (n,), the ensemble's mean probability of the class it
    assigns to `instance`: the quantity SHAP explains."""
    def mean_proba(x):
        return np.mean([predict_proba(c, x) for c in model.classifiers], axis=0)
    cls = int(np.argmax(mean_proba(instance[None])[0]))
    return lambda x: mean_proba(x)[:, cls]


def select_background(features: FeatureMatrix) -> np.ndarray:
    """The SHAP_BACKGROUND_ROWS rows closest to the feature-wise median (deterministic)."""
    median = np.median(features.data, axis=0)
    dist = np.linalg.norm(features.data - median, axis=1)
    return features.data[np.argsort(dist, kind="stable")[:SHAP_BACKGROUND_ROWS]]


def shap_sampled(f, instance: np.ndarray, background: np.ndarray, *, n_samples: int,
                 seed: int) -> tuple[np.ndarray, float, float]:
    """Permutation-sampling Shapley estimate of f: (n, D) -> (n,) at `instance`,
    with exact local accuracy: ((D,) phi, f at the background mean, f at `instance`).

    "Without" a feature means replacing it by its mean over the background
    rows. The estimation residual is redistributed proportionally to |phi|
    so base + sum(phi) always equals the model output.

    f must be row-independent: each output's bits depend only on its own
    input row, not on the rows beside it or their count. The prefixes of
    different permutations repeat coalitions, and f sees each distinct
    coalition of a block once, in an order of its own; the estimate is then
    the one that evaluating every prefix would give, bit for bit. f runs
    once per block, and base and output are a block's empty and full
    coalitions.
    """
    instance = np.asarray(instance, dtype=np.float64).ravel()
    d = len(instance)
    bg_mean = background.mean(axis=0)
    rng = np.random.default_rng(seed)
    n_perms = max(1, n_samples // max(d, 1))
    orders = np.array([rng.permutation(d) for _ in range(n_perms)])
    ranks = np.argsort(orders, axis=1)
    contribs = np.zeros((n_perms, d))
    per_call = max(1, SHAP_BLOCK_ROWS // (d + 1))
    for start in range(0, n_perms, per_call):
        block = slice(start, start + per_call)
        # coalition s of a permutation holds the features it ranks below s
        masks = (ranks[block, None, :] < np.arange(d + 1)[:, None]).reshape(-1, d)
        # one byte string per coalition: np.unique sorts these far faster
        # than it sorts the rows of the mask array (axis=0)
        packed = np.packbits(masks, axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        vals = np.asarray(f(np.where(masks[first], instance, bg_mean)))[inverse]
        np.put_along_axis(contribs[block], orders[block],
                          np.diff(vals.reshape(-1, d + 1), axis=1), axis=1)
    # f at the background mean and at the instance: every block holds the
    # empty and the full coalition
    base, out = float(vals[0]), float(vals[d])
    phi = contribs.mean(axis=0)
    residual = (out - base) - phi.sum()
    mass = np.abs(phi).sum()
    phi = phi + residual * (np.abs(phi) / mass if mass > 1e-12 else np.full(d, 1.0 / d))
    return phi, base, out


# ---------------------------------------------------------------------------
# t-SNE
# ---------------------------------------------------------------------------

def _conditional_p(dist_sq: np.ndarray, perplexity: float) -> np.ndarray:
    """Per-row binary search (50 steps, tolerance 1e-4) for the target perplexity."""
    n = dist_sq.shape[0]
    p = np.zeros((n, n))
    target_entropy = np.log(perplexity)
    for i in range(n):
        d = np.delete(dist_sq[i], i)
        beta, lo, hi = 1.0, 0.0, np.inf
        for _ in range(50):
            expd = np.exp(-(d - d.min()) * beta)
            total = expd.sum()
            row = expd / total
            entropy = -np.sum(row * np.log(np.maximum(row, 1e-300)))
            if abs(np.exp(entropy) - perplexity) < 1e-4:
                break
            if entropy > target_entropy:  # too flat: increase beta
                lo = beta
                beta = beta * 2 if hi == np.inf else 0.5 * (lo + hi)
            else:
                hi = beta
                beta = 0.5 * (lo + hi)
        p[i, np.arange(n) != i] = row
    return p


TSNE_MIN_ROWS = 4  # the fewest rows t-SNE embeds


def tsne_embed(x: FeatureMatrix, *, perplexity: float, iters: int,
               seed: int) -> tuple[np.ndarray, float, float]:
    """Exact-pairwise symmetric t-SNE, learning rate 200, early exaggeration, momentum:
    ((M, 2) coordinates, the final KL divergence, the perplexity used, maybe lowered)."""
    data = x.data
    n = len(data)
    if n < 3 * perplexity:
        perplexity = max(1.0, (n - 1) / 3.0)
        warnings.warn(f"perplexity reduced to {perplexity:.1f} for {n} rows")
    sq_norms = np.sum(data * data, axis=1)
    dist_sq = np.maximum(sq_norms[:, None] + sq_norms[None] - 2 * data @ data.T, 0.0)
    np.fill_diagonal(dist_sq, 0.0)
    off_diag = ~np.eye(n, dtype=bool)
    dist_sq[off_diag] = np.maximum(dist_sq[off_diag], 1e-12)  # duplicate-row floor
    cond = _conditional_p(dist_sq, perplexity)
    p = (cond + cond.T) / (2.0 * n)
    p = np.maximum(p, 1e-300)

    rng = np.random.default_rng(seed)
    y = rng.normal(scale=1e-4, size=(n, 2))
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    exaggeration_until, momentum_switch = 250, 250
    for it in range(iters):
        p_eff = p * 12.0 if it < exaggeration_until else p
        ydiff_sq = np.sum(y * y, axis=1)
        num = 1.0 / (1.0 + np.maximum(
            ydiff_sq[:, None] + ydiff_sq[None] - 2 * y @ y.T, 0.0))
        np.fill_diagonal(num, 0.0)
        q = np.maximum(num / num.sum(), 1e-300)
        pq = (p_eff - q) * num
        grad = 4.0 * ((np.diag(pq.sum(axis=1)) - pq) @ y)
        momentum = 0.5 if it < momentum_switch else 0.8
        same_dir = np.sign(grad) == np.sign(velocity)
        gains = np.maximum(np.where(same_dir, gains * 0.8, gains + 0.2), 0.01)
        velocity = momentum * velocity - 200.0 * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)
    return y, float(np.sum(p * np.log(p / q))), perplexity


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#ff7f0e", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def render_saliency_ppm(sal: np.ndarray, image: np.ndarray) -> bytes:
    """P6 heatmap: red channel carries the (H, W) saliency over a grayed-out
    (H, W, 3) image."""
    gray = image.mean(axis=2)
    out = np.stack([np.maximum(gray * 0.5, sal),
                    gray * 0.5 * (1.0 - sal),
                    gray * 0.5 * (1.0 - sal)], axis=2)
    return pnm_bytes(np.clip(out, 0.0, 1.0))


def _svg_document(width: int, height: int, body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">')
    return "\n".join([head] + body + ["</svg>"]) + "\n"


def render_embedding_svg(coords: np.ndarray, labels: np.ndarray, kl: float,
                         perplexity: float, class_names: list[str]) -> str:
    """Scatter plot of `tsne_embed`'s coordinates with per-class colors and a legend."""
    size, margin = 400, 40
    lo = coords.min(axis=0)
    span = np.maximum(coords.max(axis=0) - lo, 1e-12)
    scaled = margin + (coords - lo) / span * (size - 2 * margin)
    body = [f'<rect width="{size}" height="{size}" fill="white"/>']
    for (px, py), label in zip(scaled, labels):
        color = PALETTE[int(label) % len(PALETTE)]
        body.append(f'<circle cx="{px:.2f}" cy="{size - py:.2f}" r="3" '
                    f'fill="{color}" fill-opacity="0.8"/>')
    for rank, cls in enumerate(np.unique(labels)):
        color = PALETTE[int(cls) % len(PALETTE)]
        name = class_names[int(cls)]
        yy = 16 + 16 * rank
        body.append(f'<circle cx="{size - 110}" cy="{yy}" r="4" fill="{color}"/>')
        body.append(f'<text x="{size - 100}" y="{yy + 4}" font-size="12" '
                    f'font-family="monospace">{name}</text>')
    body.append(f'<text x="8" y="{size - 8}" font-size="11" font-family="monospace">'
                f'KL={kl:.4f} perplexity={perplexity:.4f}</text>')
    return _svg_document(size, size, body)


def render_confusion_svg(counts: np.ndarray, class_names: list[str]) -> str:
    """The (k, k) count grid, rows true and columns predicted, shaded by cell magnitude."""
    k = len(counts)
    cell, margin = 48, 56
    size = margin + k * cell + 16
    peak = max(int(counts.max()), 1)
    body = [f'<rect width="{size}" height="{size}" fill="white"/>']
    for i in range(k):
        for j in range(k):
            count = int(counts[i, j])
            shade = 255 - int(195 * count / peak)
            x0, y0 = margin + j * cell, margin + i * cell
            body.append(f'<rect x="{x0}" y="{y0}" width="{cell}" height="{cell}" '
                        f'fill="rgb({shade},{shade},255)" stroke="black"/>')
            body.append(f'<text x="{x0 + cell // 2}" y="{y0 + cell // 2 + 4}" '
                        f'font-size="14" text-anchor="middle" '
                        f'font-family="monospace">{count}</text>')
    for idx in range(k):
        name = class_names[idx]
        body.append(f'<text x="{margin + idx * cell + cell // 2}" y="{margin - 8}" '
                    f'font-size="12" text-anchor="middle" '
                    f'font-family="monospace">{name}</text>')
        body.append(f'<text x="{margin - 8}" y="{margin + idx * cell + cell // 2 + 4}" '
                    f'font-size="12" text-anchor="end" '
                    f'font-family="monospace">{name}</text>')
    body.append(f'<text x="{margin}" y="16" font-size="12" font-family="monospace">'
                f'rows: true / cols: predicted</text>')
    return _svg_document(size, size, body)


def render_ablation_svg(arms: dict[str | None, dict[str, float]]) -> str:
    """Bars of voted-accuracy deltas per excluded base model, from `ablate`'s arms."""
    (_, full), *rows = arms.items()
    deltas = [(excluded, accuracies["voted"] - full["voted"]) for excluded, accuracies in rows]
    width, row_h, margin = 420, 26, 90
    height = margin + row_h * len(deltas) + 20
    mid = (width + margin) // 2
    scale = (width - margin - 40) / 2
    body = [f'<rect width="{width}" height="{height}" fill="white"/>',
            f'<line x1="{mid}" y1="{margin - 10}" x2="{mid}" '
            f'y2="{height - 10}" stroke="black"/>',
            f'<text x="{margin}" y="20" font-size="12" font-family="monospace">'
            f'voted-accuracy delta when excluding a base model</text>']
    peak = max(max(abs(delta) for _, delta in deltas), 1e-9)
    for i, (excluded, delta) in enumerate(deltas):
        y = margin + i * row_h
        length = abs(delta) / peak * scale
        x0 = mid - length if delta < 0 else mid
        color = "#d62728" if delta < 0 else "#2ca02c"
        body.append(f'<rect x="{x0:.1f}" y="{y}" width="{max(length, 0.5):.1f}" '
                    f'height="{row_h - 8}" fill="{color}"/>')
        body.append(f'<text x="8" y="{y + row_h - 12}" font-size="12" '
                    f'font-family="monospace">{excluded}</text>')
        body.append(f'<text x="{width - 70}" y="{y + row_h - 12}" font-size="11" '
                    f'font-family="monospace">{delta:+.4f}</text>')
    return _svg_document(width, height, body)


def shap_csv(phi: np.ndarray, base: float, output: float) -> str:
    """`shap_sampled`'s attributions, one row a feature, then its two outputs."""
    lines = ["feature,phi"]
    for j, value in enumerate(phi):
        lines.append(f"f{j},{value:.10f}")
    lines.append(f"base_value,{base:.10f}")
    lines.append(f"model_output,{output:.10f}")
    return "\n".join(lines) + "\n"

