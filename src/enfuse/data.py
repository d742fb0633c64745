"""Synthetic task generation, splitting, augmentation, and image encoding.

Images are float64 arrays of shape (H, W, 3) with values in [0, 1]. A
synthetic task draws each motif's images as one stack: one loop over the
images makes the random draws, in the order of drawing one image at a time,
and the masks, tint, noise and clip run over the stack. Augmentation works
on (N, H, W, C) stacks: each image gets its own angle, zoom factor and coin
flips, and each step runs over the whole stack. Images are only encoded, as
binary PPM (P6); no image file is ever read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class LabeledImageSet:
    """A stack of same-shaped images with integer labels and class names."""

    images: np.ndarray  # (N, H, W, C)
    labels: np.ndarray  # (N,) int
    class_names: list[str]

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)

    def __len__(self):
        return len(self.images)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)

    def subset(self, idx) -> "LabeledImageSet":
        return LabeledImageSet(self.images[idx], self.labels[idx], list(self.class_names))


# The ranges random_transform draws its rotation angle and zoom factor from.
ROTATION_DEGREES = (-15.0, 15.0)
ZOOM_RANGE = (0.8, 1.0)


# ---------------------------------------------------------------------------
# PPM encoding (binary P6, maxval 255)
# ---------------------------------------------------------------------------

def pnm_bytes(image: np.ndarray) -> bytes:
    """An (H, W, 3) float image in [0, 1] as binary PPM bytes."""
    h, w, _ = image.shape
    data = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    return b"P6\n%d %d\n255\n" % (w, h) + data.tobytes()


# ---------------------------------------------------------------------------
# Geometry: bilinear sampling with edge clamp, over (N, H, W, C) stacks
# ---------------------------------------------------------------------------

def _sample_bilinear(images: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sample each image of a stack at its own fractional (ys, xs) grid, both
    (N, H', W'); coordinates clamp to edges."""
    n, h, w, _ = images.shape
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[..., None]
    fx = (xs - x0)[..., None]
    i = np.arange(n)[:, None, None]
    top = images[i, y0, x0] * (1 - fx) + images[i, y0, x1] * fx
    bot = images[i, y1, x0] * (1 - fx) + images[i, y1, x1] * fx
    return top * (1 - fy) + bot * fy


def resize_bilinear(image: np.ndarray, size: tuple[int, int]) -> np.ndarray:
    """Resize an (H, W, C) image to (new_h, new_w) with bilinear interpolation."""
    new_h, new_w = size
    h, w, _ = image.shape
    ys = (np.arange(new_h) + 0.5) * h / new_h - 0.5
    xs = (np.arange(new_w) + 0.5) * w / new_w - 0.5
    grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
    return _sample_bilinear(image[None], grid_y[None], grid_x[None])[0]


def _centred_grid(images: np.ndarray):
    """(cy, cx, dy, dx): a stack's image centre and each pixel's (1, H, W)
    offset from it."""
    _, h, w, _ = images.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    grid_y, grid_x = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    return cy, cx, (grid_y - cy)[None], (grid_x - cx)[None]


def rotate(images: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Rotate each image about its centre by its own angle; out-of-range
    samples clamp to the edge."""
    theta = np.deg2rad(degrees)[:, None, None]
    cy, cx, dy, dx = _centred_grid(images)
    # inverse rotation of output coordinates
    src_y = cy + np.cos(theta) * dy - np.sin(theta) * dx
    src_x = cx + np.sin(theta) * dy + np.cos(theta) * dx
    return _sample_bilinear(images, src_y, src_x)


def zoom(images: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Scale each image about its centre by its own factor; a factor < 1
    magnifies the central region."""
    factors = factors[:, None, None]
    cy, cx, dy, dx = _centred_grid(images)
    return _sample_bilinear(images, cy + dy * factors, cx + dx * factors)


def hflip(images: np.ndarray) -> np.ndarray:
    """Each image mirrored left to right, as a view."""
    return images[:, :, ::-1]


def vflip(images: np.ndarray) -> np.ndarray:
    """Each image mirrored top to bottom, as a view."""
    return images[:, ::-1]


def box_blur(images: np.ndarray, kernel: int) -> np.ndarray:
    """Normalized box blur with edge-clamp padding; kernel must be odd."""
    if kernel == 1:
        return images.copy()
    r = kernel // 2
    padded = np.pad(images, ((0, 0), (r, r), (r, r), (0, 0)), mode="edge")
    _, h, w, _ = images.shape
    out = np.zeros_like(images)
    for dy in range(kernel):
        for dx in range(kernel):
            out += padded[:, dy:dy + h, dx:dx + w]
    return out / (kernel * kernel)


# the draws of one augmentation, in order: angle, zoom factor, then the
# hflip, vflip and blur coins (uniform on [0, 1), the generator's random())
_DRAW_LOW = np.array([ROTATION_DEGREES[0], ZOOM_RANGE[0], 0.0, 0.0, 0.0])
_DRAW_HIGH = np.array([ROTATION_DEGREES[1], ZOOM_RANGE[1], 1.0, 1.0, 1.0])


def random_transform(images: np.ndarray, blur_kernel: int,
                     rng: np.random.Generator) -> np.ndarray:
    """One random augmentation draw per image of an (N, H, W, C) stack:
    rotation, zoom, then a horizontal flip, a vertical flip and a
    `blur_kernel` box blur, each with probability 1/2.

    The generator makes each image's five draws in image order, so the
    stack gets the views, and leaves the generator in the state, of one
    call per image in turn.
    """
    draws = rng.uniform(_DRAW_LOW, _DRAW_HIGH, size=(len(images), 5))
    out = zoom(rotate(images, draws[:, 0]), draws[:, 1])
    for op, coin in ((hflip, 2), (vflip, 3)):
        chosen = draws[:, coin] < 0.5
        out[chosen] = op(out[chosen])
    chosen = draws[:, 4] < 0.5
    out[chosen] = box_blur(out[chosen], blur_kernel)
    return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Dataset operations
# ---------------------------------------------------------------------------

def one_hot_matrix(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((len(labels), n_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def stratified_train_counts(counts, train_fraction: float) -> np.ndarray:
    """Per-class train counts of a stratified split of classes of these sizes.

    Per-class floor first, then one extra sample to the largest classes until
    round(train_fraction * total) is met; no class gives up its last sample.
    """
    counts = np.asarray(counts)
    takes = np.floor(train_fraction * counts).astype(int)
    leftover = int(round(train_fraction * int(counts.sum()))) - int(takes.sum())
    order = sorted(range(len(counts)), key=lambda c: (-counts[c], c))
    for c in order:
        if leftover <= 0:
            break
        if takes[c] < counts[c] - 1:
            takes[c] += 1
            leftover -= 1
    return takes


def stratified_split(dataset: LabeledImageSet, train_fraction: float,
                     seed: int) -> tuple[LabeledImageSet, LabeledImageSet]:
    """Deterministic stratified train/test split, shuffled by `seed`.

    Takes `stratified_train_counts` samples of each class, each within one
    sample of round(train_fraction * class size).
    """
    rng = np.random.default_rng(seed)
    counts = dataset.class_counts()
    takes = stratified_train_counts(counts, train_fraction)
    train_idx, test_idx = [], []
    for c in range(dataset.n_classes):
        members = np.flatnonzero(dataset.labels == c)
        perm = rng.permutation(len(members))
        train_idx.extend(members[perm[: takes[c]]])
        test_idx.extend(members[perm[takes[c]:]])
    # an int dtype, so that an empty side indexes as an empty subset
    return (dataset.subset(np.sort(np.asarray(train_idx, dtype=np.int64))),
            dataset.subset(np.sort(np.asarray(test_idx, dtype=np.int64))))


# ---------------------------------------------------------------------------
# Synthetic tasks
# ---------------------------------------------------------------------------

_TINTS = {
    "disk": (1.0, 0.7, 0.7),
    "bar": (0.7, 1.0, 0.7),
    "cross": (0.7, 0.7, 1.0),
    "ring": (1.0, 1.0, 0.7),
}
# The motifs of each task kind, in label order; `[oodtest] kind` must name a key.
TASK_MOTIFS = {
    "generic": ("disk", "bar", "cross", "ring"),
    "shapes4": ("disk", "bar", "cross", "ring"),
    "shapes3": ("disk", "bar", "cross"),
    "binary": ("disk", "bar"),
}


def _draw_motif(motif: str, n: int, size: tuple[int, int], rng: np.random.Generator,
                noise_std: float, param_shift: float) -> np.ndarray:
    """n images of one motif, (n, H, W, 3), each at its own centre.

    Image by image, the generator draws the centre's row offset, its column
    offset, then (when noise_std > 0) the image's noise; the masks, tint,
    noise sum and clip then run over the whole stack.
    """
    h, w = size
    shifts = np.empty((n, 2))
    noise = np.empty((n, h, w, 3)) if noise_std > 0 else None
    for i in range(n):
        shifts[i, 0] = rng.uniform(-0.06, 0.06)
        shifts[i, 1] = rng.uniform(-0.06, 0.06)
        if noise is not None:
            noise[i] = rng.normal(0.0, noise_std, (h, w, 3))
    cy = (h / 2.0 + shifts[:, 0] * h)[:, None, None]
    cx = (w / 2.0 + shifts[:, 1] * w)[:, None, None]
    yy, xx = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    scale = min(h, w)
    r_base = (0.28 + param_shift) * scale
    thick = (0.10 + 0.5 * param_shift) * scale
    if motif in ("disk", "ring"):
        dist = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
    if motif == "disk":
        mask = dist <= r_base
    elif motif == "bar":
        mask = (np.abs(yy - cy) <= thick) & (np.abs(xx - cx) <= r_base * 1.3)
    elif motif == "cross":
        arm = r_base * 1.15
        mask = ((np.abs(yy - cy) <= thick * 0.8) & (np.abs(xx - cx) <= arm)) | (
            (np.abs(xx - cx) <= thick * 0.8) & (np.abs(yy - cy) <= arm)
        )
    else:  # ring
        mask = (dist <= r_base) & (dist >= r_base - thick)
    img = np.where(mask, 0.85 - param_shift * 0.2, 0.15 + param_shift * 0.3)
    images = img[..., None] * np.array(_TINTS[motif])
    if noise is not None:
        images = images + noise
    return np.clip(images, 0.0, 1.0)


def make_synthetic_task(kind: str, n_per_class: int, size: tuple[int, int],
                        noise_std: float, seed: int, *, param_shift: float = 0.0) -> LabeledImageSet:
    """Generate a deterministic geometric-motif classification task.

    `param_shift` nudges motif geometry and palette, producing a related but
    distribution-shifted variant of the same task (used to stand in for a
    change of domain).
    """
    motifs = TASK_MOTIFS[kind]
    rng = np.random.default_rng(seed)
    # label-major, so each motif's images make their draws in turn
    images = np.concatenate([_draw_motif(motif, n_per_class, size, rng, noise_std, param_shift)
                             for motif in motifs])
    return LabeledImageSet(images, np.repeat(np.arange(len(motifs)), n_per_class), list(motifs))
