"""Minimal differentiable layer zoo, float64, NCHW layout.

A forward called with `keep_cache=True` caches what the backward pass needs;
any other forward keeps nothing and drops the cache an earlier forward left,
so inference, and a layer that no backward will reach, hold no buffers
(`EncoderModel.forward` asks only its trainable slice to keep them). backward
reads the cache, raising EnfuseError when the last forward kept none,
and accumulates parameter gradients into `self.grads`. A layer with
parameters skips its input gradient when called with `input_grad=False` and
returns None.

`Conv2d` unrolls its input into patch rows (im2col) with one gather: a flat
index into one padded image, in (channel, ky, kx) column order, built once
per input size and kept on the layer. Its input gradient folds the patch
gradients back (col2im) with one `np.bincount` per image over that index
reversed, weighted by the image's patch gradients reversed: read backwards,
the patches that cover a pixel come in (ky, kx) order, so each input pixel
sums its patches from 0.0 in (ky, kx) order.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import EnfuseError


class Layer:
    """Base layer: stateless by default; `EncoderModel.flat_trainable` reads the trainable flag."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.trainable = True
        self._cache = None  # what backward needs, from a forward with keep_cache=True

    def forward(self, x: np.ndarray, training: bool = False,
                keep_cache: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        raise NotImplementedError

    def _cached(self):
        if self._cache is None:
            raise EnfuseError(
                f"{type(self).__name__}.backward needs a forward with keep_cache=True")
        return self._cache

    def zero_grads(self):
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def descriptor(self) -> dict:
        return {"kind": type(self).__name__}


def _he_weights(shape: tuple[int, int], rng: np.random.Generator | None) -> np.ndarray:
    """He-normal weights of this (fan_in, fan_out) shape from rng; unset (NaN)
    with no rng."""
    if rng is None:
        return np.full(shape, np.nan)
    return rng.normal(0.0, np.sqrt(2.0 / shape[0]), shape)


class Conv2d(Layer):
    """k x k convolution, stride 1, same padding. With no rng the weights are
    left unset, for a loader to fill."""

    def __init__(self, in_ch: int, out_ch: int, kernel: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if kernel % 2 == 0:
            raise EnfuseError("same-padding conv needs an odd kernel")
        self.in_ch, self.out_ch, self.kernel = in_ch, out_ch, kernel
        self.params = {
            "w": _he_weights((in_ch * kernel * kernel, out_ch), rng),
            "b": np.zeros(out_ch),
        }
        self.zero_grads()
        self._patch_index: dict[tuple[int, int], np.ndarray] = {}  # by (h, w), for _im2col

    def _im2col(self, x_pad, h, w):
        """(N, H, W, in_ch * k * k) patches of the padded input: one gather."""
        k = self.kernel
        hp, wp = h + k - 1, w + k - 1
        idx = self._patch_index.get((h, w))
        if idx is None:
            # flat offsets into one padded image, columns in (c, ky, kx) order
            column = (np.arange(self.in_ch)[:, None, None] * (hp * wp)
                      + np.arange(k)[None, :, None] * wp + np.arange(k)).ravel()
            pixel = np.arange(h)[:, None] * wp + np.arange(w)
            idx = self._patch_index[(h, w)] = pixel[:, :, None] + column
        return np.take(x_pad.reshape(len(x_pad), self.in_ch * hp * wp), idx, axis=1)

    def forward(self, x, training=False, keep_cache=False):
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise EnfuseError(f"Conv2d expected (N,{self.in_ch},H,W), got {x.shape}")
        n, _, h, w = x.shape
        p = self.kernel // 2
        x_pad = np.zeros((n, self.in_ch, h + 2 * p, w + 2 * p), dtype=x.dtype)
        x_pad[:, :, p:p + h, p:p + w] = x
        cols = self._im2col(x_pad, h, w)
        out = cols @ self.params["w"] + self.params["b"]
        self._cache = (cols, x.shape) if keep_cache else None
        return out.transpose(0, 3, 1, 2)

    def backward(self, dout, input_grad=True):
        cols, x_shape = self._cached()
        n, c, h, w = x_shape
        p = self.kernel // 2
        dflat = dout.transpose(0, 2, 3, 1)  # (N,H,W,out_ch)
        self.grads["w"] += cols.reshape(-1, cols.shape[-1]).T @ dflat.reshape(-1, self.out_ch)
        self.grads["b"] += dflat.sum(axis=(0, 1, 2))
        if not input_grad:
            return None
        dcols = (dflat @ self.params["w"].T).reshape(n, -1)  # each image's patch rows, flat
        # copied per call, not kept: a second index per layer raises peak memory
        bins = self._patch_index[(h, w)].ravel()[::-1].copy()
        hp, wp = h + 2 * p, w + 2 * p
        dx_pad = np.empty((n, c, hp, wp))
        for i in range(n):
            dx_pad[i] = np.bincount(bins, dcols[i, ::-1], c * hp * wp).reshape(c, hp, wp)
        return dx_pad[:, :, p:p + h, p:p + w]

    def descriptor(self):
        return {"kind": "Conv2d", "in_ch": self.in_ch, "out_ch": self.out_ch,
                "kernel": self.kernel}


class Dense(Layer):
    """Fully connected layer; no rng as for Conv2d."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        self.in_dim, self.out_dim = in_dim, out_dim
        self.params = {"w": _he_weights((in_dim, out_dim), rng), "b": np.zeros(out_dim)}
        self.zero_grads()

    def forward(self, x, training=False, keep_cache=False):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise EnfuseError(f"Dense expected (N,{self.in_dim}), got {x.shape}")
        self._cache = x if keep_cache else None
        return x @ self.params["w"] + self.params["b"]

    def backward(self, dout, input_grad=True):
        x = self._cached()
        self.grads["w"] += x.T @ dout
        self.grads["b"] += dout.sum(axis=0)
        if not input_grad:
            return None
        return dout @ self.params["w"].T

    def descriptor(self):
        return {"kind": "Dense", "in_dim": self.in_dim, "out_dim": self.out_dim}


class ReLU(Layer):
    def forward(self, x, training=False, keep_cache=False):
        positive = x > 0
        self._cache = positive if keep_cache else None
        return np.where(positive, x, 0.0)

    def backward(self, dout):
        return np.where(self._cached(), dout, 0.0)


class MaxPool2d(Layer):
    """2x2 max pooling, stride 2; spatial dims must be even.

    The four window positions are the strided quadrants of the input, in the
    order (0,0), (0,1), (1,0), (1,1); backward routes each output gradient to
    the first position holding the window's maximum. That index is computed
    only for a forward that keeps its cache. Backward writes every output
    gradient into a zero input gradient in one scatter: at its window's
    top-left corner plus the flat offset (0, 1, w or w + 1) of that position.
    """

    QUADRANTS = ((0, 0), (0, 1), (1, 0), (1, 1))

    def forward(self, x, training=False, keep_cache=False):
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise EnfuseError(f"MaxPool2d needs even spatial dims, got {h}x{w}")
        quads = [x[:, :, dy::2, dx::2] for dy, dx in self.QUADRANTS]
        # a C-ordered output whatever the input's layout: downstream reductions
        # sum in memory order
        out = np.empty((n, c, h // 2, w // 2), dtype=x.dtype)
        np.maximum(quads[0], quads[1], out=out)
        np.maximum(out, np.maximum(quads[2], quads[3]), out=out)
        self._cache = None
        if keep_cache:
            ne = [(q != out).view(np.uint8) for q in quads[:3]]
            first = ne[0] * (1 + ne[1] * (1 + ne[2]))  # index of the first maximum
            self._cache = (first, x.shape)
        return out

    def backward(self, dout):
        first, x_shape = self._cached()
        n, c, h, w = x_shape
        # flat index into the input of each window's top-left corner
        rows = np.arange(n * c * h // 2)[:, None] * (2 * w)
        corners = (rows + np.arange(0, w, 2)).ravel()
        grad = np.zeros(n * c * h * w)
        grad[corners + np.array([0, 1, w, w + 1])[first.ravel()]] = dout.ravel()
        return grad.reshape(x_shape)


class GlobalAvgPool(Layer):
    """(N, C, H, W) -> (N, C) spatial mean."""

    def forward(self, x, training=False, keep_cache=False):
        self._cache = x.shape if keep_cache else None
        return x.mean(axis=(2, 3))

    def backward(self, dout):
        n, c, h, w = self._cached()
        return np.broadcast_to(dout[:, :, None, None], (n, c, h, w)) / (h * w)


class Flatten(Layer):
    def forward(self, x, training=False, keep_cache=False):
        self._cache = x.shape if keep_cache else None
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))  # -1 fails on 0 images

    def backward(self, dout):
        return dout.reshape(self._cached())


class Dropout(Layer):
    """Inverted dropout; identity in inference mode."""

    def __init__(self, rate: float):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise EnfuseError("dropout rate must be in [0, 1)")
        self.rate = rate
        self._rng = np.random.default_rng(0)  # train_supervised reseeds it

    def reseed(self, seed: int):
        self._rng = np.random.default_rng(seed)

    def forward(self, x, training=False, keep_cache=False):
        if not training or self.rate == 0.0:
            mask, out = None, x
        else:
            keep = 1.0 - self.rate
            mask = (self._rng.random(x.shape) < keep) / keep
            out = x * mask
        self._cache = (mask,) if keep_cache else None
        return out

    def backward(self, dout):
        (mask,) = self._cached()
        return dout if mask is None else dout * mask

    def descriptor(self):
        return {"kind": "Dropout", "rate": self.rate}


class Softmax(Layer):
    def forward(self, x, training=False, keep_cache=False):
        shifted = x - x.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=1, keepdims=True)
        self._cache = out if keep_cache else None
        return out

    def backward(self, dout):
        p = self._cached()
        return p * (dout - (dout * p).sum(axis=1, keepdims=True))


# layers as a loader builds them: weights unset, for the file's to replace
_LAYER_KINDS = {
    "Conv2d": lambda d: Conv2d(d["in_ch"], d["out_ch"], d["kernel"]),
    "Dense": lambda d: Dense(d["in_dim"], d["out_dim"]),
    "ReLU": lambda d: ReLU(),
    "MaxPool2d": lambda d: MaxPool2d(),
    "GlobalAvgPool": lambda d: GlobalAvgPool(),
    "Flatten": lambda d: Flatten(),
    "Dropout": lambda d: Dropout(d["rate"]),
    "Softmax": lambda d: Softmax(),
}


def layer_from_descriptor(desc: dict) -> Layer:
    kind = desc.get("kind")
    if kind not in _LAYER_KINDS:
        raise EnfuseError(f"unknown layer kind {kind!r}")
    return _LAYER_KINDS[kind](desc)
