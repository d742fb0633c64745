"""Encoder model container: conv backbone plus an attachable head.

The backbone ends in conv feature maps; its feature vector is the spatial
mean of the final conv activation (dimension = channel count). Heads are
layer stacks consuming those maps (a classification head or a contrastive
projection head). Persistence uses the shared artifact container (`enfuse.artifact`).

Buffers live only while a later step reads them. A training forward's
caches last until `backward` has run each layer, and no longer; an
inference forward keeps none, and runs the layers below its first `Dense`
(the conv maps) in chunks of `INFERENCE_BATCH` images.
"""

from __future__ import annotations

import numpy as np

from .. import artifact
from ..errors import EnfuseError, IntegrityError
from .layers import Conv2d, Dense, Dropout, Layer, layer_from_descriptor

MODEL_MAGIC = b"ETSEFM1\x00"
# images per chunk of the layers below the first Dense in a forward that
# keeps no caches: those layers compute each image on its own, so a chunk
# gives the bits of one batch, and only one chunk's maps exist at a time
INFERENCE_BATCH = 16


class EncoderModel:
    def __init__(self, backbone: list[Layer], head: list[Layer] | None = None):
        conv_channels = [l.out_ch for l in backbone if isinstance(l, Conv2d)]
        if not conv_channels:
            raise EnfuseError("backbone has no conv layers")
        self.backbone = backbone
        self.head = head or []
        self.feature_dim = conv_channels[-1]  # the width of the feature vector
        self.meta: dict = {}  # provenance: stage, method tag, training logs
        self._backward_stack: list[Layer] | None = None  # set by forward(keep_cache=True)

    # -- structure ---------------------------------------------------------

    @property
    def layers(self) -> list[Layer]:
        return self.backbone + self.head

    def set_head(self, head: list[Layer] | None):
        self.head = head or []

    def last_conv_index(self) -> int:
        idx = [i for i, l in enumerate(self.backbone) if isinstance(l, Conv2d)]
        return idx[-1]

    def freeze_backbone(self, upto: int | None = None):
        """Freeze backbone layers [0, upto), the rest trainable; all when upto is None."""
        stop = len(self.backbone) if upto is None else upto
        for i, layer in enumerate(self.backbone):
            layer.trainable = i >= stop

    def reseed_dropout(self, seed: int):
        i = 0
        for layer in self.layers:
            if isinstance(layer, Dropout):
                layer.reseed(seed + i)
                i += 1

    # -- forward / backward ------------------------------------------------

    def forward(self, x: np.ndarray, start: int = 0, stop: int | None = None, *,
                training: bool = False, keep_cache: bool = False) -> np.ndarray:
        """Run layers [start, stop) of `layers` on x, the input of layer
        `start`; to the top when `stop` is None. With `keep_cache`, x runs as
        one batch, and the lowest trainable layer with parameters in the range
        and all above it keep what `backward` needs. Without it, no layer
        keeps anything: the layers below the first `Dense` run in chunks of
        `INFERENCE_BATCH` images, which gives the bits of one batch (see
        `nn.train`), and that `Dense` and all above it run once over every
        row, since a `Dense`'s rounding can depend on its row count. What an
        earlier forward kept is dropped first."""
        out = np.asarray(x, dtype=np.float64)
        stack = self.layers[start:stop]
        lowest = next((i for i, l in enumerate(stack) if l.trainable and l.params), len(stack))
        self._backward_stack = stack[lowest:] if keep_cache else None
        for layer in self.layers:
            layer._cache = None

        def run(out, first, last):
            for i in range(first, last):
                try:
                    out = stack[i].forward(out, training=training,
                                           keep_cache=keep_cache and i >= lowest)
                except EnfuseError as exc:
                    raise EnfuseError(
                        f"layer {start + i} ({type(stack[i]).__name__}): {exc}") from exc
            return out

        if keep_cache:
            return run(out, 0, len(stack))
        first_dense = next((i for i, l in enumerate(stack) if isinstance(l, Dense)), len(stack))
        if first_dense:
            # an empty x still runs once, so its output has the stack's shape
            out = np.concatenate([run(out[s:s + INFERENCE_BATCH], 0, first_dense)
                                  for s in range(0, max(len(out), 1), INFERENCE_BATCH)])
        return run(out, first_dense, len(stack))

    def backward(self, dout: np.ndarray) -> None:
        """Accumulate parameter gradients for the last forward, which must
        have kept its caches (else EnfuseError).

        Runs top down through the layers that forward kept, ending at the
        lowest trainable layer with parameters, which skips its input
        gradient; nothing runs when no layer is trainable. Each layer's cache
        is dropped as soon as its backward returns, so the buffers of one
        step are gone before the next step's batch is built, and a second
        backward needs a new forward.
        """
        stack = self._backward_stack
        if stack is None:
            raise EnfuseError("EncoderModel.backward needs a forward with keep_cache=True")
        for layer in reversed(stack[1:]):
            dout = layer.backward(dout)
            layer._cache = None
        if stack:
            stack[0].backward(dout, input_grad=False)
            stack[0]._cache = None
        self._backward_stack = None

    def named_parameters(self):
        return {f"{i}.{name}": arr for i, layer in enumerate(self.layers)
                for name, arr in layer.params.items()}

    def flat_trainable(self) -> tuple[np.ndarray, np.ndarray]:
        """Make the trainable layers' params and grads views of two flat
        buffers, in layer order, and return the buffers (params, grads).

        The params' values are copied in and the grads start at 0.0, so one
        `fill` zeroes every gradient a backward accumulates into and one
        `adam_step` updates every trainable parameter. Frozen layers keep
        their arrays."""
        named = [(layer.params, layer.grads, name) for layer in self.layers
                 if layer.trainable for name in layer.params]
        size = sum(params[name].size for params, _, name in named)
        flat_params, flat_grads = np.empty(size), np.zeros(size)
        start = 0
        for params, grads, name in named:
            shape, stop = params[name].shape, start + params[name].size
            flat_params[start:stop] = params[name].ravel()
            params[name] = flat_params[start:stop].reshape(shape)
            grads[name] = flat_grads[start:stop].reshape(shape)
            start = stop
        return flat_params, flat_grads

    # -- persistence -------------------------------------------------------

    def save(self, path):
        """Write the layer descriptors and each parameter, named as in
        `named_parameters`, through the shared artifact container."""
        header = {"backbone": [l.descriptor() for l in self.backbone],
                  "head": [l.descriptor() for l in self.head],
                  "feature_dim": self.feature_dim,
                  "trainable": [bool(l.trainable) for l in self.layers],
                  "meta": self.meta}
        artifact.save(path, MODEL_MAGIC, header, self.named_parameters())

    @classmethod
    def load(cls, path) -> "EncoderModel":
        """The model a `save`d file holds; IntegrityError for any fault in its
        framing or header, or arrays that are not exactly the layers'
        parameters, each of its shape."""
        header, arrays = artifact.load(path, MODEL_MAGIC, "model")
        try:
            model = cls([layer_from_descriptor(d) for d in header["backbone"]],
                        [layer_from_descriptor(d) for d in header["head"]])
            feature_dim, trainable = header["feature_dim"], header["trainable"]
        except (KeyError, TypeError, ValueError, AttributeError, EnfuseError) as exc:
            raise IntegrityError(f"unreadable model header: {exc!r}") from exc
        if feature_dim != model.feature_dim:
            raise IntegrityError(f"feature_dim {feature_dim} does not match "
                                 f"the last conv's {model.feature_dim} channels")
        model.meta = header.get("meta", {})
        # the layers were built with unset weights: every one must come from the file
        params = model.named_parameters()
        if params.keys() - arrays.keys():
            raise IntegrityError(f"model file lacks {sorted(params.keys() - arrays.keys())}")
        if arrays.keys() - params.keys():
            raise IntegrityError(f"model file has {sorted(arrays.keys() - params.keys())}, "
                                 "which no layer has")
        for name, arr in params.items():
            if arrays[name].shape != arr.shape:
                raise IntegrityError(f"shape chain mismatch at layer {name}")
            arr[...] = arrays[name]
        layers = model.layers
        if (not isinstance(trainable, list) or len(trainable) != len(layers)
                or not set(map(type, trainable)) <= {bool}):
            raise IntegrityError(f"trainable must hold one bool per layer ({len(layers)})")
        for layer, flag in zip(layers, trainable):
            layer.trainable = flag
        return model
