import tracemalloc

import numpy as np
import pytest

from enfuse.cli import _one_blas_thread
from enfuse.data import LabeledImageSet, make_synthetic_task, one_hot_matrix
from enfuse.errors import EnfuseError
from enfuse.explain import grad_cam
from enfuse.nn import (
    Conv2d,
    Dense,
    Dropout,
    EncoderModel,
    Flatten,
    GlobalAvgPool,
    MaxPool2d,
    OptimizerState,
    ReLU,
    Softmax,
    accuracy,
    adam_step,
    cross_entropy_loss,
    images_to_batch,
    nt_xent_loss,
    optim,
    plateau_schedule,
    train_supervised,
)
from enfuse.nn import model as model_module
from enfuse.nn import train as train_module
from enfuse.nn.model import INFERENCE_BATCH
from enfuse.pretrain import (
    build_backbone,
    extract_features,
    finetune_target_ssl,
    make_classification_head,
    make_ssl_classification_head,
)


def numeric_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + h
        hi = f()
        x[idx] = old - h
        lo = f()
        x[idx] = old
        g[idx] = (hi - lo) / (2 * h)
        it.iternext()
    return g


def check_layer_grads(layer, x, rtol=1e-4):
    """Backward must match finite differences for the input and every parameter."""
    rng = np.random.default_rng(0)
    out = layer.forward(x, training=False)
    r = rng.normal(size=out.shape)

    def loss():
        return float((layer.forward(x, training=False) * r).sum())

    layer.zero_grads()
    layer.forward(x, training=False, keep_cache=True)
    dx = layer.backward(r)

    gx = numeric_grad(loss, x)
    assert np.allclose(dx, gx, rtol=rtol, atol=1e-7), "input gradient mismatch"
    for name, p in layer.params.items():
        gp = numeric_grad(loss, p)
        assert np.allclose(layer.grads[name], gp, rtol=rtol, atol=1e-7), f"param {name} mismatch"


class TestLayerForward:
    def test_dense_identity(self):
        layer = Dense(2, 2, np.random.default_rng(0))
        layer.params["w"] = np.eye(2)
        layer.params["b"] = np.zeros(2)
        x = np.array([[3.0, 4.0]])
        assert np.array_equal(layer.forward(x), x)

    def test_relu(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 2.0]])

    def test_global_avg_pool_constant(self):
        x = np.full((1, 1, 4, 4), 2.5)
        assert GlobalAvgPool().forward(x)[0, 0] == 2.5

    def test_shape_error_names_layer(self):
        model = EncoderModel([Conv2d(3, 4, 3, np.random.default_rng(0))])
        with pytest.raises(EnfuseError, match="layer 0"):
            model.forward(np.zeros((1, 2, 8, 8)))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = Softmax().forward(rng.normal(size=(6, 5)) * 10)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_dropout_inference_identity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 7))
        assert np.array_equal(Dropout(0.5).forward(x, training=False), x)

    def test_dropout_training_unbiased(self):
        rng = np.random.default_rng(3)
        x = np.ones((200, 50))
        layer = Dropout(0.3)
        layer.reseed(9)
        out = layer.forward(x, training=True)
        assert abs(out.mean() - 1.0) < 0.02


class TestLayerGradients:
    def test_conv(self):
        rng = np.random.default_rng(10)
        layer = Conv2d(2, 3, 3, rng=rng)
        check_layer_grads(layer, rng.normal(size=(2, 2, 5, 5)))

    def test_conv_k5(self):
        rng = np.random.default_rng(11)
        layer = Conv2d(1, 2, 5, rng=rng)
        check_layer_grads(layer, rng.normal(size=(1, 1, 6, 6)))

    def test_dense(self):
        rng = np.random.default_rng(12)
        layer = Dense(4, 3, rng=rng)
        check_layer_grads(layer, rng.normal(size=(5, 4)))

    def test_relu(self):
        rng = np.random.default_rng(13)
        check_layer_grads(ReLU(), rng.normal(size=(3, 7)) + 0.05)

    def test_maxpool(self):
        rng = np.random.default_rng(14)
        check_layer_grads(MaxPool2d(), rng.normal(size=(2, 2, 4, 4)))

    def test_global_avg_pool(self):
        rng = np.random.default_rng(15)
        check_layer_grads(GlobalAvgPool(), rng.normal(size=(2, 3, 4, 4)))

    def test_flatten(self):
        rng = np.random.default_rng(16)
        check_layer_grads(Flatten(), rng.normal(size=(2, 2, 3, 3)))

    def test_softmax(self):
        rng = np.random.default_rng(17)
        check_layer_grads(Softmax(), rng.normal(size=(4, 5)))


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = cross_entropy_loss(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert loss == pytest.approx(np.log(2), abs=1e-12)

    def test_confident_correct(self):
        loss, _ = cross_entropy_loss(np.array([[10.0, -10.0]]), np.array([[1.0, 0.0]]))
        assert loss == pytest.approx(-np.log(1 / (1 + np.exp(-20))), rel=1e-6)
        assert loss < 1e-8

    def test_gradient_hand_value(self):
        _, grad = cross_entropy_loss(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert np.allclose(grad, [[-0.5, 0.5]])

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(20)
        logits = rng.normal(size=(4, 3))
        y = np.zeros((4, 3))
        y[np.arange(4), rng.integers(0, 3, 4)] = 1.0

        def f():
            return cross_entropy_loss(logits, y)[0]

        _, grad = cross_entropy_loss(logits, y)
        assert np.allclose(grad, numeric_grad(f, logits), rtol=1e-5, atol=1e-9)


class TestNtXent:
    def test_hand_value_orthogonal_pairs(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        loss, _ = nt_xent_loss(z, tau=1.0)
        expected = -np.log(np.e / (np.e + 2))
        assert loss == pytest.approx(expected, abs=1e-6)
        assert loss == pytest.approx(0.551445, abs=1e-5)

    def test_scale_invariance(self):
        rng = np.random.default_rng(21)
        z = rng.normal(size=(8, 4))
        l1, _ = nt_xent_loss(z, 0.5)
        l2, _ = nt_xent_loss(5.0 * z, 0.5)
        assert l1 == pytest.approx(l2, abs=1e-12)

    def test_pair_order_permutation(self):
        rng = np.random.default_rng(22)
        z = rng.normal(size=(8, 4))
        perm = np.array([4, 5, 0, 1, 6, 7, 2, 3])  # permute whole pairs
        l1, _ = nt_xent_loss(z, 0.7)
        l2, _ = nt_xent_loss(z[perm], 0.7)
        assert l1 == pytest.approx(l2, abs=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(23)
        z = rng.normal(size=(8, 4))

        def f():
            return nt_xent_loss(z, 0.5)[0]

        _, grad = nt_xent_loss(z, 0.5)
        num = numeric_grad(f, z)
        assert np.max(np.abs(grad - num)) / max(np.max(np.abs(num)), 1e-12) < 1e-5

    def test_zero_norm_rejected(self):
        z = np.zeros((4, 3))
        z[0] = [1, 0, 0]
        with pytest.raises(EnfuseError, match="zero-norm projection vector"):
            nt_xent_loss(z, 1.0)


class TestAdam:
    def test_zero_grad_no_decay(self, monkeypatch):
        monkeypatch.setattr(optim, "WEIGHT_DECAY", 0.0)
        state = OptimizerState(learning_rate=0.001)
        p = np.array([1.0, -2.0])
        before = p.copy()
        adam_step(state, p, np.zeros(2))
        assert np.array_equal(p, before)

    def test_first_step_magnitude(self, monkeypatch):
        monkeypatch.setattr(optim, "WEIGHT_DECAY", 0.0)
        state = OptimizerState(learning_rate=0.001)
        p = np.array([0.0])
        adam_step(state, p, np.array([1.0]))
        assert p[0] == pytest.approx(-0.001, rel=1e-6)

    def test_frozen_param_untouched(self):
        model = EncoderModel([Conv2d(1, 2, 3, np.random.default_rng(0)),
                              Conv2d(2, 2, 3, np.random.default_rng(0))], [])
        frozen = model.backbone[0]
        frozen.trainable = False
        arrays = dict(frozen.params)
        before = {k: v.copy() for k, v in model.named_parameters().items()}
        params, grads = model.flat_trainable()
        assert params.size == sum(p.size for p in model.backbone[1].params.values())
        grads.fill(1.0)
        adam_step(OptimizerState(learning_rate=0.001), params, grads)
        after = model.named_parameters()
        for name, arr in arrays.items():
            assert frozen.params[name] is arr
            assert np.array_equal(before[f"0.{name}"], after[f"0.{name}"])
        for name in ("w", "b"):
            assert not np.array_equal(before[f"1.{name}"], after[f"1.{name}"])


class TestPlateau:
    def _run(self, losses):
        state = OptimizerState(learning_rate=1.0)
        for loss in losses:
            plateau_schedule(state, loss)
        return state.learning_rate

    def test_monotone_improvement(self):
        assert self._run([1.0, 0.9, 0.8]) == 1.0

    def test_flat_losses_halve_once(self):
        assert self._run([1.0, 1.0, 1.0, 1.0]) == 0.5

    def test_improvement_resets_counter(self):
        assert self._run([1.0, 1.0, 0.5, 1.0, 1.0, 1.0, 1.0]) == 0.5


def make_head(d_f, n_classes, rng):
    return [GlobalAvgPool(), Flatten(), Dense(d_f, max(d_f // 2, 2), rng=rng), ReLU(),
            Dense(max(d_f // 2, 2), n_classes, rng=rng), Softmax()]


class TestTrainSupervised:
    def _model(self, seed=0, n_classes=2):
        rng = np.random.default_rng(seed)
        backbone = [Conv2d(3, 4, 3, rng=rng), ReLU(), MaxPool2d(),
                    Conv2d(4, 8, 3, rng=rng), ReLU(), MaxPool2d()]
        return EncoderModel(backbone, make_head(8, n_classes, rng))

    def test_linearly_separable_converges(self):
        ds = make_synthetic_task("binary", 12, (8, 8), 0.0, seed=5)
        model = self._model()
        train_supervised(model, ds, lr=0.001, epochs=30, batch=16, seed=1)
        probs = model.forward(images_to_batch(ds.images), training=False)
        assert (probs.argmax(axis=1) == ds.labels).mean() == 1.0

    def test_zero_epochs_noop(self):
        ds = make_synthetic_task("binary", 4, (8, 8), 0.0, seed=5)
        model = self._model()
        before = {k: v.copy() for k, v in model.named_parameters().items()}
        log = train_supervised(model, ds, lr=0.001, epochs=0, batch=8, seed=1)
        assert log == []
        for k, v in model.named_parameters().items():
            assert np.array_equal(before[k], v)

    def test_seed_determinism(self):
        ds = make_synthetic_task("binary", 6, (8, 8), 0.02, seed=5)
        runs = []
        for _ in range(2):
            model = self._model(seed=3)
            train_supervised(model, ds, lr=0.001, epochs=5, batch=8, seed=7)
            runs.append({k: v.copy() for k, v in model.named_parameters().items()})
        for k in runs[0]:
            assert np.array_equal(runs[0][k], runs[1][k])

    def test_frozen_layers_bit_identical(self):
        ds = make_synthetic_task("binary", 6, (8, 8), 0.02, seed=5)
        model = self._model(seed=3)
        model.freeze_backbone(upto=3)
        frozen_before = [model.backbone[i].params["w"].copy() for i in (0,)]
        train_supervised(model, ds, lr=0.001, epochs=3, batch=8, seed=7)
        assert np.array_equal(model.backbone[0].params["w"], frozen_before[0])

    def test_batch_clamp_warns(self):
        ds = make_synthetic_task("binary", 2, (8, 8), 0.0, seed=5)
        model = self._model()
        with pytest.warns(UserWarning, match="clamping"):
            train_supervised(model, ds, lr=0.001, epochs=1, batch=999, seed=0)


# freeze_backbone(upto) on variant C (conv layers at 0, 3, 6 and 8, 11 backbone
# layers, then GlobalAvgPool, Flatten, Dense), and the stack index of the lowest
# trainable layer with parameters: none frozen, the first block, up to the last
# conv, the whole backbone
FREEZE_PATTERNS = [(0, 0), (3, 3), (8, 8), (11, 13)]

# the same patterns on every variant (upto None freezes the whole backbone): A has
# convs at 0 and 3 in 6 layers, so its first block ends at its last conv; B has
# convs at 0, 2 and 5 in 8 layers, and its first block ends at its last conv too
VARIANT_FREEZE_PATTERNS = [
    ("A", 0, 0), ("A", 3, 3), ("A", None, 8),
    ("B", 0, 0), ("B", 5, 5), ("B", None, 10),
    ("C", 0, 0), ("C", 3, 3), ("C", 8, 8), ("C", None, 13),
]


def variant_model(variant, upto):
    rng = np.random.default_rng(5)
    model = EncoderModel(build_backbone(variant, rng))
    model.set_head(make_classification_head(model.feature_dim, 3, rng))
    model.freeze_backbone(upto=upto)
    return model


def variant_c_model(upto):
    return variant_model("C", upto)


def training_forward(model, x):
    """A training forward over every layer but the final Softmax (the loss
    takes the logits), with the dropout masks fixed."""
    model.reseed_dropout(0)
    model.forward(x, 0, len(model.layers) - 1, training=True, keep_cache=True)


def trainable_grads(model):
    return {f"{i}.{name}": grad for i, layer in enumerate(model.layers) if layer.trainable
            for name, grad in layer.grads.items()}


def zero_trainable_grads(model):
    for grad in trainable_grads(model).values():
        grad.fill(0.0)


def full_layer_backward(model, x, dout):
    """Oracle: every layer but the final Softmax forwards with a cache, and the
    gradient runs through all of them down to the input."""
    model.reseed_dropout(0)
    stack = model.layers[:-1]
    for layer in stack:
        x = layer.forward(x, training=True, keep_cache=True)
    for layer in reversed(stack):
        dout = layer.backward(dout)


class TestParameterOnlyBackward:
    def _forward(self, model):
        rng = np.random.default_rng(6)
        training_forward(model, rng.random((4, 3, 16, 16)))
        return rng.normal(size=(4, 3))

    @pytest.mark.parametrize("upto,lowest", FREEZE_PATTERNS)
    def test_trainable_grads_match_full_backward(self, upto, lowest):
        model = variant_c_model(upto)
        rng = np.random.default_rng(6)
        x, dout = rng.random((4, 3, 16, 16)), rng.normal(size=(4, 3))
        zero_trainable_grads(model)
        full_layer_backward(model, x, dout)
        full = {k: v.copy() for k, v in trainable_grads(model).items()}
        zero_trainable_grads(model)
        training_forward(model, x)
        assert model.backward(dout) is None
        got = trainable_grads(model)
        assert got.keys() == full.keys() and len(got) > 0
        for key in full:
            assert np.array_equal(got[key], full[key]), key

    @pytest.mark.parametrize("variant,upto,lowest", VARIANT_FREEZE_PATTERNS)
    def test_only_the_trainable_slice_keeps_a_cache(self, variant, upto, lowest):
        model = variant_model(variant, upto)
        self._forward(model)
        top = len(model.layers) - 1  # the final Softmax is skipped
        assert cached_layers(model) == list(range(lowest, top))

    @pytest.mark.parametrize("upto,lowest", FREEZE_PATTERNS)
    def test_no_layer_below_the_lowest_trainable_runs(self, upto, lowest):
        model = variant_c_model(upto)
        dout = self._forward(model)
        calls = []
        for i, layer in enumerate(model.layers):
            def counted(grad, _i=i, _backward=layer.backward, **kwargs):
                calls.append((_i, kwargs.get("input_grad", True)))
                return _backward(grad, **kwargs)
            layer.backward = counted
        model.backward(dout)
        top = len(model.layers) - 1  # the final Softmax is skipped
        assert sorted(calls) == [(lowest, False)] + [(i, True) for i in range(lowest + 1, top)]

    def test_nothing_runs_when_nothing_is_trainable(self):
        model = variant_c_model(11)
        for layer in model.layers:
            layer.trainable = False
            layer.backward = None  # calling it would raise
        assert model.backward(self._forward(model)) is None
        assert all(not g.any() for layer in model.layers for g in layer.grads.values())

    @pytest.mark.parametrize("upto", [3, 8, 11])
    def test_grad_cam_ignores_freezing(self, upto):
        image = np.random.default_rng(7).random((16, 16, 3))
        want = grad_cam(variant_c_model(0), image, 1)
        assert np.array_equal(grad_cam(variant_c_model(upto), image, 1), want)


def cached_layers(model):
    return [i for i, layer in enumerate(model.layers) if layer._cache is not None]


def trained_forward(model):
    """A training forward that fills every layer's cache; returns its dout."""
    rng = np.random.default_rng(8)
    model.forward(rng.random((4, 3, 16, 16)), training=True, keep_cache=True)
    assert cached_layers(model) == list(range(len(model.layers)))
    return rng.normal(size=(4, 3))


def target_set(n=5):
    rng = np.random.default_rng(9)
    return LabeledImageSet(rng.random((n, 16, 16, 3)), np.arange(n) % 3, ["a", "b", "c"])


class TestForwardCaches:
    INFERENCE = {
        "features": lambda model: model.forward(images_to_batch(target_set().images),
                                                stop=len(model.backbone)),
        "extract_features": lambda model: extract_features(model, target_set()),
        "accuracy": lambda model: accuracy(model, target_set()),
    }

    @pytest.mark.parametrize("call", sorted(INFERENCE))
    def test_inference_keeps_no_cache(self, call):
        model = variant_c_model(0)
        trained_forward(model)
        self.INFERENCE[call](model)
        assert cached_layers(model) == []

    @pytest.mark.parametrize("filled_first", [False, True])
    def test_backward_after_inference_raises(self, filled_first):
        model = variant_c_model(0)
        dout = trained_forward(model) if filled_first else np.zeros((4, 3))
        model.forward(np.random.default_rng(10).random((4, 3, 16, 16)))
        with pytest.raises(EnfuseError, match="keep_cache"):
            model.backward(dout)

    @pytest.mark.parametrize("variant,upto,lowest", VARIANT_FREEZE_PATTERNS)
    def test_backward_drops_every_cache(self, variant, upto, lowest):
        """No layer holds a cache once `EncoderModel.backward` returns, so a
        second backward over the same forward raises."""
        model = variant_model(variant, upto)
        rng = np.random.default_rng(6)
        training_forward(model, rng.random((4, 3, 16, 16)))
        dout = rng.normal(size=(4, 3))
        model.backward(dout)
        assert cached_layers(model) == []
        with pytest.raises(EnfuseError, match="keep_cache"):
            model.backward(dout)

    def test_backward_before_any_forward_raises(self):
        with pytest.raises(EnfuseError, match="keep_cache"):
            variant_c_model(0).backward(np.zeros((4, 3)))

    @pytest.mark.parametrize("layer,shape", [
        (Conv2d(2, 3, 3, np.random.default_rng(0)), (2, 2, 4, 4)),
        (Dense(4, 3, np.random.default_rng(0)), (2, 4)), (ReLU(), (2, 4)),
        (MaxPool2d(), (2, 2, 4, 4)), (GlobalAvgPool(), (2, 2, 4, 4)), (Flatten(), (2, 2, 4, 4)),
        (Dropout(0.5), (2, 4)), (Softmax(), (2, 4))])
    def test_layer_backward_needs_a_kept_cache(self, layer, shape):
        x = np.random.default_rng(11).random(shape)
        dout = layer.forward(x, training=True, keep_cache=True)
        layer.backward(dout)
        layer.forward(x, training=True)
        assert layer._cache is None
        with pytest.raises(EnfuseError, match=type(layer).__name__):
            layer.backward(dout)

    def test_grad_cam_after_extraction_matches_fresh_load(self, tmp_path):
        model = variant_c_model(0)
        trained_forward(model)
        path = tmp_path / "m.bin"
        model.save(path)
        used = EncoderModel.load(path)
        extract_features(used, target_set())
        image = target_set().images[2]
        for cls in range(3):
            want = grad_cam(EncoderModel.load(path), image, cls)
            assert np.array_equal(grad_cam(used, image, cls), want)


def reference_train(model, train_set, lr, epochs, batch, seed):
    """Reference training loop: every step runs the whole stack but a final
    Softmax, frozen layers included."""
    opt = OptimizerState(learning_rate=lr)
    params, grads = model.flat_trainable()
    rng = np.random.default_rng(seed)
    model.reseed_dropout(int(rng.integers(2**31)))
    n = len(train_set)
    batch = min(batch, n)
    x_all = images_to_batch(train_set.images)
    y_all = one_hot_matrix(train_set.labels, train_set.n_classes)
    stop = len(model.layers) - isinstance(model.layers[-1], Softmax)
    log = []
    for _ in range(epochs):
        perm = rng.permutation(n)
        total, seen = 0.0, 0
        for start in range(0, n, batch):
            idx = perm[start:start + batch]
            grads.fill(0.0)
            logits = model.forward(x_all[idx], 0, stop, training=True, keep_cache=True)
            loss, dlogits = cross_entropy_loss(logits, y_all[idx])
            model.backward(dlogits)
            adam_step(opt, params, grads)
            total += loss * len(idx)
            seen += len(idx)
        log.append(total / seen)
        plateau_schedule(opt, total / seen)
    return log


def ssl_target_model(variant):
    """A contrastive encoder's target model: the whole backbone frozen under
    the SSL classification head."""
    rng = np.random.default_rng(5)
    model = EncoderModel(build_backbone(variant, rng))
    model.set_head(make_ssl_classification_head(model.feature_dim, 3, rng))
    model.freeze_backbone()
    return model


def dropout_prefix_model():
    """A frozen conv block with a Dropout inside it, below a trainable conv."""
    rng = np.random.default_rng(5)
    backbone = [Conv2d(3, 4, 3, rng=rng), ReLU(), Dropout(0.4), MaxPool2d(),
                Conv2d(4, 6, 3, rng=rng), ReLU(), MaxPool2d()]
    model = EncoderModel(backbone, make_head(6, 3, rng))
    model.freeze_backbone(upto=4)
    return model


# each model builder with the index of the first layer a training step runs
PREFIX_CASES = {
    "nothing frozen": (lambda: variant_c_model(0), 0),
    "first block frozen": (lambda: variant_c_model(3), 3),
    "up to the last conv frozen": (lambda: variant_c_model(8), 8),
    "ssl head over a frozen backbone": (lambda: ssl_target_model("C"), 14),
    "dropout in the frozen block": (dropout_prefix_model, 2),
}


def params_of(model):
    return {k: v.copy() for k, v in model.named_parameters().items()}


class TestFrozenPrefix:
    """`train_supervised` runs the frozen prefix once per call, bit for bit as
    the whole-stack step loop trains."""

    @pytest.mark.parametrize("case", sorted(PREFIX_CASES))
    def test_prefix_ends_at_the_first_layer_a_step_runs(self, case):
        build, start = PREFIX_CASES[case]
        model = build()
        assert train_module.frozen_prefix_end(model.layers[:-1]) == start

    @pytest.mark.parametrize("case", sorted(PREFIX_CASES))
    @pytest.mark.parametrize("n,batch", [(13, 5), (11, 4)])
    def test_matches_the_whole_stack_step_loop(self, case, n, batch):
        """Same parameters and loss log, to the bit; the last batch is short."""
        build = PREFIX_CASES[case][0]
        ds = target_set(n)
        with _one_blas_thread():
            want_model = build()
            want_log = reference_train(want_model, ds, 0.01, 3, batch, 7)
            got_model = build()
            got_log = train_supervised(got_model, ds, 0.01, epochs=3, batch=batch, seed=7)
        assert got_log == want_log
        want = params_of(want_model)
        got = params_of(got_model)
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), key

    def test_dropout_in_the_prefix_draws_at_every_step(self):
        model = dropout_prefix_model()
        dropout = model.backbone[2]
        draws = []
        forward = dropout.forward

        def counted(x, training=False, keep_cache=False):
            draws.append(training)
            return forward(x, training=training, keep_cache=keep_cache)

        dropout.forward = counted
        train_supervised(model, target_set(13), 0.01, epochs=3, batch=5, seed=7)
        assert draws == [True] * (3 * 3)  # ceil(13 / 5) steps in each of 3 epochs

    @pytest.mark.parametrize("chunk", [INFERENCE_BATCH, 4])
    @pytest.mark.parametrize("epochs", [1, 3])
    def test_frozen_convs_run_once_per_call(self, monkeypatch, chunk, epochs):
        monkeypatch.setattr(model_module, "INFERENCE_BATCH", chunk)
        model = EncoderModel(build_backbone("C", np.random.default_rng(5)))
        rows = {}
        for i, layer in enumerate(model.backbone):
            if isinstance(layer, Conv2d):
                def counted(x, _i=i, _forward=layer.forward, **kwargs):
                    rows.setdefault(_i, []).append(len(x))
                    return _forward(x, **kwargs)
                layer.forward = counted
        ds = target_set(13)
        finetune_target_ssl(model, ds, epochs=epochs, batch=5, seed=3, lr=0.001)
        calls = -(-len(ds) // chunk)
        assert sorted(rows) == [0, 3, 6, 8]
        for sizes in rows.values():
            assert len(sizes) == calls and sum(sizes) == len(ds)
            assert max(sizes) <= chunk


@pytest.mark.parametrize("variant", ["A", "B", "C"])
def test_backbone_forward_is_row_independent(variant):
    """A backbone forward over a set equals the concatenation of its forwards
    over any split of the set into batches, to the bit: the property that lets
    training run a frozen prefix once."""
    model = variant_model(variant, None)
    x = images_to_batch(target_set(37).images)
    rng = np.random.default_rng(12)
    stop = len(model.backbone)
    with _one_blas_thread():
        whole = model.forward(x, stop=stop)
        splits = [np.arange(1, 37), [8, 16, 24, 32], [5, 6, 30]] + [
            np.sort(rng.choice(np.arange(1, 37), size=k, replace=False)) for k in (2, 7, 13)]
        for cuts in splits:
            parts = [model.forward(part, stop=stop) for part in np.split(x, cuts)]
            assert np.array_equal(np.concatenate(parts), whole), list(cuts)


@pytest.mark.parametrize("variant", ["A", "B", "C"])
def test_forward_in_chunks_gives_the_bytes_of_one_chunk(monkeypatch, variant):
    """A forward that keeps no caches over more images than one chunk runs
    the layers below the first `Dense` in chunks of `INFERENCE_BATCH`, and
    that `Dense` and all above it once over every row; over the backbone and
    over the whole model it has the bytes of one batch, and it leaves no
    layer a cache, even after a forward that filled every one."""
    model = variant_model(variant, 0)
    x = images_to_batch(target_set(13).images)
    rows = {"conv": [], "dense": []}
    conv = model.backbone[0]
    dense = next(layer for layer in model.head if isinstance(layer, Dense))

    def counted(layer, key):
        forward = layer.forward

        def run(x, **kwargs):
            rows[key].append(len(x))
            return forward(x, **kwargs)
        return run

    with _one_blas_thread():
        want = {stop: model.forward(x, stop=stop) for stop in (len(model.backbone), None)}
        monkeypatch.setattr(model_module, "INFERENCE_BATCH", 4)
        conv.forward, dense.forward = counted(conv, "conv"), counted(dense, "dense")
        for stop in want:
            trained_forward(model)
            rows["conv"][:], rows["dense"][:] = [], []
            got = model.forward(x, stop=stop)
            assert rows == {"conv": [4, 4, 4, 1], "dense": [] if stop else [13]}
            assert got.tobytes() == want[stop].tobytes()
            assert cached_layers(model) == []


@pytest.mark.parametrize("head", ["TL", "SSL"])
@pytest.mark.parametrize("variant", ["A", "B", "C"])
def test_inference_chunks_give_the_bytes_of_one_batch(monkeypatch, variant, head):
    """Over 41 images in chunks of 4, the backbone and the whole model give
    the bytes of every layer run once over all 41, with either head: a
    `Dense`, whose rounding can depend on its row count, never runs per
    chunk. The last chunk holds one image, and a one-row `Dense` can take
    another BLAS path, with other bits."""
    rng = np.random.default_rng(14)
    model = EncoderModel(build_backbone(variant, rng))
    make_head = make_classification_head if head == "TL" else make_ssl_classification_head
    model.set_head(make_head(model.feature_dim, 3, rng))
    x = images_to_batch(target_set(41).images)
    monkeypatch.setattr(model_module, "INFERENCE_BATCH", 4)
    with _one_blas_thread():
        want = x
        for i, layer in enumerate(model.layers):
            want = layer.forward(want)
            if i == len(model.backbone) - 1:
                want_backbone = want
        assert (model.forward(x, stop=len(model.backbone)).tobytes()
                == want_backbone.tobytes())
        assert model.forward(x).tobytes() == want.tobytes()


def test_conv_backward_folds_one_image_at_a_time():
    """`Conv2d.backward` never holds the whole batch's patch gradients:
    over 32 images of 8 channels at 16x16 with k3 (variant B's second conv
    on a contrastive batch), it peaks below half of their 4.7 MB."""
    rng = np.random.default_rng(13)
    conv = Conv2d(8, 12, 3, rng=rng)
    x = rng.random((32, 8, 16, 16))
    dout = rng.normal(size=conv.forward(x, keep_cache=True).shape)
    patch_grads = x.size * 9 * 8  # bytes: one float64 per (image, pixel, channel, ky, kx)
    assert patch_grads == 4_718_592
    tracemalloc.start()
    try:
        conv.backward(dout)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < patch_grads / 2


@pytest.mark.parametrize("variant", ["A", "B", "C"])
def test_backbone_forward_over_no_images_keeps_the_map_shape(variant):
    """A backbone forward over 0 images keeps the map shape, and one over
    the whole model, through `Flatten`, gives (0, class count)."""
    model = variant_model(variant, 0)
    x = images_to_batch(target_set().images)
    stop = len(model.backbone)
    assert model.forward(x[:0], stop=stop).shape == (0,) + model.forward(x, stop=stop).shape[1:]
    assert model.forward(x[:0]).shape == (0, target_set().n_classes)


class TestModelPersistence:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(31)
        model = EncoderModel(
            [Conv2d(3, 4, 3, rng=rng), ReLU(), MaxPool2d()],
            make_head(4, 3, rng))
        model.backbone[0].trainable = False
        path = tmp_path / "m.bin"
        model.save(path)
        loaded = EncoderModel.load(path)
        x = rng.normal(size=(2, 3, 8, 8))
        assert np.array_equal(model.forward(x), loaded.forward(x))
        assert loaded.backbone[0].trainable is False

    def test_feature_dim_must_match_last_conv(self, tmp_path):
        from enfuse.artifact import pack, unpack
        from enfuse.errors import IntegrityError
        from enfuse.nn.model import MODEL_MAGIC
        rng = np.random.default_rng(31)
        path = tmp_path / "m.bin"
        EncoderModel([Conv2d(3, 4, 3, rng=rng), ReLU()]).save(path)
        header, arrays = unpack(path.read_bytes(), MODEL_MAGIC, "model")
        assert header["feature_dim"] == 4
        header["feature_dim"] = 5
        path.write_bytes(pack(MODEL_MAGIC, header, arrays))
        with pytest.raises(IntegrityError, match="feature_dim"):
            EncoderModel.load(path)

    def test_every_weight_must_be_in_the_file(self, tmp_path):
        """Loaded layers start with unset weights, so a file that lacks one
        is rejected rather than loaded with whatever the array held."""
        from enfuse import artifact
        from enfuse.errors import IntegrityError
        from enfuse.nn.model import MODEL_MAGIC
        rng = np.random.default_rng(31)
        path = tmp_path / "m.bin"
        EncoderModel([Conv2d(3, 4, 3, rng=rng), ReLU()], make_head(4, 3, rng)).save(path)
        header, arrays = artifact.load(path, MODEL_MAGIC, "model")
        assert list(arrays) == ["0.w", "0.b", "4.w", "4.b", "6.w", "6.b"]
        for drop in arrays:
            kept = {name: a for name, a in arrays.items() if name != drop}
            artifact.save(path, MODEL_MAGIC, header, kept)
            with pytest.raises(IntegrityError, match="lacks"):
                EncoderModel.load(path)

    # each edits a saved model's header so that the file no longer describes a model
    HEADER_FAULTS = {
        "no-backbone": lambda h: h.pop("backbone"),
        "conv-without-in_ch": lambda h: h["backbone"][0].pop("in_ch"),
        "layer-99": lambda h: h["arrays"][0].update(name="99.w"),
        # layer 0 counted from the end, which a Python index would wrap round to
        "layer-negative": lambda h: h["arrays"][0].update(
            name=f"{-len(h['backbone']) - len(h['head'])}.w"),
        "trainable-empty": lambda h: h.update(trainable=[]),
    }

    @pytest.mark.parametrize("fault", sorted(HEADER_FAULTS))
    def test_malformed_header_rejected(self, fault, tmp_path):
        """A malformed header is an integrity error, not a KeyError or an
        IndexError, and never loads."""
        from enfuse.artifact import pack, unpack
        from enfuse.errors import IntegrityError
        from enfuse.nn.model import MODEL_MAGIC
        rng = np.random.default_rng(31)
        path = tmp_path / "m.bin"
        EncoderModel([Conv2d(3, 4, 3, rng=rng), ReLU()], make_head(4, 3, rng)).save(path)
        header, arrays = unpack(path.read_bytes(), MODEL_MAGIC, "model")
        self.HEADER_FAULTS[fault](header)
        path.write_bytes(pack(MODEL_MAGIC, header, arrays))
        with pytest.raises(IntegrityError):
            EncoderModel.load(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        from enfuse.errors import IntegrityError
        with pytest.raises(IntegrityError):
            EncoderModel.load(path)
