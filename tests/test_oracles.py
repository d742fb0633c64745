"""Bit-equality of the array-at-once tree, KNN, SHAP, conv-layer and Grad-CAM code with oracles.

The oracles are the per-row, per-feature and per-permutation loops the library
used before it worked on whole arrays, the forest average over one stacked
array of every tree's output, the reshape/argmax `MaxPool2d`, the `np.pad`
form of `Conv2d`'s padding and the two-pass Grad-CAM that replayed the forward
for the last conv activation. They live only here; every comparison is exact
(`np.array_equal`), because the library code does the same float operations in
the same order.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from enfuse import classifiers
from enfuse.classifiers import TrainedClassifier, Tree, fit_gbt, fit_knn, fit_rf, predict_proba
from enfuse.data import resize_bilinear
from enfuse.explain import (
    ShapExplanation,
    _background_mean,
    _coalition_matrix,
    grad_cam,
    shap_sampled,
)
from enfuse.nn import Conv2d, EncoderModel, MaxPool2d, Softmax
from enfuse.pretrain import (
    build_backbone,
    make_classification_head,
    make_ssl_classification_head,
)

# a few values, so that ties, duplicate rows and equal-to-threshold cases are common
VALUES = (-2.0, -0.5, 0.0, 0.25, 1.0, 3.0)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def predict_value_rows(tree: Tree, x: np.ndarray) -> np.ndarray:
    out = np.empty((len(x), tree.value.shape[1]))
    for i, row in enumerate(x):
        node = 0
        while tree.feature[node] >= 0:
            if row[tree.feature[node]] <= tree.threshold[node]:
                node = tree.left[node]
            else:
                node = tree.right[node]
        out[i] = tree.value[node]
    return out


def rf_proba_stacked(clf, q: np.ndarray) -> np.ndarray:
    p = np.mean([t.predict_value(q) for t in clf.trees], axis=0)
    return p / p.sum(axis=1, keepdims=True)


def gini_splitter_per_feature(n_classes):
    def split(x, target, idx, features):
        labels = target[idx]
        onehot = np.zeros((len(idx), n_classes))
        onehot[np.arange(len(idx)), labels] = 1.0
        best = (None, 0.0, np.inf)
        n = len(idx)
        for f in features:
            vals = x[idx, f]
            order = np.argsort(vals, kind="stable")
            sv = vals[order]
            valid = sv[1:] != sv[:-1]
            if not valid.any():
                continue
            left = np.cumsum(onehot[order], axis=0)[:-1]
            right = left[-1] + onehot[order][-1] - left
            nl = np.arange(1, n)
            nr = n - nl
            gini_l = 1.0 - np.sum((left / nl[:, None]) ** 2, axis=1)
            gini_r = 1.0 - np.sum((right / nr[:, None]) ** 2, axis=1)
            score = np.where(valid, (nl * gini_l + nr * gini_r) / n, np.inf)
            pos = int(np.argmin(score))
            if score[pos] < best[2] - 1e-15:
                best = (f, 0.5 * (sv[pos] + sv[pos + 1]), score[pos])
        return best
    return split


def sse_splitter_per_feature(x, target, idx, features):
    resid = target[idx, 0]
    best = (None, 0.0, np.inf)
    n = len(idx)
    for f in features:
        vals = x[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        valid = sv[1:] != sv[:-1]
        if not valid.any():
            continue
        r = resid[order]
        s1 = np.cumsum(r)[:-1]
        s2 = np.cumsum(r * r)[:-1]
        nl = np.arange(1, n)
        total1, total2 = r.sum(), (r * r).sum()
        sse_l = s2 - s1 * s1 / nl
        nr = n - nl
        sse_r = (total2 - s2) - (total1 - s1) ** 2 / nr
        score = np.where(valid, sse_l + sse_r, np.inf)
        pos = int(np.argmin(score))
        if score[pos] < best[2] - 1e-15:
            best = (f, 0.5 * (sv[pos] + sv[pos + 1]), score[pos])
    return best


def knn_proba_rows(clf, q: np.ndarray) -> np.ndarray:
    train_x = clf.arrays["x"]
    train_y = clf.arrays["y"].astype(np.int64)
    out = np.zeros((len(q), clf.n_classes))
    for i, row in enumerate(q):
        dist = np.linalg.norm(train_x - row, axis=1)
        exact = np.flatnonzero(dist == 0.0)
        if len(exact):
            out[i, train_y[exact[0]]] = 1.0
            continue
        nearest = np.argsort(dist, kind="stable")[:clf.meta["k"]]
        weights = 1.0 / (dist[nearest] + 1e-12)
        for j, wgt in zip(nearest, weights):
            out[i, train_y[j]] += wgt
        out[i] /= out[i].sum()
    return out


def shap_sampled_per_permutation(f, instance, background, n_samples, seed):
    instance = np.asarray(instance, dtype=np.float64).ravel()
    d = len(instance)
    bg_mean = _background_mean(background)
    rng = np.random.default_rng(seed)
    n_perms = max(1, n_samples // max(d, 1))
    contribs = np.zeros((n_perms, d))
    for p in range(n_perms):
        order = rng.permutation(d)
        masks = np.zeros((d + 1, d), dtype=bool)
        for step, feat in enumerate(order):
            masks[step + 1] = masks[step]
            masks[step + 1, feat] = True
        vals = np.asarray(f(_coalition_matrix(masks, instance, bg_mean)))
        contribs[p, order] = np.diff(vals)
    phi = contribs.mean(axis=0)
    stderr = contribs.std(axis=0) / np.sqrt(n_perms)
    base = float(f(bg_mean[None])[0])
    out = float(f(instance[None])[0])
    residual = (out - base) - phi.sum()
    mass = np.abs(phi).sum()
    phi = phi + residual * (np.abs(phi) / mass if mass > 1e-12 else np.full(d, 1.0 / d))
    return ShapExplanation(phi, base, out, stderr=stderr)


def fit_with_oracles(fit, x, y, **kwargs):
    """`fit` with the per-feature splitters and the per-row tree walk swapped in."""
    with mock.patch.object(classifiers, "_gini_splitter", gini_splitter_per_feature), \
            mock.patch.object(classifiers, "_sse_splitter", sse_splitter_per_feature), \
            mock.patch.object(Tree, "predict_value", predict_value_rows):
        return fit(x, y, **kwargs)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def labelled_data(draw, min_rows=2, max_rows=24):
    """Rows from VALUES (many duplicates), an optional constant column, >= 2 classes."""
    n = draw(st.integers(min_rows, max_rows))
    d = draw(st.integers(1, 5))
    k = draw(st.integers(2, 4))
    x = np.array(draw(st.lists(st.sampled_from(VALUES), min_size=n * d, max_size=n * d)),
                 dtype=np.float64).reshape(n, d)
    constant = draw(st.none() | st.integers(0, d - 1))
    if constant is not None:
        x[:, constant] = 0.5
    y = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)), dtype=np.int64)
    y[:2] = (0, 1)
    return x, y


def random_tree(rng: np.random.Generator, d: int, width: int, max_depth: int) -> Tree:
    nodes = {"feature": [], "threshold": [], "left": [], "right": []}

    def grow(depth):
        node = len(nodes["feature"])
        for column in nodes.values():
            column.append(-1)
        nodes["threshold"][node] = 0.0
        if depth < max_depth and rng.random() < 0.7:
            nodes["feature"][node] = int(rng.integers(d))
            nodes["threshold"][node] = float(rng.choice(VALUES))
            nodes["left"][node] = grow(depth + 1)
            nodes["right"][node] = grow(depth + 1)
        return node

    grow(0)
    n_nodes = len(nodes["feature"])
    return Tree(np.array(nodes["feature"], dtype=np.int64),
                np.array(nodes["threshold"], dtype=np.float64),
                np.array(nodes["left"], dtype=np.int64),
                np.array(nodes["right"], dtype=np.int64),
                rng.normal(size=(n_nodes, width)))


def assert_same_trees(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), width=st.integers(1, 3),
       max_depth=st.integers(0, 6), n_rows=st.integers(0, 30))
def test_predict_value_matches_row_walk(seed, d, width, max_depth, n_rows):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, d, width, max_depth)
    x = rng.choice(np.array(VALUES + (np.nan,)), size=(n_rows, d))
    assert np.array_equal(tree.predict_value(x), predict_value_rows(tree, x))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 120), d=st.integers(1, 8),
       discrete=st.booleans())
def test_split_search_matches_per_feature_loop(seed, n, d, discrete):
    rng = np.random.default_rng(seed)
    x = rng.choice(np.array(VALUES), size=(n, d)) if discrete else rng.normal(size=(n, d))
    idx = rng.integers(0, n, size=n)  # a bootstrap sample, with repeats
    features = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
    labels = rng.integers(0, 3, size=n)
    residual = np.stack([rng.normal(size=n), rng.random(n)], axis=1)
    for split, oracle, target in (
            (classifiers._gini_splitter(3), gini_splitter_per_feature(3), labels),
            (classifiers._sse_splitter, sse_splitter_per_feature, residual)):
        got = split(x, target, idx, features)
        want = oracle(x, target, idx, features)
        assert got[0] == want[0]
        assert np.array_equal(got[1:], want[1:])  # threshold and score, to the bit


@settings(max_examples=40, deadline=None)
@given(data=labelled_data(min_rows=3), seed=st.integers(0, 1000))
def test_fit_rf_trees_match_per_feature_search(data, seed):
    x, y = data
    got = fit_rf(x, y, n_trees=4, seed=seed)
    want = fit_with_oracles(fit_rf, x, y, n_trees=4, seed=seed)
    assert_same_trees(got.trees, want.trees)
    assert np.array_equal(predict_proba(got, x), predict_proba(want, x))


@settings(max_examples=40, deadline=None)
@given(data=labelled_data(), max_depth=st.integers(1, 10))
def test_fit_gbt_trees_match_per_feature_search(data, max_depth):
    x, y = data
    got = fit_gbt(x, y, rounds=3, max_depth=max_depth)
    want = fit_with_oracles(fit_gbt, x, y, rounds=3, max_depth=max_depth)
    assert_same_trees(got.trees, want.trees)
    assert got.meta["train_log_loss"] == want.meta["train_log_loss"]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_trees=st.integers(1, 119), k=st.integers(2, 4),
       n_rows=st.integers(0, 2500))
def test_rf_proba_matches_stacked_mean(seed, n_trees, k, n_rows):
    rng = np.random.default_rng(seed)
    trees = [random_tree(rng, 3, k, 4) for _ in range(n_trees)]
    for tree in trees:  # class distributions, as fit_rf's leaves hold
        tree.value = rng.random(tree.value.shape)
        tree.value /= tree.value.sum(axis=1, keepdims=True)
    clf = TrainedClassifier("RF", k, trees=trees)
    q = rng.choice(np.array(VALUES), size=(n_rows, 3))
    assert np.array_equal(predict_proba(clf, q), rf_proba_stacked(clf, q))


@settings(max_examples=60, deadline=None)
@given(data=labelled_data(min_rows=3),
       queries=st.lists(st.lists(st.sampled_from(VALUES), min_size=5, max_size=5),
                        max_size=12))
def test_knn_proba_matches_row_loop(data, queries):
    x, y = data
    clf = fit_knn(x, y)
    q = np.array(queries, dtype=np.float64).reshape(len(queries), 5)[:, :x.shape[1]]
    q = np.concatenate([q, x[::2]])  # exact matches, some of them duplicated rows
    assert np.array_equal(predict_proba(clf, q), knn_proba_rows(clf, q))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 10),
       n_samples=st.integers(1, 3000))
def test_shap_sampled_matches_per_permutation_calls(seed, d, n_samples):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=d)

    def f(z):  # row-independent: each output reads only its own row
        return np.tanh((z * w).sum(axis=1)) + z[:, 0] * z[:, -1]

    instance, background = rng.normal(size=d), rng.normal(size=(5, d))
    got = shap_sampled(f, instance, background, n_samples=n_samples, seed=seed)
    want = shap_sampled_per_permutation(f, instance, background, n_samples, seed)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.stderr, want.stderr)
    assert (got.base_value, got.model_output) == (want.base_value, want.model_output)


# ---------------------------------------------------------------------------
# Conv layers
# ---------------------------------------------------------------------------

class ArgmaxMaxPool2d(MaxPool2d):
    """2x2 pooling over a reshaped window axis, routing gradients by argmax."""

    def forward(self, x, training=False):
        n, c, h, w = x.shape
        windows = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
        windows = windows.reshape(n, c, h // 2, w // 2, 4)
        self._argmax = windows.argmax(axis=4)
        self._shape = x.shape
        return windows.max(axis=4)

    def backward(self, dout):
        n, c, h, w = self._shape
        dwin = np.zeros((n, c, h // 2, w // 2, 4))
        np.put_along_axis(dwin, self._argmax[..., None], dout[..., None], axis=4)
        dwin = dwin.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        return dwin.reshape(n, c, h, w)


class PadConv2d(Conv2d):
    """Conv2d whose forward zero-pads with `np.pad`."""

    def forward(self, x, training=False):
        n, _, h, w = x.shape
        p = self.kernel // 2
        cols = self._im2col(np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))), h, w)
        self._cache = (cols, x.shape)
        return (cols @ self.params["w"] + self.params["b"]).transpose(0, 3, 1, 2)


def same_bits(a, b):
    """Equal values and equal signs of zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# post-ReLU activations: non-negative, with all-zero windows and repeated values common
ACTIVATIONS = np.array([0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 2.0])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), c=st.integers(1, 4),
       h=st.sampled_from((2, 4, 6, 8)), w=st.sampled_from((2, 4, 8)),
       continuous=st.booleans())
def test_maxpool_matches_argmax_oracle(seed, n, c, h, w, continuous):
    rng = np.random.default_rng(seed)
    if continuous:
        x = np.maximum(rng.normal(size=(n, c, h, w)), 0.0)
    else:
        x = rng.choice(ACTIVATIONS, size=(n, c, h, w))
    dout = rng.choice(np.array([-1.5, -0.0, 0.0, 0.25, 3.0]), size=(n, c, h // 2, w // 2))
    channel_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    oracle = ArgmaxMaxPool2d()
    want = oracle.forward(x)
    want_dx = oracle.backward(dout)
    for inp in (x, channel_last):
        layer = MaxPool2d()
        got = layer.forward(inp, keep_cache=True)
        assert got.flags.c_contiguous
        assert same_bits(got, want)
        assert same_bits(layer.backward(dout), want_dx)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), c_in=st.integers(1, 4),
       c_out=st.integers(1, 5), kernel=st.sampled_from((1, 3, 5)),
       h=st.integers(1, 9), w=st.integers(1, 9))
def test_conv_matches_np_pad_oracle(seed, n, c_in, c_out, kernel, h, w):
    rng = np.random.default_rng(seed)
    x = rng.choice(np.array([-1.0, 0.0, 0.5, 2.0]), size=(n, c_in, h, w)) + rng.normal(
        size=(n, c_in, h, w)) * rng.integers(0, 2)
    dout = rng.normal(size=(n, c_out, h, w))
    layer = Conv2d(c_in, c_out, kernel, rng=np.random.default_rng(seed))
    oracle = PadConv2d(c_in, c_out, kernel, rng=np.random.default_rng(seed))
    assert same_bits(layer.forward(x, keep_cache=True), oracle.forward(x))
    assert same_bits(layer.backward(dout), oracle.backward(dout))
    for name in ("w", "b"):
        assert same_bits(layer.grads[name], oracle.grads[name])
    # the parameter-only backward accumulates the same gradients again
    assert layer.backward(dout, input_grad=False) is None
    oracle.backward(dout)
    for name in ("w", "b"):
        assert same_bits(layer.grads[name], oracle.grads[name])


# ---------------------------------------------------------------------------
# Grad-CAM
# ---------------------------------------------------------------------------

def grad_cam_two_pass(model, image, target_class):
    """Grad-CAM from a cached forward of the whole stack less its final Softmax,
    a replay through the last conv for its activation, and a backward from the
    class score down to just above that conv."""
    li = model.last_conv_index()
    image = np.asarray(image, dtype=np.float64)
    batch = image.transpose(2, 0, 1)[None]
    stack = model.layers
    if isinstance(stack[-1], Softmax):
        stack = stack[:-1]
    logits = batch
    for layer in stack:
        logits = layer.forward(logits, keep_cache=True)
    act = batch
    for layer in stack[:li + 1]:
        act = layer.forward(act)
    grad = np.zeros_like(logits)
    grad[0, target_class] = 1.0
    for layer in reversed(stack[li + 1:]):
        grad = layer.backward(grad)
    channel_w = grad[0].mean(axis=(1, 2))
    cam = np.maximum(np.tensordot(channel_w, act[0], axes=1), 0.0)
    upsampled = np.maximum(resize_bilinear(cam[:, :, None], image.shape[:2])[:, :, 0], 0.0)
    peak = upsampled.max()
    return upsampled / peak if peak > 0 else upsampled


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from("ABC"),
       ssl_head=st.booleans(), target_class=st.integers(0, 2))
def test_grad_cam_matches_two_pass_oracle(seed, variant, ssl_head, target_class):
    rng = np.random.default_rng(seed)
    make_head = make_ssl_classification_head if ssl_head else make_classification_head
    model = EncoderModel(build_backbone(variant, rng))
    model.set_head(make_head(model.feature_dim, 3, rng))
    image = rng.random((16, 16, 3))
    got = grad_cam(model, image, target_class)
    assert same_bits(got, grad_cam_two_pass(model, image, target_class))
