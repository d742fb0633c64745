"""Bit-equality of the array-at-once tree, KNN, SHAP, conv-layer, task and Grad-CAM code with oracles.

The oracles are the per-row, per-feature and per-permutation loops the library
used before it worked on whole arrays, the recursive tree builder that grew
one node at a time before the boosted trees grew together, the forest grown
one node at a time, breadth-first, drawing as the library draws, the per-tree
walk and sum a forest predicted with before all its trees walked together,
the forest average over one stacked array of every tree's output, the
synthetic task drawn one image at a time, the reshape/argmax
`MaxPool2d`, the `np.pad` form of `Conv2d`'s padding, `Conv2d`'s im2col and
col2im as one slice copy per (channel, ky, kx), the Adam step that looped
over a name -> array mapping, the augmentation that transformed one image
per call, the two-pass Grad-CAM that replayed the
forward for the last conv activation, and the ablation that kept one row
object per arm, with its delta, before every arm went through `fit_arm`.
They live only here; every comparison is exact (`np.array_equal`,
or equal text), because the library code does the same float operations in
the same order. `shap_exact` enumerates all 2^D coalitions; the explain and
acceptance tests compare `shap_sampled` with it to a tolerance.
"""

import collections
import csv
import io
import itertools
import math
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_ensemble import SIZE, noise_features, projector

from enfuse import classifiers
from enfuse.classifiers import (
    GBT_ETA,
    GBT_MAX_DEPTH,
    GBT_MIN_SPLIT,
    KINDS,
    KNN_K,
    RF_MAX_DEPTH,
    RF_MIN_SPLIT,
    TrainedClassifier,
    _softmax,
    fit_gbt,
    fit_knn,
    fit_rf,
    predict_proba,
)
from enfuse.data import (
    ROTATION_DEGREES,
    TASK_MOTIFS,
    ZOOM_RANGE,
    _draw_motif,
    _TINTS,
    make_synthetic_task,
    random_transform,
    resize_bilinear,
    stratified_split,
)
from enfuse.ensemble import (
    EnsembleModel,
    ablate,
    ablation_csv,
    fit_arm,
    predict_ensemble,
    train_ensemble,
)
from enfuse.errors import EnfuseError
from enfuse.explain import (
    SHAP_BLOCK_ROWS,
    _svg_document,
    grad_cam,
    render_ablation_svg,
    shap_sampled,
)
from enfuse.fusion import METHODS
from enfuse.nn import Conv2d, EncoderModel, MaxPool2d, OptimizerState, Softmax, adam_step, optim
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

@dataclass
class Tree:
    """One tree of a forest's node table: node i is a leaf iff feature[i] < 0,
    children numbered from the tree's root, the right child of node i
    left[i] + 1."""

    feature: np.ndarray    # (n_nodes,) int64, -1 for leaves
    threshold: np.ndarray  # (n_nodes,) float64
    left: np.ndarray       # (n_nodes,) int64 left child index, -1 for leaves
    value: np.ndarray      # (n_nodes, width): class dist or 1-wide score

    def predict_value(self, x: np.ndarray) -> np.ndarray:
        """Leaf value per row, walking all rows down this tree one level per step."""
        node = np.zeros(len(x), dtype=np.int64)
        rows = np.arange(len(x))
        while len(rows):
            feature = self.feature[node[rows]]
            inner = feature >= 0
            rows, feature = rows[inner], feature[inner]
            at = node[rows]
            node[rows] = np.where(x[rows, feature] <= self.threshold[at],
                                  self.left[at], self.left[at] + 1)
        return self.value[node]


TREE_FIELDS = ("feature", "threshold", "left", "value")


def trees_of(clf: TrainedClassifier) -> list[Tree]:
    """The trees of a forest's node table, one by one."""
    offsets = clf.arrays["tree_offsets"]
    return [Tree(*(clf.arrays[f"tree_{name}"][a:b] for name in TREE_FIELDS))
            for a, b in zip(offsets[:-1], offsets[1:])]


def forest(kind: str, n_classes: int, trees: list[Tree]) -> TrainedClassifier:
    """A classifier whose node table holds these trees in order."""
    arrays = {f"tree_{name}": np.concatenate([getattr(t, name) for t in trees])
              for name in TREE_FIELDS}
    arrays["tree_offsets"] = np.cumsum([0] + [len(t.feature) for t in trees])
    return TrainedClassifier(kind, n_classes, arrays=arrays, meta={})


def predict_value_rows(tree: Tree, x: np.ndarray) -> np.ndarray:
    out = np.empty((len(x), tree.value.shape[1]))
    for i, row in enumerate(x):
        node = 0
        while tree.feature[node] >= 0:
            if row[tree.feature[node]] <= tree.threshold[node]:
                node = tree.left[node]
            else:
                node = tree.left[node] + 1
        out[i] = tree.value[node]
    return out


def rf_proba_stacked(clf, q: np.ndarray) -> np.ndarray:
    p = np.mean([t.predict_value(q) for t in trees_of(clf)], axis=0)
    return p / p.sum(axis=1, keepdims=True)


def rf_proba_per_tree(clf, q: np.ndarray) -> np.ndarray:
    """The forest's average as a sum over trees, one tree's walk at a time."""
    trees = trees_of(clf)
    p = np.zeros((len(q), clf.n_classes))
    for t in trees:
        p += t.predict_value(q)
    p /= len(trees)
    return p / p.sum(axis=1, keepdims=True)


def gbt_proba_per_tree(clf, q: np.ndarray) -> np.ndarray:
    """Boosted scores as a sum over trees, one tree's walk at a time."""
    k = clf.n_classes
    scores = np.zeros((len(q), k))
    for i, tree in enumerate(trees_of(clf)):
        scores[:, i % k] += GBT_ETA * tree.predict_value(q)[:, 0]
    return _softmax(scores)


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
        nearest = np.argsort(dist, kind="stable")[:KNN_K]
        weights = 1.0 / (dist[nearest] + 1e-12)
        for j, wgt in zip(nearest, weights):
            out[i, train_y[j]] += wgt
        out[i] /= out[i].sum()
    return out


def shap_sampled_per_permutation(f, instance, background, n_samples, seed):
    instance = np.asarray(instance, dtype=np.float64).ravel()
    d = len(instance)
    cls = int(np.argmax(f(instance[None])[0]))  # the class f scores highest at the instance
    bg_mean = background.mean(axis=0)
    rng = np.random.default_rng(seed)
    n_perms = max(1, n_samples // max(d, 1))
    contribs = np.zeros((n_perms, d))
    for p in range(n_perms):
        order = rng.permutation(d)
        masks = np.zeros((d + 1, d), dtype=bool)
        for step, feat in enumerate(order):
            masks[step + 1] = masks[step]
            masks[step + 1, feat] = True
        vals = np.asarray(f(np.where(masks, instance, bg_mean)))[:, cls]
        contribs[p, order] = np.diff(vals)
    phi = contribs.mean(axis=0)
    base = float(f(bg_mean[None])[0, cls])
    out = float(f(instance[None])[0, cls])
    residual = (out - base) - phi.sum()
    mass = np.abs(phi).sum()
    phi = phi + residual * (np.abs(phi) / mass if mass > 1e-12 else np.full(d, 1.0 / d))
    return phi, base, out


SHAP_EXACT_MAX_FEATURES = 15


def shap_exact(f, instance, background) -> tuple[np.ndarray, float, float]:
    """Exact Shapley values of the score that f: (n, D) -> (n, classes) gives
    the class it scores highest at `instance`, by enumerating all 2^D feature
    coalitions, returned as `shap_sampled` returns its estimate.

    "Without" a feature means replacing it by the background mean.
    """
    instance = np.asarray(instance, dtype=np.float64).ravel()
    d = len(instance)
    if d > SHAP_EXACT_MAX_FEATURES:
        raise EnfuseError(
            f"{d} features exceeds the exact limit of {SHAP_EXACT_MAX_FEATURES}; "
            "use shap_sampled")
    bg_mean = background.mean(axis=0)
    n_sets = 1 << d
    masks = (np.arange(n_sets)[:, None] >> np.arange(d)) & 1
    scores = np.asarray(f(np.where(masks.astype(bool), instance, bg_mean)), dtype=np.float64)
    vals = scores[:, np.argmax(scores[-1])]  # the last coalition is the instance
    sizes = masks.sum(axis=1)
    fact = [math.factorial(i) for i in range(d + 1)]
    phi = np.zeros(d)
    for j in range(d):
        without_j = np.flatnonzero(masks[:, j] == 0)
        s = sizes[without_j]
        weight = np.array([fact[k] * fact[d - k - 1] / fact[d] for k in s])
        phi[j] = np.sum(weight * (vals[without_j | (1 << j)] - vals[without_j]))
    return phi, float(vals[0]), float(vals[-1])


def classifier_output(clf: TrainedClassifier):
    """f: (n, D) -> (n, classes), the classifier's class probabilities."""
    return lambda x: predict_proba(clf, x)


def numbered(order: list[int], nodes: list) -> Tree:
    """The Tree of the nodes `order` lists, node order[i] numbered i.
    nodes[j] is [feature, threshold, value, children, ...], children () at a
    leaf or (left, right); each right child must be numbered just after its
    left sibling."""
    number = {j: i for i, j in enumerate(order)}
    left = [number[nodes[j][3][0]] if nodes[j][3] else -1 for j in order]
    for j, first in zip(order, left):
        assert not nodes[j][3] or number[nodes[j][3][1]] == first + 1
    return Tree(np.array([nodes[j][0] for j in order], dtype=np.int64),
                np.array([nodes[j][1] for j in order], dtype=np.float64),
                np.array(left, dtype=np.int64),
                np.stack([nodes[j][2] for j in order]))


def breadth_first(nodes: list, root: int = 0) -> list[int]:
    """The nodes of root's subtree, breadth-first, each left child before its
    right sibling; nodes[j][3] are node j's children, as `numbered` reads them."""
    order, queue = [], collections.deque([root])
    while queue:
        order.append(queue.popleft())
        queue.extend(nodes[order[-1]][3])
    return order


def build_tree_recursive(x, target, idx, *, max_depth, min_split, leaf_value,
                         splitter) -> Tree:
    """One tree grown from the rows idx one node at a time, depth first,
    every feature a candidate, then numbered breadth-first."""
    nodes = []  # per node, in the order made: [feature, threshold, value, children]
    features = np.arange(x.shape[1])

    def is_pure(subset):
        col = subset[:, 0] if subset.ndim == 2 else subset
        return bool(col.max() - col.min() <= 1e-12)

    def grow(idx, depth):
        node_id = len(nodes)
        node = [-1, 0.0, np.atleast_1d(leaf_value(target[idx])), ()]
        nodes.append(node)
        chosen = (None, 0.0, np.inf)
        if depth < max_depth and len(idx) >= min_split and not is_pure(target[idx]):
            chosen = splitter(x, target, idx, features)
        if chosen[0] is not None:
            f, thr, _ = chosen
            mask = x[idx, f] <= thr
            node[0], node[1] = f, thr
            node[3] = (grow(idx[mask], depth + 1), grow(idx[~mask], depth + 1))
        return node_id

    grow(idx, 0)
    return numbered(breadth_first(nodes), nodes)


def fit_rf_reference(x, y, n_trees, seed) -> TrainedClassifier:
    """`fit_rf` one node at a time with the per-feature search.

    One generator draws each tree's bootstrap, tree by tree, and then one
    `random(d)` per node searched when ceil(sqrt(d)) < d: the node's
    candidates are the features of lowest rank, ascending. Nodes are searched
    breadth-first across all trees: roots in tree order, then each searched
    node's children, left before right, after every node made before them.
    Each tree's nodes are then numbered in the order made: the made list,
    sorted stably by tree.
    """
    n, d = x.shape
    k = int(y.max()) + 1
    m = int(np.ceil(np.sqrt(d)))
    split = gini_splitter_per_feature(k)
    rng = np.random.default_rng(seed)
    bootstraps = [rng.integers(0, n, size=n) for _ in range(n_trees)]
    # per node, in the order made: [feature, threshold, value, children, rows, depth, tree]
    made = []

    def make(idx, depth, tree):
        counts = np.bincount(y[idx], minlength=k).astype(np.float64)
        made.append([-1, 0.0, counts / counts.sum(), (), idx, depth, tree])
        return len(made) - 1

    queue = collections.deque(make(idx, 0, tree) for tree, idx in enumerate(bootstraps))
    while queue:
        node = made[queue.popleft()]
        idx, depth, tree = node[4:]
        if depth >= RF_MAX_DEPTH or len(idx) < RF_MIN_SPLIT or len(np.unique(y[idx])) == 1:
            continue
        if m < d:
            features = np.sort(np.argsort(rng.random(d), kind="stable")[:m])
        else:
            features = np.arange(d)
        f, thr, _ = split(x, y, idx, features)
        if f is None:
            continue
        mask = x[idx, f] <= thr
        node[0], node[1] = f, thr
        node[3] = (make(idx[mask], depth + 1, tree), make(idx[~mask], depth + 1, tree))
        queue.extend(node[3])

    return forest("RF", k, [numbered([i for i, node in enumerate(made) if node[6] == tree], made)
                            for tree in range(n_trees)])


def fit_gbt_reference(x, y, max_depth, rounds) -> tuple[list[Tree], list[float]]:
    """`fit_gbt`'s trees and log-loss, one class tree at a time, each grown
    recursively with the per-feature search and walked row by row."""
    n = len(x)
    k = int(y.max()) + 1
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0
    scores = np.zeros((n, k))

    def leaf_value(t):
        return np.array([t[:, 0].sum() / (t[:, 1].sum() + 1e-16)])

    trees, loss_log = [], []
    for _ in range(rounds):
        p = _softmax(scores)
        for cls in range(k):
            target = np.stack([onehot[:, cls] - p[:, cls], p[:, cls] * (1.0 - p[:, cls])],
                              axis=1)
            tree = build_tree_recursive(x, target, np.arange(n), max_depth=max_depth,
                                        min_split=GBT_MIN_SPLIT, leaf_value=leaf_value,
                                        splitter=sse_splitter_per_feature)
            trees.append(tree)
            scores[:, cls] += GBT_ETA * predict_value_rows(tree, x)[:, 0]
        p = _softmax(scores)
        loss_log.append(float(-np.log(p[np.arange(n), y] + 1e-300).mean()))
    return trees, loss_log


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def padded(parts: list[np.ndarray], pad: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, n_rows): the row lists as one matrix padded with `pad`, as the
    tree builder holds a level, and their lengths."""
    n_rows = np.array([len(part) for part in parts])
    rows = np.full((len(parts), n_rows.max()), pad)
    for i, part in enumerate(parts):
        rows[i, :len(part)] = part
    return rows, n_rows


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
    """A random tree grown depth first, then numbered breadth-first."""
    nodes = []  # per node, in the order made: [feature, threshold, value, children]

    def grow(depth):
        node_id = len(nodes)
        node = [-1, 0.0, None, ()]
        nodes.append(node)
        if depth < max_depth and rng.random() < 0.7:
            node[0], node[1] = int(rng.integers(d)), float(rng.choice(VALUES))
            node[3] = (grow(depth + 1), grow(depth + 1))
        return node_id

    grow(0)
    for node, value in zip(nodes, rng.normal(size=(len(nodes), width))):
        node[2] = value
    return numbered(breadth_first(nodes), nodes)


def assert_same_trees(got: TrainedClassifier, want: list[Tree]):
    """The forest's node table holds exactly these trees, in order."""
    for name in ("tree_offsets", "tree_feature", "tree_left"):
        assert got.arrays[name].dtype == np.int64, name
    got_trees = trees_of(got)
    assert len(got_trees) == len(want)
    for a, b in zip(got_trees, want):
        for name in TREE_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), width=st.integers(1, 3),
       max_depth=st.integers(0, 6), n_trees=st.integers(1, 6), n_rows=st.integers(0, 30),
       block_pairs=st.integers(1, 40))
# rows on both sides of a block boundary at the library's own block size
@example(seed=1, d=3, width=2, max_depth=6, n_trees=6,
         n_rows=classifiers.FOREST_BLOCK_PAIRS // 6 + 1,
         block_pairs=classifiers.FOREST_BLOCK_PAIRS)
@example(seed=2, d=2, width=1, max_depth=5, n_trees=5,
         n_rows=classifiers.FOREST_BLOCK_PAIRS // 5 - 1,
         block_pairs=classifiers.FOREST_BLOCK_PAIRS)
def test_predict_value_matches_row_walk(seed, d, width, max_depth, n_trees, n_rows,
                                        block_pairs):
    """Every tree's leaf value for every row, as the forest walk gives them
    block by block, equals the walk of one row down one tree: ties at the
    threshold go left and NaN goes right."""
    rng = np.random.default_rng(seed)
    trees = [random_tree(rng, d, width, max_depth) for _ in range(n_trees)]
    x = rng.choice(np.array(VALUES + (np.nan,)), size=(n_rows, d))
    want = [predict_value_rows(tree, x) for tree in trees]
    for tree, rows in zip(trees, want):
        assert np.array_equal(tree.predict_value(x), rows)
    with mock.patch.object(classifiers, "FOREST_BLOCK_PAIRS", block_pairs):
        blocks = list(classifiers._leaf_blocks(forest("RF", width, trees).arrays, x))
    step = max(1, block_pairs // n_trees)
    assert [start for start, _ in blocks] == list(range(0, n_rows, step))
    assert all(values.shape == (n_trees, min(step, n_rows - start), width)
               for start, values in blocks)
    got = (np.concatenate([values for _, values in blocks], axis=1) if blocks
           else np.empty((n_trees, 0, width)))
    assert np.array_equal(got, np.stack(want))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8), n_nodes=st.integers(0, 5),
       discrete=st.booleans(), constant=st.booleans())
def test_split_search_matches_per_feature_loop(seed, d, n_nodes, discrete, constant):
    """One batched search over nodes of mixed row counts equals the per-feature
    loop on each node alone: bootstrap repeats, ties and constant columns, a
    node of 8 or more rows (the pairwise-sum path), a node whose only valid cut
    is at its last real row, and candidate sets from one feature up to all."""
    rng = np.random.default_rng(seed)
    n = 60
    x = rng.choice(np.array(VALUES), size=(n, d)) if discrete else rng.normal(size=(n, d))
    if constant:
        x[:, rng.integers(d)] = 0.5
    # rows n .. n + m - 1 are 0 in every feature and row n + m is 1: the node of
    # just these rows has one valid cut per feature, below its last sorted row
    m = int(rng.integers(1, 12))
    x = np.vstack([x, np.zeros((m, d)), np.ones((1, d))])
    parts = [rng.integers(0, n, size=int(rng.integers(max(8, m + 2), n + 1))),  # bootstrap
             rng.permutation(np.arange(n, n + m + 1))]
    parts += [rng.integers(0, n, size=int(rng.integers(2, n + 1))) for _ in range(n_nodes)]
    n_sub = int(rng.integers(1, d + 1))  # n_sub == d: every feature is a candidate
    features = np.sort([rng.choice(d, size=n_sub, replace=False) for _ in parts], axis=1)
    labels = rng.integers(0, 3, size=len(x))
    target = np.stack([rng.normal(size=len(x)), rng.random(len(x))], axis=1)
    xt = np.concatenate([x, np.full((1, d), np.inf)]).T.copy()
    rows, n_rows = padded(parts, len(x))
    for criterion, oracle, oracle_target in (
            (classifiers._Gini(labels, 3), gini_splitter_per_feature(3), labels),
            (classifiers._SquaredError(target[:, 0], target[:, 1]), sse_splitter_per_feature,
             target)):
        settled = criterion.leaves(rows, n_rows)[2]
        got = classifiers._split_search(xt, rows, n_rows, features, criterion, settled)
        for i, idx in enumerate(parts):
            want = oracle(x, oracle_target, idx, features[i])
            if want[0] is None:
                assert got[0][i] == -1
            else:
                assert got[0][i] == want[0]
                # threshold and score, to the bit
                assert np.array_equal([got[1][i], got[2][i]], want[1:])
        # the special node cuts between its zeros and its one
        assert got[1][1] == 0.5


def assert_cuts_match_per_feature_loop(x, residual, parts, features):
    """`_split_search` with the nodes' own settled flags gives each node the
    cut the per-feature loop gives it, and the full search gives, to the bit.
    Returns the settled flags."""
    xt = np.concatenate([x, np.full((1, x.shape[1]), np.inf)]).T.copy()
    rows, n_rows = padded(parts, len(x))
    criterion = classifiers._SquaredError(residual, np.full(len(x), 0.25))
    settled = criterion.leaves(rows, n_rows)[2]
    got = classifiers._split_search(xt, rows, n_rows, features, criterion, settled)
    full = classifiers._split_search(xt, rows, n_rows, features, criterion,
                                     np.zeros(len(parts), dtype=bool))
    for column, full_column in zip(got, full):
        assert np.array_equal(column, full_column)
    target = np.stack([residual, np.full(len(x), 0.25)], axis=1)
    for i, idx in enumerate(parts):
        want = sse_splitter_per_feature(x, target, idx, features[i])
        if want[0] is None:
            assert got[0][i] == -1
        else:
            assert got[0][i] == want[0]
            assert np.array_equal([got[1][i], got[2][i]], want[1:])
    return settled


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8), discrete=st.booleans(),
       constant=st.booleans(), spread=st.floats(-12, -8), subset=st.booleans())
def test_settled_nodes_cut_as_the_per_feature_loop(seed, d, discrete, constant, spread,
                                                  subset):
    """Near-saturated residuals, about 1e-9 with a spread of 1e-12 to 1e-8, as
    late boosting rounds leave them: many nodes settle and search one
    feature, skipping leading features that are constant in the node, and
    every node still gets the per-feature loop's cut. The last node, of
    residuals 1e-12 apart, always settles."""
    rng = np.random.default_rng(seed)
    n = 60
    x = rng.choice(np.array(VALUES), size=(n + 4, d)) if discrete else rng.normal(size=(n + 4, d))
    if constant:
        x[:, :rng.integers(1, d + 1)] = 0.5  # the first features tie in every node
    residual = (rng.choice([-1e-9, 1e-9], size=n + 4)
                + 10.0 ** spread * rng.normal(size=n + 4))
    residual[n:] = 1e-9 + 1e-12 * np.arange(4)
    parts = [rng.integers(0, n, size=int(rng.integers(2, n + 1)))
             for _ in range(int(rng.integers(1, 12)))] + [np.arange(n, n + 4)]
    if subset:
        n_sub = int(rng.integers(1, d + 1))
        features = np.sort([rng.choice(d, size=n_sub, replace=False) for _ in parts], axis=1)
    else:
        features = np.broadcast_to(np.arange(d), (len(parts), d))
    settled = assert_cuts_match_per_feature_loop(x, residual, parts, features)
    assert settled[-1]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8), mean=st.floats(-2, 6),
       spread=st.floats(-16, -9))
def test_nodes_of_large_mean_and_tiny_spread_do_not_settle(seed, d, mean, spread):
    """Residuals of 1e-2 to 1e6 that differ by a relative 1e-16 to 1e-9: the
    squared error, computed as sum(r^2) - sum(r)^2 / n, is lost in rounding
    and may read 0 or below, and cut scores differ by rounding noise far
    above `SPLIT_TIE`; the margin keeps every such node unsettled, and every
    cut is the per-feature loop's."""
    rng = np.random.default_rng(seed)
    n = 60
    x = rng.normal(size=(n, d))
    residual = 10.0 ** mean * (1.0 + 10.0 ** spread * rng.normal(size=n))
    parts = [rng.integers(0, n, size=int(rng.integers(2, n + 1)))
             for _ in range(int(rng.integers(1, 12)))]
    features = np.broadcast_to(np.arange(d), (len(parts), d))
    assert not assert_cuts_match_per_feature_loop(x, residual, parts, features).any()


@settings(max_examples=40, deadline=None)
@given(data=labelled_data(min_rows=3), seed=st.integers(0, 1000))
def test_fit_rf_trees_match_per_feature_search(data, seed):
    x, y = data
    with mock.patch.object(classifiers, "RF_TREES", 4):
        (got,) = fit_rf([x], [y], seed=seed)
    want = fit_rf_reference(x, y, n_trees=4, seed=seed)
    assert_same_trees(got, trees_of(want))
    assert np.array_equal(predict_proba(got, x), predict_proba(want, x))


@settings(max_examples=40, deadline=None)
@given(data=labelled_data(), max_depth=st.integers(1, 10))
def test_fit_gbt_trees_match_per_feature_search(data, max_depth):
    x, y = data
    with mock.patch.multiple(classifiers, GBT_ROUNDS=3, GBT_MAX_DEPTH=max_depth):
        got = fit_gbt([x], [y])[0]
    want_trees, want_loss = fit_gbt_reference(x, y, rounds=3, max_depth=max_depth)
    assert_same_trees(got, want_trees)
    assert got.meta["train_log_loss"] == want_loss


@settings(max_examples=40, deadline=None)
@given(data=labelled_data(min_rows=3), seed=st.integers(0, 1000))
def test_fitted_trees_are_numbered_breadth_first(data, seed):
    """In every table `fit_rf` and `fit_gbt` return, a tree's nodes are
    numbered as they were made: the j-th inner node's children are nodes
    2j + 1 (tree_left) and 2j + 2 (tree_left + 1), both after it in its
    tree, every other node is a leaf with tree_left -1, and every node but
    the root is one inner node's child."""
    x, y = data
    sets = ([x, x[::-1]], [y, y[::-1]])
    with mock.patch.multiple(classifiers, RF_TREES=4, GBT_ROUNDS=3):
        fits = fit_rf(*sets, seed=seed) + fit_gbt(*sets)
    for clf in fits:
        for tree in trees_of(clf):
            inner = np.flatnonzero(tree.feature >= 0)
            left = tree.left[inner]
            assert np.array_equal(left, 1 + 2 * np.arange(len(inner)))
            assert np.all(left > inner) and np.all(left + 1 < len(tree.left))
            assert len(tree.left) == 1 + 2 * len(inner)
            assert np.all(np.delete(tree.left, inner) == -1)


def test_trees_finishing_at_different_steps_match_reference(monkeypatch):
    """Trees that run out of nodes to split at different steps, on data of the
    default task's size: 48 rows, 16 features, 3 classes."""
    monkeypatch.setattr(classifiers, "RF_TREES", 12)
    monkeypatch.setattr(classifiers, "GBT_ROUNDS", 4)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(48, 16))
    y = np.repeat(np.arange(3), 16)
    x[:, 0] += y  # one informative feature, so some trees are shallow and some deep
    (rf,) = fit_rf([x], [y], seed=3)
    assert len(set(np.diff(rf.arrays["tree_offsets"]).tolist())) > 3
    assert_same_trees(rf, trees_of(fit_rf_reference(x, y, n_trees=12, seed=3)))
    gbt = fit_gbt([x], [y])[0]
    assert len(set(np.diff(gbt.arrays["tree_offsets"][:4]).tolist())) > 1  # one round's class trees
    want_trees, want_loss = fit_gbt_reference(x, y, rounds=4, max_depth=GBT_MAX_DEPTH)
    assert_same_trees(gbt, want_trees)
    assert gbt.meta["train_log_loss"] == want_loss


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_sets=st.integers(1, 4), n=st.integers(4, 24),
       d=st.integers(1, 6), k=st.integers(2, 4), block=st.sampled_from([64, 1 << 13]))
def test_fit_rf_sets_grown_together_equal_each_fitted_alone(seed, n_sets, n, d, k, block):
    """Forests of several sets of one shape, grown together (one set separable
    by its first feature, so its trees stop early), give each set, to the
    bit, the forest and meta it gets fitted alone and the per-feature
    reference's trees."""
    rng = np.random.default_rng(seed)
    xs = [rng.choice(np.array(VALUES), size=(n, d)) for _ in range(n_sets)]
    ys = [np.r_[np.arange(k), rng.integers(0, k, size=n - k)] for _ in range(n_sets)]
    xs[0][:, 0] = ys[0]
    with mock.patch.multiple(classifiers, RF_TREES=4, SPLIT_BLOCK_ELEMENTS=block):
        together = fit_rf(xs, ys, seed=seed)
        alone = [fit_rf([x], [y], seed=seed)[0] for x, y in zip(xs, ys)]
    assert len(together) == n_sets
    for x, y, got, one in zip(xs, ys, together, alone):
        assert (got.kind, got.n_classes, got.meta) == (one.kind, one.n_classes, one.meta)
        assert sorted(got.arrays) == sorted(one.arrays)
        for name, column in one.arrays.items():
            assert got.arrays[name].dtype == column.dtype
            assert np.array_equal(got.arrays[name], column)
        assert_same_trees(got, trees_of(fit_rf_reference(x, y, n_trees=4, seed=seed)))


def test_saturated_boosting_rounds_match_reference(monkeypatch):
    """Twenty rounds on data of the default task's size: the training loss
    falls below 1e-8, the later rounds' nodes settle and each searches one
    feature, and the trees and losses still equal the per-feature
    recursion's."""
    monkeypatch.setattr(classifiers, "GBT_ROUNDS", 20)
    settled = []
    first_varying = classifiers._first_varying

    def counting(xt, rows, n_rows, features):
        settled.append(len(rows))
        return first_varying(xt, rows, n_rows, features)

    monkeypatch.setattr(classifiers, "_first_varying", counting)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(48, 16))
    y = np.repeat(np.arange(3), 16)
    gbt = fit_gbt([x], [y])[0]
    assert gbt.meta["train_log_loss"][-1] < 1e-8
    assert sum(settled) >= 100
    want_trees, want_loss = fit_gbt_reference(x, y, rounds=20, max_depth=GBT_MAX_DEPTH)
    assert_same_trees(gbt, want_trees)
    assert gbt.meta["train_log_loss"] == want_loss


@settings(max_examples=15, deadline=None)
@given(data=labelled_data(min_rows=4))
def test_fit_gbt_matches_per_feature_search_through_twenty_rounds(data):
    x, y = data
    with mock.patch.object(classifiers, "GBT_ROUNDS", 20):
        got = fit_gbt([x], [y])[0]
    want_trees, want_loss = fit_gbt_reference(x, y, rounds=20, max_depth=GBT_MAX_DEPTH)
    assert_same_trees(got, want_trees)
    assert got.meta["train_log_loss"] == want_loss


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_trees=st.integers(1, 119), k=st.integers(2, 4),
       n_rows=st.integers(0, 2500), signed_zero=st.booleans())
def test_rf_proba_matches_stacked_mean(seed, n_trees, k, n_rows, signed_zero):
    """Class shares, and with `signed_zero` a last class of -0.0 in every
    leaf: a sum from 0.0 gives it +0.0, and one from the first tree -0.0."""
    rng = np.random.default_rng(seed)
    trees = [random_tree(rng, 3, k, 4) for _ in range(n_trees)]
    for tree in trees:  # class distributions, as fit_rf's leaves hold
        tree.value = rng.random(tree.value.shape)
        if signed_zero:
            tree.value[:, -1] = -0.0
        tree.value /= tree.value.sum(axis=1, keepdims=True)
    clf = forest("RF", k, trees)
    q = rng.choice(np.array(VALUES + (np.nan,)), size=(n_rows, 3))
    got = predict_proba(clf, q)
    assert same_bits(got, rf_proba_stacked(clf, q))
    assert same_bits(got, rf_proba_per_tree(clf, q))


def test_tree_sum_of_negative_zeros_is_positive_zero():
    """An object-dtype reduce starts from the first slice, as the NumPy the
    `+ 0.0` in `_tree_sum` guards against does, so a sum of -0.0 leaves is
    -0.0 until 0.0 is added; a sum from 0.0, as a loop over trees makes, is
    +0.0."""
    leaves = np.full((3, 2), -0.0).astype(object)
    assert [math.copysign(1.0, v) for v in np.add.reduce(leaves, axis=0)] == [-1.0, -1.0]
    assert [math.copysign(1.0, v) for v in classifiers._tree_sum(leaves)] == [1.0, 1.0]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rounds=st.integers(1, 40), k=st.integers(2, 4),
       n_rows=st.integers(0, 2500), signed_zero=st.booleans())
def test_gbt_proba_matches_per_tree_sum(seed, rounds, k, n_rows, signed_zero):
    """Random class trees of 1-wide scores, -0.0 among them when
    `signed_zero`, so a class's sum that does not start from 0.0 shows."""
    rng = np.random.default_rng(seed)
    trees = [random_tree(rng, 3, 1, 5) for _ in range(rounds * k)]
    if signed_zero:
        for tree in trees:
            tree.value[rng.random(tree.value.shape) < 0.5] = -0.0
    clf = forest("GBT", k, trees)
    q = rng.choice(np.array(VALUES + (np.nan,)), size=(n_rows, 3))
    assert same_bits(predict_proba(clf, q), gbt_proba_per_tree(clf, q))


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

    def f(z):  # row-independent, and either class can score highest at the instance
        score = np.tanh((z * w).sum(axis=1)) + z[:, 0] * z[:, -1]
        return np.stack([score, -score], axis=1)

    instance, background = rng.normal(size=d), rng.normal(size=(5, d))
    got = shap_sampled(f, instance, background, n_samples=n_samples, seed=seed)
    want = shap_sampled_per_permutation(f, instance, background, n_samples, seed)
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.one_of(st.integers(1, 3), st.integers(12, 24)),
       n_samples=st.integers(1, 8000))
@example(seed=0, d=1, n_samples=8000)  # 8,000 permutations: 4 blocks of two coalitions
def test_shap_sampled_calls_f_once_per_distinct_coalition(seed, d, n_samples):
    """Few features repeat nearly every coalition and many repeat few: either
    way f runs once per block, each call holds each distinct coalition of
    its block's permutation prefixes once, and the estimate, with f at the
    background mean and at the instance, keeps the per-permutation bits."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=d)
    calls = []

    def f(z):  # row-independent: each output reads only its own row
        calls.append(z.copy())
        return (np.tanh((z * w).sum(axis=1)) + z[:, 0] * z[:, -1])[:, None]

    instance, background = rng.normal(size=d), rng.normal(size=(5, d))
    got = shap_sampled(f, instance, background, n_samples=n_samples, seed=seed)
    blocks = calls[:]  # shap_sampled's calls, before the oracle's
    want = shap_sampled_per_permutation(f, instance, background, n_samples, seed)
    assert same_bits(got[0], want[0])
    assert got[1:] == want[1:]

    perm_rng = np.random.default_rng(seed)  # the permutations, drawn as the oracle draws them
    orders = [perm_rng.permutation(d) for _ in range(max(1, n_samples // d))]
    per_call = SHAP_BLOCK_ROWS // (d + 1)
    assert len(blocks) == -(-len(orders) // per_call)
    for b, rows in enumerate(blocks):
        coalitions = [frozenset(np.flatnonzero(row == instance).tolist()) for row in rows]
        assert len(set(coalitions)) == len(coalitions)  # no coalition twice in a call
        assert set(coalitions) == {frozenset(order[:s].tolist())
                                   for order in orders[b * per_call:(b + 1) * per_call]
                                   for s in range(d + 1)}


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


class LoopConv2d(Conv2d):
    """Conv2d whose im2col and col2im copy one (channel, ky, kx) slice at a time."""

    def _im2col(self, x_pad, h, w):
        n, k = x_pad.shape[0], self.kernel
        cols = np.empty((n, h, w, self.in_ch * k * k))
        i = 0
        for c in range(self.in_ch):
            for ky in range(k):
                for kx in range(k):
                    cols[:, :, :, i] = x_pad[:, c, ky:ky + h, kx:kx + w]
                    i += 1
        return cols

    def backward(self, dout, input_grad=True):
        cols, (n, _, h, w) = self._cached()
        k, p = self.kernel, self.kernel // 2
        dflat = dout.transpose(0, 2, 3, 1)
        self.grads["w"] += np.tensordot(cols, dflat, axes=([0, 1, 2], [0, 1, 2]))
        self.grads["b"] += dflat.sum(axis=(0, 1, 2))
        if not input_grad:
            return None
        dcols = dflat @ self.params["w"].T
        dx_pad = np.zeros((n, self.in_ch, h + 2 * p, w + 2 * p))
        i = 0
        for c in range(self.in_ch):
            for ky in range(k):
                for kx in range(k):
                    dx_pad[:, c, ky:ky + h, kx:kx + w] += dcols[:, :, :, i]
                    i += 1
        return dx_pad[:, :, p:p + h, p:p + w]


def same_bits(a, b):
    """Equal values and equal signs of zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# post-ReLU activations: non-negative, with all-zero windows and repeated values common
ACTIVATIONS = np.array([0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 2.0])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), c=st.integers(1, 4),
       h=st.sampled_from((2, 4, 6, 8)), w=st.sampled_from((2, 4, 8)),
       continuous=st.booleans())
# the pools training runs, on batches of 8, 26 (13 contrastive pairs) and 32
# views; tied windows are common when the values are not continuous
@example(seed=1, n=8, c=8, h=16, w=16, continuous=False)
@example(seed=2, n=26, c=6, h=16, w=16, continuous=False)
@example(seed=3, n=32, c=12, h=8, w=8, continuous=False)
@example(seed=4, n=8, c=24, h=4, w=4, continuous=False)
@example(seed=5, n=32, c=8, h=16, w=16, continuous=True)
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


# signed zeros among them, so that a sum that starts from 0.0 shows its order
SIGNED = np.array([-1.5, -0.0, 0.0, 0.5, 2.0])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), c_in=st.integers(1, 16),
       c_out=st.integers(1, 6), kernel=st.sampled_from((1, 3, 5)),
       h=st.integers(1, 9), w=st.integers(1, 9), continuous=st.booleans())
# the convs training runs: 16x16 inputs with k3 and k5 on batches of 8, 26
# (13 contrastive pairs) and 32 views, and variant C's 4x4 convs at 24 channels
@example(seed=1, n=8, c_in=3, c_out=8, kernel=3, h=16, w=16, continuous=False)
@example(seed=2, n=26, c_in=3, c_out=6, kernel=5, h=16, w=16, continuous=False)
@example(seed=3, n=32, c_in=8, c_out=12, kernel=3, h=16, w=16, continuous=False)
@example(seed=4, n=32, c_in=3, c_out=6, kernel=5, h=16, w=16, continuous=True)
@example(seed=5, n=8, c_in=16, c_out=24, kernel=3, h=4, w=4, continuous=False)
@example(seed=6, n=8, c_in=24, c_out=6, kernel=3, h=4, w=4, continuous=True)
def test_conv_matches_per_slice_loop_oracle(seed, n, c_in, c_out, kernel, h, w, continuous):
    rng = np.random.default_rng(seed)
    x = rng.choice(SIGNED, size=(n, c_in, h, w))
    dout = rng.choice(SIGNED, size=(n, c_out, h, w))
    if continuous:
        x, dout = x + rng.normal(size=x.shape), dout * rng.normal(size=dout.shape)
    layer = Conv2d(c_in, c_out, kernel, rng=np.random.default_rng(seed))
    oracle = LoopConv2d(c_in, c_out, kernel, rng=np.random.default_rng(seed))
    for _ in range(2):  # the second pass reads the cached patch index
        assert same_bits(layer.forward(x, keep_cache=True), oracle.forward(x, keep_cache=True))
        assert same_bits(layer.backward(dout), oracle.backward(dout))
        for name in ("w", "b"):
            assert same_bits(layer.grads[name], oracle.grads[name])


def per_parameter_adam_step(state, params, grads):
    """Adam over a name -> array mapping, one parameter at a time; `state`
    holds the step count, the rate and the moments by name."""
    state["step"] += 1
    t, lr = state["step"], state["lr"]
    for name, p in params.items():
        g = grads[name]
        if name not in state["m"]:
            state["m"][name] = np.zeros_like(p)
            state["v"][name] = np.zeros_like(p)
        p -= lr * optim.WEIGHT_DECAY * p
        m, v = state["m"][name], state["v"][name]
        m *= optim.BETA1
        m += (1 - optim.BETA1) * g
        v *= optim.BETA2
        v += (1 - optim.BETA2) * g * g
        mhat = m / (1 - optim.BETA1 ** t)
        vhat = v / (1 - optim.BETA2 ** t)
        p -= lr * mhat / (np.sqrt(vhat) + optim.EPS)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from("ABC"),
       upto=st.sampled_from((0, 3, None)), steps=st.integers(3, 6),
       lr=st.sampled_from((0.001, 0.02)))
def test_flat_adam_matches_per_parameter_oracle(seed, variant, upto, steps, lr):
    """Over several steps with weight decay, the flat step gives the oracle's
    parameters and moments, to the bit, and leaves frozen layers alone."""
    assert optim.WEIGHT_DECAY > 0
    rng = np.random.default_rng(seed)
    model = EncoderModel(build_backbone(variant, rng))
    model.set_head(make_classification_head(model.feature_dim, 3, rng))
    model.freeze_backbone(upto=upto)
    trainable = {f"{i}.{name}": (layer, name) for i, layer in enumerate(model.layers)
                 if layer.trainable for name in layer.params}
    frozen = [(layer, name, arr, arr.copy()) for layer in model.layers
              if not layer.trainable for name, arr in layer.params.items()]
    want = {key: layer.params[name].copy() for key, (layer, name) in trainable.items()}
    oracle = {"step": 0, "lr": lr, "m": {}, "v": {}}
    state = OptimizerState(learning_rate=lr)
    params, grads = model.flat_trainable()
    for _ in range(steps):
        grads.fill(0.0)
        for layer, name in trainable.values():  # a backward accumulates into the views
            g = layer.grads[name]
            g += rng.choice(SIGNED, size=g.shape) * rng.normal(size=g.shape)
        per_parameter_adam_step(oracle, want, {key: layer.grads[name].copy()
                                               for key, (layer, name) in trainable.items()})
        adam_step(state, params, grads)
    for key, (layer, name) in trainable.items():
        assert np.shares_memory(layer.params[name], params)
        assert same_bits(layer.params[name], want[key]), key
    for got, moments in ((state.m, oracle["m"]), (state.v, oracle["v"])):
        assert same_bits(got, np.concatenate([moments[key].ravel() for key in trainable]))
    for layer, name, arr, before in frozen:
        assert layer.params[name] is arr and same_bits(arr, before), name


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

def sample_bilinear_one(image, ys, xs):
    h, w, _ = image.shape
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[..., None]
    fx = (xs - x0)[..., None]
    top = image[y0, x0] * (1 - fx) + image[y0, x1] * fx
    bot = image[y1, x0] * (1 - fx) + image[y1, x1] * fx
    return top * (1 - fy) + bot * fy


def random_transform_one(image, blur_kernel, rng):
    """One image's augmentation: rotate, zoom, h-flip, v-flip, blur, clip,
    each step on its own, the draws made as the steps need them."""
    h, w, _ = image.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    grid_y, grid_x = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float),
                                 indexing="ij")
    theta = np.deg2rad(rng.uniform(*ROTATION_DEGREES))
    dy, dx = grid_y - cy, grid_x - cx
    out = sample_bilinear_one(image, cy + np.cos(theta) * dy - np.sin(theta) * dx,
                              cx + np.sin(theta) * dy + np.cos(theta) * dx)
    factor = rng.uniform(*ZOOM_RANGE)
    out = sample_bilinear_one(out, cy + (grid_y - cy) * factor, cx + (grid_x - cx) * factor)
    if rng.random() < 0.5:
        out = out[:, ::-1].copy()
    if rng.random() < 0.5:
        out = out[::-1].copy()
    if rng.random() < 0.5 and blur_kernel > 1:
        r = blur_kernel // 2
        padded = np.pad(out, ((r, r), (r, r), (0, 0)), mode="edge")
        blurred = np.zeros_like(out)
        for oy in range(blur_kernel):
            for ox in range(blur_kernel):
                blurred += padded[oy:oy + h, ox:ox + w]
        out = blurred / (blur_kernel * blur_kernel)
    return np.clip(out, 0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 8), h=st.integers(1, 12),
       w=st.integers(1, 12), channels=st.sampled_from((1, 3)),
       blur_kernel=st.sampled_from((1, 3, 5)))
def test_random_transform_matches_per_image_oracle(seed, n, h, w, channels, blur_kernel):
    images = np.random.default_rng(seed).random((n, h, w, channels))
    rng, oracle_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = random_transform(images, blur_kernel, rng)
    want = np.stack([random_transform_one(img, blur_kernel, oracle_rng) for img in images]
                    ) if n else np.empty_like(images)
    assert same_bits(got, want)
    assert rng.random() == oracle_rng.random()


# ---------------------------------------------------------------------------
# Synthetic tasks
# ---------------------------------------------------------------------------

def draw_motif_one(motif, size, rng, param_shift):
    """One motif image, its centre drawn from rng, its mask built on its own grid."""
    h, w = size
    yy, xx = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    scale = min(h, w)
    cy = h / 2.0 + rng.uniform(-0.06, 0.06) * h
    cx = w / 2.0 + rng.uniform(-0.06, 0.06) * w
    r_base = (0.28 + param_shift) * scale
    thick = (0.10 + 0.5 * param_shift) * scale
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
    else:
        mask = (dist <= r_base) & (dist >= r_base - thick)
    canvas = np.full((h, w), 0.15 + param_shift * 0.3)
    fg = 0.85 - param_shift * 0.2
    img = np.where(mask, fg, canvas)
    tint = np.array(_TINTS[motif])
    return img[:, :, None] * tint[None, None, :]


def task_per_image(kind, n_per_class, size, noise_std, rng, param_shift):
    """(images, labels) of a task drawn one image at a time: its centre, then its noise."""
    images, labels = [], []
    for label, motif in enumerate(TASK_MOTIFS[kind]):
        for _ in range(n_per_class):
            img = draw_motif_one(motif, size, rng, param_shift)
            if noise_std > 0:
                img = img + rng.normal(0.0, noise_std, img.shape)
            images.append(np.clip(img, 0.0, 1.0))
            labels.append(label)
    return np.stack(images), np.array(labels)


@pytest.mark.parametrize("kind", sorted(TASK_MOTIFS))
@pytest.mark.parametrize("noise_std", (0.0, 0.6))
@pytest.mark.parametrize("param_shift", (0.0, 0.15))
def test_synthetic_task_matches_per_image_oracle(kind, noise_std, param_shift):
    for size, n_per_class in (((16, 24), 1), ((16, 24), 3), ((24, 16), 2)):
        got = make_synthetic_task(kind, n_per_class, size, noise_std, seed=11,
                                  param_shift=param_shift)
        images, labels = task_per_image(kind, n_per_class, size, noise_std,
                                        np.random.default_rng(11), param_shift)
        assert same_bits(got.images, images)
        assert np.array_equal(got.labels, labels)
        assert got.class_names == list(TASK_MOTIFS[kind])
        # the motif stacks leave the generator where the image loop does
        rng, oracle_rng = np.random.default_rng(12), np.random.default_rng(12)
        stacks = [_draw_motif(motif, n_per_class, size, rng, noise_std, param_shift)
                  for motif in TASK_MOTIFS[kind]]
        want, _ = task_per_image(kind, n_per_class, size, noise_std, oracle_rng, param_shift)
        assert same_bits(np.concatenate(stacks), want)
        assert rng.random() == oracle_rng.random()


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


@dataclass
class AblationRow:
    excluded: str | None  # None = full ensemble
    classifier_accuracy: dict[str, float]
    mean_classifier_accuracy: float
    voted_accuracy: float
    delta_voted: float  # voted accuracy minus the full ensemble's


def ablate_rows(full: EnsembleModel, train_parts, test_parts, method, seed, k):
    """(full row, exclusion rows), each exclusion refitted by hand."""
    true = next(iter(test_parts.values())).labels

    def row(model, parts, excluded, baseline=None):
        per_clf, voted = predict_ensemble(model, parts)
        clf_acc = {kind: float(np.mean(preds == true))
                   for kind, preds in zip(KINDS, per_clf)}
        voted_acc = float(np.mean(voted == true))
        delta = 0.0 if baseline is None else voted_acc - baseline
        return AblationRow(excluded, clf_acc,
                           float(np.mean(list(clf_acc.values()))), voted_acc, delta)

    full_row = row(full, test_parts, None)
    rows = []
    for excluded in train_parts:
        train_kept, test_kept = ({name: part for name, part in parts.items() if name != excluded}
                                 for parts in (train_parts, test_parts))
        model = train_ensemble([train_kept], method=method, seed=seed, k=k)[0]
        rows.append(row(model, test_kept, excluded, full_row.voted_accuracy))
    return full_row, rows


def ablation_csv_rows(full_row: AblationRow, rows: list[AblationRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["excluded"] + list(KINDS)
                    + ["mean_classifier", "voted", "delta_voted"])
    for row in [full_row, *rows]:
        writer.writerow([row.excluded or "(none)"]
                        + [f"{row.classifier_accuracy[k]:.6f}" for k in KINDS]
                        + [f"{row.mean_classifier_accuracy:.6f}",
                           f"{row.voted_accuracy:.6f}", f"{row.delta_voted:+.6f}"])
    return buf.getvalue()


def ablation_svg_rows(rows: list[AblationRow]) -> str:
    width, row_h, margin = 420, 26, 90
    height = margin + row_h * len(rows) + 20
    mid = (width + margin) // 2
    scale = (width - margin - 40) / 2
    body = [f'<rect width="{width}" height="{height}" fill="white"/>',
            f'<line x1="{mid}" y1="{margin - 10}" x2="{mid}" '
            f'y2="{height - 10}" stroke="black"/>',
            f'<text x="{margin}" y="20" font-size="12" font-family="monospace">'
            f'voted-accuracy delta when excluding a base model</text>']
    peak = max(max(abs(r.delta_voted) for r in rows), 1e-9)
    for i, row in enumerate(rows):
        y = margin + i * row_h
        length = abs(row.delta_voted) / peak * scale
        x0 = mid - length if row.delta_voted < 0 else mid
        color = "#d62728" if row.delta_voted < 0 else "#2ca02c"
        body.append(f'<rect x="{x0:.1f}" y="{y}" width="{max(length, 0.5):.1f}" '
                    f'height="{row_h - 8}" fill="{color}"/>')
        body.append(f'<text x="8" y="{y + row_h - 12}" font-size="12" '
                    f'font-family="monospace">{row.excluded}</text>')
        body.append(f'<text x="{width - 70}" y="{y + row_h - 12}" font-size="11" '
                    f'font-family="monospace">{row.delta_voted:+.4f}</text>')
    return _svg_document(width, height, body)


# every fusion method with the automatic and a fixed k, on 2, 3 and 4 parts in turn
ABLATION_CASES = [(method, k, 2 + i % 3)
                  for i, (method, k) in enumerate(itertools.product(METHODS, (0, 3)))]


@pytest.fixture(scope="module")
def noisy_splits():
    """A noisy task, so that leaving a part out moves the voted accuracy."""
    return stratified_split(make_synthetic_task("shapes3", 20, SIZE, 0.3, seed=50), 0.8, seed=0)


@pytest.mark.parametrize("method,k,n_parts", ABLATION_CASES,
                         ids=[f"{m}-k{k}-{n}parts" for m, k, n in ABLATION_CASES])
def test_ablation_reports_match_row_oracle(noisy_splits, method, k, n_parts):
    train_parts, test_parts = (
        {**{f"p{seed}": projector(ds, 12, seed) for seed in range(n_parts - 1)},
         "noise": noise_features(ds, 12, 99)} for ds in noisy_splits)
    full = train_ensemble([train_parts], method=method, seed=0, k=k)[0]
    arms = ablate(full, train_parts, test_parts, method=method, seed=0, k=k)
    full_row, rows = ablate_rows(full, train_parts, test_parts, method, 0, k)
    assert ablation_csv(arms) == ablation_csv_rows(full_row, rows)
    assert render_ablation_svg(arms) == ablation_svg_rows(rows)

    kept = [name for name in train_parts if name != "p0"]
    arm = tuple({n: parts[n] for n in kept} for parts in (train_parts, test_parts))
    ((per_clf, voted),) = fit_arm([arm], method, 0, k)
    (model,) = train_ensemble([arm[0]], method=method, seed=0, k=k)
    want_per_clf, want_voted = predict_ensemble(model, {n: test_parts[n] for n in kept})
    assert all(np.array_equal(got, want) for got, want in zip(per_clf, want_per_clf, strict=True))
    assert np.array_equal(voted, want_voted)
