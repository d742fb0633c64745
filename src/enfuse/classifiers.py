"""Five classical classifiers over fused feature vectors.

Each learner exposes a fit_* constructor returning a TrainedClassifier and
shares predict / predict_proba dispatch. All of them are deterministic given
(data, seed, hyperparameters): probability rows are valid distributions and
argmax ties break toward the lowest class index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .artifact import pack, unpack, write_atomic
from .errors import IntegrityError, InvalidArgumentError, InvalidDatasetError

CLASSIFIER_MAGIC = b"ETSEFC1\x00"
KINDS = ("SVM", "KNN", "GNB", "RF", "GBT")
# KNN prediction holds a (query rows, training rows, dims) difference tensor of
# at most this many float64 elements (2 MiB), so memory stays bounded
KNN_BLOCK_ELEMENTS = 1 << 18
SVM_C = 1.0             # hinge weight against the L2 term
SVM_TOL = 1e-3          # stop when the objective changes by less
KNN_K = 3
GNB_VAR_SMOOTHING = 1e-9  # variance floor, as a fraction of the widest feature's
RF_MAX_DEPTH = 10
RF_MIN_SPLIT = 3        # fewest rows a node needs to split
GBT_ETA = 0.9           # learning rate on each round's leaf scores
GBT_MIN_SPLIT = 2


@dataclass
class Tree:
    """Flat decision/regression tree: node i is a leaf iff feature[i] < 0."""

    feature: np.ndarray    # (n_nodes,) int64, -1 for leaves
    threshold: np.ndarray  # (n_nodes,) float64
    left: np.ndarray       # (n_nodes,) int64 child index, -1 for leaves
    right: np.ndarray
    value: np.ndarray      # (n_nodes, width): class dist or 1-wide score

    def predict_value(self, x: np.ndarray) -> np.ndarray:
        """Leaf value per row, walking all rows down the tree one level per step."""
        node = np.zeros(len(x), dtype=np.int64)
        rows = np.arange(len(x))
        while len(rows):
            feature = self.feature[node[rows]]
            inner = feature >= 0
            rows, feature = rows[inner], feature[inner]
            at = node[rows]
            node[rows] = np.where(x[rows, feature] <= self.threshold[at],
                                  self.left[at], self.right[at])
        return self.value[node]


@dataclass
class TrainedClassifier:
    kind: str
    n_classes: int
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    trees: list[Tree] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by each row's max."""
    p = np.exp(z - z.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


def _check_xy(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or len(x) != len(y):
        raise InvalidArgumentError("x must be 2-D with one label per row")
    if len(x) == 0:
        raise InvalidDatasetError("empty training set")
    return x, y, int(y.max()) + 1


# ---------------------------------------------------------------------------
# Linear SVM (one-vs-rest hinge + L2, full-batch subgradient descent)
# ---------------------------------------------------------------------------

def fit_svm(x: np.ndarray, y: np.ndarray) -> TrainedClassifier:
    """One-vs-rest linear SVM trained by deterministic subgradient descent.

    Objective per class: 0.5 ||w||^2 + C * mean(hinge). Iterations stop when
    the objective change drops below SVM_TOL, or after 10,000. Probabilities
    are a softmax over the per-class margins (the simplest monotone calibration).
    """
    x, y, k = _check_xy(x, y)
    if k < 2 or len(np.unique(y)) < 2:
        raise InvalidDatasetError("SVM needs at least 2 classes")
    n, d = x.shape
    w = np.zeros((k, d))
    b = np.zeros(k)
    iters_used = []
    for cls in range(k):
        sign = np.where(y == cls, 1.0, -1.0)
        wc = np.zeros(d)
        bc = 0.0
        prev_obj = np.inf
        for it in range(10000):
            margins = sign * (x @ wc + bc)
            viol = margins < 1.0
            obj = 0.5 * wc @ wc + SVM_C * np.maximum(0.0, 1.0 - margins).mean()
            if abs(prev_obj - obj) < SVM_TOL:
                break
            prev_obj = obj
            lr = 1.0 / (1.0 + it)
            grad_w = wc - SVM_C * (sign[viol] @ x[viol]) / n
            grad_b = -SVM_C * sign[viol].sum() / n
            wc -= lr * grad_w
            bc -= lr * grad_b
        iters_used.append(it)
        w[cls], b[cls] = wc, bc
    return TrainedClassifier("SVM", k, arrays={"w": w, "b": b},
                             meta={"c": SVM_C, "tol": SVM_TOL, "iters": iters_used})


# ---------------------------------------------------------------------------
# K-nearest neighbours (k=3, inverse-distance weights, brute force)
# ---------------------------------------------------------------------------

def fit_knn(x: np.ndarray, y: np.ndarray) -> TrainedClassifier:
    x, y, n_classes = _check_xy(x, y)
    if len(x) < KNN_K:
        raise InvalidDatasetError(f"KNN needs at least k={KNN_K} training points")
    return TrainedClassifier("KNN", n_classes,
                             arrays={"x": x.copy(), "y": y.astype(np.float64)},
                             meta={"k": KNN_K})


def _knn_proba(clf: TrainedClassifier, q: np.ndarray) -> np.ndarray:
    """Inverse-distance vote of the k nearest training rows, in neighbour-rank
    order; a query equal to a training row takes that row's class outright."""
    train_x = clf.arrays["x"]
    train_y = clf.arrays["y"].astype(np.int64)
    k = clf.meta["k"]
    out = np.zeros((len(q), clf.n_classes))
    step = max(1, KNN_BLOCK_ELEMENTS // train_x.size)
    for start in range(0, len(q), step):
        part = out[start:start + step]  # a view: writes land in out
        dist = np.linalg.norm(train_x[None] - q[start:start + step, None], axis=2)
        nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
        weights = 1.0 / (np.take_along_axis(dist, nearest, axis=1) + 1e-12)
        np.add.at(part, (np.arange(len(part))[:, None], train_y[nearest]), weights)
        part /= part.sum(axis=1, keepdims=True)
        exact = dist == 0.0
        hit = exact.any(axis=1)
        part[hit] = 0.0
        part[hit, train_y[np.argmax(exact[hit], axis=1)]] = 1.0
    return out


# ---------------------------------------------------------------------------
# Gaussian naive Bayes
# ---------------------------------------------------------------------------

def fit_gnb(x: np.ndarray, y: np.ndarray) -> TrainedClassifier:
    x, y, k = _check_xy(x, y)
    classes = np.unique(y)
    for cls in classes:
        if (y == cls).sum() < 2:
            raise InvalidDatasetError("GNB needs >= 2 samples per class")
    theta = np.zeros((k, x.shape[1]))
    var = np.full((k, x.shape[1]), np.inf)
    priors = np.zeros(k)
    floor = GNB_VAR_SMOOTHING * x.var(axis=0).max()
    for cls in classes:
        rows = x[y == cls]
        theta[cls] = rows.mean(axis=0)
        var[cls] = rows.var(axis=0) + floor
        priors[cls] = len(rows) / len(x)
    return TrainedClassifier("GNB", k,
                             arrays={"theta": theta, "var": var, "priors": priors},
                             meta={"var_smoothing": GNB_VAR_SMOOTHING})


def _gnb_proba(clf: TrainedClassifier, q: np.ndarray) -> np.ndarray:
    theta, var, priors = clf.arrays["theta"], clf.arrays["var"], clf.arrays["priors"]
    with np.errstate(divide="ignore"):
        log_prior = np.log(priors)
    log_post = np.full((len(q), clf.n_classes), -np.inf)
    for cls in range(clf.n_classes):
        if priors[cls] == 0:
            continue
        diff = q - theta[cls]
        log_post[:, cls] = log_prior[cls] - 0.5 * np.sum(
            np.log(2 * np.pi * var[cls]) + diff * diff / var[cls], axis=1)
    return _softmax(log_post)


# ---------------------------------------------------------------------------
# Shared tree builder
# ---------------------------------------------------------------------------

def _presorted(x, idx, features):
    """Each candidate feature's values over idx, sorted: (order, values, valid cuts).

    Row j belongs to features[j]. Cut i lies between sorted positions i and
    i + 1 and is valid where their values differ.
    """
    vals = x.T[np.ix_(features, idx)]
    order = np.argsort(vals, axis=1, kind="stable")
    sv = np.take_along_axis(vals, order, axis=1)
    return order, sv, sv[:, 1:] != sv[:, :-1]


def _best_cut(features, sv, score):
    """(feature, threshold, score) of the first feature whose lowest score beats
    the best so far by 1e-15; feature None if no cut is valid."""
    pos = np.argmin(score, axis=1)
    lowest = score[np.arange(len(features)), pos]
    best = (None, 0.0, np.inf)
    for j, p in enumerate(pos):
        if lowest[j] < best[2] - 1e-15:
            best = (features[j], 0.5 * (sv[j, p] + sv[j, p + 1]), lowest[j])
    return best


def _gini_splitter(n_classes):
    """Gini split search over every cut of every candidate feature at once."""
    def split(x, target, idx, features):
        order, sv, valid = _presorted(x, idx, features)
        n = len(idx)
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), target[idx]] = 1.0
        hot = onehot[order]                             # (F, n, classes)
        left = np.cumsum(hot, axis=1)[:, :-1]           # counts below each cut
        right = left[:, -1:] + hot[:, -1:] - left
        nl = np.arange(1, n)
        nr = n - nl
        gini_l = 1.0 - np.sum((left / nl[:, None]) ** 2, axis=2)
        gini_r = 1.0 - np.sum((right / nr[:, None]) ** 2, axis=2)
        score = np.where(valid, (nl * gini_l + nr * gini_r) / n, np.inf)
        return _best_cut(features, sv, score)
    return split


def _sse_splitter(x, target, idx, features):
    """Squared-error split search on the residual column, all features at once."""
    order, sv, valid = _presorted(x, idx, features)
    r = target[idx, 0][order]                           # (F, n), one row per feature
    rr = r * r
    s1 = np.cumsum(r, axis=1)[:, :-1]
    s2 = np.cumsum(rr, axis=1)[:, :-1]
    # each total sums one contiguous row, in the order of a 1-D r.sum(): a
    # column sum of the (n, F) transpose rounds differently and flips splits
    total1 = r.sum(axis=1, keepdims=True)
    total2 = rr.sum(axis=1, keepdims=True)
    nl = np.arange(1, len(idx))
    nr = len(idx) - nl
    sse_l = s2 - s1 * s1 / nl
    sse_r = (total2 - s2) - (total1 - s1) ** 2 / nr
    score = np.where(valid, sse_l + sse_r, np.inf)
    return _best_cut(features, sv, score)


def _is_pure(target_subset: np.ndarray) -> bool:
    col = target_subset[:, 0] if target_subset.ndim == 2 else target_subset
    return bool(col.max() - col.min() <= 1e-12)


def _build_tree(x, target, idx, rng, *, max_depth, min_split, n_feature_sub,
                leaf_value, splitter) -> Tree:
    """Grow one tree from the rows idx; nodes are numbered in preorder."""
    nodes = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}

    def grow(idx, depth):
        node_id = len(nodes["feature"])
        for key in nodes:
            nodes[key].append(None)
        leaf = leaf_value(target[idx])
        splittable = (depth < max_depth and len(idx) >= min_split
                      and not _is_pure(target[idx]))
        chosen = (None, 0.0, np.inf)
        if splittable:
            d = x.shape[1]
            if n_feature_sub is not None and n_feature_sub < d:
                features = np.sort(rng.choice(d, size=n_feature_sub, replace=False))
            else:
                features = np.arange(d)
            chosen = splitter(x, target, idx, features)
        if chosen[0] is None:
            nodes["feature"][node_id] = -1
            nodes["threshold"][node_id] = 0.0
            nodes["left"][node_id] = -1
            nodes["right"][node_id] = -1
            nodes["value"][node_id] = leaf
            return node_id
        f, thr, _ = chosen
        mask = x[idx, f] <= thr
        nodes["feature"][node_id] = f
        nodes["threshold"][node_id] = thr
        nodes["value"][node_id] = leaf
        nodes["left"][node_id] = grow(idx[mask], depth + 1)
        nodes["right"][node_id] = grow(idx[~mask], depth + 1)
        return node_id

    grow(idx, 0)
    return Tree(np.asarray(nodes["feature"], dtype=np.int64),
                np.asarray(nodes["threshold"], dtype=np.float64),
                np.asarray(nodes["left"], dtype=np.int64),
                np.asarray(nodes["right"], dtype=np.int64),
                np.stack([np.atleast_1d(v) for v in nodes["value"]]))


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------

def fit_rf(x: np.ndarray, y: np.ndarray, n_trees: int = 100, seed: int = 0) -> TrainedClassifier:
    """Bagged Gini trees with per-split feature subsampling of ceil(sqrt(D))."""
    x, y, k = _check_xy(x, y)
    if len(x) < 3:
        raise InvalidDatasetError("RF needs at least 3 samples")
    n, d = x.shape
    n_sub = int(np.ceil(np.sqrt(d)))

    def leaf_value(labels):
        counts = np.bincount(labels, minlength=k).astype(np.float64)
        return counts / counts.sum()

    splitter = _gini_splitter(k)
    trees = []
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child)
        idx = rng.integers(0, n, size=n)
        trees.append(_build_tree(x, y, idx, rng, max_depth=RF_MAX_DEPTH,
                                 min_split=RF_MIN_SPLIT, n_feature_sub=n_sub,
                                 leaf_value=leaf_value, splitter=splitter))
    return TrainedClassifier("RF", k, trees=trees,
                             meta={"n_trees": n_trees, "max_depth": RF_MAX_DEPTH,
                                   "min_split": RF_MIN_SPLIT, "seed": seed})


def _rf_proba(clf: TrainedClassifier, q: np.ndarray) -> np.ndarray:
    # summed in tree order then divided, the same float operations as np.mean
    # over the stacked outputs, without holding every tree's output at once
    p = np.zeros((len(q), clf.n_classes))
    for t in clf.trees:
        p += t.predict_value(q)
    p /= len(clf.trees)
    return p / p.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Gradient-boosted trees (softmax cross-entropy, Newton leaf values)
# ---------------------------------------------------------------------------

def fit_gbt(x: np.ndarray, y: np.ndarray, max_depth: int = 10,
            rounds: int = 50) -> TrainedClassifier:
    """Boosting with one regression tree per class per round.

    Trees fit the negative softmax cross-entropy gradient (the residual
    one-hot minus probability); leaf scores use the Newton step
    sum(residual) / sum(hessian). predict_proba is the softmax of the
    GBT_ETA-scaled summed leaf scores.
    """
    x, y, k = _check_xy(x, y)
    if len(np.unique(y)) < 2:
        raise InvalidDatasetError("GBT needs at least 2 classes")
    n = len(x)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0
    scores = np.zeros((n, k))
    all_idx = np.arange(n)

    def leaf_value(t):
        grad, hess = t[:, 0].sum(), t[:, 1].sum()
        return np.array([grad / (hess + 1e-16)])

    trees: list[Tree] = []
    loss_log = []
    for _ in range(rounds):
        p = _softmax(scores)
        for cls in range(k):
            residual = onehot[:, cls] - p[:, cls]
            hess = p[:, cls] * (1.0 - p[:, cls])
            target = np.stack([residual, hess], axis=1)
            tree = _build_tree(x, target, all_idx, None, max_depth=max_depth,
                               min_split=GBT_MIN_SPLIT, n_feature_sub=None,
                               leaf_value=leaf_value, splitter=_sse_splitter)
            trees.append(tree)
            scores[:, cls] += GBT_ETA * tree.predict_value(x)[:, 0]
        p = _softmax(scores)
        loss_log.append(float(-np.log(p[np.arange(n), y] + 1e-300).mean()))
    return TrainedClassifier("GBT", k, trees=trees,
                             meta={"eta": GBT_ETA, "max_depth": max_depth,
                                   "rounds": rounds, "min_split": GBT_MIN_SPLIT,
                                   "train_log_loss": loss_log})


def _gbt_proba(clf: TrainedClassifier, q: np.ndarray) -> np.ndarray:
    k, eta = clf.n_classes, clf.meta["eta"]
    scores = np.zeros((len(q), k))
    for i, tree in enumerate(clf.trees):
        scores[:, i % k] += eta * tree.predict_value(q)[:, 0]
    return _softmax(scores)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def predict_proba(clf: TrainedClassifier, q: np.ndarray) -> np.ndarray:
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    if clf.kind == "SVM":
        return _softmax(q @ clf.arrays["w"].T + clf.arrays["b"])
    if clf.kind == "KNN":
        return _knn_proba(clf, q)
    if clf.kind == "GNB":
        return _gnb_proba(clf, q)
    if clf.kind == "RF":
        return _rf_proba(clf, q)
    if clf.kind == "GBT":
        return _gbt_proba(clf, q)
    raise InvalidArgumentError(f"unknown classifier kind {clf.kind!r}")


def predict(clf: TrainedClassifier, q: np.ndarray) -> np.ndarray:
    return np.argmax(predict_proba(clf, q), axis=1)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _pack_trees(trees: list[Tree]) -> dict[str, np.ndarray]:
    if not trees:
        return {}
    offsets = np.cumsum([0] + [len(t.feature) for t in trees])
    return {
        "tree_offsets": offsets.astype(np.float64),
        "tree_feature": np.concatenate([t.feature for t in trees]).astype(np.float64),
        "tree_threshold": np.concatenate([t.threshold for t in trees]),
        "tree_left": np.concatenate([t.left for t in trees]).astype(np.float64),
        "tree_right": np.concatenate([t.right for t in trees]).astype(np.float64),
        "tree_value": np.concatenate([t.value for t in trees]),
    }


def _unpack_trees(arrays: dict[str, np.ndarray]) -> list[Tree]:
    if "tree_offsets" not in arrays:
        return []
    offsets = arrays["tree_offsets"].astype(np.int64)
    trees = []
    for a, b in zip(offsets[:-1], offsets[1:]):
        trees.append(Tree(arrays["tree_feature"][a:b].astype(np.int64),
                          arrays["tree_threshold"][a:b].copy(),
                          arrays["tree_left"][a:b].astype(np.int64),
                          arrays["tree_right"][a:b].astype(np.int64),
                          arrays["tree_value"][a:b].copy()))
    return trees


def save_classifier(clf: TrainedClassifier, path) -> None:
    arrays = dict(clf.arrays)
    arrays.update(_pack_trees(clf.trees))
    header = {
        "kind": clf.kind,
        "n_classes": clf.n_classes,
        "meta": clf.meta,
        "arrays": [{"name": n, "shape": list(np.asarray(a).shape)}
                   for n, a in sorted(arrays.items())],
    }
    write_atomic(path, pack(CLASSIFIER_MAGIC, header,
                            [a for _, a in sorted(arrays.items())]))


def load_classifier(path) -> TrainedClassifier:
    with open(path, "rb") as f:
        blob = f.read()
    header, values = unpack(blob, CLASSIFIER_MAGIC, "classifier")
    if header["kind"] not in KINDS:
        raise IntegrityError(f"unknown classifier kind {header['kind']!r}")
    arrays = {rec["name"]: arr for rec, arr in zip(header["arrays"], values)}
    trees = _unpack_trees(arrays)
    plain = {n: a for n, a in arrays.items() if not n.startswith("tree_")}
    return TrainedClassifier(header["kind"], header["n_classes"],
                             arrays=plain, trees=trees, meta=header["meta"])
