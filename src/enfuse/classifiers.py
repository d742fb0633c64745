"""Five classical classifiers over fused feature vectors.

Each learner exposes a fit_* constructor returning a TrainedClassifier and
shares predict / predict_proba dispatch. All of them are deterministic given
(data, seed, hyperparameters): probability rows are valid distributions and
argmax ties break toward the lowest class index.

The random forest and the boosted trees share one tree builder, which grows
many trees together, a level at a time: each step runs one batched split
search over every splittable node of every tree. `fit_gbt` boosts several
training sets of one shape in one loop, so a round grows the class trees of
every set together; its trees equal, bit for bit, those of growing each tree
alone, one node at a time. A forest takes everything random from one
generator: its bootstraps in one call, then one call per level that ranks
each node's features, of which the node searches the lowest-ranked.

A forest is one flat node table (`TREE_COLUMNS`), the arrays its file
stores, built once when it is fitted or checked once when it is loaded. It
predicts in one walk: every (tree, query row) pair goes down together, one
level per step, in blocks of bounded size, reading the block's values and
each node's children through flat indices. A block's leaf values are summed
in one reduce along the tree axis, which adds them in tree order; adding
0.0 to the sum gives what a loop over the trees adds from 0.0.

Every classifier is row-independent: a row's probabilities have the same
bits whatever rows share its call, which SHAP's deduplicated calls rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifact
from .errors import IntegrityError

CLASSIFIER_MAGIC = b"ETSEFC1\x00"
KINDS = ("SVM", "KNN", "GNB", "RF", "GBT")
# KNN prediction holds a (query rows, training rows, dims) difference tensor of
# at most this many float64 elements (2 MiB), so memory stays bounded
KNN_BLOCK_ELEMENTS = 1 << 18
SVM_C = 1.0             # hinge weight against the L2 term
SVM_TOL = 1e-3          # stop when the objective changes by less
KNN_K = 3
GNB_VAR_SMOOTHING = 1e-9  # variance floor, as a fraction of the widest feature's
RF_TREES = 100
RF_MAX_DEPTH = 10
RF_MIN_SPLIT = 3        # fewest rows a node needs to split
GBT_ROUNDS = 50         # each round grows one tree per class
GBT_MAX_DEPTH = 10
GBT_ETA = 0.9           # learning rate on each round's leaf scores
GBT_MIN_SPLIT = 2
# a split search holds about a dozen arrays of one entry per (node, feature,
# row); it searches at most this many at once (about 0.7 MiB in all)
SPLIT_BLOCK_ELEMENTS = 1 << 13
# A forest walk holds a few arrays of one entry per (tree, query row) pair; it
# walks at most this many pairs at once (256 KiB per int64 array)
FOREST_BLOCK_PAIRS = 1 << 15
# A forest's flat node table, trees in order, each tree's nodes in preorder:
# tree t is nodes tree_offsets[t] .. tree_offsets[t + 1] - 1, a node is a leaf
# iff its feature is negative, and a child is numbered from its tree's first
# node (-1 at leaves). tree_value holds one row per node: the class shares (RF)
# or the one leaf score (GBT).
TREE_COLUMNS = ("tree_offsets", "tree_feature", "tree_threshold", "tree_left",
                "tree_right", "tree_value")
_INDEX_COLUMNS = ("tree_offsets", "tree_feature", "tree_left", "tree_right")
# the arrays each kind predicts with, which its file must hold, by shape (see
# `artifact.check_shapes`): "k" is the class count and "1" is 1 (m nodes,
# t tree offsets, n training rows, d features)
_FOREST = {"tree_offsets": ("t",), "tree_feature": ("m",), "tree_threshold": ("m",),
           "tree_left": ("m",), "tree_right": ("m",)}
_SHAPES = {"SVM": {"w": ("k", "d"), "b": ("k",)}, "KNN": {"x": ("n", "d"), "y": ("n",)},
           "GNB": {"theta": ("k", "d"), "var": ("k", "d"), "priors": ("k",)},
           "RF": {**_FOREST, "tree_value": ("m", "k")},
           "GBT": {**_FOREST, "tree_value": ("m", "1")}}


@dataclass
class TrainedClassifier:
    """A fitted classifier; RF and GBT hold their forest in `arrays` as the
    node table `TREE_COLUMNS` names."""

    kind: str
    n_classes: int
    arrays: dict[str, np.ndarray]
    meta: dict


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by each row's max."""
    p = np.exp(z - z.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


def _as_xy(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(x as float64, y as int64, the class count max(y) + 1)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
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
    x, y, k = _as_xy(x, y)
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
    x, y, n_classes = _as_xy(x, y)
    return TrainedClassifier("KNN", n_classes,
                             arrays={"x": x.copy(), "y": y.astype(np.float64)},
                             meta={"k": KNN_K})


def _knn_proba(clf: TrainedClassifier, q: np.ndarray) -> np.ndarray:
    """Inverse-distance vote of the k nearest training rows, in neighbour-rank
    order; a query equal to a training row takes that row's class outright."""
    train_x = clf.arrays["x"]
    train_y = clf.arrays["y"].astype(np.int64)
    out = np.zeros((len(q), clf.n_classes))
    step = max(1, KNN_BLOCK_ELEMENTS // train_x.size)
    for start in range(0, len(q), step):
        part = out[start:start + step]  # a view: writes land in out
        diff = train_x[None] - q[start:start + step, None]
        dist = np.sqrt(np.add.reduce(diff * diff, axis=2))  # np.linalg.norm's sum
        nearest = np.argsort(dist, axis=1, kind="stable")[:, :KNN_K]
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
    x, y, k = _as_xy(x, y)
    classes = np.unique(y)
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
# Shared tree builder: many trees grown together
# ---------------------------------------------------------------------------

def _row_sums(a: np.ndarray, n_rows: np.ndarray) -> np.ndarray:
    """a[i, ..., :n_rows[i]] summed over the last axis, node by node.

    Each sum covers one node's values alone, so it rounds as a 1-D sum over
    them does: NumPy sums pairwise in blocks of 8, so a sum over the padded
    row rounds differently once a node has 8 or more rows. `a` must be
    C-ordered: where another axis has a smaller stride than the summed one,
    NumPy adds along the summed axis in sequence instead.
    """
    out = np.empty(a.shape[:-1])
    for i, n in enumerate(n_rows.tolist()):
        out[i] = a[i, ..., :n].sum(axis=-1)
    return out


class _Gini:
    """Gini impurity of class labels; a node's value is its class distribution."""

    def __init__(self, y: np.ndarray, n_classes: int):
        self.labels = np.append(y, n_classes)  # the padding row is in no class
        self.n_classes = n_classes

    def _counts(self, rows):
        return np.stack([np.count_nonzero(self.labels[rows] == c, axis=1)
                         for c in range(self.n_classes)], axis=1).astype(np.float64)

    def leaves(self, rows, n_rows):
        """(value, is pure) of each node; row list i is rows[i, :n_rows[i]]."""
        counts = self._counts(rows)
        return counts / counts.sum(axis=1, keepdims=True), np.count_nonzero(counts, axis=1) == 1

    def scores(self, rows, n_rows, srows):
        """Score of each (node, feature, cut) over the feature's sorted rows."""
        n = n_rows[:, None, None]
        labels = self.labels[srows]
        counts = self._counts(rows)
        nl = np.arange(1, srows.shape[2])
        nr = np.maximum(n - nl, 1)  # cuts past a node's rows are masked
        # each side's sum of squared class shares, added class by class as
        # np.sum over the class axis adds them
        for c in range(self.n_classes):
            left = np.cumsum(labels == c, axis=2)[:, :, :-1]  # rows of class c below each cut
            share_l = (left / nl) ** 2
            share_r = ((counts[:, c, None, None] - left) / nr) ** 2
            sum_l = share_l if c == 0 else sum_l + share_l
            sum_r = share_r if c == 0 else sum_r + share_r
        return (nl * (1.0 - sum_l) + nr * (1.0 - sum_r)) / n


class _SquaredError:
    """Squared error of the residual; a node's value is the Newton step
    sum(residual) / sum(hessian). `leaves` and `scores` as `_Gini`'s."""

    def __init__(self, residual: np.ndarray, hessian: np.ndarray):
        self.residual = np.append(residual, 0.0)  # the padding row's are 0
        self.square = self.residual * self.residual
        self.hessian = np.append(hessian, 0.0)

    def leaves(self, rows, n_rows):
        resid = self.residual[rows]
        grad, hess = _row_sums(np.stack([resid, self.hessian[rows]], axis=1), n_rows).T
        real = np.arange(rows.shape[1]) < n_rows[:, None]
        spread = (np.where(real, resid, -np.inf).max(axis=1)
                  - np.where(real, resid, np.inf).min(axis=1))
        return (grad / (hess + 1e-16))[:, None], spread <= 1e-12

    def scores(self, rows, n_rows, srows):
        r = np.stack([self.residual[srows], self.square[srows]], axis=1)
        s1, s2 = np.cumsum(r, axis=3)[..., :-1].swapaxes(0, 1)
        total1, total2 = _row_sums(r, n_rows)[..., None].swapaxes(0, 1)
        nl = np.arange(1, srows.shape[2])
        nr = np.maximum(n_rows[:, None, None] - nl, 1)
        sse_l = s2 - s1 * s1 / nl
        sse_r = (total2 - s2) - (total1 - s1) ** 2 / nr
        return sse_l + sse_r


def _best_cuts(features: np.ndarray, sv: np.ndarray, score: np.ndarray):
    """(feature, threshold, score) per node of the first candidate feature
    whose lowest score beats the best so far by 1e-15; feature -1 and
    threshold 0 where no cut is valid.

    The argmin over features is that feature unless an earlier one lies
    within 1e-15 of the minimum; only such nodes rerun the scan feature by
    feature.
    """
    lowest = score.min(axis=2)
    j = lowest.argmin(axis=1)
    close = (~(lowest.min(axis=1, keepdims=True) < lowest - 1e-15)
             & (np.arange(lowest.shape[1]) < j[:, None]))
    for b in np.flatnonzero(close.any(axis=1)):
        best = np.inf
        for f, value in enumerate(lowest[b]):
            if value < best - 1e-15:
                best, j[b] = value, f
    nodes = np.arange(len(score))
    p = score[nodes, j].argmin(axis=1)
    low = lowest[nodes, j]
    found = low < np.inf
    return (np.where(found, features[nodes, j], -1),
            np.where(found, 0.5 * (sv[nodes, j, p] + sv[nodes, j, p + 1]), 0.0), low)


def _split_search(xt, rows, n_rows, features, criterion):
    """(feature, threshold, score) of each node's best cut, batched searches.

    xt is x transposed with a last column of +inf, the padding row: row list
    i is rows[i, :n_rows[i]], padded with that column's index, so padding
    sorts last; cuts past a node's own rows are masked. features[i] are node
    i's candidate features, ascending. Nodes are searched in blocks of at
    most SPLIT_BLOCK_ELEMENTS (node, feature, row) entries; as a node's search
    reads no other node, blocking changes no value.
    """
    step = max(1, SPLIT_BLOCK_ELEMENTS // (features.shape[1] * rows.shape[1]))
    found = []
    for start in range(0, len(rows), step):
        block = slice(start, start + step)
        rows_b, n_b, features_b = rows[block], n_rows[block], features[block]
        order = xt[features_b[:, :, None], rows_b[:, None, :]].argsort(axis=2, kind="stable")
        srows = rows_b[np.arange(len(rows_b))[:, None, None], order]
        sv = xt[features_b[:, :, None], srows]
        valid = ((sv[:, :, 1:] != sv[:, :, :-1])
                 & (np.arange(sv.shape[2] - 1) < n_b[:, None, None] - 1))
        found.append(_best_cuts(features_b, sv, np.where(
            valid, criterion.scores(rows_b, n_b, srows), np.inf)))
    return tuple(np.concatenate(column) for column in zip(*found))


def _padded(parts: list[np.ndarray], pad: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, n_rows): the row lists as one matrix padded with `pad`, and their lengths."""
    n_rows = np.array([len(part) for part in parts])
    rows = np.full((len(parts), n_rows.max()), pad)
    rows[np.arange(rows.shape[1]) < n_rows[:, None]] = np.concatenate(parts)
    return rows, n_rows


def _grow_trees(x, roots, criterion, *, max_depth, min_split,
                feature_sample: tuple[np.random.Generator, int] | None = None
                ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Grow one tree from each root's row list, all together, and return
    their node table (`TREE_COLUMNS`). Also returns, for each row of x, the
    value of the last node made that holds it: the row's leaf in its tree,
    where no two roots list the row (GBT's stacked copies), so the row is
    routed there by its tree as `_leaf_blocks` routes it.

    A node gets its value, and is tested for purity, when it is made. It
    splits at the cut the criterion scores lowest (ties go to the first
    feature and cut) unless it is at `max_depth`, has fewer than `min_split`
    rows or is pure. Each step searches every splittable node of every tree,
    a whole level, in one `_split_search`, in the order the nodes were made:
    roots in tree order, then each searched node's children, left before
    right. Every feature is a candidate, unless `feature_sample` is a
    generator and a subset size m below x's width: then each step ranks
    every node's features with one `random((nodes, d))` call, and a node's
    candidates are its m lowest-ranked features, ascending.
    """
    n, d = x.shape
    xt = np.concatenate([x, np.full((1, d), np.inf)]).T.copy()  # column n is the padding row
    # nodes are numbered by slot, in the order they are made, roots first
    values = []      # per batch of new nodes, their values
    cuts = []        # per step, (slots, feature, threshold) of the nodes searched
    left_child = []  # (slot, its left child's slot); the right child's slot follows
    reached = np.zeros(n, dtype=np.int64)  # per row of x, the last slot made that holds it
    n_made = 0

    def make(parts, depth):
        """Record new nodes; returns the splittable ones, (rows, depth, slot)
        in the order made."""
        nonlocal n_made
        rows, n_rows = _padded(parts, n)
        value, pure = criterion.leaves(rows, n_rows)
        values.append(value)
        first, n_made = n_made, n_made + len(parts)
        reached[np.concatenate(parts)] = np.repeat(np.arange(first, n_made), n_rows)
        splittable = (depth < max_depth) & (n_rows >= min_split) & ~pure
        return [(parts[i], depth[i], first + i) for i in np.flatnonzero(splittable).tolist()]

    level = make(list(roots), np.zeros(len(roots), dtype=np.int64))
    while level:
        rows, n_rows = _padded([part for part, _, _ in level], n)
        if feature_sample is None:
            features = np.broadcast_to(np.arange(d), (len(level), d))
        else:
            rng, m = feature_sample
            rank = rng.random((len(level), d)).argsort(axis=1, kind="stable")
            features = np.sort(rank[:, :m], axis=1)
        feature, threshold, _ = _split_search(xt, rows, n_rows, features, criterion)
        cuts.append(([slot for _, _, slot in level], feature, threshold))
        inner = np.flatnonzero(feature >= 0)
        if not len(inner):
            break
        go_left = xt[feature[inner, None], rows[inner]] <= threshold[inner, None]
        parted = rows[inner[:, None], (~go_left).argsort(axis=1, kind="stable")]
        parts, depth = [], []
        for i, part, cut, end in zip(inner.tolist(), parted, go_left.sum(axis=1).tolist(),
                                     n_rows[inner].tolist()):
            parts += (part[:cut], part[cut:end])  # the padding (+inf) went right
            depth += (level[i][1] + 1,) * 2
            left_child.append((level[i][2], n_made + len(parts) - 2))
        level = make(parts, np.array(depth))
    values = np.concatenate(values)
    return _preorder_table(values, cuts, left_child, len(roots)), values[reached]


def _preorder_table(values, cuts, left_child, n_trees) -> dict[str, np.ndarray]:
    """Gather the nodes, by slot, into the node table of trees numbered in
    preorder; roots are slots 0 .. n_trees - 1."""
    n_slots = len(values)
    feature = np.full(n_slots, -1)
    threshold = np.zeros(n_slots)
    for slots, f, thr in cuts:
        feature[slots], threshold[slots] = f, thr
    left = [-1] * n_slots
    for slot, child in left_child:
        left[slot] = child
    order, pre, bounds = [], [0] * n_slots, [0]
    for root in range(n_trees):
        stack = [root]
        while stack:
            slot = stack.pop()
            pre[slot] = len(order) - bounds[-1]
            order.append(slot)
            if left[slot] >= 0:
                stack += (left[slot] + 1, left[slot])
        bounds.append(len(order))
    pre = np.array(pre)
    left = np.array(left)[order]
    inner = left >= 0
    return dict(zip(TREE_COLUMNS, (np.array(bounds), feature[order], threshold[order],
                                   np.where(inner, pre[left], -1),
                                   np.where(inner, pre[left + 1], -1), values[order])))


def _split_table(table: dict[str, np.ndarray], n_parts: int) -> list[dict[str, np.ndarray]]:
    """The node tables of the table's trees in n_parts runs of as many trees."""
    offsets = table["tree_offsets"]
    size = (len(offsets) - 1) // n_parts
    parts = []
    for first in range(0, len(offsets) - 1, size):
        bounds = offsets[first:first + size + 1]
        parts.append({"tree_offsets": bounds - bounds[0],
                      **{name: table[name][bounds[0]:bounds[-1]] for name in TREE_COLUMNS[1:]}})
    return parts


def _join_tables(tables: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """One node table of the tables' trees, in order."""
    starts = np.cumsum([0] + [t["tree_offsets"][-1] for t in tables[:-1]])
    joined = {name: np.concatenate([t[name] for t in tables]) for name in TREE_COLUMNS[1:]}
    joined["tree_offsets"] = np.concatenate(
        [[0]] + [t["tree_offsets"][1:] + start for t, start in zip(tables, starts)])
    return joined


def _leaf_blocks(table: dict[str, np.ndarray], q: np.ndarray):
    """Per block of query rows, yield (start, values): values[t, i] is the
    leaf value tree t gives row start + i.

    Every (tree, row) pair of a block walks down together, one level per
    step: a pair at an inner node goes left iff its row's value is
    `<= threshold` (so NaN goes right), and a pair at a leaf stays there.
    The block's values and the children are read through flat indices.
    Pairs at their leaves leave the walk once they are a quarter of those
    still in it. A block has at most FOREST_BLOCK_PAIRS pairs; as a tree's
    leaf for one row reads no other row, blocking changes no value.
    """
    offsets, feature, left, right = (table[name] for name in _INDEX_COLUMNS)
    threshold, value = table["tree_threshold"], table["tree_value"]
    n_trees = len(offsets) - 1
    leaf = feature < 0
    # node i's (right, left) children by node number are children[2i] and
    # children[2i + 1], and a leaf is its own child, so a `<=` test's
    # outcome picks the entry
    first = np.repeat(offsets[:-1], np.diff(offsets))  # each node's tree's root
    own = np.arange(len(feature))
    children = np.stack([np.where(leaf, own, first + right),
                         np.where(leaf, own, first + left)], axis=1).ravel()
    split = np.where(leaf, 0, feature)
    d = q.shape[1]
    step = max(1, FOREST_BLOCK_PAIRS // n_trees)
    for start in range(0, len(q), step):
        block = q[start:start + step]
        flat = block.ravel()
        node = np.repeat(offsets[:-1], len(block))  # pairs at their roots, trees major
        row = np.tile(np.arange(len(block)) * d, n_trees)  # each pair's row's offset in flat
        walking = None  # once pairs leave the walk, node is reached[walking]
        while True:
            done = leaf[node]
            n_done = np.count_nonzero(done)
            if n_done == len(node):
                break
            if 4 * n_done > len(node):
                keep = np.flatnonzero(~done)
                if walking is None:
                    reached, walking = node.copy(), keep
                else:
                    reached[walking] = node
                    walking = walking[keep]
                node, row = node[keep], row[keep]
            go_left = flat[row + split[node]] <= threshold[node]
            node = children[2 * node + go_left]
        if walking is None:
            reached = node
        else:
            reached[walking] = node
        yield start, value[reached].reshape(n_trees, len(block), -1)


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------

def fit_rf(x: np.ndarray, y: np.ndarray, *, seed: int) -> TrainedClassifier:
    """Bagged Gini trees with per-split feature subsampling of ceil(sqrt(D)),
    grown together a level at a time from one generator: the bootstraps
    first, then each level's feature subsets."""
    x, y, k = _as_xy(x, y)
    n, d = x.shape
    rng = np.random.default_rng(seed)
    bootstraps = rng.integers(0, n, size=(RF_TREES, n))
    m = int(np.ceil(np.sqrt(d)))
    table, _ = _grow_trees(x, bootstraps, _Gini(y, k), max_depth=RF_MAX_DEPTH,
                           min_split=RF_MIN_SPLIT, feature_sample=(rng, m) if m < d else None)
    return TrainedClassifier("RF", k, arrays=table,
                             meta={"n_trees": RF_TREES, "max_depth": RF_MAX_DEPTH,
                                   "min_split": RF_MIN_SPLIT, "seed": seed})


def _tree_sum(values: np.ndarray) -> np.ndarray:
    """values summed along axis 0 in order, from 0.0.

    NumPy adds along the outer axis one slice at a time, in order, when a
    slice has more than one element; with one (one row of a one-class
    forest), it may add in pairs, but every probability is then 1.0. A
    NumPy whose reduce starts from the first slice, not from 0.0, gives
    -0.0 for a sum of -0.0s; adding 0.0 makes it +0.0, as a loop gives."""
    return np.add.reduce(values, axis=0) + 0.0


def _rf_proba(clf: TrainedClassifier, q: np.ndarray) -> np.ndarray:
    # summed in tree order from 0.0, then divided: the float operations of
    # np.mean over the stacked outputs, without holding every tree's at once
    p = np.zeros((len(q), clf.n_classes))
    for start, values in _leaf_blocks(clf.arrays, q):
        p[start:start + values.shape[1]] = _tree_sum(values)
    p /= len(clf.arrays["tree_offsets"]) - 1
    return p / p.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Gradient-boosted trees (softmax cross-entropy, Newton leaf values)
# ---------------------------------------------------------------------------

def fit_gbt(xs: list[np.ndarray], ys: list[np.ndarray]) -> list[TrainedClassifier]:
    """Boosting with one regression tree per class per round, for each of
    several training sets of one shape and class count; a round grows every
    set's class trees together, and each set's classifier is the one it
    gets fitted alone.

    Trees fit the negative softmax cross-entropy gradient (the residual
    one-hot minus probability); leaf scores use the Newton step
    sum(residual) / sum(hessian). predict_proba is the softmax of the
    GBT_ETA-scaled summed leaf scores.
    """
    x = np.stack([np.asarray(x, dtype=np.float64) for x in xs])
    y = np.stack([np.asarray(y, dtype=np.int64) for y in ys]).ravel()
    n_sets, n, d = x.shape
    k = int(y.max()) + 1
    rows = np.arange(n_sets * n)  # row s*n + i is set s's row i, here and in y
    onehot = np.zeros((n_sets * n, k))
    onehot[rows, y] = 1.0
    scores = np.zeros((n_sets * n, k))
    # a round's class trees grow together, the tree of set s and class c on
    # rows (s*k + c)*n .. (s*k + c)*n + n - 1 of k stacked copies of each
    # set's x, so each reads its own set's and class's target
    stacked = np.repeat(x, k, axis=0).reshape(-1, d)
    roots = [np.arange(t * n, t * n + n) for t in range(n_sets * k)]

    def by_tree(a):
        """(set, row, class) values in the stacked rows' order."""
        return a.reshape(n_sets, n, k).transpose(0, 2, 1).ravel()

    tables = [[] for _ in range(n_sets)]
    losses = [[] for _ in range(n_sets)]
    p = _softmax(scores)
    for _ in range(GBT_ROUNDS):
        table, leaf_value = _grow_trees(
            stacked, roots, _SquaredError(by_tree(onehot - p), by_tree(p * (1.0 - p))),
            max_depth=GBT_MAX_DEPTH, min_split=GBT_MIN_SPLIT)
        for own, part in zip(tables, _split_table(table, n_sets)):
            own.append(part)
        step = leaf_value[:, 0].reshape(n_sets, k, n).transpose(0, 2, 1)  # (set, row, class)
        scores += GBT_ETA * step.reshape(-1, k)
        p = _softmax(scores)
        true_p = p[rows, y] + 1e-300
        for s, loss in enumerate(losses):
            loss.append(float(-np.log(true_p[s * n:s * n + n]).mean()))
    return [TrainedClassifier("GBT", k, arrays=_join_tables(own),
                              meta={"eta": GBT_ETA, "max_depth": GBT_MAX_DEPTH,
                                    "rounds": GBT_ROUNDS, "min_split": GBT_MIN_SPLIT,
                                    "train_log_loss": loss})
            for own, loss in zip(tables, losses)]


def _gbt_proba(clf: TrainedClassifier, q: np.ndarray) -> np.ndarray:
    # tree i scores class i % k: each class adds its trees' scaled leaf
    # scores in round order, from 0.0
    k = clf.n_classes
    scores = np.zeros((len(q), k))
    for start, values in _leaf_blocks(clf.arrays, q):
        rounds = (GBT_ETA * values[:, :, 0]).reshape(-1, k, values.shape[1])
        scores[start:start + values.shape[1]] = _tree_sum(rounds).T
    return _softmax(scores)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def predict_proba(clf: TrainedClassifier, q: np.ndarray) -> np.ndarray:
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    if clf.kind == "SVM":
        # each margin is its own row's sum, where a matrix product's rounding
        # can change with the rows beside it
        margins = (q[:, None, :] * clf.arrays["w"]).sum(axis=2)
        return _softmax(margins + clf.arrays["b"])
    if clf.kind == "KNN":
        return _knn_proba(clf, q)
    if clf.kind == "GNB":
        return _gnb_proba(clf, q)
    if clf.kind == "RF":
        return _rf_proba(clf, q)
    return _gbt_proba(clf, q)  # GBT


def predict(clf: TrainedClassifier, q: np.ndarray) -> np.ndarray:
    return np.argmax(predict_proba(clf, q), axis=1)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _forest_table(arrays: dict[str, np.ndarray], kind: str,
                  n_classes: int) -> dict[str, np.ndarray]:
    """A loaded forest's arrays, shaped as `_SHAPES` says, with its index
    columns as int64.

    IntegrityError unless every walk stays in its own tree and ends: at
    least one tree (for GBT, a whole number of rounds), offsets that rise
    from 0 to the node count, and inner nodes whose children lie after them
    in their own tree, leaves with none.
    """
    table = dict(arrays)
    for name in _INDEX_COLUMNS:
        with np.errstate(invalid="ignore"):
            table[name] = arrays[name].astype(np.int64)
        if not np.array_equal(table[name], arrays[name]):
            raise IntegrityError(f"{name} must hold whole numbers")
    offsets, feature, left, right = (table[name] for name in _INDEX_COLUMNS)
    n_nodes, n_trees = len(feature), len(offsets) - 1
    sizes = np.diff(offsets)
    if n_trees < 1 or offsets[0] != 0 or offsets[-1] != n_nodes or np.any(sizes < 1):
        raise IntegrityError("tree_offsets must rise from 0 to the node count")
    if kind == "GBT" and n_trees % n_classes:
        raise IntegrityError(f"GBT has {n_trees} trees, not one per class per round")
    local = np.arange(n_nodes) - np.repeat(offsets[:-1], sizes)  # each node's place in its tree
    size = np.repeat(sizes, sizes)
    inner = feature >= 0
    if np.any(inner & ((left <= local) | (left >= size) | (right <= local) | (right >= size))):
        raise IntegrityError("a tree node's child lies outside its tree or not after it")
    if np.any(~inner & ((left != -1) | (right != -1))):
        raise IntegrityError("a tree leaf has a child")
    return table


def save_classifier(clf: TrainedClassifier, path) -> None:
    # a forest's index columns are written as float64, as all arrays are
    artifact.save(path, CLASSIFIER_MAGIC,
                  {"kind": clf.kind, "n_classes": clf.n_classes, "meta": clf.meta},
                  dict(sorted(clf.arrays.items())))


def load_classifier(path) -> TrainedClassifier:
    """The saved classifier; IntegrityError for a header without its kind or
    class count, an unknown kind, a class count below 1, arrays that
    `_SHAPES` rejects, KNN labels that are not classes, or a forest table
    `_forest_table` rejects."""
    header, arrays = artifact.load(path, CLASSIFIER_MAGIC, "classifier")
    try:
        kind, n_classes, meta = header["kind"], header["n_classes"], header.get("meta", {})
    except KeyError as exc:
        raise IntegrityError(f"unreadable classifier header: {exc!r}") from exc
    if kind not in KINDS:
        raise IntegrityError(f"unknown classifier kind {kind!r}")
    if type(n_classes) is not int or n_classes < 1:  # a bool is an int to isinstance
        raise IntegrityError(f"class count {n_classes!r} is not a whole number above 0")
    artifact.check_shapes(f"{kind} classifier", arrays, _SHAPES[kind], {"k": n_classes, "1": 1})
    if kind == "KNN" and not np.isin(arrays["y"], np.arange(n_classes)).all():
        raise IntegrityError(f"KNN labels must be whole numbers below {n_classes}")
    if kind in ("RF", "GBT"):
        arrays = _forest_table(arrays, kind, n_classes)
    return TrainedClassifier(kind, n_classes, arrays=arrays, meta=meta)
