from unittest import mock

import numpy as np
import pytest

from enfuse import classifiers
from enfuse.artifact import pack, unpack
from enfuse.classifiers import (
    CLASSIFIER_MAGIC,
    fit_gbt,
    fit_gnb,
    fit_knn,
    fit_rf,
    fit_svm,
    load_classifier,
    predict,
    predict_proba,
    save_classifier,
)
from enfuse.errors import IntegrityError
from enfuse.fusion import standardize


def blobs(centers, n=20, spread=0.5, seed=0):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for label, center in enumerate(centers):
        xs.append(rng.normal(center, spread, size=(n, len(center))))
        ys.append(np.full(n, label))
    return np.concatenate(xs), np.concatenate(ys)


class TestSvm:
    def test_separable_blobs(self):
        x, y = blobs([(-3, 0), (3, 0)], spread=0.5, seed=1)
        clf = fit_svm(x, y)
        assert np.array_equal(predict(clf, x), y)

    def test_three_class(self):
        x, y = blobs([(-4, 0), (4, 0), (0, 5)], spread=0.4, seed=2)
        clf = fit_svm(x, y)
        assert np.mean(predict(clf, x) == y) == 1.0

    def test_scaling_invariance_after_standardization(self):
        x, y = blobs([(-2, 1), (2, -1)], seed=3)
        a = predict(fit_svm(standardize(x)[0], y), standardize(x)[0])
        b = predict(fit_svm(standardize(10 * x)[0], y), standardize(10 * x)[0])
        assert np.array_equal(a, b)

    def test_symmetric_bias_near_zero(self):
        x = np.array([[1.0], [-1.0], [1.5], [-1.5]])
        y = np.array([1, 0, 1, 0])
        clf = fit_svm(x, y)
        assert np.max(np.abs(clf.arrays["b"])) < 1e-3


class TestKnn:
    def test_hand_example(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [4.0, 0.0]])
        y = np.array([0, 0, 1])
        clf = fit_knn(x, y)
        # distances from (0.5, 0): 0.5, 0.5, 3.5 -> weights 2, 2, 0.2857 -> class 0
        assert predict(clf, [[0.5, 0.0]])[0] == 0

    def test_exact_match_rule(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.1, 0.0]])
        y = np.array([0, 1, 1])
        clf = fit_knn(x, y)
        p = predict_proba(clf, [[1.0, 0.0]])
        assert np.array_equal(p[0], [0.0, 1.0])

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, size=40)
        clf = fit_knn(x, y)
        queries = rng.normal(size=(200, 3))
        got = predict(clf, queries)
        for q, label in zip(queries, got):
            dist = np.array([np.sqrt(((q - row) ** 2).sum()) for row in x])
            nearest = np.argsort(dist, kind="stable")[:3]
            weights = np.zeros(3)
            for j in nearest:
                weights[y[j]] += 1.0 / (dist[j] + 1e-12)
            assert label == int(np.argmax(weights))


class TestGnb:
    def test_symmetric_posterior(self):
        x = np.array([[-2.0], [0.0], [0.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        clf = fit_gnb(x, y)
        p = predict_proba(clf, [[0.0]])[0]
        assert np.allclose(p, [0.5, 0.5], atol=1e-9)
        # argmax tie resolves to the lowest class index
        assert predict(clf, [[0.0]])[0] == 0

    def test_query_at_mean_dominates(self):
        x, y = blobs([(0.0,), (100.0,)], n=10, spread=1.0, seed=4)
        clf = fit_gnb(x, y)
        mean0 = x[y == 0].mean()
        assert predict_proba(clf, [[mean0]])[0, 0] > 0.999

    def test_closed_form_oracle(self):
        x = np.array([[0.0, 1.0], [2.0, 3.0], [5.0, 1.0], [7.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        clf = fit_gnb(x, y)
        q = np.array([3.0, 2.0])
        floor = 1e-9 * x.var(axis=0).max()
        dens = np.zeros(2)
        for cls in range(2):
            rows = x[y == cls]
            mu, var = rows.mean(axis=0), rows.var(axis=0) + floor
            dens[cls] = 0.5 * np.prod(
                np.exp(-((q - mu) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var))
        expected = dens / dens.sum()
        assert np.allclose(predict_proba(clf, [q])[0], expected, atol=1e-9)


class TestRf:
    def test_pure_class_single_leaves(self, monkeypatch):
        monkeypatch.setattr(classifiers, "RF_TREES", 10)
        x = np.random.default_rng(0).normal(size=(10, 2))
        y = np.zeros(10, dtype=int)
        clf = fit_rf(x, y, seed=0)
        assert np.array_equal(np.diff(clf.arrays["tree_offsets"]), np.ones(10))
        assert np.array_equal(predict_proba(clf, x[:3]), np.ones((3, 1)))

    def test_xor_pattern(self):
        x, y = blobs([(-2, -2), (2, 2), (-2, 2), (2, -2)], n=10, spread=0.3, seed=5)
        y = np.where(y < 2, 0, 1)  # diagonal clusters share a label
        clf = fit_rf(x, y, seed=1)
        assert np.mean(predict(clf, x) == y) == 1.0

    def test_seed_determinism(self, monkeypatch):
        monkeypatch.setattr(classifiers, "RF_TREES", 20)
        x, y = blobs([(-1, 0), (1, 0)], seed=6)
        a = fit_rf(x, y, seed=3)
        b = fit_rf(x, y, seed=3)
        assert np.array_equal(predict_proba(a, x), predict_proba(b, x))

    def test_different_seed_differs(self, monkeypatch):
        monkeypatch.setattr(classifiers, "RF_TREES", 5)
        x, y = blobs([(-1, 0), (1, 0)], spread=1.5, seed=6)
        a = fit_rf(x, y, seed=3)
        b = fit_rf(x, y, seed=4)
        assert not np.array_equal(predict_proba(a, x), predict_proba(b, x))


class TestGbt:
    def test_separable_blobs_fast(self, monkeypatch):
        monkeypatch.setattr(classifiers, "GBT_ROUNDS", 10)
        x, y = blobs([(-3, 0), (3, 0), (0, 4)], n=15, spread=0.5, seed=8)
        clf = fit_gbt([x], [y])[0]
        assert np.mean(predict(clf, x) == y) == 1.0

    def test_log_loss_non_increasing(self, monkeypatch):
        monkeypatch.setattr(classifiers, "GBT_ROUNDS", 15)
        x, y = blobs([(-1, 0), (1, 0)], spread=1.2, seed=9)
        clf = fit_gbt([x], [y])[0]
        log = clf.meta["train_log_loss"]
        assert all(b <= a + 1e-9 for a, b in zip(log, log[1:]))

    def test_root_split_at_true_threshold(self, monkeypatch):
        monkeypatch.setattr(classifiers, "GBT_ROUNDS", 1)
        x = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        clf = fit_gbt([x], [y])[0]
        root_feature = clf.arrays["tree_feature"][0]  # the first tree's root
        root_threshold = clf.arrays["tree_threshold"][0]
        assert root_feature == 0
        assert root_threshold == 2.5

    def test_consistent_dataset_memorized(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(64, 4))
        y = rng.integers(0, 3, size=64)
        clf = fit_gbt([x], [y])[0]
        assert np.mean(predict(clf, x) == y) == 1.0

    def test_sets_boosted_together_equal_each_fitted_alone(self):
        """Three sets of one shape, one of them separable by a feature so its
        trees stop early, boosted together in small search blocks, give the
        classifiers each set gets alone, to the bit."""
        rng = np.random.default_rng(13)
        xs = [rng.normal(size=(30, 5)) for _ in range(3)]
        ys = [np.r_[0, 1, 2, rng.integers(0, 3, size=27)] for _ in range(3)]
        xs[1][:, 2] = ys[1]
        with mock.patch.object(classifiers, "SPLIT_BLOCK_ELEMENTS", 64):
            together = fit_gbt(xs, ys)
        assert len(together) == 3
        for x, y, got in zip(xs, ys, together):
            (alone,) = fit_gbt([x], [y])
            assert got.n_classes == alone.n_classes and got.meta == alone.meta
            for name in classifiers.TREE_COLUMNS:
                assert got.arrays[name].dtype == alone.arrays[name].dtype
                assert np.array_equal(got.arrays[name], alone.arrays[name])
        assert len(together[1].arrays["tree_feature"]) < len(together[0].arrays["tree_feature"])


def columns(path):
    """(header, name -> array) of a saved classifier."""
    header, values = unpack(path.read_bytes(), CLASSIFIER_MAGIC, "classifier")
    return header, {rec["name"]: arr for rec, arr in zip(header["arrays"], values)}


def repacked(header, arrays, out):
    """`out`, written as a classifier file of this header and these arrays."""
    header = dict(header, arrays=[{"name": n, "shape": list(a.shape)}
                                  for n, a in sorted(arrays.items())])
    out.write_bytes(pack(CLASSIFIER_MAGIC, header, [a for _, a in sorted(arrays.items())]))
    return out


@pytest.fixture(scope="module")
def fitted():
    x, y = blobs([(-2, 0), (2, 0), (0, 3)], n=8, spread=0.6, seed=11)
    with mock.patch.multiple(classifiers, RF_TREES=10, GBT_ROUNDS=5):
        return x, y, {
            "SVM": fit_svm(x, y),
            "KNN": fit_knn(x, y),
            "GNB": fit_gnb(x, y),
            "RF": fit_rf(x, y, seed=0),
            "GBT": fit_gbt([x], [y])[0],
        }


class TestSharedContracts:

    def test_proba_rows_are_distributions(self, fitted):
        x, _, models = fitted
        q = np.random.default_rng(12).normal(size=(10, 2))
        for clf in models.values():
            p = predict_proba(clf, q)
            assert np.all(p >= 0)
            assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_predict_is_argmax(self, fitted):
        x, _, models = fitted
        for clf in models.values():
            p = predict_proba(clf, x)
            assert np.array_equal(predict(clf, x), np.argmax(p, axis=1))

    @pytest.mark.parametrize("kind", classifiers.KINDS)
    def test_row_gives_the_same_bits_alone_as_in_a_block(self, kind):
        """SHAP calls a voter on each distinct coalition once, so a row's
        probabilities may not depend on the rows beside it: at the explain
        width of 16 features, each of 2,000 rows predicted alone has the
        bits it has inside one call on all of them."""
        rng = np.random.default_rng(14)
        x, y = blobs(rng.normal(size=(3, 16)), n=16, spread=0.8, seed=15)
        fits = {"SVM": fit_svm, "KNN": fit_knn, "GNB": fit_gnb,
                "RF": lambda x, y: fit_rf(x, y, seed=0),
                "GBT": lambda x, y: fit_gbt([x], [y])[0]}
        clf = fits[kind](x, y)
        q = np.concatenate([x, rng.normal(size=(2000 - len(x), 16))])
        alone = np.concatenate([predict_proba(clf, row[None]) for row in q])
        assert np.array_equal(alone.view(np.int64), predict_proba(clf, q).view(np.int64))

    def test_persistence_roundtrip(self, fitted, tmp_path):
        x, _, models = fitted
        q = np.random.default_rng(13).normal(size=(6, 2))
        for kind, clf in models.items():
            path = tmp_path / f"{kind}.bin"
            save_classifier(clf, path)
            back = load_classifier(path)
            assert back.kind == kind
            assert np.array_equal(predict_proba(back, q), predict_proba(clf, q))

    # a saved classifier of the named kind, less these header fields or arrays
    FILE_FAULTS = {"SVM-no-kind": ("kind",), "GNB-no-n_classes": ("n_classes",),
                   "SVM-no-arrays": ("w", "b"), "KNN-no-y": ("y",), "GNB-no-var": ("var",)}

    @pytest.mark.parametrize("fault", sorted(FILE_FAULTS))
    def test_malformed_file_rejected(self, fitted, tmp_path, fault):
        """A header without a field, or a file without an array its kind
        predicts with, is an integrity error at load, not a KeyError at load
        or at predict."""
        path = tmp_path / "clf.bin"
        save_classifier(fitted[2][fault.split("-")[0]], path)
        header, values = unpack(path.read_bytes(), CLASSIFIER_MAGIC, "classifier")
        drop = self.FILE_FAULTS[fault]
        keep = [i for i, rec in enumerate(header["arrays"]) if rec["name"] not in drop]
        header = {n: x for n, x in header.items() if n not in drop}
        header["arrays"] = [header["arrays"][i] for i in keep]
        path.write_bytes(pack(CLASSIFIER_MAGIC, header, [values[i] for i in keep]))
        with pytest.raises(IntegrityError):
            load_classifier(path)

    @pytest.mark.parametrize("kind", ["KNN", "GBT"])
    def test_prediction_reads_no_meta(self, fitted, tmp_path, kind):
        """`meta` is a record of the fit: prediction reads KNN_K and GBT_ETA,
        so a file whose meta is empty predicts as the original does."""
        _, _, models = fitted
        save_classifier(models[kind], tmp_path / "clf.bin")
        header, arrays = columns(tmp_path / "clf.bin")
        back = load_classifier(repacked(dict(header, meta={}), arrays, tmp_path / "bare.bin"))
        q = np.random.default_rng(13).normal(size=(6, 2))
        assert np.array_equal(predict_proba(back, q), predict_proba(models[kind], q))

    @pytest.mark.parametrize("fault", ["KNN-no-meta", "GBT-no-meta"])
    def test_header_without_meta_loads(self, fitted, tmp_path, fault):
        """Nothing reads `meta` back, so a header that has none loads, and
        predicts as the original does."""
        model = fitted[2][fault.split("-")[0]]
        save_classifier(model, tmp_path / "clf.bin")
        header, arrays = columns(tmp_path / "clf.bin")
        no_meta = {n: x for n, x in header.items() if n != "meta"}
        back = load_classifier(repacked(no_meta, arrays, tmp_path / "bare.bin"))
        q = np.random.default_rng(13).normal(size=(6, 2))
        assert np.array_equal(predict_proba(back, q), predict_proba(model, q))

    # one array of a saved classifier of the named kind (3 classes, 2
    # features), edited so that its shape disagrees with another array or
    # the class count, or its labels are not classes
    SHAPE_FAULTS = {
        "SVM-short-b": ("b", lambda a: a[:-1]),
        "SVM-w-row-per-extra-class": ("w", lambda a: np.concatenate([a, a[:1]])),
        "GNB-short-priors": ("priors", lambda a: a[:-1]),
        "GNB-var-extra-feature": ("var", lambda a: np.concatenate([a, a[:, :1]], axis=1)),
        "GNB-theta-vector": ("theta", lambda a: a[0]),
        "KNN-short-y": ("y", lambda a: a[:-1]),
        "KNN-label-7": ("y", lambda a: np.append(a[:-1], 7.0)),
        "KNN-fractional-label": ("y", lambda a: np.append(a[:-1], 0.5)),
        "KNN-negative-label": ("y", lambda a: np.append(a[:-1], -1.0)),
    }

    @pytest.mark.parametrize("fault", sorted(SHAPE_FAULTS))
    def test_shape_fault_rejected(self, fitted, tmp_path, fault):
        """Shapes or labels prediction would fail on, or index wrongly by,
        are an integrity error at load."""
        save_classifier(fitted[2][fault.split("-")[0]], tmp_path / "clf.bin")
        header, arrays = columns(tmp_path / "clf.bin")
        load_classifier(repacked(header, arrays, tmp_path / "ok.bin"))
        name, edit = self.SHAPE_FAULTS[fault]
        arrays[name] = edit(arrays[name])
        with pytest.raises(IntegrityError):
            load_classifier(repacked(header, arrays, tmp_path / "bad.bin"))

    @pytest.mark.parametrize("n_classes", [0, 2.5, "3", True, False])
    def test_class_count_not_whole_rejected(self, fitted, tmp_path, n_classes):
        save_classifier(fitted[2]["KNN"], tmp_path / "clf.bin")
        header, arrays = columns(tmp_path / "clf.bin")
        with pytest.raises(IntegrityError):
            load_classifier(repacked(dict(header, n_classes=n_classes), arrays,
                                     tmp_path / "bad.bin"))


class TestForestFiles:
    """A forest file loads only if every walk stays in its own tree and ends."""

    @pytest.fixture(scope="class", params=["RF", "GBT"])
    def saved(self, request, tmp_path_factory):
        x, y = blobs([(-2, 0), (2, 0), (0, 3)], n=8, spread=1.5, seed=14)
        with mock.patch.multiple(classifiers, RF_TREES=4, GBT_ROUNDS=2):
            clf = fit_rf(x, y, seed=1) if request.param == "RF" else fit_gbt([x], [y])[0]
        path = tmp_path_factory.mktemp("forest") / "clf.bin"
        save_classifier(clf, path)
        return clf, path

    def test_roundtrip_keeps_bytes_and_table(self, saved, tmp_path):
        clf, path = saved
        back = load_classifier(path)
        for name in ("tree_offsets", "tree_feature", "tree_left", "tree_right"):
            assert back.arrays[name].dtype == np.int64
        for name, arr in clf.arrays.items():
            assert np.array_equal(back.arrays[name], arr), name
        save_classifier(back, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    @staticmethod
    def fault(arrays, name):
        """(column, index, value) of an edit that breaks one rule."""
        offsets, feature = arrays["tree_offsets"], arrays["tree_feature"]
        size0 = int(offsets[1])
        assert size0 >= 3 and feature[0] >= 0  # the first tree's root splits
        leaf = int(np.flatnonzero(feature < 0)[0])
        below = int(np.flatnonzero(feature[1:size0] >= 0)[0]) + 1  # an inner node under the root
        return {
            "offsets-start-past-0": ("tree_offsets", 0, 1.0),
            "offsets-repeat": ("tree_offsets", 1, offsets[2]),
            "offsets-fall": ("tree_offsets", 1, offsets[2] + 1),
            "offsets-end-early": ("tree_offsets", -1, offsets[-1] - 1),
            "offsets-end-late": ("tree_offsets", -1, offsets[-1] + 1),
            "child-in-next-tree": ("tree_right", 0, size0),
            "child-before-tree": ("tree_left", 0, -1),
            "child-is-the-node": ("tree_left", 0, 0),
            "child-above-the-node": ("tree_right", below, 0),
            "leaf-with-left-child": ("tree_left", leaf, leaf + 1),
            "leaf-with-right-child": ("tree_right", leaf, 0),
            "fractional-child": ("tree_left", 0, 1.5),
            "fractional-feature": ("tree_feature", 0, 0.5),
        }[name]

    @pytest.mark.parametrize("fault", [
        "offsets-start-past-0", "offsets-repeat", "offsets-fall", "offsets-end-early",
        "offsets-end-late", "child-in-next-tree", "child-before-tree", "child-is-the-node",
        "child-above-the-node", "leaf-with-left-child", "leaf-with-right-child",
        "fractional-child", "fractional-feature"])
    def test_fault_rejected(self, saved, tmp_path, fault):
        _, path = saved
        header, arrays = columns(path)
        load_classifier(repacked(header, arrays, tmp_path / "ok.bin"))
        column, i, value = self.fault(arrays, fault)
        arrays[column][i] = value
        with pytest.raises(IntegrityError):
            load_classifier(repacked(header, arrays, tmp_path / "bad.bin"))

    @pytest.mark.parametrize("column, edit", [
        ("tree_threshold", lambda a: a[:-1]), ("tree_value", lambda a: a[:, :0]),
        ("tree_left", lambda a: a[:, None]), ("tree_offsets", lambda a: a[None])],
        ids=["threshold-short", "value-no-width", "left-matrix", "offsets-matrix"])
    def test_column_shape_rejected(self, saved, tmp_path, column, edit):
        """Columns of one row per node, values as wide as the kind's, and
        vectors where the walk reads vectors."""
        _, path = saved
        header, arrays = columns(path)
        arrays[column] = edit(arrays[column])
        with pytest.raises(IntegrityError, match=column):
            load_classifier(repacked(header, arrays, tmp_path / "bad.bin"))

    def test_missing_column_and_empty_forest_rejected(self, saved, tmp_path):
        clf, path = saved
        header, arrays = columns(path)
        for drop in ("tree_offsets", "tree_value"):
            kept = {k: a for k, a in arrays.items() if k != drop}
            with pytest.raises(IntegrityError, match=drop):
                load_classifier(repacked(header, kept, tmp_path / "bad.bin"))
        empty = {k: a[:0] for k, a in arrays.items()}
        empty["tree_offsets"] = np.zeros(1)
        with pytest.raises(IntegrityError):
            load_classifier(repacked(header, empty, tmp_path / "bad.bin"))
        if clf.kind == "GBT":  # one class tree short of a round
            k = clf.n_classes
            cut = int(arrays["tree_offsets"][-2])
            short = {n: a[:cut] for n, a in arrays.items() if n != "tree_offsets"}
            short["tree_offsets"] = arrays["tree_offsets"][:-1]
            assert (len(short["tree_offsets"]) - 1) % k
            with pytest.raises(IntegrityError, match="round"):
                load_classifier(repacked(header, short, tmp_path / "bad.bin"))
