import itertools
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from test_oracles import classifier_output, shap_exact

from enfuse.classifiers import fit_gnb
from enfuse.errors import EnfuseError
from enfuse.explain import (
    grad_cam,
    render_confusion_svg,
    render_embedding_svg,
    render_saliency_ppm,
    select_background,
    shap_csv,
    shap_sampled,
    tsne_embed,
)
from enfuse.features import FeatureMatrix
from enfuse.nn import Conv2d, Dense, EncoderModel, Flatten, GlobalAvgPool
from enfuse.pretrain import build_backbone, make_classification_head


def tiny_conv_model(seed=0, n_classes=2, channels=4, size=8):
    rng = np.random.default_rng(seed)
    backbone = [Conv2d(3, channels, 3, rng)]
    head = [GlobalAvgPool(), Flatten(), Dense(channels, n_classes, rng)]
    return EncoderModel(backbone, head)


class TestGradCam:
    def test_peak_follows_bright_region(self):
        model = tiny_conv_model(seed=1)
        image = np.zeros((8, 8, 3))
        image[:4, :4] = 1.0  # bright top-left quadrant
        sal = grad_cam(model, image, target_class=0)
        peak = np.unravel_index(np.argmax(sal), sal.shape)
        assert peak[0] < 4 and peak[1] < 4

    def test_values_in_unit_interval(self):
        model = tiny_conv_model(seed=2)
        image = np.random.default_rng(0).random((8, 8, 3))
        sal = grad_cam(model, image, target_class=1)
        assert np.all(sal >= 0) and np.all(sal <= 1)
        assert sal.max() == pytest.approx(1.0)

    def test_zero_gradient_stays_zero(self):
        model = tiny_conv_model(seed=3)
        dense = model.head[-1]
        dense.params["w"][:, 1] = 0.0  # class-1 score ignores the features
        dense.params["b"][1] = 0.0
        image = np.random.default_rng(1).random((8, 8, 3))
        sal = grad_cam(model, image, target_class=1)
        assert np.all(sal == 0.0)

    def test_shape_matches_image(self):
        model = tiny_conv_model(seed=4)
        sal = grad_cam(model, np.random.default_rng(2).random((8, 8, 3)), 0)
        assert sal.shape == (8, 8)

    def test_score_shift_invariance(self):
        import copy

        model = tiny_conv_model(seed=5)
        image = np.random.default_rng(3).random((8, 8, 3))
        before = grad_cam(model, image, 0)
        shifted = copy.deepcopy(model)
        shifted.head[-1].params["b"] += 7.5  # constant added to every class score
        after = grad_cam(shifted, image, 0)
        assert np.allclose(before, after, atol=1e-12)

    def test_each_conv_runs_once_per_image(self, monkeypatch):
        rng = np.random.default_rng(6)
        model = EncoderModel(build_backbone("C", rng),
                             make_classification_head(24, 3, rng))
        convs = [layer for layer in model.layers if isinstance(layer, Conv2d)]
        calls = []
        forward = Conv2d.forward

        def counted(layer, x, training=False, keep_cache=False):
            calls.append(layer)
            return forward(layer, x, training, keep_cache)

        monkeypatch.setattr(Conv2d, "forward", counted)
        for cls, image in enumerate(rng.random((3, 16, 16, 3))):
            grad_cam(model, image, cls)
        assert calls == convs * 3


class TestShapExact:
    def test_additive_model(self):
        phi, base, _ = shap_exact(lambda x: x[:, 0] + x[:, 1], np.array([2.0, 3.0]),
                                  np.zeros((1, 2)))
        assert np.allclose(phi, [2.0, 3.0], atol=1e-12)
        assert base == 0.0

    def test_symmetry(self):
        phi, _, _ = shap_exact(lambda x: x[:, 0] * x[:, 1], np.array([1.0, 1.0]),
                               np.zeros((1, 2)))
        assert abs(phi[0] - 0.5) < 1e-12
        assert abs(phi[0] - phi[1]) < 1e-12

    def test_null_feature_zero(self):
        phi, _, _ = shap_exact(lambda x: x[:, 0] ** 2, np.array([2.0, 5.0]),
                               np.zeros((1, 2)))
        assert phi[1] == 0.0

    def test_local_accuracy(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=6)

        def f(x):
            return np.tanh(x @ w) + 0.2 * x[:, 0] * x[:, 2]

        instance = rng.normal(size=6)
        background = rng.normal(size=(20, 6))
        phi, base, output = shap_exact(f, instance, background)
        assert abs(base + phi.sum() - output) < 1e-9

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(4, 4))

        def f(x):
            return np.sum((x @ w) ** 2, axis=1)

        instance = rng.normal(size=4)
        bg = rng.normal(size=(8, 4))
        bg_mean = bg.mean(axis=0)
        phi, _, _ = shap_exact(f, instance, bg)
        # independent enumeration over all 24 orderings
        oracle = np.zeros(4)
        for perm in itertools.permutations(range(4)):
            x = bg_mean.copy()
            prev = f(x[None])[0]
            for feat in perm:
                x[feat] = instance[feat]
                cur = f(x[None])[0]
                oracle[feat] += cur - prev
                prev = cur
        oracle /= math.factorial(4)
        assert np.allclose(phi, oracle, atol=1e-12)

    def test_dimension_limit(self):
        with pytest.raises(EnfuseError, match="16 features exceeds the exact limit"):
            shap_exact(lambda x: x[:, 0], np.zeros(16), np.zeros((1, 16)))

    def test_classifier_target(self):
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.normal(-2, 0.5, (15, 3)), rng.normal(2, 0.5, (15, 3))])
        y = np.array([0] * 15 + [1] * 15)
        clf = fit_gnb(x, y)
        phi, base, output = shap_exact(classifier_output(clf, x[0]), x[0], x)
        assert abs(base + phi.sum() - output) < 1e-9
        assert output > 0.9  # confident on its own training point


class TestShapSampled:
    def test_agrees_with_exact(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.normal(-1, 0.6, (20, 8)), rng.normal(1, 0.6, (20, 8))])
        y = np.array([0] * 20 + [1] * 20)
        clf = fit_gnb(x, y)
        instance = x[3]
        f = classifier_output(clf, instance)
        exact, _, _ = shap_exact(f, instance, x)
        sampled, _, _ = shap_sampled(f, instance, x, n_samples=2048, seed=0)
        assert np.max(np.abs(exact - sampled)) < 0.05

    def test_local_accuracy_exact_by_construction(self):
        rng = np.random.default_rng(8)
        f = lambda x: np.sin(x).sum(axis=1)
        phi, base, output = shap_sampled(f, rng.normal(size=20), rng.normal(size=(10, 20)),
                                         n_samples=200, seed=1)
        assert abs(base + phi.sum() - output) < 1e-12

    def test_seed_determinism(self):
        rng = np.random.default_rng(9)
        f = lambda x: (x ** 2).sum(axis=1)
        inst, bg = rng.normal(size=5), rng.normal(size=(6, 5))
        a, _, _ = shap_sampled(f, inst, bg, n_samples=2048, seed=3)
        b, _, _ = shap_sampled(f, inst, bg, n_samples=2048, seed=3)
        assert np.array_equal(a, b)

    def test_model_calls_do_not_grow_with_samples(self):
        calls = {64: 0, 2048: 0}
        rng = np.random.default_rng(10)
        inst, bg = rng.normal(size=8), rng.normal(size=(4, 8))
        for n_samples in calls:
            def f(x):
                calls[n_samples] += 1
                return x.sum(axis=1)

            shap_sampled(f, inst, bg, n_samples=n_samples, seed=0)
        assert calls[64] == calls[2048]

    def test_explain_workload_evaluates_1568_distinct_coalitions(self):
        """The default `[explain] shap_samples = 2048` over 16 fused features
        at seed 42 is one block of 128 permutations, 2,176 prefixes, of
        which 1,568 are distinct, and f runs once: the block's empty and
        full coalitions are the background mean and the instance."""
        rng = np.random.default_rng(11)
        rows = []

        def f(x):
            rows.append(len(x))
            return x.sum(axis=1)

        shap_sampled(f, rng.normal(size=16), rng.normal(size=(10, 16)),
                     n_samples=2048, seed=42)
        assert rows == [1568]


class TestSelectBackground:
    def test_near_median_and_deterministic(self):
        rng = np.random.default_rng(10)
        fm = FeatureMatrix(rng.normal(size=(50, 4)), labels=np.zeros(50, dtype=int))
        bg = select_background(fm)
        assert bg.shape == (10, 4)
        median = np.median(fm.data, axis=0)
        chosen = np.linalg.norm(bg - median, axis=1).max()
        others = np.linalg.norm(fm.data - median, axis=1)
        assert chosen <= np.sort(others)[9] + 1e-12
        again = select_background(fm)
        assert np.array_equal(bg, again)


class TestTsne:
    def clusters(self, n=60, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.normal(-4, 0.5, size=(n // 2, 10))
        b = rng.normal(4, 0.5, size=(n // 2, 10))
        labels = np.array([0] * (n // 2) + [1] * (n // 2))
        return FeatureMatrix(np.concatenate([a, b]), labels=labels)

    def test_p_matrix_normalization(self):
        from enfuse.explain import _conditional_p

        fm = self.clusters()
        data = fm.data
        sq = np.sum(data * data, axis=1)
        dist_sq = np.maximum(sq[:, None] + sq[None] - 2 * data @ data.T, 0.0)
        cond = _conditional_p(dist_sq, 10.0)
        assert np.allclose(cond.sum(axis=1), 1.0, atol=1e-9)
        joint = (cond + cond.T) / (2 * len(data))
        assert abs(joint.sum() - 1.0) < 1e-9
        assert np.allclose(joint, joint.T)

    def test_separated_clusters_silhouette(self):
        fm = self.clusters()
        y, _, _ = tsne_embed(fm, perplexity=10, iters=500, seed=0)
        labels = fm.labels

        def silhouette():
            scores = []
            for i in range(len(y)):
                same = y[(labels == labels[i])]
                other = y[(labels != labels[i])]
                a = np.mean(np.linalg.norm(same - y[i], axis=1))
                b = np.mean(np.linalg.norm(other - y[i], axis=1))
                scores.append((b - a) / max(a, b))
            return np.mean(scores)

        assert silhouette() > 0.5

    def test_kl_improves_after_exaggeration(self):
        # exaggeration and the momentum switch end at iteration 250 whatever
        # iters is, so both runs share their first 250 iterations
        fm = self.clusters(seed=1)
        _, kl_250, _ = tsne_embed(fm, perplexity=10, iters=250, seed=0)
        _, kl_1000, _ = tsne_embed(fm, perplexity=10, iters=1000, seed=0)
        assert kl_1000 >= 0
        assert kl_1000 < kl_250

    def test_perplexity_autoreduced(self):
        rng = np.random.default_rng(11)
        fm = FeatureMatrix(rng.normal(size=(20, 5)), labels=np.zeros(20, dtype=int))
        with pytest.warns(UserWarning, match="perplexity"):
            tsne_embed(fm, perplexity=30, iters=20, seed=0)

    def test_reduced_perplexity_recorded(self):
        rng = np.random.default_rng(16)
        fm = FeatureMatrix(rng.normal(size=(12, 5)), labels=np.zeros(12, dtype=int))
        with pytest.warns(UserWarning, match="perplexity"):
            coords, kl, perplexity = tsne_embed(fm, perplexity=10, iters=20, seed=0)
        assert perplexity == pytest.approx(11 / 3)
        svg = render_embedding_svg(coords, np.zeros(12, dtype=int), kl, perplexity, ["class 0"])
        assert f"perplexity={11 / 3:.4f}" in svg

    def test_duplicate_rows_survive(self):
        rng = np.random.default_rng(12)
        base = rng.normal(size=(10, 3))
        fm = FeatureMatrix(np.concatenate([base, base[:2]]), labels=np.zeros(12, dtype=int))
        coords, _, _ = tsne_embed(fm, perplexity=3, iters=50, seed=0)
        assert np.all(np.isfinite(coords))


class TestRender:
    def test_saliency_ppm_dimensions(self):
        model = tiny_conv_model(seed=6)
        image = np.random.default_rng(13).random((8, 8, 3))
        sal = grad_cam(model, image, 0)
        header, pixels = render_saliency_ppm(sal, image=image).split(b"\n255\n", 1)
        assert header == b"P6\n8 8"
        back = np.frombuffer(pixels, dtype=np.uint8).reshape(8, 8, 3) / 255
        # red channel carries the saliency peak
        peak = np.unravel_index(np.argmax(sal), sal.shape)
        assert back[peak][0] == 1.0

    def test_svg_scatter_parses(self):
        rng = np.random.default_rng(14)
        root = ET.fromstring(render_embedding_svg(rng.normal(size=(30, 2)), rng.integers(0, 3, 30),
                                                  0.5, 10.0, class_names=["a", "b", "c"]))
        assert root.tag.endswith("svg")

    def test_confusion_svg_parses_and_has_counts(self):
        text = render_confusion_svg(np.array([[5, 1], [2, 7]]), ["a", "b"])
        ET.fromstring(text)
        for value in ("5", "1", "2", "7"):
            assert f">{value}</text>" in text

    def test_byte_identical_rerender(self):
        rng = np.random.default_rng(15)
        embedding = (rng.normal(size=(10, 2)), np.zeros(10, dtype=int), 1.25, 3.0, ["a"])
        assert render_embedding_svg(*embedding) == render_embedding_svg(*embedding)

    def test_shap_csv_rows(self):
        text = shap_csv(*shap_exact(lambda x: x[:, 0] + x[:, 1], np.array([1.0, 2.0]),
                                    np.zeros((1, 2))))
        lines = text.strip().split("\n")
        assert lines[0] == "feature,phi"
        assert len(lines) == 1 + 2 + 2  # header, D rows, base + output
