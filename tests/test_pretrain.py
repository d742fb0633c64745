import numpy as np
import pytest

from enfuse.data import make_synthetic_task, stratified_split
from enfuse.nn import EncoderModel, images_to_batch
from enfuse.pretrain import (
    build_backbone,
    extract_features,
    finetune_intermediate_tl,
    finetune_target_ssl,
    finetune_target_tl,
    pretrain_generic,
    pretrain_ssl,
)

SIZE = (16, 16)
FAST = dict(epochs=30, batch=8, lr=0.01)
SSL = dict(temperature=0.5, blur_kernel=3)


@pytest.fixture(scope="module")
def datasets():
    return {
        "generic": make_synthetic_task("generic", 15, SIZE, 0.0, seed=100),
        "inter": make_synthetic_task("shapes3", 15, SIZE, 0.03, seed=101),
        "target": make_synthetic_task("shapes3", 15, SIZE, 0.02, seed=102, param_shift=0.04),
    }


@pytest.fixture(scope="module")
def generic_model(datasets):
    return pretrain_generic("A", datasets["generic"], seed=1, **FAST)


@pytest.fixture(scope="module")
def tl_model(generic_model, datasets):
    import copy

    model = copy.deepcopy(generic_model)
    model = finetune_intermediate_tl(model, datasets["inter"], seed=2, **FAST)
    return finetune_target_tl(model, datasets["target"], seed=3, **FAST)


@pytest.fixture(scope="module")
def ssl_model(datasets):
    model = pretrain_ssl("A", datasets["inter"], batch_pairs=16, **SSL, epochs=8, seed=4, lr=0.01)
    return finetune_target_ssl(model, datasets["target"], seed=5, **FAST)


class TestBackbones:
    def test_variants_differ_in_depth(self):
        rng = np.random.default_rng(0)
        lengths = {v: len(build_backbone(v, rng)) for v in "ABC"}
        assert len(set(lengths.values())) == 3

    def test_feature_dims(self):
        rng = np.random.default_rng(0)
        assert EncoderModel(build_backbone("A", rng)).feature_dim == 16
        assert EncoderModel(build_backbone("C", rng)).feature_dim == 24


class TestPretrainGeneric:
    def test_converges_and_drops_head(self, generic_model, datasets):
        assert generic_model.head == []
        assert generic_model.meta["stage"] == "generic"
        assert generic_model.meta["train_log"][-1] < generic_model.meta["train_log"][0]

    def test_seed_determinism(self, datasets):
        a = pretrain_generic("A", datasets["generic"], epochs=2, batch=8, seed=9, lr=0.001)
        b = pretrain_generic("A", datasets["generic"], epochs=2, batch=8, seed=9, lr=0.001)
        for k, v in a.named_parameters().items():
            assert np.array_equal(v, b.named_parameters()[k])


class TestTransferPath:
    def test_first_block_frozen_in_intermediate(self, generic_model, datasets):
        import copy

        model = copy.deepcopy(generic_model)
        frozen = model.backbone[0].params["w"].copy()
        finetune_intermediate_tl(model, datasets["inter"], epochs=3, batch=32, seed=2,
                                 lr=0.001)
        assert np.array_equal(model.backbone[0].params["w"], frozen)
        assert model.meta["stage"] == "intermediate"

    def test_intermediate_accuracy(self, generic_model, datasets):
        import copy

        from enfuse.nn import accuracy

        model = copy.deepcopy(generic_model)
        train, test = stratified_split(datasets["inter"], 0.8, seed=7)
        finetune_intermediate_tl(model, train, seed=2, **FAST)
        assert accuracy(model, test) >= 0.9

    def test_target_freezes_all_but_last_conv_block(self, tl_model):
        # variant A: layers 0..2 are the first block, last conv starts at 3
        assert tl_model.backbone[0].trainable is False
        assert tl_model.backbone[3].trainable is True

    def test_target_head_layout(self, tl_model):
        kinds = [type(l).__name__ for l in tl_model.head]
        assert kinds == ["GlobalAvgPool", "Flatten", "Dense", "ReLU",
                        "Dense", "ReLU", "Dense", "Dropout", "Softmax"]
        assert tl_model.head[-2].rate == 0.3

    def test_target_training_accuracy(self, tl_model, datasets):
        from enfuse.nn import accuracy

        assert accuracy(tl_model, datasets["target"]) == 1.0


class TestContrastivePath:
    def test_loss_decreases(self, datasets):
        model = pretrain_ssl("B", datasets["inter"], batch_pairs=16, **SSL, epochs=5, seed=6,
                             lr=0.005)
        log = model.meta["train_log"]
        assert all(b < a for a, b in zip(log, log[1:]))

    def test_projection_dim_128(self, datasets):
        model = pretrain_ssl("A", datasets["inter"], batch_pairs=8, **SSL, epochs=1, seed=6,
                             lr=0.001)
        z = model.forward(images_to_batch(datasets["inter"].images[:4]))
        assert z.shape[1] == 128

    def test_views_more_similar_after_training(self, datasets):
        from enfuse.data import random_transform

        before = pretrain_ssl("A", datasets["inter"], batch_pairs=16, **SSL, epochs=0, seed=8,
                              lr=0.001)
        after = pretrain_ssl("A", datasets["inter"], batch_pairs=16, **SSL, epochs=8, seed=8,
                             lr=0.01)

        def mean_pair_sim(model):
            rng = np.random.default_rng(0)
            sims = []
            for img in datasets["inter"].images[:12]:
                views = random_transform(np.stack([img, img]), 3, rng)
                z = model.forward(images_to_batch(views))
                sims.append(z[0] @ z[1] / (np.linalg.norm(z[0]) * np.linalg.norm(z[1])))
            return np.mean(sims)

        assert mean_pair_sim(after) > mean_pair_sim(before)

    def test_backbone_frozen_in_finetune(self, ssl_model):
        assert all(not l.trainable for l in ssl_model.backbone)
        assert ssl_model.meta["stage"] == "target"

    def test_predictions_are_distributions(self, ssl_model, datasets):
        probs = ssl_model.forward(images_to_batch(datasets["target"].images[:8]))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_finetuned_accuracy(self, ssl_model, datasets):
        from enfuse.nn import accuracy

        assert accuracy(ssl_model, datasets["target"]) >= 0.95

    def test_tl_and_ssl_weights_differ(self, tl_model, ssl_model):
        wa = tl_model.backbone[0].params["w"]
        wb = ssl_model.backbone[0].params["w"]
        assert not np.array_equal(wa, wb)


class TestExtractFeatures:
    def test_shape_and_determinism(self, tl_model, datasets):
        fm = extract_features(tl_model, datasets["target"])
        assert fm.data.shape == (len(datasets["target"]), tl_model.feature_dim)
        fm2 = extract_features(tl_model, datasets["target"])
        assert np.array_equal(fm.data, fm2.data)
        assert np.array_equal(fm.labels, datasets["target"].labels)

    def test_class_separation(self, tl_model, datasets):
        fm = extract_features(tl_model, datasets["target"])
        x, y = fm.data, fm.labels
        centroids = np.stack([x[y == c].mean(axis=0) for c in range(3)])
        intra = np.mean([np.linalg.norm(x[i] - centroids[y[i]]) for i in range(len(x))])
        inter = np.mean([np.linalg.norm(centroids[a] - centroids[b])
                         for a in range(3) for b in range(a + 1, 3)])
        assert inter > intra
