import numpy as np
import pytest

from enfuse.data import (
    LabeledImageSet,
    box_blur,
    hflip,
    make_synthetic_task,
    pnm_bytes,
    resize_bilinear,
    rotate,
    stratified_split,
    vflip,
    zoom,
)


class TestPnmIO:
    def test_pixel_scaling(self):
        header, pixels = pnm_bytes(np.full((1, 1, 3), 128 / 255)).split(b"\n255\n", 1)
        assert header == b"P6\n1 1"
        assert list(np.frombuffer(pixels, dtype=np.uint8)) == [128, 128, 128]


class TestStratifiedSplit:
    def _make(self, counts, seed=0):
        images, labels = [], []
        for c, n in enumerate(counts):
            for _ in range(n):
                images.append(np.full((4, 4, 1), c / 10))
                labels.append(c)
        return LabeledImageSet(np.stack(images), np.array(labels), [str(c) for c in range(len(counts))])

    def test_exact_8_2(self):
        ds = self._make([5, 5])
        train, test = stratified_split(ds, 0.8, seed=1)
        assert list(train.class_counts()) == [4, 4]
        assert list(test.class_counts()) == [1, 1]

    def test_deterministic(self):
        ds = self._make([10, 6])
        a1, b1 = stratified_split(ds, 0.8, seed=5)
        a2, b2 = stratified_split(ds, 0.8, seed=5)
        assert np.array_equal(a1.images, a2.images)
        assert np.array_equal(b1.labels, b2.labels)

    def test_60_40(self):
        ds = self._make([60, 40])
        train, test = stratified_split(ds, 0.8, seed=3)
        counts = train.class_counts()
        assert abs(counts[0] - 48) <= 1 and abs(counts[1] - 32) <= 1
        assert len(train) + len(test) == 100

    def test_partition(self):
        rng = np.random.default_rng(9)
        images = rng.random((30, 4, 4, 1))
        ds = LabeledImageSet(images, rng.integers(0, 3, 30), ["a", "b", "c"])
        if np.any(ds.class_counts() < 2):
            pytest.skip("degenerate draw")
        train, test = stratified_split(ds, 0.8, seed=0)
        seen = np.concatenate([train.images, test.images]).reshape(len(ds), -1)
        orig = images.reshape(len(ds), -1)
        # every original row appears exactly once across the union
        assert sorted(map(tuple, seen)) == sorted(map(tuple, orig))

    def test_empty_train_side(self):
        ds = self._make([2, 2])
        train, test = stratified_split(ds, 0.1, seed=0)
        assert len(train) == 0 and train.images.shape == (0, 4, 4, 1)
        assert list(test.class_counts()) == [2, 2]


class TestTransforms:
    def test_flip_involution(self):
        rng = np.random.default_rng(4)
        imgs = rng.random((2, 7, 5, 3))
        assert np.array_equal(hflip(hflip(imgs)), imgs)
        assert np.array_equal(vflip(vflip(imgs)), imgs)

    def test_identity_transforms(self):
        rng = np.random.default_rng(4)
        imgs = rng.random((2, 9, 9, 3))
        assert np.max(np.abs(rotate(imgs, np.zeros(2)) - imgs)) < 1e-6
        assert np.max(np.abs(zoom(imgs, np.ones(2)) - imgs)) < 1e-6

    def test_blur_preserves_interior_mean(self):
        rng = np.random.default_rng(6)
        img = rng.random((32, 32, 1))
        blurred = box_blur(img[None], 3)[0]
        # interior away from the clamped border: each output is a true local mean
        inner = slice(4, 28)
        assert abs(blurred[inner, inner].mean() - _true_local_mean(img)[inner, inner].mean()) < 1e-6

    def test_resize_identity(self):
        rng = np.random.default_rng(8)
        img = rng.random((6, 6, 3))
        assert np.array_equal(resize_bilinear(img, (6, 6)), img)


def _true_local_mean(img):
    out = np.zeros_like(img)
    h, w, _ = img.shape
    padded = np.pad(img, ((1, 1), (1, 1), (0, 0)), mode="edge")
    for dy in range(3):
        for dx in range(3):
            out += padded[dy:dy + h, dx:dx + w]
    return out / 9.0


class TestSyntheticTask:
    def test_counts(self):
        ds = make_synthetic_task("shapes3", 10, (16, 16), 0.0, seed=0)
        assert len(ds) == 30
        assert ds.n_classes == 3
        assert ds.images.shape == (30, 16, 16, 3)

    def test_deterministic(self):
        a = make_synthetic_task("shapes4", 5, (16, 16), 0.05, seed=42)
        b = make_synthetic_task("shapes4", 5, (16, 16), 0.05, seed=42)
        assert np.array_equal(a.images, b.images)

    def test_nearest_centroid_separates(self):
        ds = make_synthetic_task("shapes3", 10, (16, 16), 0.0, seed=1)
        flat = ds.images.reshape(len(ds), -1)
        centroids = np.stack([flat[ds.labels == c].mean(axis=0) for c in range(3)])
        pred = np.argmin(
            ((flat[:, None, :] - centroids[None]) ** 2).sum(axis=2), axis=1)
        assert np.array_equal(pred, ds.labels)

    def test_param_shift_changes_images(self):
        a = make_synthetic_task("shapes3", 3, (16, 16), 0.0, seed=7)
        b = make_synthetic_task("shapes3", 3, (16, 16), 0.0, seed=7, param_shift=0.05)
        assert not np.array_equal(a.images, b.images)
