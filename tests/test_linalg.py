"""The linear algebra of fusion: standardization, the symmetric
eigendecomposition and PCA whitening."""

import numpy as np
import pytest

from enfuse.errors import EnfuseError
from enfuse.features import FeatureMatrix
from enfuse.fusion import eigh_symmetric, fit_ica, standardize, whiten


class TestEighSymmetric:
    def test_diagonal(self):
        vals, vecs = eigh_symmetric(np.array([[2.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(vals, [2.0, 1.0])
        assert np.allclose(np.abs(vecs), np.eye(2))

    def test_exchange_matrix(self):
        vals, vecs = eigh_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(vals, [1.0, -1.0])
        s = 1 / np.sqrt(2)
        assert np.allclose(np.abs(vecs[:, 0]), [s, s])
        assert np.allclose(np.abs(vecs[:, 1]), [s, s])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 6))
        a = a + a.T
        vals, vecs = eigh_symmetric(a)
        recon = vecs @ np.diag(vals) @ vecs.T
        assert np.linalg.norm(recon - a) / np.linalg.norm(a) < 1e-8

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_orthonormality_and_order(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        a = a + a.T
        vals, vecs = eigh_symmetric(a)
        assert np.linalg.norm(vecs.T @ vecs - np.eye(n)) < 1e-9
        assert np.all(np.diff(vals) <= 1e-12)

    def test_sign_convention(self):
        _, vecs = eigh_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
        for j in range(2):
            col = vecs[:, j]
            assert col[np.argmax(np.abs(col))] > 0


class TestStandardize:
    def test_two_point_column(self):
        out, _, _ = standardize(np.array([[1.0], [3.0]]))
        assert np.allclose(out.ravel(), [-1.0, 1.0])

    def test_constant_column(self):
        out, mean, std = standardize(np.array([[5.0], [5.0], [5.0]]))
        assert np.all(out == 0.0)
        assert std[0] == 1.0

    def test_moments(self):
        rng = np.random.default_rng(3)
        x = rng.normal(2.0, 5.0, size=(20, 4))
        out, _, _ = standardize(x)
        assert np.all(np.abs(out.mean(axis=0)) < 1e-10)
        assert np.allclose(out.std(axis=0), 1.0)


class TestWhiten:
    def test_correlated_data(self):
        rng = np.random.default_rng(11)
        cov = np.array([[1.0, 0.9], [0.9, 1.0]])
        x = rng.multivariate_normal([0, 0], cov, size=500)
        x -= x.mean(axis=0)
        w, _ = whiten(x, 2)
        sample_cov = w.T @ w / (len(w) - 1)
        assert np.linalg.norm(sample_cov - np.eye(2)) < 1e-6

    def test_k1_unit_variance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 2))
        x -= x.mean(axis=0)
        w, _ = whiten(x, 1)
        assert w.shape == (40, 1)
        assert np.isclose(w.var(ddof=1), 1.0)

    def test_already_white(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2000, 2))
        x -= x.mean(axis=0)
        w, wm = whiten(x, 2)
        assert np.linalg.norm(w.T @ w / (len(w) - 1) - np.eye(2)) < 1e-6
        # whitening matrix of near-white data is near-orthogonal
        assert np.linalg.norm(wm @ wm.T - np.eye(2)) < 0.2

    def test_rank_deficient_keeps_fewer_components(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(30, 2))
        x = np.concatenate([base, base.sum(axis=1, keepdims=True)], axis=1)
        x -= x.mean(axis=0)
        w, wm = whiten(x, 3)
        assert w.shape == (30, 2) and wm.shape == (2, 3)
        assert np.linalg.norm(w.T @ w / (len(w) - 1) - np.eye(2)) < 1e-6
        with pytest.raises(EnfuseError, match="rank 0"):
            whiten(np.zeros((5, 2)), 1)

    def test_k_too_large(self):
        """A k above the rank keeps the rank's components: whiten has no
        range check of its own, and fit_ica warns as it reduces k."""
        x = np.random.default_rng(6).normal(size=(5, 2))
        x -= x.mean(axis=0)
        w, wm = whiten(x, 3)
        assert w.shape == (5, 2) and wm.shape == (2, 2)
        with pytest.raises(EnfuseError, match="rank 0"):
            whiten(np.zeros((5, 2)), 3)
        with pytest.warns(UserWarning, match="rank 2 below requested k=3"):
            t = fit_ica(FeatureMatrix(x, labels=np.zeros(5, dtype=int)), 3, seed=0)
        assert t.components.shape == (2, 2)
