import numpy as np
import pytest

from enfuse import artifact
from enfuse.artifact import pack, unpack
from enfuse.errors import EnfuseError, IntegrityError
from enfuse.features import FeatureMatrix
from enfuse.fusion import (
    DEFAULT_ICA_DIM,
    TRANSFORM_MAGIC,
    apply_transform,
    concat_features,
    fit_ica,
    fit_pca,
    fuse_pipeline,
    load_transform,
    max_components,
    save_transform,
)


def fm(data, labels=None):
    """A feature matrix whose rows are all in class 0 unless `labels` are given."""
    data = np.asarray(data, dtype=float)
    return FeatureMatrix(data, labels=np.zeros(len(data), dtype=int) if labels is None else labels)


class TestConcat:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        fused = concat_features([fm(rng.random((6, 3))), fm(rng.random((6, 5)))])
        assert fused.data.shape == (6, 8)

    def test_single_part_identity(self):
        rng = np.random.default_rng(1)
        x = rng.random((4, 3))
        fused = concat_features([fm(x)])
        assert np.array_equal(fused.data, x)


class TestPca:
    def test_diagonal_line(self):
        t_vals = np.linspace(-1, 1, 20)
        x = fm(np.stack([t_vals, t_vals], axis=1) + 0.001 * np.random.default_rng(0).normal(size=(20, 2)))
        t = fit_pca(x, 1)
        direction = t.components[:, 0]
        assert abs(abs(direction @ np.array([1, 1]) / np.sqrt(2)) - 1) < 1e-2

    def test_uncorrelated_output(self):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(50, 5)) @ rng.normal(size=(5, 5))
        t = fit_pca(fm(raw), 4)
        out = apply_transform(t, fm(raw)).data
        corr = np.corrcoef(out.T)
        off = corr - np.diag(np.diag(corr))
        assert np.max(np.abs(off)) < 1e-8

    def test_full_rank_pca_is_isometry(self):
        rng = np.random.default_rng(6)
        raw = rng.normal(size=(20, 4))
        t = fit_pca(fm(raw), 4)
        out = apply_transform(t, fm(raw)).data
        scaled = (raw - t.mean) / t.std
        d_in = np.linalg.norm(scaled[:, None] - scaled[None], axis=2)
        d_out = np.linalg.norm(out[:, None] - out[None], axis=2)
        assert np.max(np.abs(d_in - d_out)) < 1e-8


class TestIca:
    def _mixed_sources(self, n=2000, seed=0):
        rng = np.random.default_rng(seed)
        t_axis = np.linspace(0, 40, n)
        s1 = np.sin(t_axis)
        s2 = rng.uniform(-1, 1, n)
        sources = np.stack([s1, s2], axis=1)
        mixing = np.array([[1.0, 0.5], [0.5, 1.0]])
        return sources, sources @ mixing.T

    def test_source_recovery(self):
        sources, mixed = self._mixed_sources()
        t = fit_ica(fm(mixed), 2, seed=1)
        recovered = apply_transform(t, fm(mixed)).data
        corr = np.abs(np.corrcoef(recovered.T, sources.T)[:2, 2:])
        # best assignment up to permutation/sign
        best = max(corr[0, 0] * corr[1, 1], corr[0, 1] * corr[1, 0])
        assert best > 0.99 ** 2
        assert max(min(corr[0, 0], corr[1, 1]), min(corr[0, 1], corr[1, 0])) > 0.99

    def test_unmixing_rows_unit_norm(self):
        _, mixed = self._mixed_sources(seed=2)
        t = fit_ica(fm(mixed), 2, seed=1)
        assert np.allclose(np.linalg.norm(t.unmixing, axis=1), 1.0, atol=1e-9)

    def test_gaussian_degenerate_ok(self):
        rng = np.random.default_rng(7)
        x = fm(rng.normal(size=(500, 3)))
        t = fit_ica(x, 3, seed=0)
        assert t.components.shape == (3, 3)

    def test_component_count(self):
        rng = np.random.default_rng(8)
        x = fm(rng.normal(size=(60, 10)))
        t = fit_ica(x, 4, seed=0)
        assert apply_transform(t, x).data.shape == (60, 4)

    def test_rank_deficient_reduces_k(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=(40, 2))
        x = fm(np.concatenate([base, base @ rng.normal(size=(2, 3))], axis=1))
        with pytest.warns(UserWarning, match="rank"):
            t = fit_ica(x, 4, seed=0)
        assert t.components.shape[1] <= 2

    def test_near_duplicate_column_reduces_k(self):
        """Rank is whitening's: a column that is another plus 1e-8 noise adds
        no component, so the fit warns and keeps 4, as concat+pca runs."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 4))
        x = fm(np.concatenate([x, x[:, :1] + 1e-8 * rng.normal(size=(20, 1))], axis=1))
        with pytest.warns(UserWarning, match="rank 4 below requested k=5"):
            fused, _ = fuse_pipeline([x], method="concat+ica", k=5, seed=0)
        assert fused.data.shape == (20, 4)
        assert fuse_pipeline([x], method="concat+pca", k=5, seed=0)[0].data.shape == (20, 5)


class TestApplyAndPipeline:
    def test_apply_deterministic(self):
        rng = np.random.default_rng(3)
        x = fm(rng.normal(size=(25, 6)))
        t = fit_pca(x, 3)
        a = apply_transform(t, x).data
        b = apply_transform(t, x).data
        assert np.array_equal(a, b)

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        t = fit_pca(fm(rng.normal(size=(10, 4))), 2)
        with pytest.raises(EnfuseError, match="dim mismatch"):
            apply_transform(t, fm(rng.normal(size=(10, 5))))

    def test_pipeline_shapes(self):
        rng = np.random.default_rng(5)
        labels = np.repeat([0, 1, 2], 10)
        parts = [fm(rng.normal(size=(30, 16)), labels=labels) for _ in range(6)]
        fused, t = fuse_pipeline(parts, method="concat+ica", k=0, seed=0)
        assert fused.data.shape == (30, min(29, 128, 96))
        assert t.kind == "ICA"

    @pytest.mark.parametrize("shape, kept", [((10, 40), 9), ((20, 5), 5)])
    def test_automatic_k_is_the_bound(self, shape, kept):
        """k = 0 keeps min(max_components, DEFAULT_ICA_DIM): the rows less one
        of a wide matrix, the columns of a tall one."""
        x = fm(np.random.default_rng(8).normal(size=shape))
        fused, _ = fuse_pipeline([x], method="concat+pca", k=0, seed=0)
        assert max_components(*shape) == kept < DEFAULT_ICA_DIM
        assert fused.data.shape == (shape[0], kept)

    def test_concat_only(self):
        rng = np.random.default_rng(6)
        parts = [fm(rng.normal(size=(10, 4))), fm(rng.normal(size=(10, 6)))]
        fused, t = fuse_pipeline(parts, method="concat-only", k=0, seed=0)
        assert fused.data.shape == (10, 10)
        assert t.kind == "Identity"

    def test_no_test_time_refit(self):
        rng = np.random.default_rng(7)
        train = fm(rng.normal(size=(30, 8)))
        test = fm(rng.normal(loc=3.0, size=(10, 8)))
        t = fit_pca(train, 4)
        fitted = [a.copy() for a in (t.mean, t.std, t.components)]
        out = apply_transform(t, test)
        for before, after in zip(fitted, (t.mean, t.std, t.components)):
            assert np.array_equal(before, after)
        # test rows use the train-fitted mean, so they are far from centered
        assert abs(out.data.mean()) > 0.1

    def test_transform_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        x = fm(rng.normal(size=(20, 5)))
        t = fit_pca(x, 3)
        save_transform(t, tmp_path / "t.bin")
        back = load_transform(tmp_path / "t.bin")
        assert back.kind == "PCA"
        assert np.array_equal(back.components, t.components)
        assert np.array_equal(apply_transform(back, x).data, apply_transform(t, x).data)

    def test_transform_with_explained_variance_ratio_loads(self, tmp_path):
        """A PCA transform saved with the explained-variance ratio `evr` (k,),
        as earlier versions wrote it, loads and applies as one saved without."""
        rng = np.random.default_rng(8)
        x = fm(rng.normal(size=(20, 5)))
        t = fit_pca(x, 3)
        save_transform(t, tmp_path / "new.bin")
        artifact.save(tmp_path / "old.bin", TRANSFORM_MAGIC, {"kind": "PCA"},
                      {"components": t.components, "evr": np.full(3, 0.2),
                       "mean": t.mean, "std": t.std})
        old, new = load_transform(tmp_path / "old.bin"), load_transform(tmp_path / "new.bin")
        assert old.kind == new.kind == "PCA"
        assert apply_transform(old, x).data.tobytes() == apply_transform(new, x).data.tobytes()

    @pytest.mark.parametrize("drop", ["kind", "mean"])
    def test_malformed_file_rejected(self, tmp_path, drop):
        """A header without the kind, or a file without an array the
        transform applies, is an integrity error, not a KeyError."""
        path = tmp_path / "t.bin"
        save_transform(fit_pca(fm(np.random.default_rng(8).normal(size=(20, 5))), 3), path)
        header, values = unpack(path.read_bytes(), TRANSFORM_MAGIC, "transform")
        keep = [i for i, rec in enumerate(header["arrays"]) if rec["name"] != drop]
        header = {n: x for n, x in header.items() if n != drop}
        header["arrays"] = [header["arrays"][i] for i in keep]
        path.write_bytes(pack(TRANSFORM_MAGIC, header, [values[i] for i in keep]))
        with pytest.raises(IntegrityError):
            load_transform(path)

    # one array of a saved PCA transform of 4 columns to 3 components, edited
    # so that its shape disagrees with the others
    SHAPE_FAULTS = {"std-short": ("std", lambda a: a[:2]),
                    "mean-long": ("mean", lambda a: np.append(a, 0.0)),
                    "mean-matrix": ("mean", lambda a: a[None]),
                    "components-vector": ("components", lambda a: a[:, 0]),
                    "components-short": ("components", lambda a: a[:-1])}

    @pytest.mark.parametrize("fault", sorted(SHAPE_FAULTS))
    def test_shape_fault_rejected(self, tmp_path, fault):
        """Shapes `apply_transform` would fail on are an integrity error at load."""
        path = tmp_path / "t.bin"
        save_transform(fit_pca(fm(np.random.default_rng(8).normal(size=(20, 4))), 3), path)
        header, values = unpack(path.read_bytes(), TRANSFORM_MAGIC, "transform")
        load_transform(path)
        name, edit = self.SHAPE_FAULTS[fault]
        i = [rec["name"] for rec in header["arrays"]].index(name)
        values[i] = edit(values[i])
        header["arrays"][i]["shape"] = list(values[i].shape)
        path.write_bytes(pack(TRANSFORM_MAGIC, header, values))
        with pytest.raises(IntegrityError):
            load_transform(path)
