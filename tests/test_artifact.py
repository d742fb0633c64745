import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from enfuse import artifact, classifiers
from enfuse.classifiers import fit_gbt, load_classifier, save_classifier
from enfuse.cli import save_manifest
from enfuse.errors import IntegrityError
from enfuse.features import FeatureMatrix
from enfuse.fusion import fit_pca, load_transform, save_transform
from enfuse.nn import Conv2d, Dense, EncoderModel, Flatten, GlobalAvgPool, MaxPool2d, ReLU


def _model():
    rng = np.random.default_rng(0)
    return EncoderModel([Conv2d(3, 4, 3, rng=rng), ReLU(), MaxPool2d()],
                        [GlobalAvgPool(), Flatten(), Dense(4, 2, rng=rng)])


def _transform():
    rng = np.random.default_rng(1)
    return fit_pca(FeatureMatrix(rng.normal(size=(12, 5)), labels=None), 3)


def _classifier():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(20, 3))
    with mock.patch.multiple(classifiers, GBT_ROUNDS=3, GBT_MAX_DEPTH=2):
        return fit_gbt(x, (x[:, 0] > 0).astype(int))


# kind -> (build an object, save it to a path, load it from a path)
KINDS = {
    "model": (_model, lambda m, p: m.save(p), EncoderModel.load),
    "transform": (_transform, save_transform, load_transform),
    "classifier": (_classifier, save_classifier, load_classifier),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_container_roundtrip_and_damage(kind, tmp_path):
    build, save, load = KINDS[kind]
    first, second, damaged = tmp_path / "a.bin", tmp_path / "b.bin", tmp_path / "c.bin"
    save(build(), first)
    save(load(first), second)
    blob = first.read_bytes()
    assert second.read_bytes() == blob

    damage = {
        "bad magic": b"NOTMAGIC" + blob[8:],
        "no header length": blob[:10],
        "header cut short": blob[:20],
        "array data cut short": blob[:-8],
        "trailing bytes": blob + b"\x00" * 8,
    }
    for what, bad in damage.items():
        damaged.write_bytes(bad)
        with pytest.raises(IntegrityError):
            load(damaged)
            pytest.fail(f"{kind}: {what} was accepted")


def test_failed_manifest_write_keeps_previous(tmp_path, monkeypatch):
    save_manifest(tmp_path, {"version": "0", "config": None, "stages": {}})
    before = (tmp_path / "manifest.json").read_bytes()
    real_open = open

    class HalfWriter:
        """A file whose write stores half the data, then fails."""

        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(data[:len(data) // 2])
            raise OSError("disk full")

    monkeypatch.setattr(artifact, "open",
                        lambda *a, **k: HalfWriter(real_open(*a, **k)), raising=False)
    big = {"version": "0", "config": None,
           "stages": {"pretrain": {"files": {f"f{i}": "0" * 64 for i in range(100)}}}}
    with pytest.raises(OSError, match="disk full"):
        save_manifest(tmp_path, big)
    assert (tmp_path / "manifest.json").read_bytes() == before
    assert os.listdir(tmp_path) == ["manifest.json"]


JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)
# float64 arrays of 0-3 dimensions, empty ones included, with the special values drawn often
ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                    elements=st.floats() | st.sampled_from((-0.0, math.nan, math.inf, -math.inf)))


@settings(max_examples=200, deadline=None)
@given(magic=st.binary(min_size=8, max_size=8),
       fields=st.dictionaries(st.text(), JSON, max_size=5),
       arrays=st.lists(ARRAYS, max_size=4))
def test_pack_unpack_roundtrip_is_bit_exact(magic, fields, arrays):
    """Any JSON header and any float64 arrays (empty shapes, NaN, +-inf, -0.0)."""
    header = {**fields, "arrays": [{"shape": list(a.shape)} for a in arrays]}
    blob = artifact.pack(magic, header, arrays)
    got_header, got_arrays = artifact.unpack(blob, magic, "test")
    assert got_header == header
    assert [a.shape for a in got_arrays] == [a.shape for a in arrays]
    assert [a.tobytes() for a in got_arrays] == [a.tobytes() for a in arrays]
    assert artifact.pack(magic, got_header, got_arrays) == blob
