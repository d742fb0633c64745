import ast
import math
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from enfuse import artifact, classifiers
from enfuse.classifiers import fit_gbt, load_classifier, save_classifier
from enfuse.cli import save_manifest
from enfuse.data import LabeledImageSet
from enfuse.ensemble import TARGET_MAGIC, TargetSplit, load_target_split, save_target_split
from enfuse.errors import IntegrityError
from enfuse.features import FeatureMatrix
from enfuse.fusion import fit_pca, load_transform, save_transform
from enfuse.nn import (
    MODEL_MAGIC,
    Conv2d,
    Dense,
    EncoderModel,
    Flatten,
    GlobalAvgPool,
    MaxPool2d,
    ReLU,
)


def _model():
    rng = np.random.default_rng(0)
    return EncoderModel([Conv2d(3, 4, 3, rng=rng), ReLU(), MaxPool2d()],
                        [GlobalAvgPool(), Flatten(), Dense(4, 2, rng=rng)])


def _transform():
    rng = np.random.default_rng(1)
    return fit_pca(FeatureMatrix(rng.normal(size=(12, 5)), labels=np.zeros(12, dtype=int)), 3)


def _classifier():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(20, 3))
    with mock.patch.multiple(classifiers, GBT_ROUNDS=3, GBT_MAX_DEPTH=2):
        return fit_gbt([x], [(x[:, 0] > 0).astype(int)])[0]


NAMES = ("a", "b")


def _target_split():
    rng = np.random.default_rng(3)
    train_labels, test_labels = np.array([0, 1, 2, 0, 1, 2]), np.array([2, 0, 1])
    return TargetSplit(
        LabeledImageSet(rng.random((3, 4, 4, 3)), test_labels, ["x", "y", "z"]),
        {name: FeatureMatrix(rng.normal(size=(6, d)), train_labels)
         for name, d in zip(NAMES, (2, 5))},
        {name: FeatureMatrix(rng.normal(size=(3, d)), test_labels)
         for name, d in zip(NAMES, (2, 5))},
        {"a": 2 / 3, "b": 1.0})


# kind -> (build an object, save it to a path, load it from a path)
KINDS = {
    "model": (_model, lambda m, p: m.save(p), EncoderModel.load),
    "transform": (_transform, save_transform, load_transform),
    "classifier": (_classifier, save_classifier, load_classifier),
    "target split": (_target_split, save_target_split,
                     lambda p: load_target_split(p, NAMES)),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_container_roundtrip_and_damage(kind, tmp_path):
    build, save, load = KINDS[kind]
    first, second, damaged = tmp_path / "a.bin", tmp_path / "b.bin", tmp_path / "c.bin"
    save(build(), first)
    save(load(first), second)
    blob = first.read_bytes()
    assert second.read_bytes() == blob

    magic = blob[:8]
    header, arrays = artifact.unpack(blob, magic, kind)
    header["arrays"].append(header["arrays"][0])  # a later record would replace the first
    damage = {
        "bad magic": b"NOTMAGIC" + blob[8:],
        "no header length": blob[:10],
        "header cut short": blob[:20],
        "array data cut short": blob[:-8],
        "trailing bytes": blob + b"\x00" * 8,
        "repeated array": artifact.pack(magic, header, arrays + arrays[:1]),
    }
    for what, bad in damage.items():
        damaged.write_bytes(bad)
        with pytest.raises(IntegrityError):
            load(damaged)
            pytest.fail(f"{kind}: {what} was accepted")


@pytest.mark.parametrize("shape", [[2**33, 2**33], [2**62, 4], [0, 2**70]],
                         ids=["2^33x2^33", "2^62x4", "0x2^70"])
def test_shape_too_large_for_numpy_rejected(shape, tmp_path):
    """A header shape whose element count or a dimension numpy cannot hold
    is an IntegrityError (exit 4), not a traceback: the first two counts
    wrap to 0 modulo 2**64 in int64 arithmetic, and the third is 0 with a
    dimension past the largest numpy allows."""
    path = tmp_path / "m.bin"
    _model().save(path)
    header, arrays = artifact.unpack(path.read_bytes(), MODEL_MAGIC, "model")
    header["arrays"][0]["shape"] = shape
    path.write_bytes(artifact.pack(MODEL_MAGIC, header, arrays))
    with pytest.raises(IntegrityError):
        EncoderModel.load(path)


def _src_nodes():
    """(path relative to src/enfuse, AST node) of every node under src/enfuse."""
    root = Path(artifact.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.relative_to(root).as_posix(), node


def _modules_naming(*names):
    """The modules under src/enfuse whose code names, reads an attribute
    called, or imports any of `names`."""
    found = set()
    for path, node in _src_nodes():
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name in names:
            found.add(path)
    return found


def test_only_the_container_frames_bytes():
    """Under src/, only `artifact` references `pack` or `unpack`: every
    artifact type goes through `save` and `load`."""
    assert _modules_naming("pack", "unpack") == {"artifact.py"}


def test_only_the_model_batches_inference():
    """Under src/, only `nn/model.py` names `INFERENCE_BATCH`: every
    inference pass is chunked by `EncoderModel.forward`, not by its callers."""
    assert _modules_naming("INFERENCE_BATCH") == {"nn/model.py"}


def test_every_artifact_type_is_in_the_damage_table(tmp_path):
    """Each `*_MAGIC` constant under src/ tags the files of a kind that
    `test_container_roundtrip_and_damage` saves and damages, so no artifact
    type skips the container's checks."""
    magics = {ast.literal_eval(node.value) for _, node in _src_nodes()
              if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id.endswith("_MAGIC") for t in node.targets)}
    saved = set()
    for build, save, _ in KINDS.values():
        save(build(), tmp_path / "a.bin")
        saved.add((tmp_path / "a.bin").read_bytes()[:8])
    assert magics == saved


def test_target_split_roundtrip_keeps_every_value(tmp_path):
    split = _target_split()
    save_target_split(split, tmp_path / "t.bin")
    got = load_target_split(tmp_path / "t.bin", NAMES)
    assert got.test.images.tobytes() == split.test.images.tobytes()
    assert got.test.labels.dtype == np.int64
    assert got.test.labels.tolist() == split.test.labels.tolist()
    assert got.test.class_names == split.test.class_names
    for parts, want in ((got.train_parts, split.train_parts), (got.test_parts, split.test_parts)):
        assert list(parts) == list(NAMES)
        for name in NAMES:
            assert parts[name].data.tobytes() == want[name].data.tobytes()
            assert parts[name].labels.tolist() == want[name].labels.tolist()
    assert got.head_accuracy == split.head_accuracy


def _target_arrays():
    """`_target_split`'s arrays by name, as its saved file holds them."""
    split = _target_split()
    arrays = {"labels:train": split.train_parts["a"].labels.astype(float),
              "labels:test": split.test.labels.astype(float),
              "images:test": split.test.images, "accuracy": np.array([2 / 3, 1.0])}
    for name in NAMES:
        arrays[f"{name}:train"] = split.train_parts[name].data
        arrays[f"{name}:test"] = split.test_parts[name].data
    return arrays


def _write_target(path, arrays, class_names):
    header = {"class_names": class_names,
              "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays.items()]}
    path.write_bytes(artifact.pack(TARGET_MAGIC, header, list(arrays.values())))


def test_target_split_file_matches_its_writer(tmp_path):
    save_target_split(_target_split(), tmp_path / "saved.bin")
    _write_target(tmp_path / "built.bin", _target_arrays(), ["x", "y", "z"])
    assert (tmp_path / "saved.bin").read_bytes() == (tmp_path / "built.bin").read_bytes()


@pytest.mark.parametrize("change", [
    {"drop": "labels:test"},
    {"drop": "images:test"},
    {"drop": "accuracy"},
    {"drop": "b:train"},
    {"set": ("labels:train", np.zeros((6, 1)))},
    {"set": ("labels:test", np.zeros(4))},
    {"set": ("images:test", np.zeros((3, 4, 4)))},
    {"set": ("images:test", np.zeros((2, 4, 4, 3)))},
    {"set": ("accuracy", np.zeros(3))},
    {"set": ("a:train", np.zeros((5, 2)))},
    {"set": ("a:test", np.zeros((3, 3)))},
    {"set": ("b:test", np.zeros(15))},
    {"set": ("labels:train", np.array([0, 1, 2, 0, 1, 3.0]))},
    {"set": ("labels:test", np.array([0, 1, 0.5]))},
    {"set": ("labels:test", np.array([0, -1, 1.0]))},
    {"class_names": []},
    {"class_names": "xyz"},
    {"class_names": [0, 1, 2]},
], ids=["no-test-labels", "no-test-images", "no-accuracy", "no-part", "train-labels-2d",
        "test-labels-rows", "images-3d", "images-rows", "accuracy-count", "part-rows",
        "part-width-differs", "part-1d", "train-label-not-a-class", "test-label-fraction",
        "test-label-negative", "no-class-names", "class-names-string", "class-names-ints"])
def test_malformed_target_split_rejected(tmp_path, change):
    arrays = _target_arrays()
    if "drop" in change:
        del arrays[change["drop"]]
    if "set" in change:
        name, value = change["set"]
        arrays[name] = value
    path = tmp_path / "t.bin"
    _write_target(path, arrays, change.get("class_names", ["x", "y", "z"]))
    with pytest.raises(IntegrityError):
        load_target_split(path, NAMES)


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
