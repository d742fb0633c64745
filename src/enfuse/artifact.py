"""The one binary container behind every persisted artifact, and the one writer.

Layout: an 8-byte magic tag, the JSON header length as a little-endian u32,
the sorted-key JSON header, then each array as raw `<f8` values in the
order the header's "arrays" records list them. Each artifact type has its
own magic and header fields; the records only need a "shape" entry for the
framing.

Every type (encoder weights, fusion transform, classifier, target split)
names its arrays by one string each and goes through `save` / `load`, then
checks them against its own shapes.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .errors import IntegrityError

_PREFIX = 12  # magic + header length


def pack(magic: bytes, header: dict, arrays: list[np.ndarray]) -> bytes:
    """Container bytes for `header` followed by `arrays` in header order."""
    hdr = json.dumps(header, sort_keys=True).encode()
    parts = [magic, struct.pack("<I", len(hdr)), hdr]
    parts += [np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays]
    return b"".join(parts)


def unpack(blob: bytes, magic: bytes, kind: str) -> tuple[dict, list[np.ndarray]]:
    """(header, arrays) from container bytes; IntegrityError on any framing fault."""
    if blob[:len(magic)] != magic:
        raise IntegrityError(f"bad {kind} magic bytes")
    if len(blob) < _PREFIX:
        raise IntegrityError(f"truncated {kind} file: no header length")
    (hlen,) = struct.unpack_from("<I", blob, len(magic))
    offset = _PREFIX + hlen
    if len(blob) < offset:
        raise IntegrityError(f"truncated {kind} file: header cut short")
    try:
        header = json.loads(blob[_PREFIX:offset].decode())
        shapes = [tuple(int(n) for n in rec["shape"]) for rec in header["arrays"]]
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        raise IntegrityError(f"unreadable {kind} header: {exc}") from exc
    if any(n < 0 for shape in shapes for n in shape):
        raise IntegrityError(f"negative array dimension in {kind} header")
    arrays = []
    for shape in shapes:
        count = int(np.prod(shape))
        if len(blob) < offset + 8 * count:
            raise IntegrityError(f"truncated {kind} file: array data cut short")
        arrays.append(np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
                      .reshape(shape).copy())
        offset += 8 * count
    if offset != len(blob):
        raise IntegrityError(f"trailing bytes in {kind} file")
    return header, arrays


def save(path, magic: bytes, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write `header` and `arrays`, one {"name", "shape"} record per array
    in the dict's order."""
    records = [{"name": name, "shape": list(np.shape(a))} for name, a in arrays.items()]
    write_atomic(path, pack(magic, {**header, "arrays": records}, list(arrays.values())))


def load(path, magic: bytes, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, arrays by name) of a `save`d file; IntegrityError for a
    framing fault, a record without a name, or a name given twice."""
    with open(path, "rb") as f:
        header, values = unpack(f.read(), magic, kind)
    try:
        names = [rec["name"] for rec in header["arrays"]]
        arrays = dict(zip(names, values))
    except (KeyError, TypeError) as exc:
        raise IntegrityError(f"unreadable {kind} header: {exc!r}") from exc
    if len(arrays) != len(names):
        raise IntegrityError(f"{kind} file names an array twice")
    return header, arrays


def check_shapes(kind: str, arrays: dict[str, np.ndarray], shapes: dict[str, tuple[str, ...]],
                 sizes: dict[str, int]) -> None:
    """IntegrityError unless `arrays` holds every array `shapes` names, each
    with one size per symbol of its shape, and each symbol one size wherever
    it appears. `sizes` gives the symbols known beforehand; the others take
    the size they first meet, in table order."""
    sizes = dict(sizes)
    for name, shape in shapes.items():
        if name not in arrays:
            raise IntegrityError(f"{kind} file has no {name}")
        got = arrays[name].shape
        if len(got) != len(shape) or any(sizes.setdefault(s, n) != n for s, n in zip(shape, got)):
            want = tuple(sizes.get(s, s) for s in shape)
            raise IntegrityError(f"{kind} {name} has shape {got}, not {want}")


def write_atomic(path, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename into place.

    Every output file goes through here; missing parent directories are
    created first. A crash mid-write leaves the previous file (or none) and
    no temp file.
    """
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
