"""Self-describing binary containers with checksummed round trips.

Every file is `magic + u32 version + body + u64 checksum(body)`, all
little-endian, written atomically. Model and head files share the "VFNC"
magic and are told apart by a kind tag at the start of the body;
encodings use "VENC". Every body is its kind's header fields, then the
payload: a u64 byte length and the arrays of the kind's shape table in
table order, raw IEEE-754 little-endian in the dtype the header declares,
with nothing after them. `pack_payload` writes it and
`_BodyReader.payload` reads it, so save, load, save reproduces files
byte-for-byte.

The version names the hash behind the checksum and the model
fingerprint: version 2, which is written, uses 64-bit BLAKE2b; version 1
used 64-bit FNV-1a and is still read and verified.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    ChecksumError,
    FormatError,
    TruncatedFileError,
    UnsupportedVersionError,
)
from .model import MetaModel, param_shapes
from .tensor import Tensor

MODEL_MAGIC = b"VFNC"
ENCODING_MAGIC = b"VENC"
VERSION = 2
SUPPORTED_VERSIONS = (1, 2)

KIND_MODEL = 1
KIND_HEAD = 2

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def fnv1a64(data) -> int:
    """64-bit FNV-1a over a byte string: the version 1 hash."""
    h = 0xCBF29CE484222325
    for byte in bytes(data):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def blake2b64(*chunks) -> int:
    """64-bit BLAKE2b over the concatenation of byte-like chunks: the
    version 2 hash, fed chunk by chunk so nothing is joined first."""
    h = hashlib.blake2b(digest_size=8)
    for chunk in chunks:
        h.update(chunk)
    return int.from_bytes(h.digest(), "little")


def _content_hash(version: int, *chunks) -> int:
    """The hash a file of the given container version uses for its
    checksum and for model fingerprints."""
    if version == 1:
        return fnv1a64(b"".join(chunks))
    return blake2b64(*chunks)


def dtype_code(dtype) -> int:
    dtype = np.dtype(dtype)
    for code, dt in _DTYPE_CODES.items():
        if dt == dtype.newbyteorder("<"):
            return code
    raise FormatError(f"unsupported dtype {dtype}")


def decode_dtype(code: int) -> np.dtype:
    if code not in _DTYPE_CODES:
        raise FormatError(f"unknown dtype code {code}")
    return _DTYPE_CODES[code]


def atomic_write_bytes(path, *chunks) -> None:
    """Write the byte-like chunks in order to `path` via a temporary file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def pack_container(magic: bytes, *body) -> list:
    """A container file as chunks: magic, version, the byte-like body
    chunks, and the checksum of the body, so no chunk is copied."""
    return [magic, struct.pack("<I", VERSION), *body,
            struct.pack("<Q", _content_hash(VERSION, *body))]


def pack_payload(arrays, dtype) -> list:
    """A payload as chunks: its u64 byte length, then each array as
    contiguous little-endian `dtype`, in order. An array already in that
    form is not copied."""
    dt = np.dtype(dtype).newbyteorder("<")
    arrays = [np.ascontiguousarray(a).astype(dt, copy=False) for a in arrays]
    return [struct.pack("<Q", sum(a.nbytes for a in arrays)), *arrays]


class _BodyReader:
    """Sequential reads with truncation errors instead of crashes."""

    def __init__(self, body: memoryview, source: str):
        self.body = body
        self.source = source
        self.pos = 0

    def unpack(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.body):
            raise TruncatedFileError(f"{self.source}: body ends inside a header field")
        out = struct.unpack_from(fmt, self.body, self.pos)
        self.pos += size
        return out

    def payload(self, dtype, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
        """Read the payload that ends the body: its u64 byte length, then
        one `dtype` array per entry of the `{name: shape}` table, in table
        order. Returns the arrays by name as read-only views into the body."""
        dt = np.dtype(dtype)
        (length,) = self.unpack("<Q")
        expected = sum(math.prod(shape) for shape in shapes.values()) * dt.itemsize
        if length != expected:
            raise FormatError(f"{self.source}: payload {length} bytes, expected {expected}")
        rest = len(self.body) - self.pos
        if length > rest:
            raise TruncatedFileError(f"{self.source}: body ends inside the payload")
        if length < rest:
            raise FormatError(f"{self.source}: {rest - length} trailing bytes")
        arrays = {}
        for name, shape in shapes.items():
            count = math.prod(shape)
            arrays[name] = np.frombuffer(self.body, dtype=dt, count=count,
                                         offset=self.pos).reshape(shape)
            self.pos += count * dt.itemsize
        return arrays


def read_container(path, magic: bytes) -> tuple[int, _BodyReader]:
    """Read and validate the container at `path` against the hash of its
    version; return the version and a reader over its body. An unreadable
    file is a FormatError."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if len(blob) < 4 or blob[:4] != magic:
        raise BadMagicError(f"{path}: bad magic {blob[:4]!r}, expected {magic!r}")
    if len(blob) < 16:
        raise TruncatedFileError(f"{path}: {len(blob)} bytes is too short")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version not in SUPPORTED_VERSIONS:
        raise UnsupportedVersionError(
            f"{path}: version {version}, supported {SUPPORTED_VERSIONS}")
    body = memoryview(blob)[8:-8]
    (stored,) = struct.unpack_from("<Q", blob, len(blob) - 8)
    actual = _content_hash(version, body)
    if stored != actual:
        raise ChecksumError(f"{path}: checksum {actual:016x} != stored {stored:016x}")
    return version, _BodyReader(body, str(path))


def _param_arrays(model: MetaModel) -> list[np.ndarray]:
    """Every parameter as a contiguous little-endian array, in file order."""
    dt = np.dtype(model.dtype).newbyteorder("<")
    return [np.ascontiguousarray(p.data).astype(dt, copy=False)
            for _, p in model.parameters()]


def _model_dims_blob(model: MetaModel) -> bytes:
    return struct.pack("<BIIIId", dtype_code(model.dtype), model.layers, model.hidden,
                       model.video_dim, model.frame_dim, model.omega0)


def model_fingerprint(model: MetaModel, version: int = VERSION) -> int:
    """Content hash over architecture and parameters (not the iteration
    counter), matching what a saved model file would hold, with the hash
    of the given container version. The parameters are hashed once per
    model object and version."""
    if version not in model.fingerprints:
        model.fingerprints[version] = _content_hash(version, _model_dims_blob(model),
                                                    *_param_arrays(model))
    return model.fingerprints[version]


def save_model(path, model: MetaModel) -> None:
    head = (struct.pack("<I", KIND_MODEL) + _model_dims_blob(model)
            + struct.pack("<Q", model.iteration))
    atomic_write_bytes(path, *pack_container(
        MODEL_MAGIC, head, *pack_payload(_param_arrays(model), model.dtype)))


def load_model(path) -> MetaModel:
    _, reader = read_container(path, MODEL_MAGIC)
    (kind,) = reader.unpack("<I")
    if kind != KIND_MODEL:
        raise FormatError(f"{reader.source}: kind {kind} is not a model checkpoint")
    code, layers, hidden, video_dim, frame_dim, omega0 = reader.unpack("<BIIIId")
    (iteration,) = reader.unpack("<Q")
    dt = decode_dtype(code)
    if min(layers, hidden, video_dim, frame_dim) < 1:
        raise FormatError(f"{reader.source}: a zero dimension among layers {layers}, "
                          f"hidden {hidden}, video_dim {video_dim}, frame_dim {frame_dim}")
    # the biases alone hold layers * hidden values: a layer count the body
    # cannot hold fails here, before its parameter table is built
    if layers * hidden * dt.itemsize > len(reader.body) - reader.pos:
        raise FormatError(f"{reader.source}: {layers} layers of width {hidden} "
                          f"do not fit in the body")
    params = reader.payload(dt, param_shapes(layers, hidden, video_dim, frame_dim))
    native = dt.newbyteorder("=")
    return MetaModel({name: Tensor(view, dtype=native) for name, view in params.items()},
                     omega0=omega0, iteration=iteration)
