"""Self-describing binary containers with checksummed round trips.

Every file is `magic + u32 version + body + u64 checksum(body)`, all
little-endian, written atomically. Model and head files share the "VFNC"
magic and are told apart by a kind tag at the start of the body;
encodings use "VENC". Numeric payloads are raw IEEE-754 little-endian in
the dtype the header declares, so save, load, save reproduces files
byte-for-byte.

The version names the hash behind the checksum and the model
fingerprint: version 2, which is written, uses 64-bit BLAKE2b; version 1
used 64-bit FNV-1a and is still read and verified.
"""

from __future__ import annotations

import hashlib
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


def unpack_container(blob: bytes, magic: bytes,
                     source: str = "file") -> tuple[int, memoryview]:
    """Validate framing against the hash of the file's version; return
    the version and the body."""
    if len(blob) < 4 or blob[:4] != magic:
        raise BadMagicError(f"{source}: bad magic {blob[:4]!r}, expected {magic!r}")
    if len(blob) < 16:
        raise TruncatedFileError(f"{source}: {len(blob)} bytes is too short")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version not in SUPPORTED_VERSIONS:
        raise UnsupportedVersionError(
            f"{source}: version {version}, supported {SUPPORTED_VERSIONS}")
    body = memoryview(blob)[8:-8]
    (stored,) = struct.unpack_from("<Q", blob, len(blob) - 8)
    actual = _content_hash(version, body)
    if stored != actual:
        raise ChecksumError(f"{source}: checksum {actual:016x} != stored {stored:016x}")
    return version, body


class _BodyReader:
    """Sequential struct reads with truncation errors instead of crashes."""

    def __init__(self, body: bytes, source: str):
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

    def raw(self, size: int) -> bytes:
        if self.pos + size > len(self.body):
            raise TruncatedFileError(f"{self.source}: body ends inside the payload")
        out = self.body[self.pos : self.pos + size]
        self.pos += size
        return out

    def expect_end(self) -> None:
        if self.pos != len(self.body):
            raise FormatError(f"{self.source}: {len(self.body) - self.pos} trailing bytes")


def read_container(path, magic: bytes) -> tuple[int, _BodyReader]:
    """Read and validate the container at `path`; return its version and
    a reader over its body. An unreadable file is a FormatError."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    version, body = unpack_container(blob, magic, source=str(path))
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
    arrays = _param_arrays(model)
    head = (struct.pack("<I", KIND_MODEL) + _model_dims_blob(model)
            + struct.pack("<QQ", model.iteration, sum(a.nbytes for a in arrays)))
    atomic_write_bytes(path, *pack_container(MODEL_MAGIC, head, *arrays))


def load_model(path) -> MetaModel:
    _, reader = read_container(path, MODEL_MAGIC)
    (kind,) = reader.unpack("<I")
    if kind != KIND_MODEL:
        raise FormatError(f"{reader.source}: kind {kind} is not a model checkpoint")
    code, layers, hidden, video_dim, frame_dim, omega0 = reader.unpack("<BIIIId")
    iteration, payload_len = reader.unpack("<QQ")
    dt = decode_dtype(code)
    payload = reader.raw(payload_len)
    reader.expect_end()

    shapes = param_shapes(layers, hidden, video_dim, frame_dim)
    expected = sum(int(np.prod(s)) for s in shapes.values()) * dt.itemsize
    if payload_len != expected:
        raise FormatError(f"{reader.source}: payload {payload_len} bytes, expected {expected}")

    params, offset = {}, 0
    for name, shape in shapes.items():
        count = int(np.prod(shape))
        view = np.frombuffer(payload, dtype=dt, count=count, offset=offset).reshape(shape)
        params[name] = Tensor(view, dtype=dt.newbyteorder("="))
        offset += count * dt.itemsize
    return MetaModel(params, omega0=omega0, iteration=iteration)
