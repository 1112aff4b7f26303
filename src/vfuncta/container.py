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

A file is read in one pass and never held whole: the header fields by
small reads, then the payload straight into one array of its dtype, and
then the checksum. Every size a header declares is checked against the
file's size before anything that size is allocated, and the checksum is
checked before any array is handed out.

The version names the hash behind the checksum and the model
fingerprint: version 2, which is written, uses 64-bit BLAKE2b; version 1
used 64-bit FNV-1a and is still read and verified.

One digest rule holds for every file: a version 2 file is named by its
checksum, the stored u64 that every read verifies and every write
computes, and a run manifest enters a container input or artifact by
it. A version 2 read keeps the checksum and, for a model, its
fingerprint, once the checksum holds; every write returns the checksum.
A model read hashes its payload twice, as two independent tasks dealt
to the BLAS threads' cores (`parallel.RUNNER`), since hashlib releases
the GIL while it hashes a large buffer; each hash takes its chunks in
file order whatever the thread count, so no value depends on it.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from . import parallel
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


def blake2b64(chunks) -> int:
    """64-bit BLAKE2b over the concatenation of an iterable of byte-like
    chunks: the version 2 hash, fed chunk by chunk so nothing is joined
    first."""
    h = hashlib.blake2b(digest_size=8)
    for chunk in chunks:
        h.update(chunk)
    return int.from_bytes(h.digest(), "little")


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


def write_container(path, magic: bytes, *body) -> int:
    """Write a container file atomically: magic, version, the byte-like
    body chunks, and the checksum of the body, with no chunk copied.
    Returns the checksum, which names the file in a run manifest."""
    checksum = blake2b64(body)
    atomic_write_bytes(path, magic + struct.pack("<I", VERSION), *body,
                       struct.pack("<Q", checksum))
    return checksum


def pack_payload(arrays, dtype) -> list:
    """A payload as chunks: its u64 byte length, then each array as
    contiguous little-endian `dtype`, in order. An array already in that
    form is not copied."""
    dt = np.dtype(dtype).newbyteorder("<")
    arrays = [np.ascontiguousarray(a).astype(dt, copy=False) for a in arrays]
    return [struct.pack("<Q", sum(a.nbytes for a in arrays)), *arrays]


class _BodyReader:
    """Sequential reads of one container body from its open file, with
    truncation errors instead of crashes.

    The header fields are read by `unpack` and kept for the checksum;
    `payload` reads the rest of the body and the checksum and checks it.
    `remaining` is the body's bytes not yet read, from the file's size.
    Once the checksum of a version 2 file holds, `checksum` is its value
    and `fingerprint` the one `payload` was asked for; until then, and for
    version 1, both are None.
    """

    def __init__(self, fh, source: str, magic: bytes):
        self.fh = fh
        self.source = source
        size = os.fstat(fh.fileno()).st_size
        head = self._read(min(size, 8))
        if head[:4] != magic:
            raise BadMagicError(f"{source}: bad magic {bytes(head[:4])!r}, expected {magic!r}")
        if size < 16:
            raise TruncatedFileError(f"{source}: {size} bytes is too short")
        (self.version,) = struct.unpack_from("<I", head, 4)
        if self.version not in SUPPORTED_VERSIONS:
            raise UnsupportedVersionError(
                f"{source}: version {self.version}, supported {SUPPORTED_VERSIONS}")
        self.remaining = size - 16
        self._fields: list = []
        self.checksum: int | None = None
        self.fingerprint: int | None = None

    def _read(self, size: int, into=None):
        """The next `size` bytes of the file, read into `into` when given;
        a file that ends sooner is truncated."""
        buf = bytearray(size) if into is None else into
        try:
            got = self.fh.readinto(buf)
        except OSError as exc:
            raise FormatError(f"cannot read {self.source}: {exc}") from exc
        if got != size:
            raise TruncatedFileError(f"{self.source}: file ended while being read")
        return buf

    def unpack(self, fmt: str):
        size = struct.calcsize(fmt)
        if size > self.remaining:
            raise TruncatedFileError(f"{self.source}: body ends inside a header field")
        field = self._read(size)
        self.remaining -= size
        self._fields.append(field)
        return struct.unpack(fmt, field)

    def payload(self, dtype, shapes: dict[str, tuple[int, ...]],
                fingerprint_head: bytes | None = None) -> dict[str, np.ndarray]:
        """Read the payload that ends the body: its u64 byte length, then
        one `dtype` array per entry of the `{name: shape}` table, in table
        order. The length is checked against the table and the file's
        size before the payload is read into one array of `dtype`; once
        the checksum over the whole body holds, returns the arrays by name
        as read-only views into it. With `fingerprint_head`, a version 2
        read also hashes that header followed by the payload, into
        `fingerprint`."""
        dt = np.dtype(dtype)
        (length,) = self.unpack("<Q")
        expected = sum(math.prod(shape) for shape in shapes.values()) * dt.itemsize
        if length != expected:
            raise FormatError(f"{self.source}: payload {length} bytes, expected {expected}")
        if length > self.remaining:
            raise TruncatedFileError(f"{self.source}: body ends inside the payload")
        if length < self.remaining:
            raise FormatError(f"{self.source}: {self.remaining - length} trailing bytes")
        flat = np.empty(length // dt.itemsize, dtype=dt)
        self._read(length, into=memoryview(flat).cast("B"))
        self.remaining = 0
        (stored,) = struct.unpack("<Q", self._read(8))
        if self.version == 1:
            actual, fingerprint = fnv1a64(b"".join([*self._fields, flat])), None
        else:
            # the checksum and the fingerprint, as independent tasks
            tasks = [partial(blake2b64, [*self._fields, flat])]
            if fingerprint_head is not None:
                tasks.append(partial(blake2b64, [fingerprint_head, flat]))
            actual, fingerprint = [*parallel.RUNNER.deal(tasks), None][:2]
        if stored != actual:
            raise ChecksumError(f"{self.source}: checksum {actual:016x} != stored {stored:016x}")
        if self.version == 2:
            self.checksum, self.fingerprint = stored, fingerprint
        flat.setflags(write=False)
        arrays, pos = {}, 0
        for name, shape in shapes.items():
            count = math.prod(shape)
            arrays[name] = flat[pos:pos + count].reshape(shape)
            pos += count
        return arrays


@contextmanager
def read_container(path, magic: bytes):
    """Open the container at `path`, check its magic, version and size,
    and yield a reader over its body, whose `version` names the hash
    behind the checksum; the file is closed on leaving the block. An
    unreadable file is a FormatError."""
    path = Path(path)
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    with fh:
        yield _BodyReader(fh, str(path), magic)


def _param_arrays(model: MetaModel) -> list[np.ndarray]:
    """Every parameter as a contiguous little-endian array, in file order."""
    dt = np.dtype(model.dtype).newbyteorder("<")
    return [np.ascontiguousarray(p.data).astype(dt, copy=False)
            for _, p in model.parameters()]


# the architecture header: dtype code, layers, hidden, video_dim,
# frame_dim, omega0
_DIMS = "<BIIIId"


def _model_dims_blob(model: MetaModel) -> bytes:
    return struct.pack(_DIMS, dtype_code(model.dtype), model.layers, model.hidden,
                       model.video_dim, model.frame_dim, model.omega0)


def model_fingerprint(model: MetaModel, version: int = VERSION) -> int:
    """Content hash over architecture and parameters (not the iteration
    counter), matching what a saved model file would hold, with the hash
    of the given container version. The parameters are hashed once per
    model object and version."""
    if version not in model.fingerprints:
        chunks = [_model_dims_blob(model), *_param_arrays(model)]
        model.fingerprints[version] = (fnv1a64(b"".join(chunks)) if version == 1
                                       else blake2b64(chunks))
    return model.fingerprints[version]


def save_model(path, model: MetaModel) -> int:
    """Write `model` to `path` and return the file's checksum."""
    head = (struct.pack("<I", KIND_MODEL) + _model_dims_blob(model)
            + struct.pack("<Q", model.iteration))
    return write_container(path, MODEL_MAGIC, head,
                           *pack_payload(_param_arrays(model), model.dtype))


def load_model(path) -> MetaModel:
    """The model in the file at `path`. A version 2 read also hashes the
    payload into the model's version 2 fingerprint, beside the checksum,
    which it keeps as the model's `checksum`."""
    with read_container(path, MODEL_MAGIC) as reader:
        (kind,) = reader.unpack("<I")
        if kind != KIND_MODEL:
            raise FormatError(f"{reader.source}: kind {kind} is not a model checkpoint")
        dims = reader.unpack(_DIMS)
        code, layers, hidden, video_dim, frame_dim, omega0 = dims
        (iteration,) = reader.unpack("<Q")
        dt = decode_dtype(code)
        if min(layers, hidden, video_dim, frame_dim) < 1:
            raise FormatError(f"{reader.source}: a zero dimension among layers {layers}, "
                              f"hidden {hidden}, video_dim {video_dim}, frame_dim {frame_dim}")
        if not (math.isfinite(omega0) and omega0 > 0):
            raise FormatError(f"{reader.source}: omega0 {omega0} is not finite and positive")
        # the biases alone hold layers * hidden values: a layer count the body
        # cannot hold fails here, before its parameter table is built
        if layers * hidden * dt.itemsize > reader.remaining:
            raise FormatError(f"{reader.source}: {layers} layers of width {hidden} "
                              f"do not fit in the body")
        params = reader.payload(dt, param_shapes(layers, hidden, video_dim, frame_dim),
                                fingerprint_head=struct.pack(_DIMS, *dims))
    native = dt.newbyteorder("=")
    model = MetaModel({name: Tensor(view, dtype=native) for name, view in params.items()},
                      omega0=omega0, iteration=iteration)
    if reader.fingerprint is not None:
        model.fingerprints[reader.version] = reader.fingerprint
    model.checksum = reader.checksum
    return model
