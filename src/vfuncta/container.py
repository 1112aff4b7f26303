"""Self-describing binary containers with checksummed round trips.

Every file is `magic + u32 version + body + u64 checksum`, all
little-endian, written atomically. Models use the "VFNC" magic and
start their body with kind tag 1 (older releases also wrote heads there
as kind 2, which `load_model` refuses); encodings use "VENC". Every body
is its kind's header fields, then the payload: a u64 byte length and the
arrays of the kind's shape table in table order, raw IEEE-754
little-endian in the dtype the header declares, with nothing after them.
`write_container` writes it and `_BodyReader.payload` reads it, so save,
load, save reproduces files byte-for-byte.

A file is read in one pass and never held whole: the header fields by
small reads, then the payload straight into one array of its dtype per
table entry, and then the checksum. Every size a header declares is
checked against the file's size before anything that size is allocated,
and the checksum is checked before any array is handed out.

The version names the hashes behind the checksum and the model
fingerprint. Version 3, which is written, hashes each payload once:
its digest D is the SHA-256 of the payload arrays, the checksum is
SHA-256(header fields, payload length included, || D) and a model's
fingerprint is SHA-256(`_DIMS` header || D), each cut to its first 8
bytes read as a little-endian u64 (`sha256_64`). So a read, a write and
a fingerprint each take one pass over the payload, in the calling
thread. Version 2 (64-bit BLAKE2b over the body, and over the header
and the payload for the fingerprint) and version 1 (64-bit FNV-1a) are
read and verified; their fingerprints are computed when an encoding
that names its model by one is decoded.

One digest rule holds for every file: a version 3 file is named by its
checksum, the stored u64 that every read verifies and every write
computes, and a run manifest enters a container input or artifact by
it. A version 3 model read also keeps the model's fingerprint, from the
same D.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    ChecksumError,
    ContractError,
    FormatError,
    NonFiniteError,
    TruncatedFileError,
    UnsupportedVersionError,
)
from .model import MetaModel, param_shapes

MODEL_MAGIC = b"VFNC"
ENCODING_MAGIC = b"VENC"
VERSION = 3
SUPPORTED_VERSIONS = (1, 2, 3)

KIND_MODEL = 1

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def fnv1a64(data) -> int:
    """64-bit FNV-1a over a byte string: the version 1 hash."""
    h = 0xCBF29CE484222325
    for byte in bytes(data):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _fed(hasher, chunks):
    """`hasher` fed each byte-like chunk in turn, so nothing is joined
    first."""
    for chunk in chunks:
        hasher.update(chunk)
    return hasher


def blake2b64(chunks) -> int:
    """64-bit BLAKE2b over the concatenation of byte-like chunks: the
    version 2 hash."""
    return int.from_bytes(_fed(hashlib.blake2b(digest_size=8), chunks).digest(), "little")


def sha256_64(chunks) -> int:
    """The first 8 bytes of SHA-256 over the concatenation of byte-like
    chunks, read as a little-endian u64: the version 3 hash."""
    return int.from_bytes(_fed(hashlib.sha256(), chunks).digest()[:8], "little")


def payload_digest(arrays) -> bytes:
    """D, the 32-byte SHA-256 over a payload's arrays in order: the one
    pass a version 3 read, write or fingerprint takes over them."""
    return _fed(hashlib.sha256(), arrays).digest()


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
    """Write the byte-like chunks in order to `path` via a temporary file,
    making `path`'s directory first: every file the package writes comes
    through here, so a directory exists only once a file is written to it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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


def write_container(path, magic: bytes, fields: bytes, arrays, dtype) -> tuple[int, bytes]:
    """Write a version 3 container file atomically: magic, version, the
    header `fields`, the payload (its u64 byte length, then each array as
    contiguous little-endian `dtype`, in order, none copied that already
    is) and the checksum. Returns the checksum, which names the file in a
    run manifest, and the payload digest D it was derived from."""
    dt = np.dtype(dtype).newbyteorder("<")
    arrays = [np.ascontiguousarray(a).astype(dt, copy=False) for a in arrays]
    length = struct.pack("<Q", sum(a.nbytes for a in arrays))
    digest = payload_digest(arrays)
    checksum = sha256_64([fields, length, digest])
    atomic_write_bytes(path, magic + struct.pack("<I", VERSION), fields, length, *arrays,
                       struct.pack("<Q", checksum))
    return checksum, digest


class _BodyReader:
    """Sequential reads of one container body from its open file, with
    truncation errors instead of crashes.

    The header fields are read by `unpack` and kept for the checksum;
    `payload` reads the rest of the body and the checksum and checks it.
    `remaining` is the body's bytes not yet read, from the file's size.
    Once the checksum of a version 3 file holds, `checksum` is its value
    and `digest` the payload digest D; until then, and for older
    versions, both are None.
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
        self.digest: bytes | None = None

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

    def payload(self, dtype, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
        """Read the payload that ends the body: its u64 byte length, then
        one `dtype` array per entry of the `{name: shape}` table, in table
        order. The length is checked against the table and the file's
        size before the payload is read, each entry into an array of
        `dtype` of its own, so that a load needs no free region the size
        of the whole payload; once the checksum holds, returns the arrays
        by name, read-only."""
        dt = np.dtype(dtype)
        (length,) = self.unpack("<Q")
        expected = sum(math.prod(shape) for shape in shapes.values()) * dt.itemsize
        if length != expected:
            raise FormatError(f"{self.source}: payload {length} bytes, expected {expected}")
        if length > self.remaining:
            raise TruncatedFileError(f"{self.source}: body ends inside the payload")
        if length < self.remaining:
            raise FormatError(f"{self.source}: {self.remaining - length} trailing bytes")
        arrays = {name: np.empty(shape, dtype=dt) for name, shape in shapes.items()}
        for a in arrays.values():
            self._read(a.nbytes, into=memoryview(a).cast("B"))
        self.remaining = 0
        (stored,) = struct.unpack("<Q", self._read(8))
        digest = None
        if self.version == 1:
            actual = fnv1a64(b"".join([*self._fields, *arrays.values()]))
        elif self.version == 2:
            actual = blake2b64([*self._fields, *arrays.values()])
        else:
            digest = payload_digest(arrays.values())
            actual = sha256_64([*self._fields, digest])
        if stored != actual:
            raise ChecksumError(f"{self.source}: checksum {actual:016x} != stored {stored:016x}")
        if digest is not None:
            self.checksum, self.digest = stored, digest
        for a in arrays.values():
            a.setflags(write=False)
        return arrays


@contextmanager
def read_container(path, magic: bytes):
    """Open the container at `path`, check its magic, version and size,
    and yield a reader over its body, whose `version` names the hashes
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
    return [np.ascontiguousarray(p).astype(dt, copy=False) for _, p in model.parameters()]


# the architecture header: dtype code, layers, hidden, video_dim,
# frame_dim, omega0; each size is a u32
_DIMS = "<BIIIId"


def _model_dims_blob(model: MetaModel) -> bytes:
    return struct.pack(_DIMS, dtype_code(model.dtype), model.layers, model.hidden,
                       model.video_dim, model.frame_dim, model.omega0)


def _fingerprint(dims_blob: bytes, digest: bytes) -> int:
    """The version 3 fingerprint of a model's architecture header and
    payload digest D."""
    return sha256_64([dims_blob, digest])


def model_fingerprint(model: MetaModel, version: int = VERSION) -> int:
    """Content hash over architecture and parameters (not the iteration
    counter), matching what a saved model file would hold, with the hash
    of the given container version. The parameters are hashed once per
    model object and version, in one pass."""
    if version not in model.fingerprints:
        dims, params = _model_dims_blob(model), _param_arrays(model)
        if version == 1:
            fingerprint = fnv1a64(b"".join([dims, *params]))
        elif version == 2:
            fingerprint = blake2b64([dims, *params])
        else:
            fingerprint = _fingerprint(dims, payload_digest(params))
        model.fingerprints[version] = fingerprint
    return model.fingerprints[version]


def save_model(path, model: MetaModel) -> int:
    """Write `model` to `path` and return the file's checksum. The
    payload digest also gives the model's version 3 fingerprint."""
    dims = _model_dims_blob(model)
    head = struct.pack("<I", KIND_MODEL) + dims + struct.pack("<Q", model.iteration)
    checksum, digest = write_container(path, MODEL_MAGIC, head, _param_arrays(model),
                                       model.dtype)
    model.fingerprints[VERSION] = _fingerprint(dims, digest)
    return checksum


def load_model(path) -> MetaModel:
    """The model in the file at `path`. A version 3 read keeps the
    checksum it verified as the model's `checksum`, and derives the
    model's version 3 fingerprint from the same payload digest."""
    with read_container(path, MODEL_MAGIC) as reader:
        (kind,) = reader.unpack("<I")
        if kind != KIND_MODEL:
            raise FormatError(f"{reader.source}: kind {kind} is not a model checkpoint")
        dims = reader.unpack(_DIMS)
        code, layers, hidden, video_dim, frame_dim, omega0 = dims
        (iteration,) = reader.unpack("<Q")
        dt = decode_dtype(code)
        if not (math.isfinite(omega0) and omega0 > 0):
            raise FormatError(f"{reader.source}: omega0 {omega0} is not finite and positive")
        # the biases alone hold layers * hidden values: a layer count the body
        # cannot hold fails here, before its parameter table is built
        if layers * hidden * dt.itemsize > reader.remaining:
            raise FormatError(f"{reader.source}: {layers} layers of width {hidden} "
                              f"do not fit in the body")
        try:
            shapes = param_shapes(layers, hidden, video_dim, frame_dim)
        except ContractError as exc:
            raise FormatError(f"{reader.source}: {exc}") from exc
        params = reader.payload(dt, shapes)
    native = dt.newbyteorder("=")
    try:
        model = MetaModel({name: view.astype(native, copy=False) for name, view in params.items()},
                          omega0=omega0, iteration=iteration)
    except NonFiniteError as exc:
        raise FormatError(f"{reader.source}: {exc}") from exc
    if reader.digest is not None:
        model.fingerprints[VERSION] = _fingerprint(struct.pack(_DIMS, *dims), reader.digest)
    model.checksum = reader.checksum
    return model
