"""Encode videos of any length into one video vector plus per-frame
vectors, decode them back to pixels, and persist both.

Encoding is autoregressive over windows of `batch_frames` consecutive
frames: the video vector is optimized jointly with the first window's
frame vectors, then frozen; every later window optimizes fresh
zero-initialized frame vectors only. `EncodeSettings` holds the three
values this procedure takes: the window length, the inner steps and the
inner learning rate. Decoding evaluates the network on the full pixel
grid per frame and clamps to [0, 1]; clamping never happens on the
encode side.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .container import (
    ENCODING_MAGIC,
    SUPPORTED_VERSIONS,
    VERSION,
    decode_dtype,
    dtype_code,
    load_model,
    model_fingerprint,
    read_container,
    save_model,
    write_container,
)
from .data import VideoTensor
from .errors import ContractError, FingerprintMismatchError
from .model import (
    FrameModulationSeq,
    MetaModel,
    VideoModulation,
    forward_batch,
    grid_coords,
)
from .training import adapt, require_rate

__all__ = [
    "EncodeSettings", "VideoEncoding", "encode_video", "decode_video",
    "decode_static_summary", "compression_rate", "save_encoding", "load_encoding",
    "save_model", "load_model", "model_fingerprint",
]


@dataclass(eq=False)
class VideoEncoding:
    """Compressed form of one video: (v, per-frame phis) plus provenance.

    `fingerprint_version` is the container version whose hash made
    `fingerprint`: an encoding loaded from a version 1 or 2 file names its
    model by that version's fingerprint, which decoding computes from the
    model on demand. `checksum` is the verified checksum of the version 3
    file the encoding was read from (`load_encoding`), which names that
    file in a run manifest, else None; it is not part of equality.
    """

    video_mod: VideoModulation
    frame_mods: FrameModulationSeq
    frames: int
    height: int
    width: int
    fingerprint: int
    inner_steps: int
    inner_lr: float
    fingerprint_version: int = VERSION
    checksum: int | None = None

    def __post_init__(self):
        if len(self.frame_mods) != self.frames:
            raise ContractError(
                f"encoding holds {len(self.frame_mods)} frame vectors for {self.frames} frames")
        if min(self.frames, self.height, self.width) < 1:
            raise ContractError("encoded dims must be positive")
        if self.fingerprint_version not in SUPPORTED_VERSIONS:
            raise ContractError(f"unknown fingerprint version {self.fingerprint_version}")

    @property
    def video_dim(self) -> int:
        return len(self.video_mod)

    @property
    def frame_dim(self) -> int:
        return self.frame_mods.values.shape[1]

    def __eq__(self, other):
        return (isinstance(other, VideoEncoding)
                and (self.fingerprint, self.fingerprint_version)
                == (other.fingerprint, other.fingerprint_version)
                and (self.frames, self.height, self.width) == (other.frames, other.height, other.width)
                and (self.inner_steps, self.inner_lr) == (other.inner_steps, other.inner_lr)
                and np.array_equal(self.video_mod.values, other.video_mod.values)
                and np.array_equal(self.frame_mods.values, other.frame_mods.values))


@dataclass(frozen=True)
class EncodeSettings:
    """Window length, inner steps and inner learning rate of an encode."""

    batch_frames: int
    inner_steps: int
    inner_lr: float

    def __post_init__(self):
        if self.batch_frames < 1:
            raise ContractError(f"batch_frames must be >= 1, got {self.batch_frames}")
        if self.inner_steps < 0:
            raise ContractError(f"inner_steps must be >= 0, got {self.inner_steps}")
        require_rate("inner_lr", self.inner_lr)


def encode_video(model: MetaModel, video: VideoTensor,
                 settings: EncodeSettings) -> VideoEncoding:
    """Fit modulations to a video with the model frozen.

    Window 1 covers the first min(batch_frames, T) frames and optimizes
    the video vector together with those frame vectors on the full pixel
    grid; later windows keep the video vector frozen. A short final
    window is optimized as-is.
    """
    steps, lr, b = settings.inner_steps, settings.inner_lr, settings.batch_frames
    t_total = video.frames
    coords = grid_coords(video.height, video.width)
    flat = video.values.reshape(t_total, -1)

    phis_out = np.zeros((t_total, model.frame_dim), dtype=model.dtype)
    v = None  # adapted by the first window, held fixed by the rest
    for start in range(0, t_total, b):
        v, phis_out[start : start + b], _ = adapt(
            model, flat[start : start + b], coords, steps=steps, inner_lr=lr, v=v)
    return VideoEncoding(
        VideoModulation(v), FrameModulationSeq(phis_out),
        frames=t_total, height=video.height, width=video.width,
        fingerprint=model_fingerprint(model), inner_steps=steps, inner_lr=lr)


def _require_same_model(model: MetaModel, enc: VideoEncoding) -> None:
    actual = model_fingerprint(model, enc.fingerprint_version)
    if actual != enc.fingerprint:
        raise FingerprintMismatchError(enc.fingerprint, actual)


def decode_video(model: MetaModel, enc: VideoEncoding) -> VideoTensor:
    """Evaluate every frame on the full grid and clamp to [0, 1]."""
    _require_same_model(model, enc)
    coords = grid_coords(enc.height, enc.width)
    out = np.empty((enc.frames, enc.height, enc.width), dtype=np.float32)
    for t in range(enc.frames):
        pred = forward_batch(model, enc.video_mod.values, enc.frame_mods.values[t : t + 1],
                             coords)
        out[t] = pred.reshape(enc.height, enc.width)
    return VideoTensor(np.clip(out, 0.0, 1.0))


def decode_static_summary(model: MetaModel, enc: VideoEncoding) -> np.ndarray:
    """One frame decoded from the video vector alone (frame vector zero)."""
    zero = FrameModulationSeq(np.zeros((1, enc.frame_dim)))
    return decode_video(model, replace(enc, frame_mods=zero, frames=1)).values[0]


def compression_rate(dims: tuple[int, int, int], video_dim: int, frame_dim: int) -> float:
    """Pixels stored per scalar kept: T*h*w / (s + T*r)."""
    t, h, w = dims
    if min(t, h, w) < 1 or video_dim < 0 or frame_dim < 0:
        raise ContractError("dims must be positive and vector lengths non-negative")
    denom = video_dim + t * frame_dim
    if denom <= 0:
        raise ContractError("representation length is zero")
    return (t * h * w) / denom


def save_encoding(path, enc: VideoEncoding) -> int:
    """Write `enc` to `path` and return the file's checksum."""
    if enc.fingerprint_version != VERSION:
        raise ContractError(
            f"encoding names its model by a version {enc.fingerprint_version} fingerprint, "
            f"which a version {VERSION} file cannot hold; encode the video again")
    dt = enc.video_mod.values.dtype
    head = (struct.pack("<BIIIII", dtype_code(dt), enc.frames, enc.height, enc.width,
                        enc.video_dim, enc.frame_dim)
            + struct.pack("<IdQ", enc.inner_steps, enc.inner_lr, enc.fingerprint))
    checksum, _ = write_container(path, ENCODING_MAGIC, head,
                                  [enc.video_mod.values, enc.frame_mods.values], dt)
    return checksum


def load_encoding(path) -> VideoEncoding:
    with read_container(path, ENCODING_MAGIC) as reader:
        code, frames, height, width, video_dim, frame_dim = reader.unpack("<BIIIII")
        inner_steps, inner_lr, fingerprint = reader.unpack("<IdQ")
        arrays = reader.payload(decode_dtype(code),
                                {"v": (video_dim,), "phis": (frames, frame_dim)})
    return VideoEncoding(
        VideoModulation(arrays["v"]), FrameModulationSeq(arrays["phis"]),
        frames=frames, height=height, width=width,
        fingerprint=fingerprint, inner_steps=inner_steps, inner_lr=inner_lr,
        fingerprint_version=reader.version, checksum=reader.checksum)
