"""Encode videos of any length into one video vector plus per-frame
vectors, decode them back to pixels, and persist both.

Encoding is autoregressive over windows of `batch_frames` consecutive
frames: the video vector is optimized jointly with the first window's
frame vectors, then frozen; every later window optimizes fresh
zero-initialized frame vectors only. `EncodeSettings` holds the three
values this procedure takes: the window length, the inner steps and the
inner learning rate. Decoding evaluates the network on the full pixel
grid, every frame of a video in one pass, and clamps to [0, 1]; clamping
never happens on the encode side.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .container import (
    ENCODING_MAGIC,
    VERSION,
    decode_dtype,
    dtype_code,
    load_model,
    model_fingerprint,
    read_container,
    write_container,
)
from .data import VideoTensor
from .errors import ContractError, FingerprintMismatchError, FormatError, require_least
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
    "load_model", "model_fingerprint",
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
        require_least(vars(self), batch_frames=1, inner_steps=0)
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
    t_total, height, width = video.dims
    coords = grid_coords(height, width)
    flat = video.values.reshape(t_total, -1)

    phis_out = np.zeros((t_total, model.frame_dim), dtype=model.dtype)
    v = None  # adapted by the first window, held fixed by the rest
    for start in range(0, t_total, b):
        v, phis_out[start : start + b], _ = adapt(
            model, flat[start : start + b], coords, steps=steps, inner_lr=lr, v=v)
    return VideoEncoding(
        VideoModulation(v), FrameModulationSeq(phis_out),
        frames=t_total, height=height, width=width,
        fingerprint=model_fingerprint(model), inner_steps=steps, inner_lr=lr)


def _require_same_model(model: MetaModel, enc: VideoEncoding) -> None:
    actual = model_fingerprint(model, enc.fingerprint_version)
    if actual != enc.fingerprint:
        raise FingerprintMismatchError(enc.fingerprint, actual)


def decode_video(model: MetaModel, enc: VideoEncoding) -> VideoTensor:
    """Evaluate every frame on the full grid in one pass and clamp to [0, 1]."""
    _require_same_model(model, enc)
    pred = forward_batch(model, enc.video_mod.values, enc.frame_mods.values,
                         grid_coords(enc.height, enc.width))
    values = np.clip(pred.reshape(enc.frames, enc.height, enc.width), 0.0, 1.0)
    values.setflags(write=False)  # so that the video holds it without a copy
    return VideoTensor(values)


def decode_static_summary(model: MetaModel, enc: VideoEncoding) -> np.ndarray:
    """One frame decoded from the video vector alone (frame vector zero)."""
    zero = FrameModulationSeq(np.zeros((1, enc.frame_dim)))
    return decode_video(model, replace(enc, frame_mods=zero, frames=1)).values[0]


def compression_rate(dims: tuple[int, int, int], video_dim: int, frame_dim: int) -> float:
    """Pixels stored per scalar kept: T*h*w / (s + T*r)."""
    t, h, w = dims
    return (t * h * w) / (video_dim + t * frame_dim)


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
        if min(frames, height, width, video_dim, frame_dim) < 1:
            raise FormatError(f"{reader.source}: extents must be positive, got frames {frames}, "
                              f"height {height}, width {width}, video_dim {video_dim}, "
                              f"frame_dim {frame_dim}")
        # a decode holds the frame grid, (pixels, 2) float32, and the
        # predictions, (frames, pixels) of up to 8 bytes: either must fit
        # numpy's index range
        if frames * height * width * 8 > np.iinfo(np.intp).max:
            raise FormatError(f"{reader.source}: {frames} frames of {height} x {width} pixels "
                              f"are past numpy's array size limit")
        arrays = reader.payload(decode_dtype(code),
                                {"v": (video_dim,), "phis": (frames, frame_dim)})
    return VideoEncoding(
        VideoModulation(arrays["v"]), FrameModulationSeq(arrays["phis"]),
        frames=frames, height=height, width=width,
        fingerprint=fingerprint, inner_steps=inner_steps, inner_lr=inner_lr,
        fingerprint_version=reader.version, checksum=reader.checksum)
