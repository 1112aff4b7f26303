"""Encode videos of any length into one video vector plus per-frame
vectors, decode them back to pixels, and persist both.

Encoding is autoregressive over windows of `batch_frames` consecutive
frames: the video vector is optimized jointly with the first window's
frame vectors, then frozen; every later window optimizes fresh
zero-initialized frame vectors only. Decoding evaluates the network on
the full pixel grid per frame and clamps to [0, 1]; clamping never
happens on the encode side.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .container import (
    ENCODING_MAGIC,
    SUPPORTED_VERSIONS,
    VERSION,
    atomic_write_bytes,
    decode_dtype,
    dtype_code,
    load_model,
    model_fingerprint,
    pack_container,
    save_model,
    unpack_container,
    _BodyReader,
)
from .data import VideoTensor
from .errors import ContractError, FingerprintMismatchError, FormatError
from .model import (
    CoordinateGrid,
    FrameModulationSeq,
    MetaModel,
    VideoModulation,
    forward_batch,
)
from .tensor import Tensor
from .training import TrainConfig, _adapt

__all__ = [
    "VideoEncoding", "encode_video", "decode_video", "decode_static_summary",
    "compression_rate", "save_encoding", "load_encoding",
    "save_model", "load_model", "model_fingerprint",
]


class VideoEncoding:
    """Compressed form of one video: (v, per-frame phis) plus provenance.

    `fingerprint_version` is the container version whose hash made
    `fingerprint`: an encoding loaded from a version 1 file names its
    model by the version 1 fingerprint.
    """

    __slots__ = ("video_mod", "frame_mods", "frames", "height", "width",
                 "fingerprint", "inner_steps", "inner_lr", "fingerprint_version")

    def __init__(self, video_mod: VideoModulation, frame_mods: FrameModulationSeq,
                 frames: int, height: int, width: int, fingerprint: int,
                 inner_steps: int, inner_lr: float, fingerprint_version: int = VERSION):
        if len(frame_mods) != frames:
            raise ContractError(
                f"encoding holds {len(frame_mods)} frame vectors for {frames} frames")
        if min(frames, height, width) < 1:
            raise ContractError("encoded dims must be positive")
        if fingerprint_version not in SUPPORTED_VERSIONS:
            raise ContractError(f"unknown fingerprint version {fingerprint_version}")
        self.video_mod = video_mod
        self.frame_mods = frame_mods
        self.frames = frames
        self.height = height
        self.width = width
        self.fingerprint = int(fingerprint)
        self.inner_steps = int(inner_steps)
        self.inner_lr = float(inner_lr)
        self.fingerprint_version = int(fingerprint_version)

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


def encode_video(model: MetaModel, video: VideoTensor, cfg: TrainConfig, *,
                 inner_steps: int | None = None) -> VideoEncoding:
    """Fit modulations to a video with the model frozen.

    Window 1 covers the first min(batch_frames, T) frames and optimizes
    the video vector together with those frame vectors on the full pixel
    grid; later windows keep the video vector frozen. A short final
    window is optimized as-is.
    """
    if (model.video_dim, model.frame_dim) != (cfg.video_dim, cfg.frame_dim):
        raise ContractError(
            f"model modulation dims {(model.video_dim, model.frame_dim)} do not match "
            f"config {(cfg.video_dim, cfg.frame_dim)}")
    steps = cfg.inner_steps if inner_steps is None else inner_steps
    t_total = video.frames
    b = cfg.batch_frames
    grid = CoordinateGrid(video.height, video.width)
    flat = video.values.reshape(t_total, -1)

    phis_out = np.zeros((t_total, model.frame_dim), dtype=model.dtype)
    first = min(b, t_total)
    v, phis, _ = _adapt(model, flat[:first], grid.coords,
                        steps=steps, inner_lr=cfg.inner_lr)
    phis_out[:first] = phis
    start = first
    while start < t_total:
        stop = min(start + b, t_total)
        _, phis, _ = _adapt(model, flat[start:stop], grid.coords,
                            steps=steps, inner_lr=cfg.inner_lr,
                            v_init=v, freeze_v=True)
        phis_out[start:stop] = phis
        start = stop
    return VideoEncoding(
        VideoModulation(v), FrameModulationSeq(phis_out),
        frames=t_total, height=video.height, width=video.width,
        fingerprint=model_fingerprint(model),
        inner_steps=steps, inner_lr=cfg.inner_lr)


def _require_same_model(model: MetaModel, enc: VideoEncoding) -> None:
    actual = model_fingerprint(model, enc.fingerprint_version)
    if actual != enc.fingerprint:
        raise FingerprintMismatchError(enc.fingerprint, actual)


def decode_video(model: MetaModel, enc: VideoEncoding) -> VideoTensor:
    """Evaluate every frame on the full grid and clamp to [0, 1]."""
    _require_same_model(model, enc)
    grid = CoordinateGrid(enc.height, enc.width)
    coords = grid.coords.astype(model.dtype)
    v_t = Tensor(np.asarray(enc.video_mod.values, dtype=model.dtype))
    out = np.empty((enc.frames, enc.height, enc.width), dtype=np.float32)
    for t in range(enc.frames):
        phi_t = Tensor(enc.frame_mods.values[t : t + 1].astype(model.dtype))
        pred = forward_batch(model, v_t, phi_t, coords, coords.shape[0])
        out[t] = pred.data.reshape(enc.height, enc.width)
    return VideoTensor(np.clip(out, 0.0, 1.0))


def decode_static_summary(model: MetaModel, enc: VideoEncoding) -> np.ndarray:
    """One frame decoded from the video vector alone (frame vector zero)."""
    _require_same_model(model, enc)
    grid = CoordinateGrid(enc.height, enc.width)
    coords = grid.coords.astype(model.dtype)
    v_t = Tensor(np.asarray(enc.video_mod.values, dtype=model.dtype))
    phi_t = Tensor(np.zeros((1, model.frame_dim), dtype=model.dtype))
    pred = forward_batch(model, v_t, phi_t, coords, coords.shape[0])
    return np.clip(pred.data.reshape(enc.height, enc.width), 0.0, 1.0).astype(np.float32)


def compression_rate(dims: tuple[int, int, int], video_dim: int, frame_dim: int) -> float:
    """Pixels stored per scalar kept: T*h*w / (s + T*r)."""
    t, h, w = dims
    if min(t, h, w) < 1 or video_dim < 0 or frame_dim < 0:
        raise ContractError("dims must be positive and vector lengths non-negative")
    denom = video_dim + t * frame_dim
    if denom <= 0:
        raise ContractError("representation length is zero")
    return (t * h * w) / denom


def save_encoding(path, enc: VideoEncoding) -> None:
    if enc.fingerprint_version != VERSION:
        raise ContractError(
            f"encoding names its model by a version {enc.fingerprint_version} fingerprint, "
            f"which a version {VERSION} file cannot hold; encode the video again")
    dt = np.dtype(enc.video_mod.values.dtype).newbyteorder("<")
    payload = (np.ascontiguousarray(enc.video_mod.values).astype(dt, copy=False).tobytes()
               + np.ascontiguousarray(enc.frame_mods.values).astype(dt, copy=False).tobytes())
    body = (struct.pack("<BIIIII", dtype_code(dt), enc.frames, enc.height, enc.width,
                        enc.video_dim, enc.frame_dim)
            + struct.pack("<IdQQ", enc.inner_steps, enc.inner_lr, enc.fingerprint,
                          len(payload))
            + payload)
    atomic_write_bytes(path, pack_container(ENCODING_MAGIC, body))


def load_encoding(path) -> VideoEncoding:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    version, body = unpack_container(blob, ENCODING_MAGIC, source=str(path))
    reader = _BodyReader(body, str(path))
    code, frames, height, width, video_dim, frame_dim = reader.unpack("<BIIIII")
    inner_steps, inner_lr, fingerprint, payload_len = reader.unpack("<IdQQ")
    dt = decode_dtype(code)
    expected = (video_dim + frames * frame_dim) * dt.itemsize
    if payload_len != expected:
        raise FormatError(f"{path}: payload {payload_len} bytes, expected {expected}")
    payload = reader.raw(payload_len)
    reader.expect_end()
    v = np.frombuffer(payload, dtype=dt, count=video_dim)
    phis = np.frombuffer(payload, dtype=dt, count=frames * frame_dim,
                         offset=video_dim * dt.itemsize).reshape(frames, frame_dim)
    native = dt.newbyteorder("=")
    return VideoEncoding(
        VideoModulation(v.astype(native, copy=True)),
        FrameModulationSeq(phis.astype(native, copy=True)),
        frames=frames, height=height, width=width,
        fingerprint=fingerprint, inner_steps=inner_steps, inner_lr=inner_lr,
        fingerprint_version=version)
