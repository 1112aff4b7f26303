"""Codec contracts: the freeze-then-adapt protocol, decode semantics,
compression arithmetic, and checksummed container round trips."""

import math
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

from vfuncta import codec
from vfuncta.codec import (
    EncodeSettings,
    VideoEncoding,
    compression_rate,
    decode_static_summary,
    decode_video,
    encode_video,
    load_encoding,
    load_model,
    model_fingerprint,
    save_encoding,
)
from vfuncta.container import save_model
from vfuncta.data import VideoTensor
from vfuncta.errors import (
    BadMagicError,
    ChecksumError,
    ContractError,
    FingerprintMismatchError,
    FormatError,
    NonFiniteError,
    TruncatedFileError,
    UnsupportedVersionError,
)
from vfuncta.model import (
    FrameModulationSeq,
    MetaModel,
    VideoModulation,
    forward_batch,
    grid_coords,
)
from vfuncta.training import TrainConfig, adapt


def small_cfg(**overrides):
    base = dict(batch_frames=2, coords_per_frame=16, layers=2, hidden=8,
                video_dim=8, frame_dim=4, inner_steps=4, inner_lr=0.05,
                meta_lr=1e-5, iterations=1, omega0=30.0, seed=5,
                precision="float32")
    base.update(overrides)
    return TrainConfig(**base)


def settings_of(cfg):
    return EncodeSettings(cfg.batch_frames, cfg.inner_steps, cfg.inner_lr)


def ramp_video(frames=6, height=4, width=5):
    t = np.linspace(0.1, 0.9, frames, dtype=np.float32)[:, None, None]
    base = np.linspace(0, 1, height * width, dtype=np.float32).reshape(height, width)
    return VideoTensor(np.clip(0.5 * base[None] + 0.5 * t, 0, 1))


def zero_encoding(model, frames=3, height=4, width=5):
    return VideoEncoding(
        VideoModulation(np.zeros(model.video_dim, dtype=np.float32)),
        FrameModulationSeq(np.zeros((frames, model.frame_dim), dtype=np.float32)),
        frames=frames, height=height, width=width,
        fingerprint=model_fingerprint(model), inner_steps=0, inner_lr=0.1)


# --- encoding protocol --------------------------------------------------------

def test_single_window_encode_matches_adapt():
    cfg = small_cfg()
    model = cfg.new_model()
    video = ramp_video(frames=2)
    enc = encode_video(model, video, settings_of(cfg))

    v, phis, _ = adapt(model, video.values.reshape(2, -1), grid_coords(*video.dims[1:]),
                       steps=cfg.inner_steps, inner_lr=cfg.inner_lr, two_point=True)
    assert np.array_equal(enc.video_mod.values, v)
    assert np.array_equal(enc.frame_mods.values, phis)
    assert (enc.inner_steps, enc.inner_lr) == (cfg.inner_steps, cfg.inner_lr)


def test_encode_is_deterministic():
    cfg = small_cfg()
    model = cfg.new_model()
    video = ramp_video()
    settings = settings_of(cfg)
    assert encode_video(model, video, settings) == encode_video(model, video, settings)


def test_video_vector_frozen_after_first_window():
    cfg = small_cfg()
    model = cfg.new_model()
    video = ramp_video(frames=3 * cfg.batch_frames)
    enc_full = encode_video(model, video, settings_of(cfg))
    enc_first = encode_video(model, VideoTensor(video.values[: cfg.batch_frames]),
                             settings_of(cfg))
    assert np.array_equal(enc_full.video_mod.values, enc_first.video_mod.values)
    assert np.array_equal(enc_full.frame_mods.values[: cfg.batch_frames],
                          enc_first.frame_mods.values)


def test_ragged_final_window_encodes_all_frames():
    cfg = small_cfg()
    model = cfg.new_model()
    video = ramp_video(frames=5)  # windows of 2, 2, 1
    enc = encode_video(model, video, settings_of(cfg))
    assert enc.frames == 5
    assert len(enc.frame_mods) == 5
    assert not np.allclose(enc.frame_mods.values[4], 0.0)


@pytest.mark.parametrize("batch_frames, inner_steps, inner_lr", [
    (0, 4, 0.05), (2, -1, 0.05), (2, 4, -0.05), (2, 4, math.nan), (2, 4, math.inf)])
def test_encode_settings_reject_bad_values(batch_frames, inner_steps, inner_lr):
    with pytest.raises(ContractError):
        EncodeSettings(batch_frames, inner_steps, inner_lr)


# --- decoding ------------------------------------------------------------------

def test_decode_restores_dims_and_range():
    cfg = small_cfg()
    model = cfg.new_model()
    video = ramp_video()
    out = decode_video(model, encode_video(model, video, settings_of(cfg)))
    assert out.dims == video.dims
    assert out.values.min() >= 0.0 and out.values.max() <= 1.0


def test_zero_modulations_decode_to_constant_video():
    model = small_cfg().new_model()
    enc = zero_encoding(model)
    out = decode_video(model, enc)
    for t in range(1, enc.frames):
        assert np.array_equal(out.values[t], out.values[0])


def test_decode_equals_frame_by_frame_concatenation():
    # at frame_dim 512 and 256 units a 4-row shift product phis Q_k rounds
    # apart from four one-row products; at toy widths the two agree
    rng = np.random.default_rng(7)
    model = MetaModel.initialize(layers=2, hidden=256, video_dim=8, frame_dim=512, rng=rng)
    v = rng.normal(scale=0.05, size=8).astype(np.float32)
    phis = rng.normal(scale=0.05, size=(4, 512)).astype(np.float32)
    coords = grid_coords(4, 4)
    whole = forward_batch(model, v, phis, coords)
    enc = VideoEncoding(VideoModulation(v), FrameModulationSeq(phis), frames=4, height=4,
                        width=4, fingerprint=model_fingerprint(model), inner_steps=0,
                        inner_lr=0.1)
    decoded = decode_video(model, enc).values
    for t in range(4):
        assert np.array_equal(forward_batch(model, v, phis[t : t + 1], coords)[0], whole[t])
        alone = replace(enc, frame_mods=FrameModulationSeq(phis[t : t + 1]), frames=1)
        assert np.array_equal(decode_video(model, alone).values[0], decoded[t])


def test_decode_is_one_forward_pass_per_encoding(monkeypatch):
    model = small_cfg().new_model()
    calls = []
    monkeypatch.setattr(codec, "forward_batch",
                        lambda *args: calls.append(args[2].shape) or forward_batch(*args))
    decode_video(model, zero_encoding(model, frames=5))
    assert calls == [(5, model.frame_dim)]


def test_decode_refuses_wrong_model():
    cfg = small_cfg()
    model = cfg.new_model()
    other = small_cfg(seed=99).new_model()
    enc = encode_video(model, ramp_video(), settings_of(cfg))
    with pytest.raises(FingerprintMismatchError) as exc:
        decode_video(other, enc)
    message = str(exc.value)
    assert f"{model_fingerprint(model):016x}" in message
    assert f"{model_fingerprint(other):016x}" in message


def test_static_summary_ignores_frame_count_and_matches_zero_phi_frame():
    cfg = small_cfg()
    model = cfg.new_model()
    video = ramp_video(frames=3 * cfg.batch_frames)
    enc_full = encode_video(model, video, settings_of(cfg))
    enc_first = encode_video(model, VideoTensor(video.values[: cfg.batch_frames]),
                             settings_of(cfg))
    assert np.array_equal(decode_static_summary(model, enc_full),
                          decode_static_summary(model, enc_first))

    zero_phi = zero_encoding(model, frames=2, height=video.dims[1], width=video.dims[2])
    summary = decode_static_summary(model, zero_phi)
    decoded = decode_video(model, zero_phi)
    assert np.array_equal(summary, decoded.values[0])


def test_overflowing_model_fails_decode_and_summary():
    # 30 * 3e38 overflows float32: the sine of inf is nan in every pixel
    model = small_cfg().new_model()
    broken = model.replace_params(
        {"layer0.bias": np.full(model.hidden, 3e38, dtype=np.float32)})
    enc = zero_encoding(broken)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            decode_video(broken, enc)
        with pytest.raises(NonFiniteError):
            decode_static_summary(broken, enc)


# --- compression rate ----------------------------------------------------------

def test_compression_rate_reference_configuration():
    assert compression_rate((100, 112, 112), 2048, 512) == pytest.approx(23.56, abs=0.01)


def test_compression_rate_long_video_limit():
    limit = (112 * 112) / 512  # 24.5
    assert compression_rate((10**9, 112, 112), 2048, 512) == pytest.approx(limit, abs=1e-3)


def test_compression_rate_degenerate_identity():
    assert compression_rate((7, 4, 4), 0, 16) == 1.0


# --- containers ------------------------------------------------------------------

def test_model_save_load_save_byte_identical(tmp_path):
    model = small_cfg().new_model()
    p1, p2 = tmp_path / "a.vfnc", tmp_path / "b.vfnc"
    save_model(p1, model)
    save_model(p2, load_model(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_encoding_save_load_save_byte_identical(tmp_path):
    cfg = small_cfg()
    model = cfg.new_model()
    enc = encode_video(model, ramp_video(), settings_of(cfg))
    p1, p2 = tmp_path / "a.venc", tmp_path / "b.venc"
    save_encoding(p1, enc)
    loaded = load_encoding(p1)
    assert loaded == enc
    save_encoding(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_encoding_decodes_with_original_model(tmp_path):
    cfg = small_cfg()
    model = cfg.new_model()
    enc = encode_video(model, ramp_video(), settings_of(cfg))
    save_encoding(tmp_path / "e.venc", enc)
    out = decode_video(model, load_encoding(tmp_path / "e.venc"))
    assert out.dims == ramp_video().dims


def test_payload_corruption_detected(tmp_path):
    model = small_cfg().new_model()
    path = tmp_path / "m.vfnc"
    save_model(path, model)
    blob = bytearray(path.read_bytes())
    pos = len(blob) // 2
    blob[pos] ^= 0x40
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_model(path)


def test_truncated_file_detected(tmp_path):
    model = small_cfg().new_model()
    path = tmp_path / "m.vfnc"
    save_model(path, model)
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(TruncatedFileError):
        load_model(path)


def test_bad_magic_detected(tmp_path):
    path = tmp_path / "m.vfnc"
    path.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
    with pytest.raises(BadMagicError):
        load_model(path)


def test_unsupported_version_detected(tmp_path):
    model = small_cfg().new_model()
    path = tmp_path / "m.vfnc"
    save_model(path, model)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 4, 999)
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedVersionError):
        load_model(path)


def test_encoding_header_overhead_below_one_kib(tmp_path):
    cfg = small_cfg()
    model = cfg.new_model()
    video = ramp_video(frames=16)
    enc = encode_video(model, video, settings_of(cfg))
    path = tmp_path / "e.venc"
    save_encoding(path, enc)
    payload = 4 * (cfg.video_dim + 16 * cfg.frame_dim)
    overhead = path.stat().st_size - payload
    assert 0 < overhead < 1024


def test_encoding_file_corruption_detected(tmp_path):
    cfg = small_cfg()
    model = cfg.new_model()
    enc = encode_video(model, ramp_video(), settings_of(cfg))
    path = tmp_path / "e.venc"
    save_encoding(path, enc)
    blob = bytearray(path.read_bytes())
    blob[-12] ^= 0x01  # inside payload, before the checksum
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_encoding(path)


def test_fingerprint_stable_across_save_load(tmp_path):
    model = small_cfg().new_model()
    save_model(tmp_path / "m.vfnc", model)
    assert model_fingerprint(load_model(tmp_path / "m.vfnc")) == model_fingerprint(model)


def test_fingerprint_ignores_iteration_but_not_weights(tmp_path):
    cfg = small_cfg()
    model = cfg.new_model()
    bumped = model.replace_params({}, iteration=7)
    assert model_fingerprint(bumped) == model_fingerprint(model)
    tweaked = model.replace_params(
        {"out.bias": model.out_bias.data + np.float32(0.5)})
    assert model_fingerprint(tweaked) != model_fingerprint(model)