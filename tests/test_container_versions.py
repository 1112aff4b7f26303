"""Container versions: v2 files are framed and fingerprinted with
blake2b-64, and v1 files (FNV-1a) are still read and verified.

The container files under fixtures/v1 were written by the last release
that wrote container version 1; see fixtures/v1/README.md.
"""

import hashlib
import struct
from pathlib import Path

import numpy as np
import pytest

from vfuncta import container, manifest
from vfuncta.codec import (
    EncodeSettings,
    VideoEncoding,
    decode_static_summary,
    decode_video,
    encode_video,
    load_encoding,
    load_model,
    model_fingerprint,
    save_encoding,
    save_model,
)
from vfuncta.data import VideoTensor, load_video
from vfuncta.errors import ChecksumError, ContractError, FingerprintMismatchError
from vfuncta.heads import HeadConfig, load_head, save_head, train_head
from vfuncta.model import MetaModel

V1 = Path(__file__).parent / "fixtures" / "v1"
V1_FINGERPRINT = 0xFFC54EB32B8262D9


def blake2b64(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def file_version(path) -> int:
    return struct.unpack_from("<I", Path(path).read_bytes(), 4)[0]


def flip_payload_byte(src: Path, dest: Path) -> Path:
    blob = bytearray(src.read_bytes())
    blob[-12] ^= 0x01  # inside the payload, just before the checksum
    dest.write_bytes(bytes(blob))
    return dest


def tiny_model(seed=0) -> MetaModel:
    return MetaModel.initialize(layers=3, hidden=16, video_dim=8, frame_dim=4,
                                rng=np.random.default_rng(seed))


def tiny_video() -> VideoTensor:
    t = np.linspace(0.2, 0.8, 3, dtype=np.float32)[:, None, None]
    base = np.linspace(0, 1, 20, dtype=np.float32).reshape(4, 5)
    return VideoTensor(np.clip(0.5 * base[None] + 0.5 * t, 0, 1))


def tiny_head():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((10, 4))
    head, _ = train_head(x, x.sum(axis=1), HeadConfig(hidden=(5, 3), epochs=3,
                                                      batch_size=4))
    return head


# --- v1 files ---------------------------------------------------------------------

@pytest.mark.parametrize("name, loader", [("model.vfnc", load_model),
                                          ("clip.venc", load_encoding),
                                          ("head.vfnc", load_head)])
def test_v1_file_loads(name, loader):
    assert file_version(V1 / name) == 1
    loader(V1 / name)


def test_v1_encoding_decodes_against_v1_model_as_it_did():
    model = load_model(V1 / "model.vfnc")
    enc = load_encoding(V1 / "clip.venc")
    assert enc.fingerprint == V1_FINGERPRINT
    assert enc.fingerprint_version == 1
    assert model_fingerprint(model, version=1) == V1_FINGERPRINT
    decoded = decode_video(model, enc)
    assert np.array_equal(decoded.values, load_video(V1 / "clip_decoded.rawvid").values)
    decode_static_summary(model, enc)


def test_v1_head_keeps_its_settings():
    head = load_head(V1 / "head.vfnc")
    cfg = head.config
    assert (cfg.mode, cfg.task, cfg.hidden, cfg.epochs, cfg.batch_size) == (
        "phi", "regression", (6, 3), 5, 4)
    assert [w.shape for w in head.weights] == [(4, 6), (6, 3), (3, 1)]


@pytest.mark.parametrize("name, loader", [("model.vfnc", load_model),
                                          ("clip.venc", load_encoding),
                                          ("head.vfnc", load_head)])
def test_v1_flipped_payload_byte_fails_the_checksum(tmp_path, name, loader):
    with pytest.raises(ChecksumError):
        loader(flip_payload_byte(V1 / name, tmp_path / name))


def test_v1_encoding_against_another_model_is_refused():
    enc = load_encoding(V1 / "clip.venc")
    with pytest.raises(FingerprintMismatchError):
        decode_video(tiny_model(seed=1), enc)


def test_v1_model_resaves_as_v2_with_the_same_weights(tmp_path):
    old = load_model(V1 / "model.vfnc")
    save_model(tmp_path / "m.vfnc", old)
    assert file_version(tmp_path / "m.vfnc") == 2
    new = load_model(tmp_path / "m.vfnc")
    assert all(np.array_equal(p.data, q.data)
               for (_, p), (_, q) in zip(old.parameters(), new.parameters()))
    # the fingerprint names the content, not the file it came from
    decode_video(new, load_encoding(V1 / "clip.venc"))


def test_v1_head_resaves_as_v2(tmp_path):
    save_head(tmp_path / "h.vfnc", load_head(V1 / "head.vfnc"))
    assert file_version(tmp_path / "h.vfnc") == 2
    load_head(tmp_path / "h.vfnc")


def test_saving_a_v1_encoding_is_refused(tmp_path):
    enc = load_encoding(V1 / "clip.venc")
    with pytest.raises(ContractError, match="version 1"):
        save_encoding(tmp_path / "e.venc", enc)
    assert not (tmp_path / "e.venc").exists()


def test_encoding_equality_includes_the_fingerprint_version():
    enc = load_encoding(V1 / "clip.venc")
    same_number = VideoEncoding(enc.video_mod, enc.frame_mods, frames=enc.frames,
                                height=enc.height, width=enc.width,
                                fingerprint=enc.fingerprint,
                                inner_steps=enc.inner_steps, inner_lr=enc.inner_lr)
    assert same_number.fingerprint_version == 2
    assert same_number != enc


# --- v2 files never reach FNV-1a ----------------------------------------------------

@pytest.fixture
def no_fnv(monkeypatch):
    def refuse(data):
        raise AssertionError("the FNV-1a path was reached")

    monkeypatch.setattr(container, "fnv1a64", refuse)


def test_v2_round_trips_without_fnv(tmp_path, no_fnv):
    model = tiny_model()
    save_model(tmp_path / "m.vfnc", model)
    loaded = load_model(tmp_path / "m.vfnc")
    assert model_fingerprint(loaded) == model_fingerprint(model)

    enc = encode_video(loaded, tiny_video(), EncodeSettings(2, 2, 0.05))
    save_encoding(tmp_path / "e.venc", enc)
    again = load_encoding(tmp_path / "e.venc")
    assert again == enc
    assert decode_video(loaded, again).dims == tiny_video().dims

    save_head(tmp_path / "h.vfnc", tiny_head())
    load_head(tmp_path / "h.vfnc")

    for name in ("m.vfnc", "e.venc", "h.vfnc"):
        assert manifest.hash_file(tmp_path / name) == (
            f"{blake2b64((tmp_path / name).read_bytes()):016x}")


def test_v1_read_does_reach_fnv(no_fnv):
    with pytest.raises(AssertionError, match="FNV-1a"):
        load_model(V1 / "model.vfnc")


@pytest.mark.parametrize("save, make", [(save_model, tiny_model),
                                        (save_head, tiny_head)])
def test_v2_framing_is_pinned(tmp_path, save, make):
    path = tmp_path / "f.vfnc"
    save(path, make())
    blob = path.read_bytes()
    assert blob[:4] == b"VFNC" and file_version(path) == 2
    (stored,) = struct.unpack_from("<Q", blob, len(blob) - 8)
    assert stored == blake2b64(blob[8:-8])


def test_v2_fingerprint_is_pinned():
    model = tiny_model()
    header = struct.pack("<BIIIId", 0, model.layers, model.hidden, model.video_dim,
                         model.frame_dim, model.omega0)
    payload = b"".join(p.data.astype("<f4").tobytes() for _, p in model.parameters())
    assert model_fingerprint(model) == blake2b64(header + payload)
    assert model_fingerprint(model, version=1) == container.fnv1a64(header + payload)
