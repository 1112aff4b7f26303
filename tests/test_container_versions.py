"""Container versions: v2 files are framed and fingerprinted with
blake2b-64, and v1 files (FNV-1a) are still read and verified. The v2
body of each kind is pinned byte for byte, and crafted bodies whose
header the payload cannot match are refused.

The container files under fixtures/v1 were written by the last release
that wrote container version 1; see fixtures/v1/README.md.
"""

import hashlib
import math
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
from vfuncta.errors import (
    ChecksumError,
    ContractError,
    FingerprintMismatchError,
    FormatError,
)
from vfuncta.heads import HeadConfig, load_head, save_head, train_head
from vfuncta.model import FrameModulationSeq, MetaModel, VideoModulation, param_shapes

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


def tiny_encoding() -> VideoEncoding:
    return VideoEncoding(VideoModulation(np.linspace(-1, 1, 8, dtype=np.float32)),
                         FrameModulationSeq(np.arange(12, dtype=np.float32).reshape(3, 4) / 7),
                         frames=3, height=4, width=5, fingerprint=0x0123456789ABCDEF,
                         inner_steps=2, inner_lr=0.05)


def v2_file(path: Path, magic: bytes, body: bytes) -> Path:
    path.write_bytes(magic + struct.pack("<I", 2) + body + struct.pack("<Q", blake2b64(body)))
    return path


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


def model_body(model: MetaModel) -> bytes:
    params = dict(model.parameters())
    k = range(model.layers)
    names = ([f"layer{i}.{part}" for i in k for part in ("weight", "bias")]
             + ["out.weight", "out.bias"]
             + [f"video_proj{i}" for i in k] + [f"frame_proj{i}" for i in k])
    payload = b"".join(params[name].data.astype("<f4").tobytes() for name in names)
    return (struct.pack("<IBIIIIdQQ", 1, 0, model.layers, model.hidden, model.video_dim,
                        model.frame_dim, model.omega0, model.iteration, len(payload))
            + payload)


def head_body(head) -> bytes:
    cfg = head.config
    assert (cfg.mode, cfg.task) == ("phi", "regression")
    arrays = [head.weights[0], head.biases[0], head.weights[1], head.biases[1],
              head.weights[2], head.biases[2], head.feature_mean, head.feature_scale,
              np.array([head.target_mean, head.target_scale])]
    payload = b"".join(a.astype("<f8").tobytes() for a in arrays)
    return (struct.pack("<IBBIIIIdIIdqQ", 2, 1, 0, head.weights[0].shape[0], *cfg.hidden, 1,
                        cfg.dropout, cfg.epochs, cfg.batch_size, cfg.learning_rate, cfg.seed,
                        len(payload))
            + payload)


def encoding_body(enc: VideoEncoding) -> bytes:
    payload = (enc.video_mod.values.astype("<f4").tobytes()
               + enc.frame_mods.values.astype("<f4").tobytes())
    return (struct.pack("<BIIIIIIdQQ", 0, enc.frames, enc.height, enc.width, enc.video_dim,
                        enc.frame_dim, enc.inner_steps, enc.inner_lr, enc.fingerprint,
                        len(payload))
            + payload)


PINNED = {save_model: (b"VFNC", model_body), save_head: (b"VFNC", head_body),
          save_encoding: (b"VENC", encoding_body)}


@pytest.mark.parametrize("save, make", [(save_model, tiny_model),
                                        (save_head, tiny_head),
                                        (save_encoding, tiny_encoding)])
def test_v2_framing_is_pinned(tmp_path, save, make):
    """The whole file: magic, version 2, the kind's header fields, the u64
    payload length, the arrays in table order, then the body's checksum."""
    obj = make()
    save(tmp_path / "f", obj)
    magic, body_of = PINNED[save]
    assert v2_file(tmp_path / "expected", magic, body_of(obj)).read_bytes() == (
        (tmp_path / "f").read_bytes())


def test_v2_fingerprint_is_pinned():
    model = tiny_model()
    header = struct.pack("<BIIIId", 0, model.layers, model.hidden, model.video_dim,
                         model.frame_dim, model.omega0)
    payload = b"".join(p.data.astype("<f4").tobytes() for _, p in model.parameters())
    assert model_fingerprint(model) == blake2b64(header + payload)
    assert model_fingerprint(model, version=1) == container.fnv1a64(header + payload)


# --- crafted bodies are refused -------------------------------------------------------

def crafted_model(path: Path, layers: int, hidden: int, video_dim: int, frame_dim: int,
                  values: int) -> Path:
    """A float32 model file with a valid checksum and `values` ones as payload."""
    payload = np.ones(values, dtype="<f4").tobytes()
    return v2_file(path, b"VFNC", struct.pack("<IBIIIIdQQ", 1, 0, layers, hidden, video_dim,
                                              frame_dim, 30.0, 0, len(payload)) + payload)


def test_a_layer_count_the_body_cannot_hold_fails_before_its_table(tmp_path, monkeypatch):
    path = crafted_model(tmp_path / "m.vfnc", 2**32 - 1, 1, 1, 1, values=4)

    def refuse(*args):
        raise AssertionError(f"param_shapes{args} was called")

    monkeypatch.setattr(container, "param_shapes", refuse)
    with pytest.raises(FormatError, match="do not fit"):
        load_model(path)


@pytest.mark.parametrize("zero", ["layers", "hidden", "video_dim", "frame_dim"])
def test_a_zero_model_dimension_is_refused(tmp_path, zero):
    dims = dict(layers=1, hidden=2, video_dim=3, frame_dim=3)
    dims[zero] = 0
    values = sum(math.prod(shape) for shape in param_shapes(**dims).values())
    with pytest.raises(FormatError, match="zero dimension"):
        load_model(crafted_model(tmp_path / "m.vfnc", **dims, values=values))


def test_a_one_unit_model_is_refused(tmp_path):
    # its values would depend on the tiles and row blocks of an evaluation
    dims = dict(layers=2, hidden=1, video_dim=3, frame_dim=3)
    values = sum(math.prod(shape) for shape in param_shapes(**dims).values())
    with pytest.raises(ContractError, match="hidden must be >= 2, got 1"):
        load_model(crafted_model(tmp_path / "m.vfnc", **dims, values=values))


def test_a_head_whose_output_width_is_not_one_is_refused(tmp_path):
    sizes = (3, 4, 2, 2)
    values = sum(a * b + b for a, b in zip(sizes, sizes[1:])) + 2 * sizes[0] + 2
    payload = np.ones(values, dtype="<f8").tobytes()
    body = struct.pack("<IBBIIIIdIIdqQ", 2, 1, 0, *sizes, 0.2, 1, 4, 0.01, 0,
                       len(payload)) + payload
    with pytest.raises(FormatError, match="output width 2"):
        load_head(v2_file(tmp_path / "h.vfnc", b"VFNC", body))
