"""Container versions: v3 files are framed and fingerprinted from one
SHA-256 digest of the payload, and v1 files (FNV-1a) and v2 files
(BLAKE2b-64) are still read and verified. The body of each kind is
pinned byte for byte, the same in v2 and v3, and crafted bodies whose
header the payload cannot match are refused, as is a model file of
another kind.

The container files under fixtures/v1 and fixtures/v2 were written by
the last releases that wrote container versions 1 and 2, and those under
fixtures/v3 by a release that wrote version 3; see the README in each.
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
)
from vfuncta.container import save_model
from vfuncta.data import VideoTensor, load_video
from vfuncta.errors import (
    ChecksumError,
    ContractError,
    FingerprintMismatchError,
    FormatError,
)
from vfuncta.model import FrameModulationSeq, MetaModel, VideoModulation, param_shapes

FIXTURES = Path(__file__).parent / "fixtures"
V1, V2, V3 = FIXTURES / "v1", FIXTURES / "v2", FIXTURES / "v3"
V1_FINGERPRINT = 0xFFC54EB32B8262D9
V2_FINGERPRINT = 0x5127592D2643E1D3
V3_FINGERPRINT = 0xDD63336C8A93C876
FILES = [("model.vfnc", load_model), ("clip.venc", load_encoding)]


def blake2b64(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def sha256_64(data: bytes) -> int:
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "little")


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


def tiny_encoding() -> VideoEncoding:
    return VideoEncoding(VideoModulation(np.linspace(-1, 1, 8, dtype=np.float32)),
                         FrameModulationSeq(np.arange(12, dtype=np.float32).reshape(3, 4) / 7),
                         frames=3, height=4, width=5, fingerprint=0x0123456789ABCDEF,
                         inner_steps=2, inner_lr=0.05)


def v2_file(path: Path, magic: bytes, fields: bytes, payload: bytes) -> Path:
    """A version 2 file: the checksum is BLAKE2b-64 over the whole body."""
    body = fields + struct.pack("<Q", len(payload)) + payload
    path.write_bytes(magic + struct.pack("<I", 2) + body + struct.pack("<Q", blake2b64(body)))
    return path


def v3_file(path: Path, magic: bytes, fields: bytes, payload: bytes) -> Path:
    """A version 3 file: the checksum is SHA-256-64 over the header fields,
    the payload length and the payload's SHA-256 digest."""
    fields += struct.pack("<Q", len(payload))
    checksum = sha256_64(fields + hashlib.sha256(payload).digest())
    path.write_bytes(magic + struct.pack("<I", 3) + fields + payload
                     + struct.pack("<Q", checksum))
    return path


# --- v1 files ---------------------------------------------------------------------

@pytest.mark.parametrize("name, loader", FILES)
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


@pytest.mark.parametrize("name, loader", FILES)
def test_v1_flipped_payload_byte_fails_the_checksum(tmp_path, name, loader):
    with pytest.raises(ChecksumError):
        loader(flip_payload_byte(V1 / name, tmp_path / name))


def test_v1_encoding_against_another_model_is_refused():
    enc = load_encoding(V1 / "clip.venc")
    with pytest.raises(FingerprintMismatchError):
        decode_video(tiny_model(seed=1), enc)


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
    assert same_number.fingerprint_version == container.VERSION
    assert same_number != enc


# --- v2 files ---------------------------------------------------------------------

@pytest.mark.parametrize("name, loader", FILES)
def test_v2_file_loads(name, loader):
    assert file_version(V2 / name) == 2
    loader(V2 / name)


def test_v2_encoding_decodes_against_v2_model_as_it_did():
    model = load_model(V2 / "model.vfnc")
    enc = load_encoding(V2 / "clip.venc")
    assert (enc.fingerprint, enc.fingerprint_version) == (V2_FINGERPRINT, 2)
    assert model_fingerprint(model, version=2) == V2_FINGERPRINT
    decoded = decode_video(model, enc)
    assert np.array_equal(decoded.values, load_video(V2 / "clip_decoded.rawvid").values)
    decode_static_summary(model, enc)


@pytest.mark.parametrize("name, loader", FILES)
def test_v2_flipped_payload_byte_fails_the_checksum(tmp_path, name, loader):
    with pytest.raises(ChecksumError):
        loader(flip_payload_byte(V2 / name, tmp_path / name))


def test_saving_a_v2_encoding_is_refused(tmp_path):
    with pytest.raises(ContractError, match="version 2"):
        save_encoding(tmp_path / "e.venc", load_encoding(V2 / "clip.venc"))
    assert not (tmp_path / "e.venc").exists()


# --- v3 files ---------------------------------------------------------------------

@pytest.mark.parametrize("name, loader", FILES)
def test_v3_file_loads(name, loader):
    assert file_version(V3 / name) == 3
    loader(V3 / name)


def test_v3_encoding_decodes_against_v3_model_as_it_did():
    model = load_model(V3 / "model.vfnc")
    enc = load_encoding(V3 / "clip.venc")
    assert (enc.fingerprint, enc.fingerprint_version) == (V3_FINGERPRINT, 3)
    assert model_fingerprint(model, version=3) == V3_FINGERPRINT
    decoded = decode_video(model, enc)
    assert np.array_equal(decoded.values, load_video(V3 / "clip_decoded.rawvid").values)
    decode_static_summary(model, enc)


@pytest.mark.parametrize("name, loader", FILES)
def test_v3_flipped_payload_byte_fails_the_checksum(tmp_path, name, loader):
    with pytest.raises(ChecksumError):
        loader(flip_payload_byte(V3 / name, tmp_path / name))


# --- old files resave as v3 -------------------------------------------------------

@pytest.mark.parametrize("old", [V1, V2], ids=["v1", "v2"])
def test_an_old_model_resaves_as_v3_with_the_same_weights(tmp_path, old):
    """The fingerprint names the content, not the file it came from: the
    old encoding still decodes, bit for bit, against the re-saved model."""
    model = load_model(old / "model.vfnc")
    save_model(tmp_path / "m.vfnc", model)
    assert file_version(tmp_path / "m.vfnc") == 3
    new = load_model(tmp_path / "m.vfnc")
    assert all(np.array_equal(p, q)
               for (_, p), (_, q) in zip(model.parameters(), new.parameters()))
    decoded = decode_video(new, load_encoding(old / "clip.venc"))
    assert np.array_equal(decoded.values, load_video(old / "clip_decoded.rawvid").values)


# --- v3 files never reach FNV-1a or BLAKE2b ------------------------------------------

def refuse(monkeypatch, name: str) -> None:
    def refused(data):
        raise AssertionError(f"container.{name} was reached")

    monkeypatch.setattr(container, name, refused)


@pytest.fixture
def no_fnv(monkeypatch):
    refuse(monkeypatch, "fnv1a64")


@pytest.fixture
def no_blake2b(monkeypatch):
    refuse(monkeypatch, "blake2b64")


def test_v3_round_trips_without_an_old_hash(tmp_path, no_fnv, no_blake2b):
    model = tiny_model()
    save_model(tmp_path / "m.vfnc", model)
    loaded = load_model(tmp_path / "m.vfnc")
    assert model_fingerprint(loaded) == model_fingerprint(model)

    enc = encode_video(loaded, tiny_video(), EncodeSettings(2, 2, 0.05))
    save_encoding(tmp_path / "e.venc", enc)
    again = load_encoding(tmp_path / "e.venc")
    assert again == enc
    assert decode_video(loaded, again).dims == tiny_video().dims

    for name in ("m.vfnc", "e.venc"):
        assert manifest.hash_file(tmp_path / name) == (
            f"{sha256_64((tmp_path / name).read_bytes()):016x}")


def test_v2_round_trips_without_fnv(tmp_path, no_fnv):
    """A v2 model and encoding load, decode and re-save as v3 without
    reaching FNV-1a."""
    model = load_model(V2 / "model.vfnc")
    decode_video(model, load_encoding(V2 / "clip.venc"))
    save_model(tmp_path / "m.vfnc", model)
    load_model(tmp_path / "m.vfnc")


def test_v1_read_does_reach_fnv(no_fnv):
    with pytest.raises(AssertionError, match="fnv1a64"):
        load_model(V1 / "model.vfnc")


@pytest.mark.parametrize("name, loader", FILES)
def test_v2_read_does_reach_blake2b(no_blake2b, name, loader):
    with pytest.raises(AssertionError, match="blake2b64"):
        loader(V2 / name)


# --- the body of each kind, pinned ---------------------------------------------------

def model_body(model: MetaModel) -> tuple[bytes, bytes]:
    """A model file's header fields, up to the payload length, and payload."""
    params = dict(model.parameters())
    k = range(model.layers)
    names = ([f"layer{i}.{part}" for i in k for part in ("weight", "bias")]
             + ["out.weight", "out.bias"]
             + [f"video_proj{i}" for i in k] + [f"frame_proj{i}" for i in k])
    payload = b"".join(params[name].astype("<f4").tobytes() for name in names)
    return (struct.pack("<IBIIIIdQ", 1, 0, model.layers, model.hidden, model.video_dim,
                        model.frame_dim, model.omega0, model.iteration), payload)


def encoding_body(enc: VideoEncoding) -> tuple[bytes, bytes]:
    payload = (enc.video_mod.values.astype("<f4").tobytes()
               + enc.frame_mods.values.astype("<f4").tobytes())
    return (struct.pack("<BIIIIIIdQ", 0, enc.frames, enc.height, enc.width, enc.video_dim,
                        enc.frame_dim, enc.inner_steps, enc.inner_lr, enc.fingerprint),
            payload)


PINNED = {save_model: (b"VFNC", model_body), save_encoding: (b"VENC", encoding_body)}
KINDS = [(save_model, tiny_model), (save_encoding, tiny_encoding)]


@pytest.mark.parametrize("save, make", KINDS)
def test_v3_framing_is_pinned(tmp_path, save, make):
    """The whole file: magic, version 3, the kind's header fields, the u64
    payload length, the arrays in table order, then the checksum."""
    obj = make()
    save(tmp_path / "f", obj)
    magic, body_of = PINNED[save]
    assert v3_file(tmp_path / "expected", magic, *body_of(obj)).read_bytes() == (
        (tmp_path / "f").read_bytes())


@pytest.mark.parametrize("save, make", KINDS)
def test_v2_framing_is_pinned(tmp_path, save, make):
    """A v2 file framed by hand loads; the v3 file written for the same
    object differs from it in the version u32 and the last 8 bytes alone."""
    obj = make()
    magic, body_of = PINNED[save]
    old = v2_file(tmp_path / "old", magic, *body_of(obj)).read_bytes()
    save(tmp_path / "new", obj)
    new = (tmp_path / "new").read_bytes()
    assert (len(new), new[:4], new[8:-8]) == (len(old), old[:4], old[8:-8])
    assert (file_version(tmp_path / "old"), file_version(tmp_path / "new")) == (2, 3)
    loader = {save_model: load_model, save_encoding: load_encoding}[save]
    loaded = loader(tmp_path / "old")
    assert body_of(loaded) == body_of(obj)


@pytest.mark.parametrize("name, loader, save", [
    ("model.vfnc", load_model, save_model), ("clip.venc", load_encoding, save_encoding)])
def test_v2_fixtures_are_framed_as_pinned(tmp_path, name, loader, save):
    magic, body_of = PINNED[save]
    expected = v2_file(tmp_path / name, magic, *body_of(loader(V2 / name)))
    assert expected.read_bytes() == (V2 / name).read_bytes()


@pytest.mark.parametrize("name, loader, save", [
    ("model.vfnc", load_model, save_model), ("clip.venc", load_encoding, save_encoding)])
def test_v3_fixtures_are_framed_as_pinned(tmp_path, name, loader, save):
    magic, body_of = PINNED[save]
    expected = v3_file(tmp_path / name, magic, *body_of(loader(V3 / name)))
    assert expected.read_bytes() == (V3 / name).read_bytes()


def fingerprint_parts(model: MetaModel) -> tuple[bytes, bytes]:
    header = struct.pack("<BIIIId", 0, model.layers, model.hidden, model.video_dim,
                         model.frame_dim, model.omega0)
    return header, b"".join(p.astype("<f4").tobytes() for _, p in model.parameters())


def test_v3_fingerprint_is_pinned():
    header, payload = fingerprint_parts(tiny_model())
    assert model_fingerprint(tiny_model()) == sha256_64(
        header + hashlib.sha256(payload).digest())


def test_v2_fingerprint_is_pinned():
    model = tiny_model()
    header, payload = fingerprint_parts(model)
    assert model_fingerprint(model, version=2) == blake2b64(header + payload)
    assert model_fingerprint(model, version=1) == container.fnv1a64(header + payload)


# --- crafted bodies are refused -------------------------------------------------------

def crafted_model(path: Path, layers: int, hidden: int, video_dim: int, frame_dim: int,
                  values: int) -> Path:
    """A float32 model file with a valid checksum and `values` ones as payload."""
    payload = np.ones(values, dtype="<f4").tobytes()
    return v3_file(path, b"VFNC", struct.pack("<IBIIIIdQ", 1, 0, layers, hidden, video_dim,
                                              frame_dim, 30.0, 0), payload)


def test_a_layer_count_the_body_cannot_hold_fails_before_its_table(tmp_path, monkeypatch):
    path = crafted_model(tmp_path / "m.vfnc", 2**32 - 1, 1, 1, 1, values=4)

    def refuse(*args):
        raise AssertionError(f"param_shapes{args} was called")

    monkeypatch.setattr(container, "param_shapes", refuse)
    with pytest.raises(FormatError, match="do not fit"):
        load_model(path)


def model_values(layers: int, hidden: int, video_dim: int, frame_dim: int) -> int:
    """The values a model's payload holds, counted without `param_shapes`,
    which refuses the sizes given below: per sine layer a weight of 2 or
    `hidden` inputs, a bias and two projections, then the output layer."""
    return hidden * (2 + (layers - 1) * hidden + layers * (1 + video_dim + frame_dim)) + hidden + 1


@pytest.mark.parametrize("zero", ["layers", "hidden", "video_dim", "frame_dim"])
def test_a_zero_model_dimension_is_refused(tmp_path, zero):
    assert model_values(2, 3, 4, 5) == sum(math.prod(shape)
                                           for shape in param_shapes(2, 3, 4, 5).values())
    dims = dict(layers=1, hidden=2, video_dim=3, frame_dim=3)
    dims[zero] = 0
    path = crafted_model(tmp_path / "m.vfnc", **dims, values=model_values(**dims))
    with pytest.raises(FormatError, match=f"m.vfnc: {zero} must be >= [12], got 0"):
        load_model(path)


def test_a_one_unit_model_is_refused(tmp_path):
    # its values would depend on the tiles and row blocks of an evaluation
    dims = dict(layers=2, hidden=1, video_dim=3, frame_dim=3)
    path = crafted_model(tmp_path / "m.vfnc", **dims, values=model_values(**dims))
    with pytest.raises(FormatError, match="m.vfnc: hidden must be >= 2, got 1"):
        load_model(path)


def test_a_kind_2_file_is_refused_as_a_model(tmp_path):
    """Older releases wrote heads as kind 2 VFNC files. A version 3 file
    of that kind is refused by its kind tag, even with a model's body."""
    fields, payload = model_body(tiny_model())
    fields = struct.pack("<I", 2) + fields[4:]
    with pytest.raises(FormatError, match="kind 2 is not a model checkpoint"):
        load_model(v3_file(tmp_path / "h.vfnc", b"VFNC", fields, payload))
