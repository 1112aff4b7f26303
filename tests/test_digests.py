"""One pass, every digest: a version 3 file is named by its checksum,
and a model load or save takes its fingerprint from the same payload
digest.

A version 3 load keeps the checksum it verified, and a save returns the
checksum it wrote, so a run manifest enters a container file by the u64
stored in its last 8 bytes. Both hash the payload once, into the digest
D that the checksum and the fingerprint are derived from, in the calling
thread: every case runs under a one-thread and a two-thread row runner,
whose pool no container read or write may start.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from helpers import Hashers

from vfuncta import container, parallel
from vfuncta.codec import (
    VideoEncoding,
    decode_video,
    load_encoding,
    load_model,
    model_fingerprint,
    save_encoding,
)
from vfuncta.container import save_model
from vfuncta.errors import ChecksumError
from vfuncta.manifest import RunManifest
from vfuncta.model import FrameModulationSeq, MetaModel, VideoModulation, param_shapes

V2 = Path(__file__).parent / "fixtures" / "v2"


@pytest.fixture(params=[1, 2], ids=["one-thread", "two-thread"])
def runner(request, monkeypatch):
    """`parallel.RUNNER` replaced by a runner over a BLAS that reports the
    given thread count; the container's hashing must not start its pool."""
    runner = parallel.RowRunner(lambda threads: request.param)
    monkeypatch.setattr(parallel, "RUNNER", runner)
    yield runner
    assert runner._pool is None
    runner.close()


def small_model(dtype, seed=0) -> MetaModel:
    return MetaModel.initialize(layers=3, hidden=32, video_dim=64, frame_dim=16,
                                dtype=dtype, rng=np.random.default_rng(seed))


def stored_checksum(path) -> int:
    """The checksum a container file stores: its last 8 bytes, little-endian."""
    return int.from_bytes(path.read_bytes()[-8:], "little")


def fresh_copy(model: MetaModel) -> MetaModel:
    """The same parameters in a new object, whose fingerprint memo is empty."""
    return MetaModel(dict(model.parameters()), model.omega0, model.iteration)


def sha256_64(data: bytes) -> int:
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "little")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_load_gives_the_fingerprint_and_the_manifest_hash(tmp_path, runner, dtype):
    """The checksum covers the file but its magic, version and itself:
    the header fields and payload length, then the payload's digest."""
    model = small_model(dtype)
    path = tmp_path / "m.vfnc"
    saved = save_model(path, model)
    payload = sum(p.data.nbytes for _, p in model.parameters())
    fields, arrays = path.read_bytes()[8:-8 - payload], path.read_bytes()[-8 - payload:-8]
    assert saved == stored_checksum(path) == sha256_64(
        fields + hashlib.sha256(arrays).digest())

    loaded = load_model(path)
    assert loaded.fingerprints == {3: model_fingerprint(fresh_copy(loaded))}
    assert loaded.checksum == saved
    manifest = RunManifest("decode", [], {})
    manifest.add_input(path, loaded.checksum)
    assert manifest.inputs == {str(path): f"{saved:016x}"}


def test_a_save_gives_the_fingerprint_from_its_digest(tmp_path, runner):
    model = small_model(np.float32, seed=4)
    save_model(tmp_path / "m.vfnc", model)
    assert model.fingerprints == {3: model_fingerprint(fresh_copy(model))}


def test_an_encoding_save_and_load_give_the_manifest_hash(tmp_path, runner):
    rng = np.random.default_rng(2)
    enc = VideoEncoding(VideoModulation(rng.standard_normal(8).astype(np.float32)),
                        FrameModulationSeq(rng.standard_normal((3, 4)).astype(np.float32)),
                        frames=3, height=4, width=5, fingerprint=7, inner_steps=2,
                        inner_lr=0.05)
    path = tmp_path / "e.venc"
    assert save_encoding(path, enc) == stored_checksum(path)
    assert load_encoding(path).checksum == stored_checksum(path)


def read_model_payload(path, readers: list) -> None:
    """Read a model file's header and payload as `load_model` does,
    appending the body reader to `readers` before the payload is read."""
    with container.read_container(path, container.MODEL_MAGIC) as reader:
        readers.append(reader)
        reader.unpack("<I")
        dims = reader.unpack("<BIIIId")
        reader.unpack("<Q")
        reader.payload(np.float32, param_shapes(*dims[1:5]))


def test_a_flipped_payload_byte_fails_and_leaves_no_digest(tmp_path, runner):
    path = tmp_path / "m.vfnc"
    save_model(path, small_model(np.float32))
    readers = []
    read_model_payload(path, readers)
    assert readers[0].checksum == stored_checksum(path)
    payload = sum(p.data.nbytes for _, p in small_model(np.float32).parameters())
    assert readers[0].digest == hashlib.sha256(path.read_bytes()[-8 - payload:-8]).digest()
    blob = bytearray(path.read_bytes())
    blob[-12] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_model(path)
    with pytest.raises(ChecksumError):
        read_model_payload(path, readers)
    assert readers[1].checksum is None and readers[1].digest is None


def test_a_version_2_read_takes_no_fingerprint_until_a_decode_asks(runner):
    """A version 2 load verifies its BLAKE2b checksum and keeps neither a
    checksum nor a fingerprint; a version 2 `.venc` decode computes the
    version 2 fingerprint from the model, once."""
    model = load_model(V2 / "model.vfnc")
    assert (model.checksum, model.fingerprints) == (None, {})
    enc = load_encoding(V2 / "clip.venc")
    assert (enc.checksum, enc.fingerprint_version) == (None, 2)
    decode_video(model, enc)
    assert model.fingerprints == {2: enc.fingerprint}


def test_a_load_and_a_save_feed_the_payload_to_one_hash(tmp_path, monkeypatch, runner):
    model = small_model(np.float32, seed=6)
    payload = b"".join(p.data.astype("<f4").tobytes() for _, p in model.parameters())
    with monkeypatch.context() as patch:
        hashers = Hashers(patch)
        save_model(tmp_path / "m.vfnc", model)
        assert hashers.passes_over(payload) == ["sha256"]
    with monkeypatch.context() as patch:
        hashers = Hashers(patch)
        loaded = load_model(tmp_path / "m.vfnc")
        assert model_fingerprint(loaded) == model.fingerprints[3]
        assert hashers.passes_over(payload) == ["sha256"]
    with monkeypatch.context() as patch:
        hashers = Hashers(patch)
        model_fingerprint(fresh_copy(model))
        assert hashers.passes_over(payload) == ["sha256"]

