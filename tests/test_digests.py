"""One read, every digest: a version 2 file is named by its checksum,
and a model load takes its fingerprint beside it.

A version 2 load keeps the checksum it verified, and a save returns the
checksum it wrote, so a run manifest enters a container file by the u64
stored in its last 8 bytes. A model load deals the checksum and the
fingerprint to `parallel.RUNNER`'s threads as two tasks, so every case
runs under a one-thread and a two-thread runner.
"""

import hashlib
import struct
import sys
import threading

import numpy as np
import pytest

from vfuncta import container, parallel
from vfuncta.codec import (
    VideoEncoding,
    load_encoding,
    load_model,
    model_fingerprint,
    save_encoding,
    save_model,
)
from vfuncta.errors import ChecksumError
from vfuncta.manifest import RunManifest
from vfuncta.model import FrameModulationSeq, MetaModel, VideoModulation, param_shapes


@pytest.fixture(params=[1, 2], ids=["one-thread", "two-thread"])
def runner(request, monkeypatch):
    """`parallel.RUNNER` replaced by a runner over a BLAS that reports the
    given thread count."""
    runner = parallel.RowRunner(lambda threads: request.param)
    monkeypatch.setattr(parallel, "RUNNER", runner)
    yield runner
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_load_gives_the_fingerprint_and_the_manifest_hash(tmp_path, runner, dtype):
    """The checksum covers the file but its magic, version and itself."""
    path = tmp_path / "m.vfnc"
    saved = save_model(path, small_model(dtype))
    body = path.read_bytes()[8:-8]
    assert saved == stored_checksum(path) == container.blake2b64([body])

    loaded = load_model(path)
    assert loaded.fingerprints == {2: model_fingerprint(fresh_copy(loaded))}
    assert loaded.checksum == saved
    manifest = RunManifest("decode", [], {})
    manifest.add_input(path, loaded.checksum)
    assert manifest.inputs == {str(path): f"{saved:016x}"}


def test_an_encoding_save_and_load_give_the_manifest_hash(tmp_path, runner):
    rng = np.random.default_rng(2)
    enc = VideoEncoding(VideoModulation(rng.standard_normal(8).astype(np.float32)),
                        FrameModulationSeq(rng.standard_normal((3, 4)).astype(np.float32)),
                        frames=3, height=4, width=5, fingerprint=7, inner_steps=2,
                        inner_lr=0.05)
    path = tmp_path / "e.venc"
    assert save_encoding(path, enc) == stored_checksum(path)
    assert load_encoding(path).checksum == stored_checksum(path)


def test_the_digests_do_not_depend_on_the_thread_count(tmp_path, monkeypatch):
    model = small_model(np.float32, seed=5)
    seen = []
    for threads in (1, 2, 3):
        runner = parallel.RowRunner(lambda _, threads=threads: threads)
        monkeypatch.setattr(parallel, "RUNNER", runner)
        try:
            path = tmp_path / f"m{threads}.vfnc"
            saved = save_model(path, model)
            loaded = load_model(path)
        finally:
            runner.close()
        seen.append((path.read_bytes(), saved, loaded.checksum, loaded.fingerprints[2]))
    assert seen[0] == seen[1] == seen[2]


def read_model_payload(path, readers: list) -> None:
    """Read a model file's header and payload as `load_model` does,
    appending the body reader to `readers` before the payload is read."""
    with container.read_container(path, container.MODEL_MAGIC) as reader:
        readers.append(reader)
        reader.unpack("<I")
        dims = reader.unpack("<BIIIId")
        reader.unpack("<Q")
        reader.payload(np.float32, param_shapes(*dims[1:5]),
                       fingerprint_head=struct.pack("<BIIIId", *dims))


def test_a_flipped_payload_byte_fails_and_leaves_no_digest(tmp_path, runner):
    path = tmp_path / "m.vfnc"
    save_model(path, small_model(np.float32))
    readers = []
    read_model_payload(path, readers)
    assert readers[0].checksum == stored_checksum(path)
    assert readers[0].fingerprint == model_fingerprint(small_model(np.float32))
    blob = bytearray(path.read_bytes())
    blob[-12] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_model(path)
    with pytest.raises(ChecksumError):
        read_model_payload(path, readers)
    assert readers[1].checksum is None and readers[1].fingerprint is None


class HashFailure(Exception):
    pass


def check_a_failing_hash_reaches_the_caller(tmp_path, monkeypatch, in_pool: bool) -> None:
    """A load and a save on a two-thread runner whose hashers fail in the
    pool's threads (`in_pool`) or in the calling one: each must end, and
    a load raise that failure in its caller. A save hashes its checksum
    in the calling thread alone."""
    path = tmp_path / "m.vfnc"
    save_model(path, small_model(np.float32))
    runner = parallel.RowRunner(lambda threads: 2)
    monkeypatch.setattr(parallel, "RUNNER", runner)
    real = hashlib.blake2b
    failed = []

    class FailsOnOneSide:
        def __init__(self, *args, **kwargs):
            self._hasher = real(*args, **kwargs)

        def update(self, data):
            if threading.current_thread().name.startswith("vfuncta-rows") == in_pool:
                failed.append(len(data))
                raise HashFailure("hashed in the pool" if in_pool else "hashed in the caller")
            self._hasher.update(data)

        def digest(self):
            return self._hasher.digest()

    def outcome(fn) -> BaseException | None:
        """What `fn()` raises, run in a thread that must end in time."""
        raised = []

        def run():
            try:
                fn()
            except BaseException as exc:
                raised.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        return raised[0] if raised else None

    monkeypatch.setattr(hashlib, "blake2b", FailsOnOneSide)
    try:
        assert isinstance(outcome(lambda: load_model(path)), HashFailure)
        assert failed
        failed.clear()
        again = tmp_path / "again.vfnc"
        raised = outcome(lambda: save_model(again, small_model(np.float32)))
        if in_pool:
            assert raised is None and not failed and again.exists()
        else:
            assert isinstance(raised, HashFailure) and failed and not again.exists()
    finally:
        runner.close()


def test_a_hash_that_fails_in_the_pool_reaches_the_caller(tmp_path, monkeypatch):
    check_a_failing_hash_reaches_the_caller(tmp_path, monkeypatch, in_pool=True)


def test_a_hash_that_fails_in_the_calling_thread_reaches_the_caller(tmp_path, monkeypatch):
    """The checksum fails while the fingerprint runs in the pool: the
    load must wait for the pool's task to end, then raise."""
    check_a_failing_hash_reaches_the_caller(tmp_path, monkeypatch, in_pool=False)


def test_concurrent_loads_and_saves_share_the_pool_and_agree(tmp_path, monkeypatch):
    """More callers than cores, each dealing its passes to one shared pool
    while threads switch often: every digest matches the one-thread
    runner's, and every caller finishes."""
    model = small_model(np.float32, seed=3)
    path = tmp_path / "m.vfnc"
    expected_file = save_model(path, model)
    expected_fingerprint = model_fingerprint(fresh_copy(model))
    runner = parallel.RowRunner(lambda threads: 2)
    monkeypatch.setattr(parallel, "RUNNER", runner)
    seen, errors = [], []

    def work(i):
        try:
            for _ in range(10):
                loaded = load_model(path)
                saved = save_model(tmp_path / f"s{i}.vfnc", loaded)
                seen.append((loaded.checksum, loaded.fingerprints[2], saved))
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        runner.close()
    assert not errors
    assert seen == [(expected_file, expected_fingerprint, expected_file)] * 60
