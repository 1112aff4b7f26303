"""What reading a container and hashing a file allocate, by tracemalloc.

A model load holds its payload once: the file is read straight into the
parameters, one read-only array each, whose digest is hashed from them
in place. A truncated file is refused before any of them exists, and a file hash reads in chunks. An
outer step holds no array over every row of its batch.
"""

import tracemalloc

import numpy as np
import pytest

from vfuncta import manifest, parallel
from vfuncta.codec import load_model
from vfuncta.container import save_model
from vfuncta.errors import TruncatedFileError
from vfuncta.model import MetaModel, loss_and_grads


def traced_peak(fn, *args):
    """The peak of traced memory while `fn(*args)` runs, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.fixture
def model_file(tmp_path):
    """A 2.5 MB float32 model file and its payload size in bytes."""
    model = MetaModel.initialize(layers=3, hidden=256, video_dim=512, frame_dim=128,
                                 rng=np.random.default_rng(6))
    save_model(tmp_path / "m.vfnc", model)
    return tmp_path / "m.vfnc", sum(p.nbytes for _, p in model.parameters())


def test_a_model_load_holds_its_payload_once(model_file):
    path, payload = model_file
    load_model(path)  # imports and first-call caches out of the way
    peak, _ = traced_peak(load_model, path)
    assert peak <= 1.1 * payload


def test_a_model_load_hashing_on_two_threads_holds_its_payload_once(model_file, monkeypatch):
    """Under a row runner with two threads the load still hashes in the
    calling thread, from the arrays it read, and starts no pool."""
    path, payload = model_file
    runner = parallel.RowRunner(lambda threads: 2)
    monkeypatch.setattr(parallel, "RUNNER", runner)
    try:
        load_model(path)
        peak, model = traced_peak(load_model, path)
        assert runner._pool is None
    finally:
        runner.close()
    assert peak <= 1.1 * payload
    assert model.fingerprints and model.checksum is not None


def test_a_loaded_models_parameters_are_read_only_arrays_of_their_own(model_file):
    """Each parameter owns the memory it was read into, so a load needs
    no free region the size of the whole payload."""
    path, payload = model_file
    arrays = [p for _, p in load_model(path).parameters()]
    assert all(arr.base is None and not arr.flags.writeable for arr in arrays)
    assert sum(arr.nbytes for arr in arrays) == payload


def test_a_payload_past_the_end_of_the_file_fails_before_it_is_allocated(model_file):
    path, payload = model_file
    path.write_bytes(path.read_bytes()[:-1000])
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedFileError, match="inside the payload"):
            load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < payload / 4


def test_a_file_hash_reads_in_chunks(tmp_path):
    path = tmp_path / "big.bin"
    data = np.random.default_rng(1).bytes(16 * manifest.HASH_CHUNK + 123)
    path.write_bytes(data)
    peak, digest = traced_peak(manifest.hash_file, path)
    assert peak < len(data) / 4
    assert digest == f"{manifest.sha256_64([data]):016x}"


def test_an_outer_step_holds_no_array_over_every_row(monkeypatch):
    b, n, layers, hidden, video_dim = 4, 512, 3, 64, 2048
    rng = np.random.default_rng(7)
    model = MetaModel.initialize(layers=layers, hidden=hidden, video_dim=video_dim,
                                 frame_dim=128, rng=rng)
    v = rng.normal(scale=0.01, size=video_dim).astype(np.float32)
    phis = rng.normal(scale=0.01, size=(b, 128)).astype(np.float32)
    coords = rng.uniform(-1, 1, size=(n, 2)).astype(np.float32)
    targets = rng.uniform(0, 1, size=(b, n)).astype(np.float32)
    # a BLAS that reports two threads: the batch runs as two blocks
    runner = parallel.RowRunner(lambda threads: 2)
    monkeypatch.setattr(parallel, "RUNNER", runner)
    try:
        assert len(runner.cuts(b, n * hidden)) == 3
        loss_and_grads(model, v, phis, coords, targets, weights=True)  # starts the pool
        peak, grads = traced_peak(
            lambda: loss_and_grads(model, v, phis, coords, targets, weights=True).weights)
    finally:
        runner.close()
    # each block holds one tile's arrays, here a frame's 512 pixels, and the
    # per-frame weight products are gone before the projection gradients
    # exist: the peak stays below one activation array and one slope array
    # per layer over every row, though it holds the returned gradients
    arrays = 2 * layers * b * n * hidden * 4
    assert sum(g.nbytes for g in grads.values()) < peak < arrays
