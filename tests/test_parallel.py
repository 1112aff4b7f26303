"""Row blocks of one evaluation: the split, its results against one block,
errors raised from later blocks, the BLAS thread count around them, and
encodings and trained models that are the same bytes whatever that count.
Within a block, the tiles of one frame at a run of its pixels: their
results against one tile and their size bound.

The tests shrink the row floor and give the runner a stand-in for
OpenBLAS's thread setter, so small batches split into several blocks on
any machine; they shrink the tile rows so that blocks split into tiles.
"""

import json
import os
import subprocess
import itertools
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import finite_diff, rel_err

from vfuncta import cli, model, parallel, training
from vfuncta.codec import EncodeSettings, encode_video, save_encoding
from vfuncta.container import save_model
from vfuncta.data import VideoTensor, save_video
from vfuncta.errors import NonFiniteError
from vfuncta.model import MetaModel, forward_batch, frame_mse, loss_and_grads

SRC = str(Path(parallel.__file__).parents[1])


class FakeBlas:
    """A process-wide BLAS thread count, set the way OpenBLAS sets it;
    `calls` holds every count it was set to, in order."""

    def __init__(self, threads):
        self.count = threads
        self.calls = []

    def __call__(self, n):
        self.calls.append(n)
        prev, self.count = self.count, n
        return prev


@pytest.fixture
def use_runner(monkeypatch):
    """Install a runner for `model` with the given setter and a one-element floor."""
    runners = []

    def install(set_threads):
        runner = parallel.RowRunner(set_threads)
        runners.append(runner)
        monkeypatch.setattr(parallel, "BLOCK_FLOOR", 1)
        monkeypatch.setattr(parallel, "RUNNER", runner)
        return runner

    yield install
    for runner in runners:
        runner.close()


def case(b, n, dtype, seed=0):
    rng = np.random.default_rng(seed)
    model = MetaModel.initialize(layers=3, hidden=6, video_dim=5, frame_dim=4,
                                 omega0=30.0, dtype=dtype, rng=rng)
    coords = rng.uniform(-1, 1, size=(n, 2)).astype(dtype)
    targets = rng.uniform(0, 1, size=(b, n)).astype(dtype)
    v = rng.normal(scale=0.05, size=5).astype(dtype)
    phis = rng.normal(scale=0.05, size=(b, 4)).astype(dtype)
    return model, v, phis, coords, targets


def blas_count(set_threads):
    prev = set_threads(1)
    set_threads(prev)
    return prev


def test_cuts_follow_frames_and_the_floor():
    runner = parallel.RowRunner(FakeBlas(2))
    assert runner.threads == 2
    # units of one frame's pixels times the paper's 256 units, or one pixel
    # of all frames; a block needs 2^16 activation elements
    assert runner.cuts(8, 1936 * 256) == [0, 4, 8]       # encode window: 2 x 7744 rows
    assert runner.cuts(12544, 256) == [0, 6272, 12544]   # one decoded frame, split
    assert runner.cuts(8, 256 * 256) == [0, 4, 8]        # the paper's training batch splits
    assert runner.cuts(2, 64 * 256) == [0, 2]            # 64 rows a block are too few
    assert runner.cuts(4, 256 * 64) == [0, 4]            # docs/desk.cfg's batch stays whole
    assert runner.cuts(4, 512 * 64) == [0, 2, 4]         # at 1024 rows a block it splits
    assert runner.cuts(1, 15488 * 256) == [0, 1]         # one frame cannot split
    assert parallel.RowRunner(FakeBlas(3)).cuts(7, 2**15) == [0, 2, 4, 7]


@pytest.mark.parametrize("b, n", [(1, 200), (4, 50)])
def test_forward_rows_are_bit_identical_to_one_block(use_runner, tile_rows, monkeypatch, b, n):
    model_, v, phis, coords, _ = case(b, n, np.float32)
    use_runner(None)
    tile_rows(10**9)
    whole = forward_batch(model_, v, phis, coords)
    tiles = []
    inner = model._forward_tile
    monkeypatch.setattr(model, "_forward_tile",
                        lambda *args: tiles.append(args[2].shape[0]) or inner(*args))
    # 48-row tiles split every block into two runs or more; 1-row tiles hold one pixel
    for blocks, cap in itertools.product((1, 3), (10**9, 48, 1)):
        use_runner(FakeBlas(blocks))
        tile_rows(cap)
        tiles.clear()
        assert len(parallel.RUNNER.cuts(n, b)) == blocks + 1  # the pixels are split
        assert np.array_equal(forward_batch(model_, v, phis, coords), whole), (blocks, cap)
        # each frame of a block in the fewest runs of at most the cap, as
        # even as can be
        cuts = parallel.RUNNER.cuts(n, b)
        assert sum(tiles) == b * n and max(tiles) <= cap
        assert len(tiles) == b * sum(-(-(hi - lo) // cap) for lo, hi in zip(cuts, cuts[1:]))
        assert max(tiles) - min(tiles) <= 1 or blocks > 1
    # nor on the frames evaluated with it
    for t in range(b):
        assert np.array_equal(forward_batch(model_, v, phis[t : t + 1], coords)[0], whole[t])


@pytest.mark.parametrize("blocks", [1, 2])
def test_forward_allocates_one_tile_per_block(use_runner, tile_rows, blocks):
    b, n, hidden = 2, 4096, 128
    rng = np.random.default_rng(3)
    model_ = MetaModel.initialize(layers=3, hidden=hidden, video_dim=5, frame_dim=4, rng=rng)
    v, phis = rng.normal(size=5), rng.normal(size=(b, 4))
    coords = rng.uniform(-1, 1, size=(n, 2)).astype(np.float32)
    use_runner(FakeBlas(blocks))
    tile_rows(256)
    forward_batch(model_, v, phis, coords)  # starts the pool's threads
    tracemalloc.start()
    try:
        out = forward_batch(model_, v, phis, coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tile = 2 * 256 * hidden * 4  # one (2, rows, l) float32 buffer
    # besides, a tile's predictions and numpy's iterator buffers
    assert peak <= blocks * (tile + 128 * 1024) + out.nbytes
    # where one buffer for all of a block's rows would take
    assert 2 * b * n * hidden * 4 > 8 * peak


@pytest.mark.parametrize("b, n, dtype", [
    pytest.param(1, 4, np.float64, id="1"),
    pytest.param(3, 4, np.float64, id="3"),
    pytest.param(8, 4, np.float64, id="8"),
    # 5-row frames start the later blocks off any multiple of 8 rows
    pytest.param(3, 5, np.float32, id="3-float32"),
    pytest.param(8, 5, np.float32, id="8-float32"),
])
@pytest.mark.parametrize("weights", [False, True])
def test_loss_and_grads_match_one_block(use_runner, tile_rows, b, n, dtype, weights):
    model, v, phis, coords, targets = case(b, n, dtype, seed=b)
    use_runner(None)
    whole = loss_and_grads(model, v, phis, coords, targets, weights=weights)
    use_runner(FakeBlas(3))
    calls = tile_rows(10**9)
    split = loss_and_grads(model, v, phis, coords, targets, weights=weights)
    # the call runs in blocks, each frame as one tile
    assert len(parallel.RUNNER.cuts(b, n)) - 1 == min(b, 3)
    assert sorted(calls) == [(t, n) for t in range(b)]

    def close(a, b):
        return np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)) <= 1e-12

    same = np.array_equal if dtype == np.float32 else close
    if dtype == np.float32:
        assert split.loss == whole.loss
    else:
        assert split.loss == pytest.approx(whole.loss, rel=1e-12)
    assert same(split.per_frame, whole.per_frame)
    assert same(split.v, whole.v) and same(split.phis, whole.phis)
    if weights:
        # the order the gradients came in when the outer step ran as one block
        order = ["out.weight", "out.bias", "layer2.weight", "layer1.weight", "layer0.weight"]
        for k in (2, 1, 0):
            order += [f"layer{k}.bias", f"video_proj{k}", f"frame_proj{k}"]
        assert list(split.weights) == list(whole.weights) == order
        for name, g in whole.weights.items():
            assert same(split.weights[name], g), name
    else:
        assert split.weights is None


@pytest.mark.parametrize("call", ["forward", "loss"])
def test_non_finite_in_a_later_block_raises_in_the_caller(use_runner, call):
    model, v, phis, coords, targets = case(4, 5, np.float32)
    # overflows in the last block only: forward blocks split the pixels,
    # loss blocks the frames
    if call == "forward":
        coords[-1] = 1e38
    else:
        phis[-1] = 1e38
    fake = FakeBlas(3)
    use_runner(fake)
    with pytest.raises(NonFiniteError) as exc:
        if call == "forward":
            forward_batch(model, v, phis, coords)
        else:
            loss_and_grads(model, v, phis, coords, targets)
    assert str(exc.value) == str(NonFiniteError("forward" if call == "forward" else "loss"))
    assert fake.count == 3


def test_error_in_a_pool_block_reaches_the_caller(use_runner):
    fake = FakeBlas(3)
    runner = use_runner(fake)
    fake.calls.clear()  # the runner's construction reads the count
    fake.count = 2  # a count set since, which the phase must give back

    def fn(lo, hi):
        if lo:
            raise NonFiniteError("later block")
        return lo

    with pytest.raises(NonFiniteError, match="later block"):
        with runner.blocks(30, 1) as map_blocks:
            assert fake.count == 1
            map_blocks(fn)
    # the split phase set one thread, then the count it found, once each
    assert fake.calls == [1, 2] and fake.count == 2
    # a one-block phase never calls the setter, whether its block returns
    # or raises
    with runner.blocks(1, 1) as map_blocks:
        assert map_blocks(fn) == [0]
    with pytest.raises(NonFiniteError, match="later block"):
        with runner.blocks(1, 1) as map_blocks:
            map_blocks(lambda lo, hi: fn(hi, hi))
    assert fake.calls == [1, 2]


def test_real_blas_thread_count_is_restored(use_runner):
    set_threads = parallel._openblas_set_threads()
    if set_threads is None:
        pytest.skip("numpy's BLAS exports no openblas_set_num_threads_local")
    before = blas_count(set_threads)
    runner = use_runner(set_threads)
    runner.threads = 2  # split even where BLAS runs one thread
    model, v, phis, coords, targets = case(4, 5, np.float32)
    loss_and_grads(model, v, phis, coords, targets)
    assert blas_count(set_threads) == before
    coords[-1] = 1e38
    with pytest.raises(NonFiniteError):
        loss_and_grads(model, v, phis, coords, targets)
    assert blas_count(set_threads) == before


def test_openblas_num_threads_one_gives_one_block():
    if parallel._openblas_set_threads() is None:
        pytest.skip("numpy's BLAS exports no openblas_set_num_threads_local")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c",
                          "from vfuncta import parallel; print(parallel.RUNNER.threads)"],
                         env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "1"


def test_without_the_symbol_one_block_runs_in_the_caller(use_runner):
    runner = use_runner(None)
    assert runner.threads == 1
    with runner.blocks(8, 10**6) as map_blocks:
        assert map_blocks(lambda lo, hi: (lo, hi, threading.current_thread())) == [
            (0, 8, threading.current_thread())]


def test_encoding_is_the_same_bytes_with_one_block_and_two(use_runner, tmp_path):
    rng = np.random.default_rng(6)
    model = MetaModel.initialize(layers=3, hidden=32, video_dim=8, frame_dim=4, rng=rng)
    video = VideoTensor(rng.uniform(0, 1, size=(4, 45, 45)).astype(np.float32))
    settings = EncodeSettings(batch_frames=4, inner_steps=3, inner_lr=0.1)
    written = []
    for set_threads in (None, FakeBlas(2)):
        use_runner(set_threads)
        path = tmp_path / f"{len(written)}.venc"
        save_encoding(path, encode_video(model, video, settings))
        written.append(path.read_bytes())
    assert parallel.RUNNER.cuts(4, 45 * 45) == [0, 2, 4]  # one cut, at row 4050
    assert written[0] == written[1]


def cli_with_blas_threads(threads: str, *argv: str) -> None:
    """Run `vfuncta argv` in a subprocess under OPENBLAS_NUM_THREADS=threads;
    skip the test where the row runner gets fewer threads than that."""
    script = ("import sys; from vfuncta import cli, parallel; "
              "print(parallel.RUNNER.threads); sys.exit(cli.main(sys.argv[1:]))")
    run = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120, check=True)
    if int(run.stdout.split()[0]) != int(threads):
        pytest.skip("numpy's BLAS cannot run the loop in two row blocks here")


def test_encode_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    rng = np.random.default_rng(7)
    model_path, video_path = tmp_path / "model.vfnc", tmp_path / "clip.rawvid"
    save_model(model_path, MetaModel.initialize(layers=3, hidden=32, video_dim=8,
                                                frame_dim=4, rng=rng))
    # 6 frames cut at row 6075. An even cut, such as 8 frames' row 8100, can
    # round a one-column BLAS product as one block does and hide the fault.
    save_video(video_path, VideoTensor(rng.uniform(0, 1, size=(6, 45, 45)).astype(np.float32)))
    outputs = {}
    for threads in ("2", "1"):
        out = tmp_path / f"threads{threads}"
        cli_with_blas_threads(threads, "encode", "--model", str(model_path), "--out", str(out),
                              "--batch-frames", "6", str(video_path))
        manifest = json.loads((out / "run_manifest.json").read_text())
        outputs[threads] = ((out / "clip.venc").read_bytes(), manifest["artifacts"])
    assert outputs["1"] == outputs["2"]


TRAIN_CONFIG = """
batch_frames = 8
coords_per_frame = {coords}
layers = 2
hidden = {hidden}
video_dim = 8
frame_dim = 4
inner_steps = 2
meta_lr = 1e-4
iterations = 2
"""


def test_train_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    spec, corpus = tmp_path / "spec.cfg", tmp_path / "corpus"
    spec.write_text("frames = 8\nheight = 32\nwidth = 32\n")
    assert cli.main(["gen-corpus", "--out", str(corpus), "--count", "2", "--seed", "3",
                     "--spec", str(spec)]) == 0
    # 8 frames of 1024 sampled pixels, and the benchmark's 8 frames of 256
    # at its width: both split into two blocks of 4 frames
    for coords, hidden in ((1024, 32), (256, 256)):
        assert parallel.RowRunner(FakeBlas(2)).cuts(8, coords * hidden) == [0, 4, 8]
        cfg = tmp_path / f"run{coords}.cfg"
        cfg.write_text(TRAIN_CONFIG.format(coords=coords, hidden=hidden))
        outputs = {}
        for threads in ("2", "1"):
            out = tmp_path / f"{coords}-threads{threads}"
            cli_with_blas_threads(threads, "train", "--corpus", str(corpus), "--config",
                                  str(cfg), "--out", str(out / "model.vfnc"), "--all-splits")
            manifest = json.loads((out / "model.manifest.json").read_text())
            outputs[threads] = ((out / "model.vfnc").read_bytes(), manifest["artifacts"])
        assert outputs["1"] == outputs["2"], coords


def test_every_evaluation_of_a_paper_shaped_step_runs_pinned_in_two_blocks(monkeypatch):
    fake = FakeBlas(2)
    runner = parallel.RowRunner(fake)
    fake.calls.clear()  # the runner's construction reads the count
    monkeypatch.setattr(parallel, "RUNNER", runner)
    phases, counts = [], []
    blocks, tile = runner.blocks, model._forward_tile

    def spy_blocks(units, unit_size):
        phases.append(len(runner.cuts(units, unit_size)) - 1)
        return blocks(units, unit_size)

    def spy(fn):
        # the gradient tiles are the calls that pass slopes
        def call(model_, shifts, coords, t, acts, slopes=None):
            if slopes is not None:
                counts.append(fake.count)
            return fn(model_, shifts, coords, t, acts, slopes)
        return call

    monkeypatch.setattr(runner, "blocks", spy_blocks)
    monkeypatch.setattr(model, "_forward_tile", spy(tile))
    # the paper's batch of 8 frames at 256 sampled pixels and its width
    cfg = training.TrainConfig(batch_frames=8, coords_per_frame=256, layers=2, hidden=256,
                               video_dim=8, frame_dim=4, inner_steps=3)
    video = VideoTensor(np.random.default_rng(11).uniform(0, 1, size=(8, 32, 32)))
    model_ = cfg.new_model()
    try:
        training.meta_step(model_, video, cfg, np.random.default_rng(0))
        # and one step of two frames at 64 pixels, under the block floor
        targets, coords = training.sample_batch(video, replace(cfg, batch_frames=2,
                                                               coords_per_frame=64),
                                                np.random.default_rng(1))
        training.adapt(model_, targets, coords, steps=1, inner_lr=0.1)
    finally:
        runner.close()
    # K inner steps and the outer step, each in two blocks of 4 frames and
    # each frame one tile, which in the outer step also forms the frame's
    # weight products; then the one-block step
    assert phases == [2] * (cfg.inner_steps + 1) + [1]
    assert len(counts) == 8 * cfg.inner_steps + 8 + 2
    # BLAS runs one thread whenever a split phase's blocks run; each split
    # phase sets one thread and then the count it found, and the one-block
    # phase runs at that count without a call
    assert set(counts[:-2]) == {1} and counts[-2:] == [2, 2]
    assert fake.calls == [1, 2] * (cfg.inner_steps + 1) and fake.count == 2


# --- frame tiles within a block ------------------------------------------------

@pytest.fixture
def tile_rows(monkeypatch):
    """Set the tile cap; returns the (frame, rows) of every gradient tile,
    a `_forward_tile` call that passes slopes, made after it."""
    calls = []
    inner = model._forward_tile

    def spy(model_, shifts, coords, t, acts, slopes=None):
        if slopes is not None:
            calls.append((t, coords.shape[0]))
        return inner(model_, shifts, coords, t, acts, slopes)

    monkeypatch.setattr(model, "_forward_tile", spy)

    def set_cap(rows):
        monkeypatch.setattr(model, "TILE_ROWS", rows)
        calls.clear()
        return calls

    return set_cap


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("b", [1, 3, 8])
def test_latent_tiles_match_one_tile(use_runner, tile_rows, b, blocks, dtype):
    n = 41
    model_, v, phis, coords, targets = case(b, n, dtype, seed=b)
    for weights in (False, True):
        use_runner(None)
        tile_rows(10**9)
        whole = loss_and_grads(model_, v, phis, coords, targets, weights=weights)
        use_runner(FakeBlas(blocks))
        # A cap of 3 runs each frame's 41 pixels at 2-3 pixels, of 14 at
        # 13-14 and of 36 at 20-21; one of 100 runs it whole. Runs stay at
        # two pixels or more, as they do at TILE_ROWS: numpy takes a one-row
        # product to a matrix-vector kernel that rounds apart.
        for cap in (3, 14, 36, 100):
            calls = tile_rows(cap)
            tiled = loss_and_grads(model_, v, phis, coords, targets, weights=weights)
            assert len(calls) == b * -(-n // cap), cap
            assert tiled.loss == whole.loss
            for name in ("per_frame", "v", "phis"):
                assert np.array_equal(getattr(tiled, name), getattr(whole, name)), (name, cap)
            if not weights:
                assert tiled.weights is None
                continue
            # a frame of one run gives the one-tile bytes; one of several
            # sums its weight products per run, which moves them in the last
            # bits: within 1e-12 relative in float64
            for name, g in whole.weights.items():
                got = tiled.weights[name]
                if cap >= n:
                    assert np.array_equal(got, g), (name, cap)
                else:
                    err = np.max(np.abs(got - g) / np.maximum(np.abs(g), 1e-300))
                    assert err <= 4096 * np.finfo(dtype).eps, (name, cap)


def test_short_tiles_keep_the_latent_gradients_of_a_wide_layer(tile_rows):
    """Width 32 takes a backward product of fewer than 38 rows by the
    transposed weights to OpenBLAS's small-matrix kernel, which rounds
    apart; by their row-major copy, runs of 8 pixels give the one-run
    bytes."""
    rng = np.random.default_rng(12)
    model_ = MetaModel.initialize(layers=3, hidden=32, video_dim=8, frame_dim=4, rng=rng)
    coords = rng.uniform(-1, 1, size=(64, 2))
    targets = rng.uniform(0, 1, size=(2, 64))
    v, phis = rng.normal(scale=0.05, size=8), rng.normal(scale=0.05, size=(2, 4))
    grads = []
    for cap in (512, 8):
        calls = tile_rows(cap)
        grads.append(loss_and_grads(model_, v, phis, coords, targets))
        assert len(calls) == 2 * 64 // min(cap, 64)
    assert np.array_equal(grads[0].v, grads[1].v)
    assert np.array_equal(grads[0].phis, grads[1].phis)


def test_encoding_is_the_same_bytes_with_pixel_run_tiles_and_one_tile(tile_rows, tmp_path):
    rng = np.random.default_rng(8)
    model_ = MetaModel.initialize(layers=3, hidden=32, video_dim=8, frame_dim=4, rng=rng)
    video = VideoTensor(rng.uniform(0, 1, size=(5, 9, 9)).astype(np.float32))
    settings = EncodeSettings(batch_frames=3, inner_steps=3, inner_lr=0.1)
    written = []
    # 41 rows a tile: each frame runs at halves of its 81 pixels
    for cap in (41, 10**9):
        calls = tile_rows(cap)
        path = tmp_path / f"{cap}.venc"
        save_encoding(path, encode_video(model_, video, settings))
        written.append(path.read_bytes())
        # windows of 3 and 2 frames, 3 steps each
        assert len(calls) == 5 * 3 * (2 if cap == 41 else 1)
        assert max(rows for _, rows in calls) == min(cap, 81)
    assert written[0] == written[1]


@pytest.mark.parametrize("cap", [3, 12, 10**9])
def test_latent_calls_see_at_most_one_tile_of_rows(use_runner, tile_rows, cap):
    n = 5
    model_, v, phis, coords, targets = case(8, n, np.float32)
    use_runner(FakeBlas(2))
    calls = tile_rows(cap)
    loss_and_grads(model_, v, phis, coords, targets)
    # a tile is one frame at a run of its pixels, and the runs are as long
    # as the cap allows, up to the whole frame
    runs = {3: [2, 3], 12: [5], 10**9: [5]}[cap]
    assert sorted(calls) == [(t, rows) for t in range(8) for rows in runs]
    calls.clear()
    training.adapt(model_, targets, coords, steps=2, inner_lr=0.1)
    assert sorted(calls) == [(t, rows) for t in range(8) for rows in runs for _ in range(2)]
    calls.clear()
    # the outer step runs the same tiles
    loss_and_grads(model_, v, phis, coords, targets, weights=True)
    assert sorted(calls) == [(t, rows) for t in range(8) for rows in runs]


def test_tiled_latent_gradients_match_finite_differences(use_runner, tile_rows):
    n = 6
    model_, v, phis, coords, targets = case(5, n, np.float64, seed=12)
    use_runner(FakeBlas(2))
    calls = tile_rows(4)  # blocks of 2 and 3 frames, each frame in two runs of 3 pixels
    grads = loss_and_grads(model_, v, phis, coords, targets)
    assert sorted(calls) == [(t, 3) for t in range(5) for _ in range(2)]

    def loss(arrays):
        return float(np.mean(frame_mse(forward_batch(model_, arrays[0], arrays[1], coords),
                                       targets)))

    numeric_v, numeric_phis = finite_diff(loss, [v, phis])
    assert rel_err(grads.v, numeric_v) < 1e-4
    assert rel_err(grads.phis, numeric_phis) < 1e-4


def test_outer_step_gradients_match_finite_differences_across_uneven_blocks(use_runner,
                                                                             tile_rows):
    n = 6
    model_, v, phis, coords, targets = case(5, n, np.float64, seed=13)
    use_runner(FakeBlas(3))
    assert parallel.RUNNER.cuts(5, n) == [0, 1, 3, 5]  # blocks of 1, 2 and 2 frames
    calls = tile_rows(4)  # each frame in two runs of 3 pixels
    grads = loss_and_grads(model_, v, phis, coords, targets, weights=True)
    assert sorted(calls) == [(t, 3) for t in range(5) for _ in range(2)]
    rng = np.random.default_rng(14)
    step = 1e-5
    for name, p in model_.parameters():
        for j in rng.choice(p.size, size=min(3, p.size), replace=False):
            losses = []
            for sign in (1, -1):
                bumped = p.copy()
                bumped.reshape(-1)[j] += sign * step
                m = model_.replace_params({name: bumped})
                losses.append(np.mean(frame_mse(forward_batch(m, v, phis, coords), targets)))
            numeric = (losses[0] - losses[1]) / (2 * step)
            assert rel_err(grads.weights[name].reshape(-1)[j], numeric) < 1e-4, (name, j)


@pytest.mark.parametrize("blocks, weights", [
    pytest.param(1, False, id="1"),
    pytest.param(2, False, id="2"),
    pytest.param(1, True, id="1-weights"),
    pytest.param(2, True, id="2-weights"),
])
def test_latent_step_allocates_one_tile_per_block(use_runner, tile_rows, blocks, weights):
    b, n, hidden, layers = 2, 4096, 128, 3
    rng = np.random.default_rng(4)
    model_ = MetaModel.initialize(layers=layers, hidden=hidden, video_dim=5, frame_dim=4,
                                  rng=rng)
    v, phis = rng.normal(size=5), rng.normal(size=(b, 4))
    coords = rng.uniform(-1, 1, size=(n, 2)).astype(np.float32)
    targets = rng.uniform(0, 1, size=(b, n)).astype(np.float32)
    use_runner(FakeBlas(blocks))
    calls = tile_rows(256)
    loss_and_grads(model_, v, phis, coords, targets, weights=weights)  # starts the pool
    assert max(rows for _, rows in calls) == 256  # every frame splits into runs
    tracemalloc.start()
    try:
        grads = loss_and_grads(model_, v, phis, coords, targets, weights=weights).weights
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # activation buffers, two or, for the weight products, one per layer
    # and one more, and a slope per layer
    buffers = (layers + 1 if weights else 2) + layers
    tile = buffers * 256 * hidden * 4
    # the backward pass's row-major copy of each sine layer's weights, transposed
    held = sum(w.data.nbytes for w in model_.layer_weights)
    if weights:
        # each frame's weight products, one run's product of a layer, and
        # the returned gradients
        shapes = [(hidden, 1), (2, hidden)] + [(hidden, hidden)] * (layers - 1)
        products = 4 * sum(rows * cols for rows, cols in shapes)
        held += b * products + 4 * hidden * hidden + sum(g.nbytes for g in grads.values())
    # besides, the predictions and frame_mse's two temporaries of them
    assert peak <= blocks * (tile + 128 * 1024) + 3 * targets.nbytes + held
    # where the arrays of one whole frame a block would take
    assert blocks * buffers * n * hidden * 4 > 8 * peak


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_numpy_sums_a_middle_axis_pixel_row_by_pixel_row(dtype):
    # the frame sums of pixel runs rest on this: a frame's sum added into the
    # first pixel row of its next run sums on as one run would, for the
    # frames of a batch as for one frame's (pixels, width) tile
    rng = np.random.default_rng(9)
    for (count, pixels, width), runs in [((1, 5, 2), (1, 2, 3)), ((3, 200, 6), (1, 7, 64)),
                                         ((8, 1936, 256), (121, 484)),
                                         ((1, 12544, 256), (512, 4096))]:
        d = rng.normal(size=(count, pixels, width)).astype(dtype)
        whole = d.sum(axis=1)
        for run in runs:
            carried = None
            for t in range(0, pixels, run):
                part = d[:, t:t + run].copy()
                if carried is not None:
                    part[:, 0] += carried
                carried = part.sum(axis=1)
            assert np.array_equal(carried, whole), (count, pixels, width, run)
            for i in range(count):
                row = np.empty(width, dtype)
                for t in range(0, pixels, run):
                    part = d[i, t:t + run].copy()
                    if t:
                        part[0] += row
                    np.sum(part, axis=0, out=row)
                assert np.array_equal(row, whole[i]), (count, pixels, width, run, i)


def test_no_tile_is_a_one_pixel_tail(use_runner, tile_rows):
    # 97 pixels at a 48-row cap run as 32, 32 and 33, not 48, 48 and 1: a
    # one-row tile would take the layer products of this one-frame batch to
    # numpy's matrix-vector kernel, and a few-row one the backward product to
    # OpenBLAS's small-matrix kernel, which round apart from the others
    rng = np.random.default_rng(10)
    model_ = MetaModel.initialize(layers=3, hidden=64, video_dim=5, frame_dim=4, rng=rng)
    coords = rng.uniform(-1, 1, size=(97, 2)).astype(np.float32)
    targets = rng.uniform(0, 1, size=(1, 97)).astype(np.float32)
    v, phis = rng.normal(size=5), rng.normal(size=(1, 4))
    use_runner(None)
    tile_rows(10**9)
    whole = forward_batch(model_, v, phis, coords), loss_and_grads(model_, v, phis, coords, targets)
    calls = tile_rows(48)
    tiled = forward_batch(model_, v, phis, coords), loss_and_grads(model_, v, phis, coords, targets)
    assert sorted(rows for _, rows in calls) == [32, 32, 33]
    assert np.array_equal(tiled[0], whole[0])
    for name in ("per_frame", "v", "phis"):
        assert np.array_equal(getattr(tiled[1], name), getattr(whole[1], name)), name
