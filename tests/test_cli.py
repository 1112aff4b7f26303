"""End-to-end command-line workflows at toy scale."""

import argparse
import builtins
import hashlib
import io
import json
import math
import os
import re
import struct
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from helpers import Hashers

from vfuncta import codec, container, data, heads, parallel
from vfuncta.cli import _build_parser, _format_eval_line, main
from vfuncta.codec import (
    VideoEncoding,
    load_model,
    model_fingerprint,
    save_encoding,
)
from vfuncta.container import save_model
from vfuncta.data import VideoTensor, load_video, read_corpus_manifest, save_video
from vfuncta.errors import ContractError
from vfuncta.manifest import hash_file
from vfuncta.model import (
    FrameModulationSeq,
    MetaModel,
    VideoModulation,
    forward_batch,
    grid_coords,
)


TINY_CONFIG = """
# toy-scale run
batch_frames = 4
coords_per_frame = 16
layers = 2
hidden = 8
video_dim = 8
frame_dim = 4
inner_steps = 3
inner_lr = 0.1
meta_lr = 1e-5
iterations = {iterations}
omega0 = 30.0
seed = {seed}
precision = float32
"""


def read_manifest(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_config(path, iterations=5, seed=3):
    path.write_text(TINY_CONFIG.format(iterations=iterations, seed=seed))
    return path


def gen_corpus(tmp_path, name="corpus", count=6, seed=1, extra=()):
    out = tmp_path / name
    spec = tmp_path / "corpus_spec.cfg"
    spec.write_text("frames = 4\nheight = 8\nwidth = 8\n")
    rc = main(["gen-corpus", "--out", str(out), "--count", str(count),
               "--seed", str(seed), "--spec", str(spec), *extra])
    assert rc == 0
    return out


def test_gen_corpus_single_video(tmp_path, capsys):
    out = gen_corpus(tmp_path, count=1)
    items = read_corpus_manifest(out / "manifest.tsv")
    assert len(items) == 1
    assert load_video(items[0].path).dims == (4, 8, 8)
    assert (out / "run_manifest.json").exists()


def test_gen_corpus_same_seed_is_byte_identical(tmp_path):
    a = gen_corpus(tmp_path, name="a", count=3, seed=9)
    b = gen_corpus(tmp_path, name="b", count=3, seed=9)
    for name in ("00000.rawvid", "00001.rawvid", "00002.rawvid", "manifest.tsv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_corpus_split_counts(tmp_path):
    out = gen_corpus(tmp_path, count=20, extra=["--split", "0.8"])
    items = read_corpus_manifest(out)
    assert sum(1 for i in items if i.split == "train") == 16
    assert sum(1 for i in items if i.split == "test") == 4


def test_a_train_run_with_nothing_to_do_is_one_error_line(tmp_path, capsys):
    corpus = gen_corpus(tmp_path)
    ckpt = tmp_path / "ck" / "checkpoint_00000004.vfnc"
    assert main(["train", "--corpus", str(corpus),
                 "--config", str(write_config(tmp_path / "run.cfg", iterations=4)),
                 "--out", str(tmp_path / "first.vfnc"), "--checkpoint-dir", str(ckpt.parent),
                 "--checkpoint-every", "4"]) == 0
    runs = [(["--set", "iterations=0"], "iteration 0", "iterations = 0"),
            (["--set", "iterations=2", "--resume", str(ckpt)], "iteration 4", "iterations = 2")]
    for flags, *needles in runs:
        capsys.readouterr()
        out = tmp_path / "out" / "m.vfnc"
        rc = main(["train", "--corpus", str(corpus), "--config", str(tmp_path / "run.cfg"),
                   "--out", str(out), *flags])
        assert rc == 1
        assert_one_error_line(capsys.readouterr().err, "nothing to train", *needles)
        assert not out.parent.exists()


def test_train_with_an_unreadable_video_is_one_error_line(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, count=4)
    bad = corpus / "00000.rawvid"
    bad.write_bytes(bad.read_bytes()[:100])
    capsys.readouterr()
    # an epoch draws every video once
    rc = main(["train", "--corpus", str(corpus),
               "--config", str(write_config(tmp_path / "run.cfg", iterations=4)),
               "--out", str(tmp_path / "m.vfnc"), "--all-splits"])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, str(bad))
    assert not any(tmp_path.glob("m.*"))


def test_train_enters_its_checkpoints_in_the_manifest(tmp_path, capsys):
    corpus = gen_corpus(tmp_path)
    cfg = write_config(tmp_path / "run.cfg", iterations=6)
    artifacts = []
    for run in ("a", "b"):
        out = tmp_path / run / "m.vfnc"
        assert main(["train", "--corpus", str(corpus), "--config", str(cfg), "--out", str(out),
                     "--checkpoint-dir", str(out.parent / "ck"),
                     "--checkpoint-every", "2"]) == 0
        artifacts.append(read_manifest(out.with_suffix(".manifest.json"))["artifacts"])
        names = [f"ck/checkpoint_{i:08d}.vfnc" for i in (2, 4, 6)]
        assert sorted(artifacts[-1]) == [*names, "m.log", "m.vfnc"]
        for name in names:
            assert artifacts[-1][name] == stored_checksum(out.parent / name)
    assert artifacts[0] == artifacts[1]
    assert artifacts[0]["ck/checkpoint_00000006.vfnc"] == artifacts[0]["m.vfnc"]


def test_train_missing_required_key_names_it(tmp_path, capsys):
    corpus = gen_corpus(tmp_path)
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("batch_frames = 4\niterations = 1\n")
    rc = main(["train", "--corpus", str(corpus), "--config", str(cfg),
               "--out", str(tmp_path / "m.vfnc")])
    assert rc == 1
    assert "coords_per_frame" in capsys.readouterr().err


def test_train_unknown_key_reports_line(tmp_path, capsys):
    corpus = gen_corpus(tmp_path)
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("batch_frames = 4\ncoords_per_frame = 9\nnot_a_key = 1\n")
    rc = main(["train", "--corpus", str(corpus), "--config", str(cfg),
               "--out", str(tmp_path / "m.vfnc")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "not_a_key" in err and ":3:" in err


def trained_model(tmp_path, iterations=5):
    corpus = gen_corpus(tmp_path)
    cfg = write_config(tmp_path / "run.cfg", iterations=iterations)
    model_path = tmp_path / "model.vfnc"
    assert main(["train", "--corpus", str(corpus), "--config", str(cfg),
                 "--out", str(model_path)]) == 0
    return corpus, model_path


def encode_corpus(tmp_path, model_path, corpus, *flags):
    """Encode every corpus video into `tmp_path/enc`, the directory
    `eval --encodings` reads; returns that directory."""
    out = tmp_path / "enc"
    assert main(["encode", "--model", str(model_path), "--out", str(out), *flags,
                 *(i.path for i in read_corpus_manifest(corpus))]) == 0
    return out


def test_encode_decode_round_trip_dims(tmp_path, capsys):
    corpus, model_path = trained_model(tmp_path)
    items = read_corpus_manifest(corpus)
    videos = [i.path for i in items[:3]]
    enc_dir = tmp_path / "enc"
    rc = main(["encode", "--model", str(model_path), "--out", str(enc_dir),
               "--batch-frames", "4", "--inner-steps", "3", *videos])
    assert rc == 0
    venc_files = sorted(enc_dir.glob("*.venc"))
    assert len(venc_files) == 3
    assert (enc_dir / "run_manifest.json").exists()

    dec_dir = tmp_path / "dec"
    rc = main(["decode", "--model", str(model_path), "--out", str(dec_dir),
               *(str(p) for p in venc_files)])
    assert rc == 0
    for item in items[:3]:
        original = load_video(item.path)
        stem = item.path.rsplit("/", 1)[-1].replace(".rawvid", "")
        decoded = load_video(dec_dir / f"{stem}.rawvid")
        assert decoded.dims == original.dims


def test_encode_report_prints_quality(tmp_path, capsys):
    corpus, model_path = trained_model(tmp_path)
    item = read_corpus_manifest(corpus)[0]
    capsys.readouterr()
    rc = main(["encode", "--model", str(model_path), "--out", str(tmp_path / "enc"),
               "--batch-frames", "4", "--inner-steps", "3", "--report", item.path])
    assert rc == 0
    item_line, mean_line = capsys.readouterr().out.splitlines()
    assert "psnr_db=" in item_line and "ssim3d=" in item_line
    # the last line's psnr_db, which the benchmark reads, is the encode's
    assert mean_line.startswith("mean\t")
    assert report_fields(mean_line) == report_fields(item_line)


def report_fields(line: str) -> dict[str, float]:
    return {k: float(v) for k, v in (f.split("=", 1) for f in line.split("\t") if "=" in f)
            if k not in ("frames", "rate")}


def test_encode_report_prints_ceilings_and_their_means(tmp_path, capsys):
    _, model_path = trained_model(tmp_path)
    # moving videos: the toy corpus's 8x8 clips are time-constant
    rng = np.random.default_rng(4)
    paths = [tmp_path / "a.rawvid", tmp_path / "b.rawvid"]
    for path, dims in zip(paths, [(4, 8, 8), (3, 6, 10)]):
        save_video(path, VideoTensor(rng.uniform(0.2, 0.8, size=dims)))
    capsys.readouterr()
    assert main(["encode", "--model", str(model_path), "--out", str(tmp_path / "enc"),
                 "--batch-frames", "4", "--inner-steps", "3", "--report",
                 *map(str, paths)]) == 0
    *item_lines, mean_line = capsys.readouterr().out.splitlines()
    model = load_model(model_path)

    def psnr(video, still):
        return -10.0 * math.log10(np.mean((video - still) ** 2))

    items = []
    for path, line in zip(paths, item_lines, strict=True):
        assert line.startswith(f"{path.name}\t")
        video = load_video(path).values.astype(np.float64)
        _, h, w = video.shape

        def still(v):
            pred = forward_batch(model, v, np.zeros((1, model.frame_dim)), grid_coords(h, w))
            return np.clip(pred.reshape(h, w), 0.0, 1.0)

        enc = codec.load_encoding(tmp_path / "enc" / f"{path.stem}.venc")
        fields = report_fields(line)
        expected = {"zero_psnr_db": psnr(video, still(np.zeros(model.video_dim))),
                    "const_psnr_db": psnr(video, video.mean()),
                    "tmean_psnr_db": psnr(video, video.mean(axis=0)),
                    "summary_psnr_db": psnr(video, still(enc.video_mod.values))}
        assert list(fields) == ["psnr_db", "ssim3d", "mse", *expected]
        for key, value in expected.items():
            # 4 places, from a still rounded to float32 as a decode is
            assert fields[key] == pytest.approx(value, abs=1e-4), key
        items.append(fields)

    assert mean_line.startswith("mean\t")
    means = report_fields(mean_line)
    assert list(means) == list(items[0])
    for key, value in means.items():
        assert value == pytest.approx(np.mean([f[key] for f in items]), rel=1e-6, abs=1e-4), key


class RecordingHashes(Hashers):
    """The container's hashers wrapped, and every open of the file at
    `path` counted."""

    def __init__(self, monkeypatch, path: Path):
        super().__init__(monkeypatch)
        self.opens = 0
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file) == path:
                self.opens += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)


def model_payload(path: Path) -> bytes:
    """The parameter payload of a model file: the bytes before its checksum."""
    size = sum(p.nbytes for _, p in load_model(path).parameters())
    return path.read_bytes()[-8 - size:-8]


def stored_checksum(path: Path) -> str:
    """The checksum a container file stores, its last 8 bytes, as a
    manifest enters it."""
    return f"{int.from_bytes(path.read_bytes()[-8:], 'little'):016x}"


def on_each_runner(monkeypatch, check) -> None:
    """`check(threads)` with `parallel.RUNNER` replaced by a runner over a
    BLAS that reports one thread, then two."""
    for threads in (1, 2):
        runner = parallel.RowRunner(lambda _, threads=threads: threads)
        with monkeypatch.context() as patch:
            patch.setattr(parallel, "RUNNER", runner)
            try:
                check(threads)
            finally:
                runner.close()


def test_a_command_reads_its_model_once_and_hashes_its_payload_once(tmp_path, monkeypatch):
    """The load's one SHA-256 pass over the payload gives the checksum,
    which names the model in the manifest, and the fingerprint, which
    encode names in each encoding and --report checks again; saving a
    model hashes it once too."""
    corpus, model_path = trained_model(tmp_path)
    videos = [i.path for i in read_corpus_manifest(corpus)[:3]]
    payload = model_payload(model_path)

    def check(threads):
        enc, dec, again = (tmp_path / f"{name}{threads}" for name in ("enc", "dec", "again"))
        with monkeypatch.context() as patch:
            recording = RecordingHashes(patch, model_path)
            assert main(["encode", "--model", str(model_path), "--out", str(enc),
                         "--batch-frames", "4", "--inner-steps", "1", "--report",
                         *videos]) == 0
        assert (recording.opens, recording.passes_over(payload)) == (1, ["sha256"])

        encodings = sorted(str(p) for p in enc.glob("*.venc"))
        assert len(encodings) == 3
        with monkeypatch.context() as patch:
            recording = RecordingHashes(patch, model_path)
            assert main(["decode", "--model", str(model_path), "--out", str(dec),
                         *encodings]) == 0
        assert (recording.opens, recording.passes_over(payload)) == (1, ["sha256"])

        with monkeypatch.context() as patch:
            recording = RecordingHashes(patch, again)
            assert main(["train", "--corpus", str(corpus),
                         "--config", str(tmp_path / "run.cfg"), "--out", str(again)]) == 0
        assert (recording.opens, recording.passes_over(model_payload(again))) == (0, ["sha256"])

    on_each_runner(monkeypatch, check)


def test_container_entries_are_the_hashes_of_the_files(tmp_path, monkeypatch, capsys):
    """A version 3 container input or artifact is entered by the checksum
    it stores, which its read verified or its write computed; every other
    file by the hash of its bytes."""
    corpus, model_path = trained_model(tmp_path)
    video = read_corpus_manifest(corpus)[0].path

    def check(threads):
        enc = tmp_path / f"enc{threads}"
        assert main(["encode", "--model", str(model_path), "--out", str(enc),
                     "--batch-frames", "4", "--inner-steps", "1", video]) == 0
        venc = next(enc.glob("*.venc"))
        encoded = read_manifest(enc / "run_manifest.json")
        assert encoded["inputs"] == {str(model_path): stored_checksum(model_path),
                                     video: hash_file(video)}
        assert encoded["artifacts"] == {venc.name: stored_checksum(venc)}
        for command, suffix in [("decode", ".rawvid"), ("summary", ".pgm")]:
            out = tmp_path / f"{command}{threads}"
            assert main([command, "--model", str(model_path), "--out", str(out),
                         str(venc)]) == 0
            doc = read_manifest(out / "run_manifest.json")
            assert doc["inputs"] == {str(model_path): stored_checksum(model_path),
                                     str(venc): stored_checksum(venc)}
            written = out / (venc.stem + suffix)
            assert doc["artifacts"] == {written.name: hash_file(written)}

    on_each_runner(monkeypatch, check)
    trained = read_manifest(model_path.with_suffix(".manifest.json"))
    assert trained["artifacts"]["model.vfnc"] == stored_checksum(model_path)


def check_containers_are_hashed_whole(version: int, tmp_path) -> None:
    fixtures = Path(__file__).parent / "fixtures" / f"v{version}"
    model_path, venc, out = fixtures / "model.vfnc", fixtures / "clip.venc", tmp_path / "dec"
    assert main(["decode", "--model", str(model_path), "--out", str(out), str(venc)]) == 0
    doc = read_manifest(out / "run_manifest.json")
    assert doc["inputs"] == {str(model_path): hash_file(model_path),
                             str(venc): hash_file(venc)}
    assert doc["artifacts"] == {"clip.rawvid": hash_file(out / "clip.rawvid")}


def test_version_1_containers_are_hashed_whole(tmp_path, capsys):
    """A version 1 read verifies an FNV-1a checksum, not the SHA-256 the
    manifest's `hash` key names, so the manifest hashes those files."""
    check_containers_are_hashed_whole(1, tmp_path)


def test_version_2_containers_are_hashed_whole(tmp_path, capsys):
    """A version 2 read verifies a BLAKE2b checksum, not the manifest's
    hash, so the manifest hashes those files too."""
    check_containers_are_hashed_whole(2, tmp_path)


def test_decode_report_against_originals(tmp_path, capsys):
    corpus, model_path = trained_model(tmp_path)
    items = read_corpus_manifest(corpus)[:2]
    enc_dir = tmp_path / "enc"
    main(["encode", "--model", str(model_path), "--out", str(enc_dir),
          "--batch-frames", "4", "--inner-steps", "3", *(i.path for i in items)])
    vencs = sorted(str(p) for p in enc_dir.glob("*.venc"))
    capsys.readouterr()
    rc = main(["decode", "--model", str(model_path), "--out", str(tmp_path / "dec"),
               "--originals", str(corpus), *vencs])
    assert rc == 0
    # --originals alone asks for a quality line per item
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[0] for line in lines] == [Path(v).name for v in vencs]
    assert all("\tpsnr_db=" in line and "\tssim3d=" in line for line in lines)
    # the manifest enters each original read, by its file hash
    inputs = read_manifest(tmp_path / "dec" / "run_manifest.json")["inputs"]
    originals = {i.path: hash_file(i.path) for i in items}
    assert {k: v for k, v in inputs.items() if k.endswith(".rawvid")} == originals
    # without it, decode prints the dims alone and enters the model and the
    # encodings only
    main(["decode", "--model", str(model_path), "--out", str(tmp_path / "plain"), *vencs])
    assert "psnr_db=" not in capsys.readouterr().out
    plain = read_manifest(tmp_path / "plain" / "run_manifest.json")["inputs"]
    assert plain == {k: v for k, v in inputs.items() if k not in originals}
    assert sorted(plain) == sorted([str(model_path), *vencs])


def test_summary_writes_pgm(tmp_path, capsys):
    corpus, model_path = trained_model(tmp_path)
    item = read_corpus_manifest(corpus)[0]
    enc_dir = tmp_path / "enc"
    main(["encode", "--model", str(model_path), "--out", str(enc_dir),
          "--batch-frames", "4", "--inner-steps", "3", item.path])
    venc = next(enc_dir.glob("*.venc"))
    rc = main(["summary", "--model", str(model_path), "--out", str(tmp_path / "sum"),
               str(venc)])
    assert rc == 0
    pgm = next((tmp_path / "sum").glob("*.pgm"))
    assert pgm.read_bytes().startswith(b"P5\n8 8\n255\n")


def test_decode_wrong_model_fails_with_keep_going(tmp_path, capsys):
    corpus, model_path = trained_model(tmp_path)
    item = read_corpus_manifest(corpus)[0]
    enc_dir = tmp_path / "enc"
    main(["encode", "--model", str(model_path), "--out", str(enc_dir),
          "--batch-frames", "4", "--inner-steps", "3", item.path])
    venc = next(enc_dir.glob("*.venc"))

    other_cfg = write_config(tmp_path / "other.cfg", iterations=1, seed=77)
    other_model = tmp_path / "other.vfnc"
    main(["train", "--corpus", str(corpus), "--config", str(other_cfg),
          "--out", str(other_model)])
    rc = main(["decode", "--model", str(other_model), "--out", str(tmp_path / "dec"),
               "--keep-going", str(venc)])
    assert rc == 1
    assert "decode failed" in capsys.readouterr().err


def test_eval_regression_prints_three_modes(tmp_path, capsys):
    corpus, model_path = trained_model(tmp_path)
    enc_dir = encode_corpus(tmp_path, model_path, corpus, "--batch-frames", "4",
                            "--inner-steps", "3")
    capsys.readouterr()
    rc = main(["eval", "--encodings", str(enc_dir), "--corpus", str(corpus),
               "--task", "regression", "--out", str(tmp_path / "eval")])
    assert rc == 0
    out = capsys.readouterr().out
    for mode in ("mode=v", "mode=phi", "mode=combined"):
        assert mode in out
    assert "mae=" in out and "rmse=" in out and "r2=" in out
    assert (tmp_path / "eval" / "eval_report.tsv").exists()


def test_eval_binary_with_seed_aggregation(tmp_path, capsys):
    corpus, model_path = trained_model(tmp_path)
    enc_dir = encode_corpus(tmp_path, model_path, corpus, "--batch-frames", "4",
                            "--inner-steps", "3")
    capsys.readouterr()
    rc = main(["eval", "--encodings", str(enc_dir), "--corpus", str(corpus),
               "--task", "binary", "--modes", "phi", "--seeds", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "acc=" in out and "f1=" in out and "auroc=" in out
    assert "±" in out


def test_gradcheck_command(capsys):
    rc = main(["gradcheck", "--trials", "2"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_env_seed_overrides_config(tmp_path, monkeypatch):
    corpus = gen_corpus(tmp_path)
    cfg = write_config(tmp_path / "run.cfg", iterations=2, seed=3)

    monkeypatch.setenv("VFUNCTA_SEED", "99")
    out_a = tmp_path / "a.vfnc"
    assert main(["train", "--corpus", str(corpus), "--config", str(cfg),
                 "--out", str(out_a)]) == 0
    manifest = read_manifest(tmp_path / "a.manifest.json")
    assert manifest["seed"] == 99

    monkeypatch.delenv("VFUNCTA_SEED")
    out_b = tmp_path / "b.vfnc"
    assert main(["train", "--corpus", str(corpus), "--config", str(cfg),
                 "--out", str(out_b)]) == 0
    assert read_manifest(tmp_path / "b.manifest.json")["seed"] == 3
    assert out_a.read_bytes() != out_b.read_bytes()


def test_same_seed_runs_have_identical_artifact_hashes(tmp_path):
    corpus = gen_corpus(tmp_path)
    cfg = write_config(tmp_path / "run.cfg", iterations=3)
    hashes = []
    for name in ("r1", "r2"):
        out = tmp_path / name / "model.vfnc"
        assert main(["train", "--corpus", str(corpus), "--config", str(cfg),
                     "--out", str(out)]) == 0
        hashes.append(read_manifest(tmp_path / name / "model.manifest.json")["artifacts"])
    assert hashes[0] == hashes[1]
    assert set(hashes[0]) == {"model.vfnc", "model.log"}

def test_same_seed_runs_have_identical_manifest_maps(tmp_path, capsys):
    """Two same-seed train runs, each followed by an encode and a decode:
    every input and artifact of the three manifests hashes alike."""
    corpus = gen_corpus(tmp_path)
    cfg = write_config(tmp_path / "run.cfg", iterations=2)
    video = read_corpus_manifest(corpus)[0].path
    maps = []
    for name in ("r1", "r2"):
        run = tmp_path / name
        model_path = run / "model.vfnc"
        assert main(["train", "--corpus", str(corpus), "--config", str(cfg),
                     "--out", str(model_path)]) == 0
        assert main(["encode", "--model", str(model_path), "--out", str(run / "enc"),
                     "--batch-frames", "4", "--inner-steps", "2", video]) == 0
        venc = run / "enc" / (Path(video).stem + ".venc")
        assert main(["decode", "--model", str(model_path), "--out", str(run / "dec"),
                     str(venc)]) == 0
        docs = [read_manifest(path) for path in (run / "model.manifest.json",
                                                 run / "enc" / "run_manifest.json",
                                                 run / "dec" / "run_manifest.json")]
        maps.append([{Path(key).name: value for key, value in doc[part].items()}
                     for doc in docs for part in ("inputs", "artifacts")])
    assert maps[0] == maps[1]
    decoded_inputs, decoded_artifacts = maps[0][4:]
    assert set(decoded_inputs) == {"model.vfnc", venc.name}
    assert set(decoded_artifacts) == {Path(video).stem + ".rawvid"}


def raw_hash(path: Path) -> str:
    """The manifest's hash of a file's bytes as they are."""
    digest = hashlib.sha256(path.read_bytes()).digest()[:8]
    return f"{int.from_bytes(digest, 'little'):016x}"


def test_a_config_named_like_a_log_is_hashed_as_it_is(tmp_path, capsys):
    corpus = gen_corpus(tmp_path)
    cfg = write_config(tmp_path / "desk.log", iterations=1)
    out = tmp_path / "model.vfnc"
    assert main(["train", "--corpus", str(corpus), "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert read_manifest(out.with_suffix(".manifest.json"))["inputs"][str(cfg)] == raw_hash(cfg)


def test_a_model_named_like_a_log_is_hashed_as_it_is(tmp_path, capsys):
    model_path, _, venc = tiny_files(tmp_path)
    renamed = model_path.rename(tmp_path / "m.log")
    out = tmp_path / "dec"
    assert main(["decode", "--model", str(renamed), "--out", str(out), str(venc)]) == 0
    assert (read_manifest(out / "run_manifest.json")["inputs"][str(renamed)]
            == stored_checksum(renamed))


def test_a_training_log_of_any_name_skips_its_timestamps(tmp_path, monkeypatch):
    """The log is entered by SHA-256-64 over its iteration and loss
    columns, one row per line, which train computes without opening the
    log it wrote."""
    corpus = gen_corpus(tmp_path)
    cfg = write_config(tmp_path / "run.cfg", iterations=3)
    hashes, logs = [], []
    for name in ("r1", "r2"):
        out, log = tmp_path / name / "model.vfnc", tmp_path / name / "run.txt"
        with monkeypatch.context() as patch:
            recording = RecordingHashes(patch, log)
            assert main(["train", "--corpus", str(corpus), "--config", str(cfg),
                         "--out", str(out), "--log", str(log)]) == 0
        assert recording.opens == 0
        hashes.append(read_manifest(out.with_suffix(".manifest.json"))["artifacts"])
        logs.append(log.read_bytes())
    assert logs[0] != logs[1]
    assert hashes[0] == hashes[1]
    assert set(hashes[0]) == {"model.vfnc", "run.txt"}
    rows = ["\t".join(line.split("\t")[:2]) for line in logs[0].decode().splitlines()
            if not line.startswith("#")]
    assert len(rows) == 3
    digest = hashlib.sha256("\n".join(rows).encode("utf-8")).digest()[:8]
    assert hashes[0]["run.txt"] == f"{int.from_bytes(digest, 'little'):016x}"

# --- user errors end in one error line --------------------------------------------

def assert_one_error_line(err, *needles):
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    for needle in needles:
        assert needle in lines[0]


def test_train_bad_override_value_is_one_error_line(tmp_path, capsys):
    corpus = gen_corpus(tmp_path)
    cfg = write_config(tmp_path / "run.cfg", iterations=1)
    capsys.readouterr()
    rc = main(["train", "--corpus", str(corpus), "--config", str(cfg),
               "--out", str(tmp_path / "m.vfnc"), "--set", "layers=abc"])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, "layers", "abc")
    assert not (tmp_path / "m.vfnc").exists()


@pytest.mark.parametrize("flags, needle", [
    (["--out", "runs/m.log"], "the model and the log would both be written to runs/m.log"),
    (["--out", "runs/m.vfnc", "--log", "runs/m.manifest.json"],
     "the log and the manifest would both be written to runs/m.manifest.json"),
])
def test_train_refuses_outputs_at_one_path(tmp_path, capsys, monkeypatch, flags, needle):
    monkeypatch.chdir(tmp_path)
    corpus = gen_corpus(tmp_path)
    cfg = write_config(tmp_path / "run.cfg", iterations=1)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    rc = main(["train", "--corpus", str(corpus), "--config", str(cfg), *flags])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, needle)
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command, flags, needle", [
    ("encode", ["--inner-lr", "1e38"], "non-finite loss at step 1 (history"),
    ("train", ["--set", "inner_lr=1e38"], "at step 1 of outer iteration 1"),
    ("train", ["--set", "meta_lr=3e38"], "non-finite weights in"),
    # the first update succeeds, and the second iteration's first step fails
    ("train", ["--set", "meta_lr=1e10"], "non-finite loss at step 0 of outer iteration 2"),
    # the last update overflows: the returned modulations are checked
    ("encode", ["--inner-lr", "1e38", "--inner-steps", "1"],
     "non-finite modulations at step 1 (history"),
    ("train", ["--set", "inner_lr=1e38", "--set", "inner_steps=1"],
     "non-finite modulations at step 1 of outer iteration 1"),
])
def test_an_overflowing_update_is_one_error_line(tmp_path, capsys, command, flags, needle):
    corpus = gen_corpus(tmp_path, count=1)
    if command == "encode":
        model_path, _, _ = tiny_files(tmp_path)
        # 4 frames a window, so the frame update's step inner_lr * 4
        # overflows float32
        argv = ["encode", "--model", str(model_path), "--out", str(tmp_path / "enc"),
                str(corpus / "00000.rawvid")]
    else:
        argv = ["train", "--corpus", str(corpus), "--all-splits",
                "--config", str(write_config(tmp_path / "run.cfg", iterations=2)),
                "--out", str(tmp_path / "m.vfnc")]
    capsys.readouterr()
    # a numpy RuntimeWarning would fail the call: pyproject.toml makes it an error
    rc = main(argv + flags)
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, needle)


@pytest.mark.parametrize("omega0", ["1e-320", "1e-300"])
def test_an_omega0_whose_initial_weights_overflow_is_one_error_line(tmp_path, capsys, omega0):
    # sqrt(6/fan_in)/omega0 overflows float64 at 1e-320, and float32, the
    # run's precision, at 1e-300
    corpus = gen_corpus(tmp_path)
    cfg = write_config(tmp_path / "run.cfg", iterations=1)
    capsys.readouterr()
    rc = main(["train", "--corpus", str(corpus), "--config", str(cfg),
               "--out", str(tmp_path / "run" / "m.vfnc"), "--set", f"omega0={omega0}"])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, "omega0", omega0)
    assert not (tmp_path / "run").exists()
    with pytest.raises(ContractError, match="omega0"):
        MetaModel.initialize(layers=2, hidden=8, video_dim=8, frame_dim=4, omega0=float(omega0))


def test_train_of_a_one_unit_network_is_one_error_line(tmp_path, capsys):
    corpus = gen_corpus(tmp_path)
    cfg = write_config(tmp_path / "run.cfg", iterations=1)
    capsys.readouterr()
    rc = main(["train", "--corpus", str(corpus), "--config", str(cfg),
               "--out", str(tmp_path / "m.vfnc"), "--set", "hidden=1"])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, "hidden must be >= 2, got 1")
    assert not (tmp_path / "m.vfnc").exists()


def test_non_integer_env_seed_is_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VFUNCTA_SEED", "seven")
    rc = main(["gen-corpus", "--out", str(tmp_path / "c"), "--count", "1"])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, "VFUNCTA_SEED", "seven")
    assert not (tmp_path / "c").exists()


def test_a_negative_seed_flag_is_one_error_line(tmp_path, capsys):
    rc = main(["gen-corpus", "--out", str(tmp_path / "c"), "--count", "1", "--seed", "-5"])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, "seed must be >= 0, got -5")
    assert not (tmp_path / "c").exists()


def seeded_commands(tmp_path) -> dict[str, list[str]]:
    """A gen-corpus, a train and an eval command line, by name."""
    corpus = gen_corpus(tmp_path)
    model_path, _, _ = tiny_files(tmp_path)
    return {
        "gen-corpus": ["gen-corpus", "--out", str(tmp_path / "c"), "--count", "1"],
        "train": ["train", "--corpus", str(corpus),
                  "--config", str(write_config(tmp_path / "run.cfg", iterations=1)),
                  "--out", str(tmp_path / "m.out.vfnc")],
        "eval": ["eval", "--encodings",
                 str(encode_corpus(tmp_path, model_path, corpus, "--inner-steps", "1")),
                 "--corpus", str(corpus), "--task", "regression", "--modes", "phi"],
    }


@pytest.mark.parametrize("command", ["gen-corpus", "train", "eval"])
def test_a_negative_env_seed_is_one_error_line(tmp_path, monkeypatch, capsys, command):
    argv = seeded_commands(tmp_path)[command]
    monkeypatch.setenv("VFUNCTA_SEED", "-3")
    capsys.readouterr()
    assert main(argv) == 1
    assert_one_error_line(capsys.readouterr().err, "VFUNCTA_SEED", "-3")
    assert not (tmp_path / "c").exists() and not (tmp_path / "m.out.vfnc").exists()


def test_a_negative_seed_in_a_train_config_is_one_error_line(tmp_path, capsys):
    argv = seeded_commands(tmp_path)["train"]
    write_config(tmp_path / "run.cfg", iterations=1, seed=-1)
    capsys.readouterr()
    assert main(argv) == 1
    assert_one_error_line(capsys.readouterr().err, "run.cfg", "seed must be >= 0, got -1")
    assert not (tmp_path / "m.out.vfnc").exists()


def test_a_negative_seed_in_a_head_config_is_one_error_line(tmp_path, capsys):
    argv = seeded_commands(tmp_path)["eval"]
    head_config = tmp_path / "head.cfg"
    # as any value the head config refuses, it names the file's line
    for line, message in (("seed = -1", "seed must be >= 0, got -1"),
                          ("dropout = 1.5", "unknown key 'dropout'")):
        head_config.write_text(f"# probe settings\n{line}\n")
        capsys.readouterr()
        assert main([*argv, "--head-config", str(head_config)]) == 1
        assert_one_error_line(capsys.readouterr().err, f"{head_config}:2: {message}")


def test_train_without_a_train_split_is_one_error_line(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, count=3, extra=["--split", "0.0"])
    cfg = write_config(tmp_path / "run.cfg", iterations=1)
    argv = ["train", "--corpus", str(corpus), "--config", str(cfg),
            "--out", str(tmp_path / "m.vfnc")]
    capsys.readouterr()
    assert main(argv) == 1
    assert_one_error_line(capsys.readouterr().err, "train items", "--all-splits")
    assert not (tmp_path / "m.vfnc").exists()
    assert main([*argv, "--all-splits"]) == 0


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_gradcheck_without_trials_is_an_error(capsys, trials):
    rc = main(["gradcheck", "--trials", trials])
    captured = capsys.readouterr()
    assert rc == 1 and "PASS" not in captured.out
    assert_one_error_line(captured.err, "trial", trials)


def test_decode_of_overflowing_model_is_one_error_line(tmp_path, capsys):
    model = MetaModel.initialize(layers=2, hidden=8, video_dim=8, frame_dim=4,
                                 rng=np.random.default_rng([2, 0]))
    broken = model.replace_params(
        {"layer0.bias": np.full(8, 3e38, dtype=np.float32)})
    save_model(tmp_path / "broken.vfnc", broken)
    enc = VideoEncoding(VideoModulation(np.zeros(8, dtype=np.float32)),
                        FrameModulationSeq(np.zeros((2, 4), dtype=np.float32)),
                        frames=2, height=3, width=3,
                        fingerprint=model_fingerprint(broken), inner_steps=0, inner_lr=0.1)
    save_encoding(tmp_path / "clip.venc", enc)
    rc = main(["decode", "--model", str(tmp_path / "broken.vfnc"),
               "--out", str(tmp_path / "dec"), str(tmp_path / "clip.venc")])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, "non-finite")
    assert not (tmp_path / "dec" / "clip.rawvid").exists()


def test_decode_of_a_model_with_an_impossible_layer_count_is_one_error_line(
        tmp_path, capsys, monkeypatch):
    _, _, venc = tiny_files(tmp_path)
    fields = struct.pack("<IBIIIIdQ", container.KIND_MODEL, 0, 2**32 - 1, 1, 1, 1, 30.0, 0)
    container.write_container(tmp_path / "huge.vfnc", container.MODEL_MAGIC, fields,
                              [np.zeros(4)], "<f4")

    def refuse(*args):
        raise AssertionError(f"param_shapes{args} was called")

    monkeypatch.setattr(container, "param_shapes", refuse)
    capsys.readouterr()
    rc = main(["decode", "--model", str(tmp_path / "huge.vfnc"),
               "--out", str(tmp_path / "dec"), str(venc)])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, "4294967295 layers")
    assert not (tmp_path / "dec").exists()


def test_decode_of_a_model_whose_omega0_is_nan_is_one_error_line(tmp_path, capsys):
    model_path, _, venc = tiny_files(tmp_path)
    model = load_model(model_path)
    # omega0 follows the kind tag, dtype code and four dimensions
    fields = bytearray(model_path.read_bytes()[8:8 + 4 + 1 + 16 + 8 + 8])
    struct.pack_into("<d", fields, 4 + 1 + 16, math.nan)
    container.write_container(model_path, container.MODEL_MAGIC, bytes(fields),
                              [p for _, p in model.parameters()], "<f4")
    capsys.readouterr()
    rc = main(["decode", "--model", str(model_path), "--out", str(tmp_path / "dec"), str(venc)])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, "omega0 nan")
    assert not (tmp_path / "dec").exists()


@pytest.mark.parametrize("line, needle", [("colour = red", "colour"),
                                          ("frames = 4.5", "4.5"),
                                          ("trajectories = line,spiral", "spiral"),
                                          ("speed_min = nan", "speed_min"),
                                          ("speed_max = nan", "speed_max"),
                                          ("amplitude = inf", "amplitude"),
                                          ("blob_sigma = nan", "blob_sigma"),
                                          ("frames = 0", ":1: frames must be >= 1, got 0"),
                                          ("family = x", "'x'"),
                                          ("blob_sigma = 0", "blob_sigma"),
                                          ("amplitude = -1", "amplitude"),
                                          ("speed_min = -1", "speed"),
                                          ("frames = 8\nheight = 32\namplitude = -1",
                                           "spec.cfg:3: amplitude must be >= 0, got -1.0"),
                                          ("speed_min = 1\nspeed_max = inf",
                                           "spec.cfg:2: speed must be finite, got inf"),
                                          (f"frames = {2**32}",
                                           f"frames must be <= 4294967295, got {2**32}"),
                                          (f"frames = {10**30}",
                                           f"frames must be <= 4294967295, got {10**30}"),
                                          (f"height = {10**30}",
                                           f"height must be <= 4294967295, got {10**30}")])
def test_bad_corpus_spec_is_one_error_line(tmp_path, capsys, line, needle):
    """Every value the generator would refuse is refused, naming the spec
    file, before --out is made. With speed_min = -1, seed 1 draws some
    speeds of at least 0, so a check per video would write videos first.
    Each extent is capped at the u32 that a `.rawvid` header holds; only
    sizes past that cap are tried here, as one below it would be
    allocated."""
    spec = tmp_path / "spec.cfg"
    spec.write_text(line + "\n")
    rc = main(["gen-corpus", "--out", str(tmp_path / "c"), "--count", "10", "--seed", "1",
               "--spec", str(spec)])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, needle, str(spec))
    assert not (tmp_path / "c").exists()


def test_eval_without_seeds_is_an_error(tmp_path, capsys):
    corpus, model_path = trained_model(tmp_path)
    enc_dir = encode_corpus(tmp_path, model_path, corpus, "--batch-frames", "4",
                            "--inner-steps", "3")
    capsys.readouterr()
    rc = main(["eval", "--encodings", str(enc_dir), "--corpus", str(corpus),
               "--task", "regression", "--seeds", "0", "--out", str(tmp_path / "eval")])
    captured = capsys.readouterr()
    assert rc == 1 and "nan" not in captured.out
    assert_one_error_line(captured.err, "--seeds")
    assert not (tmp_path / "eval").exists()


def test_eval_without_modes_is_an_error(tmp_path, capsys):
    rc = main(["eval", "--encodings", str(tmp_path / "enc"), "--corpus", str(tmp_path),
               "--task", "binary", "--modes", " , "])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, "--modes")


def test_eval_without_a_test_split_fails_before_encoding(tmp_path, capsys, monkeypatch):
    corpus = gen_corpus(tmp_path, count=3, extra=["--split", "1.0"])
    model_path, _, _ = tiny_files(tmp_path)
    enc_dir = encode_corpus(tmp_path, model_path, corpus, "--inner-steps", "1")
    encoded, loaded = [], []
    monkeypatch.setattr(codec, "encode_video", lambda *args: encoded.append(args))
    monkeypatch.setattr(codec, "load_encoding", lambda *args: loaded.append(args))
    capsys.readouterr()
    rc = main(["eval", "--encodings", str(enc_dir), "--corpus", str(corpus),
               "--task", "regression"])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, "train and test")
    assert encoded == [] and loaded == []


def test_eval_head_config_rejects_a_task(tmp_path, capsys):
    """`eval --task` alone sets the head's task."""
    argv = seeded_commands(tmp_path)["eval"]
    head_config = tmp_path / "head.cfg"
    head_config.write_text("seed = 0\ntask = regression\n")
    capsys.readouterr()
    assert main([*argv, "--head-config", str(head_config)]) == 1
    assert_one_error_line(capsys.readouterr().err, f"{head_config}:2:", "unknown key 'task'")
    [subparsers] = [a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    [task] = [a for a in subparsers.choices["eval"]._actions if "--task" in a.option_strings]
    assert tuple(task.choices) == heads.TASKS


def test_env_seed_overrides_the_head_config_seed(tmp_path, monkeypatch, capsys):
    argv = seeded_commands(tmp_path)["eval"]
    head_config = tmp_path / "head.cfg"
    head_config.write_text("seed = 5\n")
    monkeypatch.setenv("VFUNCTA_SEED", "9")
    assert main([*argv, "--head-config", str(head_config), "--out", str(tmp_path / "e")]) == 0
    doc = read_manifest(tmp_path / "e" / "run_manifest.json")
    assert doc["seed"] == doc["config"]["seed"] == 9


def test_same_seed_evals_write_the_same_manifest(tmp_path, capsys):
    argv = seeded_commands(tmp_path)["eval"]
    head_config = tmp_path / "head.cfg"
    head_config.write_text("seed = 2\n")
    docs, reports = [], []
    for name in ("e1", "e2"):
        assert main([*argv, "--head-config", str(head_config),
                     "--out", str(tmp_path / name)]) == 0
        doc = read_manifest(tmp_path / name / "run_manifest.json")
        docs.append({key: doc[key] for key in ("config", "seed", "inputs", "artifacts")})
        reports.append((tmp_path / name / "eval_report.tsv").read_bytes())
    assert docs[0] == docs[1] and reports[0] == reports[1]
    # the resolved head settings, the task among them; the modes name the features
    assert docs[0]["config"] == {"task": "regression", "seed": 2, "modes": "phi", "seeds": 1}


def test_eval_head_config_rejects_a_mode(tmp_path, capsys):
    corpus = gen_corpus(tmp_path)
    model_path, _, _ = tiny_files(tmp_path)
    head_config = tmp_path / "head.cfg"
    head_config.write_text("seed = 0\nmode = v\n")
    enc_dir = encode_corpus(tmp_path, model_path, corpus, "--inner-steps", "1")
    capsys.readouterr()
    rc = main(["eval", "--encodings", str(enc_dir), "--corpus", str(corpus),
               "--task", "regression", "--modes", "phi", "--head-config", str(head_config)])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, "'mode'", ":2:")


@pytest.mark.parametrize("task", ["regression", "binary"])
def test_eval_reports_the_heads_of_in_memory_encodings(tmp_path, capsys, monkeypatch, task):
    """eval trains and scores its heads on the .venc files encode wrote,
    exactly as on encodings held in memory."""
    monkeypatch.delenv("VFUNCTA_SEED", raising=False)
    corpus, model_path = trained_model(tmp_path)
    enc_dir = encode_corpus(tmp_path, model_path, corpus, "--batch-frames", "4",
                            "--inner-steps", "3")
    head_config = tmp_path / "head.cfg"
    head_config.write_text("seed = 3\n")
    capsys.readouterr()
    assert main(["eval", "--encodings", str(enc_dir), "--corpus", str(corpus),
                 "--task", task, "--seeds", "2", "--head-config", str(head_config),
                 "--out", str(tmp_path / "eval")]) == 0
    printed = capsys.readouterr().out

    model = load_model(model_path)
    settings = codec.EncodeSettings(batch_frames=4, inner_steps=3, inner_lr=0.1)
    items = read_corpus_manifest(corpus)
    encodings = {i.path: codec.encode_video(model, load_video(i.path), settings) for i in items}

    def split(name, mode):
        chosen = [i for i in items if i.split == name]
        x = np.stack([heads.extract_features(encodings[i.path], mode) for i in chosen])
        y = np.array([i.speed if task == "regression" else float(i.trajectory_class)
                      for i in chosen])
        return x, y

    lines = []
    for mode in heads.MODES:
        (x_train, y_train), (x_test, y_test) = split("train", mode), split("test", mode)
        reports = []
        for seed in (3, 4):
            head = heads.train_head(x_train, y_train, heads.HeadConfig(task, seed))
            reports.append(heads.evaluate_head(head, x_test, y_test))
        lines.append(_format_eval_line(mode, reports))
    expected = "".join(f"{line}\n" for line in lines)
    assert (tmp_path / "eval" / "eval_report.tsv").read_text(encoding="utf-8") == expected
    assert printed == expected


@pytest.mark.parametrize("task, keys", [("regression", ["mae", "rmse", "r2"]),
                                        ("binary", ["acc", "f1", "auroc"])])
def test_eval_report_lines_name_the_mode_then_the_tasks_fields(tmp_path, monkeypatch, task, keys):
    """A line per mode: `mode=<mode>`, then the task's fields in order,
    each one value at one seed and mean±std over more, `nan` where no
    seed has one (no AUROC of a one-class test split)."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("VFUNCTA_SEED", raising=False)
    rng = np.random.default_rng(21)
    items = []
    for i in range(18):
        save_encoding(tmp_path / "enc" / f"v{i}.venc", VideoEncoding(
            VideoModulation(rng.standard_normal(6).astype(np.float32)),
            FrameModulationSeq(rng.standard_normal((3, 4)).astype(np.float32)),
            frames=3, height=4, width=4, fingerprint=1, inner_steps=1, inner_lr=0.1))
        split = "train" if i < 12 else "test"
        items.append(data.CorpusItem(path=f"v{i}.rawvid", speed=float(rng.uniform(0.5, 3.0)),
                                     trajectory_class=i % 2 if split == "train" else 0,
                                     split=split))
    data.write_corpus_manifest(tmp_path / "manifest.tsv", items)
    number = r"-?\d+\.\d{4}"
    for seeds, value in (("1", number), ("2", f"{number}±{number}")):
        assert main(["eval", "--encodings", "enc", "--corpus", "manifest.tsv", "--task", task,
                     "--modes", "phi,v", "--seeds", seeds, "--out", f"eval{seeds}"]) == 0
        report = (tmp_path / f"eval{seeds}" / "eval_report.tsv").read_text(encoding="utf-8")
        rows = [[field.split("=", 1) for field in line.split("\t")]
                for line in report.splitlines()]
        assert [row[0] for row in rows] == [["mode", "phi"], ["mode", "v"]]
        for row in rows:
            assert [key for key, _ in row] == ["mode", *keys]
            for key, text in row[1:]:
                assert re.fullmatch("nan" if key == "auroc" else value, text), (key, text)


def write_head_config(tmp_path):
    head_config = tmp_path / "head.cfg"
    head_config.write_text("seed = 0\n")
    return head_config


def test_eval_manifest_enters_the_corpus_manifest_and_each_encoding(tmp_path, capsys):
    corpus = gen_corpus(tmp_path)
    model_path, _, _ = tiny_files(tmp_path)
    enc_dir = encode_corpus(tmp_path, model_path, corpus, "--inner-steps", "1")
    assert main(["eval", "--encodings", str(enc_dir), "--corpus", str(corpus),
                 "--task", "regression", "--modes", "phi", "--head-config",
                 str(write_head_config(tmp_path)), "--out", str(tmp_path / "eval")]) == 0
    inputs = read_manifest(tmp_path / "eval" / "run_manifest.json")["inputs"]
    vencs = sorted(enc_dir.glob("*.venc"))
    assert len(vencs) == 6
    assert inputs == {str(corpus / "manifest.tsv"): hash_file(corpus / "manifest.tsv"),
                      **{str(path): stored_checksum(path) for path in vencs}}


def test_eval_refuses_encodings_of_two_models(tmp_path, capsys):
    corpus = gen_corpus(tmp_path)
    model_path, _, _ = tiny_files(tmp_path)
    other_path = tmp_path / "other.vfnc"
    save_model(other_path, MetaModel.initialize(layers=2, hidden=8, video_dim=8, frame_dim=4,
                                                rng=np.random.default_rng([3, 0])))
    enc_dir = tmp_path / "enc"
    videos = [i.path for i in read_corpus_manifest(corpus)]
    for model, chosen in ((model_path, videos[:3]), (other_path, videos[3:])):
        assert main(["encode", "--model", str(model), "--out", str(enc_dir),
                     "--inner-steps", "1", *chosen]) == 0
    capsys.readouterr()
    rc = main(["eval", "--encodings", str(enc_dir), "--corpus", str(corpus),
               "--task", "regression", "--head-config", str(write_head_config(tmp_path)),
               "--out", str(tmp_path / "eval")])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, "more than one model",
                          f"{model_fingerprint(load_model(model_path)):016x}",
                          f"{model_fingerprint(load_model(other_path)):016x}")
    assert not (tmp_path / "eval").exists()


def test_eval_without_an_encoding_is_one_error_line(tmp_path, capsys):
    corpus = gen_corpus(tmp_path)
    model_path, _, _ = tiny_files(tmp_path)
    enc_dir = encode_corpus(tmp_path, model_path, corpus, "--inner-steps", "1")
    missing = sorted(enc_dir.glob("*.venc"))[-1]
    missing.unlink()
    capsys.readouterr()
    rc = main(["eval", "--encodings", str(enc_dir), "--corpus", str(corpus),
               "--task", "regression", "--head-config", str(write_head_config(tmp_path)),
               "--out", str(tmp_path / "eval")])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert_one_error_line(captured.err, str(missing))
    assert not (tmp_path / "eval" / "eval_report.tsv").exists()


def test_eval_refuses_two_corpus_items_with_one_stem(tmp_path, capsys, monkeypatch):
    _, video, _ = tiny_files(tmp_path)
    clips = _same_stem_copies(tmp_path, video, ".rawvid")
    data.write_corpus_manifest(tmp_path / "manifest.tsv", [
        data.CorpusItem(path=clips[0], speed=1.0, trajectory_class=0, split="train"),
        data.CorpusItem(path=clips[1], speed=2.0, trajectory_class=1, split="test")])
    loaded = []
    monkeypatch.setattr(codec, "load_encoding", lambda *args: loaded.append(args))
    capsys.readouterr()
    rc = main(["eval", "--encodings", str(tmp_path / "enc"), "--corpus", str(tmp_path),
               "--task", "regression"])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, clips[0], clips[1],
                          str(tmp_path / "enc" / "clip.venc"))
    assert loaded == []


def test_train_enters_the_corpus_manifest_it_read(tmp_path, capsys):
    corpus = gen_corpus(tmp_path)
    cfg = write_config(tmp_path / "run.cfg", iterations=1)
    assert main(["train", "--corpus", str(corpus), "--config", str(cfg),
                 "--out", str(tmp_path / "m.vfnc")]) == 0
    inputs = read_manifest(tmp_path / "m.manifest.json")["inputs"]
    train_items = [i.path for i in read_corpus_manifest(corpus) if i.split == "train"]
    assert inputs == {path: hash_file(path)
                      for path in [str(cfg), str(corpus / "manifest.tsv"), *train_items]}


@pytest.mark.parametrize("speed, label, needle", [
    ("fast", "0", "speed must be a number, got 'fast'"),
    ("nan", "0", "speed must be finite, got 'nan'"),
    ("-inf", "0", "speed must be finite, got '-inf'"),
    ("1.5", "line", "trajectory_class must be an integer, got 'line'"),
], ids=["speed-text", "speed-nan", "speed-inf", "class-text"])
def test_a_malformed_corpus_manifest_is_one_error_line(tmp_path, capsys, speed, label, needle):
    corpus = gen_corpus(tmp_path, count=2)
    manifest = corpus / "manifest.tsv"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    path, _, _, split = lines[2].split("\t")
    lines[2] = "\t".join([path, speed, label, split])
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["train", "--corpus", str(corpus), "--all-splits",
               "--config", str(write_config(tmp_path / "run.cfg", iterations=1)),
               "--out", str(tmp_path / "m.vfnc")])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, f"{manifest}:3: {needle}")
    assert not (tmp_path / "m.vfnc").exists()


def test_a_pgm_header_that_is_not_numbers_is_one_error_line(tmp_path, capsys):
    """A header whose width or height is not a positive integer."""
    model_path, _, _ = tiny_files(tmp_path)
    frames = tmp_path / "frames"
    frames.mkdir()
    data.write_pgm(frames / "f0.pgm", np.full((3, 3), 0.5))
    for extents, needle in ((b"abc 3", "abc"), (b"-2 3", "-2x3"), (b"2 -3", "2x-3"),
                            (b"0 3", "0x3")):
        (frames / "f1.pgm").write_bytes(b"P5\n" + extents + b"\n255\n" + bytes(9))
        capsys.readouterr()
        rc = main(["encode", "--model", str(model_path), "--out", str(tmp_path / "enc"),
                   "--inner-steps", "1", str(frames)])
        assert rc == 1
        assert_one_error_line(capsys.readouterr().err, str(frames / "f1.pgm"), needle)
        assert not (tmp_path / "enc" / "frames.venc").exists()


def test_a_pgm_payload_of_the_wrong_size_is_one_error_line(tmp_path, capsys):
    model_path, _, _ = tiny_files(tmp_path)
    frames = tmp_path / "frames"
    frames.mkdir()
    data.write_pgm(frames / "f0.pgm", np.full((3, 3), 0.5))
    header = b"P5\n3 3\n255"
    for payload, needle in ((b"", "payload is 0 bytes"),
                            (b"\n" + bytes(9) + header + b"\n" + bytes(9), "payload is 29 bytes")):
        (frames / "f1.pgm").write_bytes(header + payload)
        capsys.readouterr()
        rc = main(["encode", "--model", str(model_path), "--out", str(tmp_path / "enc"),
                   "--inner-steps", "1", str(frames)])
        assert rc == 1
        assert_one_error_line(capsys.readouterr().err, str(frames / "f1.pgm"), needle)
        assert not (tmp_path / "enc" / "frames.venc").exists()


def test_a_pgm_directory_input_is_entered_by_its_frames(tmp_path, capsys):
    model_path, _, _ = tiny_files(tmp_path)
    frames = tmp_path / "frames"
    frames.mkdir()
    for t in range(2):
        data.write_pgm(frames / f"f{t}.pgm", np.full((3, 3), 0.25 * (t + 1)))
    missing = tmp_path / "missing"

    def inputs(run):
        out = tmp_path / run
        main(["encode", "--model", str(model_path), "--out", str(out), "--keep-going",
              "--batch-frames", "2", "--inner-steps", "1", str(frames), str(missing)])
        return read_manifest(out / "run_manifest.json")["inputs"]

    first = inputs("a")
    assert first == inputs("b")
    assert first[str(missing)] == "-"
    entry = first[str(frames)]
    assert len(entry) == 16 and entry != "-"
    # a file the loader does not read leaves the entry as it is
    (frames / "notes.txt").write_text("not a frame\n")
    assert inputs("c")[str(frames)] == entry
    body = bytearray((frames / "f1.pgm").read_bytes())
    body[-1] ^= 1
    (frames / "f1.pgm").write_bytes(bytes(body))
    changed = inputs("d")[str(frames)]
    assert changed != entry
    (frames / "f1.pgm").rename(frames / "f2.pgm")
    assert inputs("e")[str(frames)] not in (entry, changed)
    capsys.readouterr()


def _same_stem_copies(tmp_path, src, suffix):
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        dest = tmp_path / sub / f"clip{suffix}"
        dest.write_bytes(src.read_bytes())
        paths.append(str(dest))
    return paths


def test_encode_rejects_inputs_with_the_same_output_name(tmp_path, capsys):
    corpus, model_path = trained_model(tmp_path)
    item = read_corpus_manifest(corpus)[0]
    videos = _same_stem_copies(tmp_path, Path(item.path), ".rawvid")
    capsys.readouterr()
    rc = main(["encode", "--model", str(model_path), "--out", str(tmp_path / "enc"),
               "--batch-frames", "4", "--inner-steps", "3", *videos])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, videos[0], videos[1], "clip.venc")
    assert not (tmp_path / "enc").exists()


def test_decode_rejects_inputs_with_the_same_output_name(tmp_path, capsys):
    corpus, model_path = trained_model(tmp_path)
    item = read_corpus_manifest(corpus)[0]
    enc_dir = tmp_path / "enc"
    assert main(["encode", "--model", str(model_path), "--out", str(enc_dir),
                 "--batch-frames", "4", "--inner-steps", "3", item.path]) == 0
    encodings = _same_stem_copies(tmp_path, next(enc_dir.glob("*.venc")), ".venc")
    capsys.readouterr()
    rc = main(["decode", "--model", str(model_path), "--out", str(tmp_path / "dec"),
               *encodings])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, encodings[0], encodings[1], "clip.rawvid")
    assert not (tmp_path / "dec").exists()

    rc = main(["summary", "--model", str(model_path), "--out", str(tmp_path / "sum"),
               *encodings])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, encodings[0], encodings[1], "clip.pgm")


def test_manifest_names_its_hash(tmp_path):
    out = gen_corpus(tmp_path, count=1)
    manifest = read_manifest(out / "run_manifest.json")
    assert manifest["hash"] == "sha256-64"
    assert all(len(h) == 16 for h in manifest["artifacts"].values())


def tiny_files(tmp_path):
    """An untrained model, a 2x3x3 video and a zero encoding for that model."""
    model = MetaModel.initialize(layers=2, hidden=8, video_dim=8, frame_dim=4,
                                 rng=np.random.default_rng([2, 0]))
    save_model(tmp_path / "m.vfnc", model)
    save_video(tmp_path / "clip.rawvid",
               VideoTensor(np.linspace(0, 1, 18, dtype=np.float32).reshape(2, 3, 3)))
    enc = VideoEncoding(VideoModulation(np.zeros(8, dtype=np.float32)),
                        FrameModulationSeq(np.zeros((2, 4), dtype=np.float32)),
                        frames=2, height=3, width=3,
                        fingerprint=model_fingerprint(model), inner_steps=0, inner_lr=0.1)
    save_encoding(tmp_path / "clip.venc", enc)
    return tmp_path / "m.vfnc", tmp_path / "clip.rawvid", tmp_path / "clip.venc"


@pytest.mark.parametrize("jobs", ["0", "-1", "2"])
def test_jobs_below_one_is_an_error(tmp_path, capsys, jobs):
    model_path, video, venc = tiny_files(tmp_path)
    for command, item in (("encode", video), ("decode", venc)):
        rc = main([command, "--model", str(model_path), "--out", str(tmp_path / command),
                   "--jobs", jobs, str(item)])
        assert rc == 1
        assert_one_error_line(capsys.readouterr().err, "--jobs", jobs)
        assert not (tmp_path / command).exists()


def test_decode_refuses_the_report_flag(tmp_path, capsys):
    model_path, _, venc = tiny_files(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main(["decode", "--model", str(model_path), "--out", str(tmp_path / "dec"),
              "--report", "--originals", str(tmp_path), str(venc)])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --report" in capsys.readouterr().err
    assert not (tmp_path / "dec").exists()


def test_decode_originals_without_report_writes_nothing(tmp_path, capsys):
    """`--originals` alone asks for the report, so a missing directory of
    originals fails the item before its output is written."""
    model_path, _, venc = tiny_files(tmp_path)
    out = tmp_path / "dec"
    rc = main(["decode", "--model", str(model_path), "--out", str(out),
               "--originals", str(tmp_path / "missing"), str(venc)])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, "cannot read", "clip.rawvid")
    assert sorted(p.name for p in out.iterdir()) == ["run_manifest.json"]
    assert read_manifest(out / "run_manifest.json")["artifacts"] == {}


def test_jobs_print_whole_lines_in_input_order(tmp_path, capsys):
    model_path, _, venc = tiny_files(tmp_path)
    first, second = tmp_path / "a.venc", tmp_path / "b.venc"
    first.write_bytes(venc.read_bytes())
    second.write_bytes(venc.read_bytes())
    capsys.readouterr()
    assert main(["decode", "--model", str(model_path), "--out", str(tmp_path / "dec"),
                 str(first), str(second)]) == 0
    assert capsys.readouterr().out == "a.venc\tdims=(2, 3, 3)\nb.venc\tdims=(2, 3, 3)\n"


def test_decode_report_with_missing_original_writes_no_output(tmp_path, capsys):
    model_path, _, venc = tiny_files(tmp_path)
    originals = tmp_path / "originals"
    originals.mkdir()
    out = tmp_path / "dec"
    rc = main(["decode", "--model", str(model_path), "--out", str(out),
               "--originals", str(originals), "--keep-going", str(venc)])
    assert rc == 1
    assert "decode failed for" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["run_manifest.json"]
    assert read_manifest(out / "run_manifest.json")["artifacts"] == {}


def _failing_fdopen(real_fdopen):
    """os.fdopen whose files write half their bytes, then fail as a full disk."""

    class HalfWrite:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, blob):
            self.fh.write(blob[: len(blob) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    return lambda fd, mode: HalfWrite(real_fdopen(fd, mode))


@pytest.mark.parametrize("writer", ["manifest", "train log", "pgm", "corpus manifest"])
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, writer):
    from vfuncta.manifest import RunManifest
    from vfuncta.training import LogEntry, TrainLog

    target = tmp_path / "out"
    target.write_bytes(b"previous contents")
    if writer == "manifest":
        write = partial(RunManifest("gen-corpus", [], config={}).write, target)
    elif writer == "train log":
        log = TrainLog()
        log.entries.append(LogEntry(iteration=1, loss=0.5, timestamp=0.0, seconds=0.1))
        write = partial(log.write, target)
    elif writer == "pgm":
        write = partial(data.write_pgm, target, np.full((4, 4), 0.5))
    else:
        write = partial(data.write_corpus_manifest, target, [])
    monkeypatch.setattr("vfuncta.container.os.fdopen", _failing_fdopen(os.fdopen))
    with pytest.raises(OSError, match="No space"):
        write()
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert target.read_bytes() == b"previous contents"


@pytest.mark.parametrize("command, flags, lines, needle", [
    pytest.param("train", ["--set", "omega0=nan"], {}, "--set:1: omega0",
                 id="train-flags0-omega0"),
    pytest.param("train", ["--set", "meta_lr=nan"], {}, "--set:1: meta_lr",
                 id="train-flags1-meta_lr"),
    pytest.param("train", ["--set", "inner_lr=inf"], {}, "--set:1: inner_lr",
                 id="train-flags2-inner_lr"),
    pytest.param("encode", ["--inner-lr", "nan"], {}, "inner_lr", id="encode-flags3-inner_lr"),
    # the probes take no rate: a head rate is an unknown key
    pytest.param("eval", ["--head-config", "head.cfg"], {},
                 "head.cfg:2: unknown key 'learning_rate'", id="eval-flags4-learning_rate"),
    # a train value is named by its place: the --set number or the file's line
    pytest.param("train", ["--set", "layers=2", "--set", "inner_lr=nan"], {},
                 "--set:2: inner_lr", id="train-second-set"),
    pytest.param("train", [], {"meta_lr": "meta_lr = inf"}, "run.cfg:11: meta_lr",
                 id="train-file-line"),
    # a size past the model file's u32 is refused by its key, before omega0's
    # bound and before the network is allocated
    pytest.param("train", ["--set", f"video_dim={10**30}"], {},
                 f"--set:1: video_dim must be <= 4294967295, got {10**30}",
                 id="train-set-video_dim-10**30"),
    pytest.param("train", ["--set", f"video_dim={10**400}"], {"omega0": None},
                 "--set:1: video_dim must be <= 4294967295", id="train-set-video_dim-10**400"),
])
def test_non_finite_rate_is_one_error_line(tmp_path, capsys, monkeypatch, command, flags,
                                           lines, needle):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    if command == "train":
        cfg = write_config(tmp_path / "run.cfg", iterations=1)
        kept = (lines.get(line.split(" ")[0], line) for line in cfg.read_text().splitlines())
        cfg.write_text("".join(f"{line}\n" for line in kept if line is not None))
        argv = ["train", "--corpus", str(gen_corpus(tmp_path, count=1)),
                "--config", str(cfg), "--out", str(out / "m.vfnc")]
    elif command == "encode":
        model_path, video, _ = tiny_files(tmp_path)
        argv = ["encode", "--model", str(model_path), "--out", str(out), str(video)]
    else:
        model_path, _, _ = tiny_files(tmp_path)
        (tmp_path / "head.cfg").write_text("seed = 0\nlearning_rate = nan\n")
        corpus = gen_corpus(tmp_path)
        enc_dir = encode_corpus(tmp_path, model_path, corpus, "--inner-steps", "1")
        argv = ["eval", "--encodings", str(enc_dir), "--corpus", str(corpus),
                "--task", "regression", "--out", str(out)]
    capsys.readouterr()
    rc = main(argv + flags)
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, needle)
    assert not out.exists()


def test_train_resume_records_the_checkpoint_in_the_manifest(tmp_path, capsys):
    corpus = gen_corpus(tmp_path)
    cfg = write_config(tmp_path / "run.cfg", iterations=4)
    ckpt_dir = tmp_path / "ck"
    assert main(["train", "--corpus", str(corpus), "--config", str(cfg),
                 "--out", str(tmp_path / "first.vfnc"), "--checkpoint-dir", str(ckpt_dir),
                 "--checkpoint-every", "2"]) == 0
    ckpt = ckpt_dir / "checkpoint_00000002.vfnc"
    out = tmp_path / "resumed.vfnc"
    assert main(["train", "--corpus", str(corpus), "--config", str(cfg),
                 "--out", str(out), "--resume", str(ckpt)]) == 0
    inputs = read_manifest(tmp_path / "resumed.manifest.json")["inputs"]
    assert inputs[str(ckpt)] == stored_checksum(ckpt)
    assert out.read_bytes() == (tmp_path / "first.vfnc").read_bytes()


@pytest.mark.parametrize("dtype, omega0, needle", [
    (np.float64, 30.0, "'float64', 30.0) do not match the config's (2, 8, 8, 4, 'float32', 30.0)"),
    (np.float32, 10.0, "'float32', 10.0) do not match the config's (2, 8, 8, 4, 'float32', 30.0)"),
])
def test_train_resume_refuses_a_checkpoint_of_another_precision_or_omega0(tmp_path, capsys,
                                                                         dtype, omega0, needle):
    corpus = gen_corpus(tmp_path)
    ckpt = tmp_path / "other.vfnc"
    save_model(ckpt, MetaModel.initialize(layers=2, hidden=8, video_dim=8, frame_dim=4,
                                          omega0=omega0, dtype=dtype))
    capsys.readouterr()
    rc = main(["train", "--corpus", str(corpus), "--config", str(write_config(tmp_path / "run.cfg")),
               "--out", str(tmp_path / "m.vfnc"), "--resume", str(ckpt)])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, needle)
    assert not (tmp_path / "m.vfnc").exists()


@pytest.mark.parametrize("flags, needle", [
    (["--checkpoint-dir", "ck", "--checkpoint-every", "-3"], "--checkpoint-every"),
    (["--checkpoint-every", "2"], "--checkpoint-dir"),
    (["--checkpoint-dir", "ck"], "--checkpoint-every"),
])
def test_vacuous_checkpoint_flags_are_one_error_line(tmp_path, capsys, monkeypatch, flags,
                                                     needle):
    monkeypatch.chdir(tmp_path)
    read = []
    monkeypatch.setattr(data, "read_corpus_manifest", lambda *args: read.append(args))
    rc = main(["train", "--corpus", "corpus", "--config", "missing.cfg", "--out", "m.vfnc",
               *flags])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, needle)
    assert read == [] and list(tmp_path.iterdir()) == []


def test_eval_rejects_an_unknown_mode_before_encoding(tmp_path, capsys, monkeypatch):
    """An unknown or a repeated mode is refused before any encoding is read."""
    corpus = gen_corpus(tmp_path)
    model_path, _, _ = tiny_files(tmp_path)
    enc_dir = encode_corpus(tmp_path, model_path, corpus, "--inner-steps", "1")
    encoded, loaded = [], []
    monkeypatch.setattr(codec, "encode_video", lambda *args: encoded.append(args))
    monkeypatch.setattr(codec, "load_model", lambda *args: loaded.append(args))
    monkeypatch.setattr(codec, "load_encoding", lambda *args: loaded.append(args))
    capsys.readouterr()
    for modes, needle in (("v,bogus", "'bogus'"), ("v,v", "'v' twice")):
        rc = main(["eval", "--encodings", str(enc_dir), "--corpus", str(corpus),
                   "--task", "regression", "--modes", modes])
        assert rc == 1
        assert_one_error_line(capsys.readouterr().err, needle)
    assert encoded == [] and loaded == []


@pytest.mark.parametrize("case", ["gen-corpus --out", "encode --out", "eval --out",
                                  "train --out", "train --log"])
def test_an_output_path_the_os_refuses_is_one_error_line(tmp_path, capsys, case):
    """An output at or under an existing regular file ends in one error
    line; a training log in a missing directory gets that directory."""
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    corpus = gen_corpus(tmp_path)
    model_path, video, _ = tiny_files(tmp_path)
    train = ["train", "--corpus", str(corpus),
             "--config", str(write_config(tmp_path / "run.cfg", iterations=1))]
    argv = {
        "gen-corpus --out": ["gen-corpus", "--out", str(taken), "--count", "1"],
        "encode --out": ["encode", "--model", str(model_path), "--out", str(taken), str(video)],
        "eval --out": ["eval", "--encodings",
                       str(encode_corpus(tmp_path, model_path, corpus, "--inner-steps", "1")),
                       "--corpus", str(corpus), "--task", "regression", "--out", str(taken)],
        "train --out": [*train, "--out", str(taken / "m.vfnc")],
        "train --log": [*train, "--out", str(tmp_path / "m.vfnc"),
                        "--log", str(tmp_path / "missing" / "x.log")],
    }[case]
    capsys.readouterr()
    rc = main(argv)
    if case == "train --log":
        assert rc == 0
        assert (tmp_path / "missing" / "x.log").is_file()
        assert "x.log" in read_manifest(tmp_path / "m.manifest.json")["artifacts"]
    else:
        assert rc == 1
        assert_one_error_line(capsys.readouterr().err, str(taken))


def test_a_mismatched_original_fails_the_item_before_its_write(tmp_path, capsys):
    model_path, _, venc = tiny_files(tmp_path)
    originals = tmp_path / "originals"
    originals.mkdir()
    save_video(originals / "clip.rawvid", VideoTensor(np.zeros((2, 4, 4), dtype=np.float32)))
    out = tmp_path / "dec"
    rc = main(["decode", "--model", str(model_path), "--out", str(out),
               "--originals", str(originals), "--keep-going", str(venc)])
    assert rc == 1
    assert "decode failed for" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["run_manifest.json"]
    assert read_manifest(out / "run_manifest.json")["artifacts"] == {}


def test_a_failed_item_does_not_enter_an_earlier_runs_output(tmp_path, capsys):
    model_path, video, _ = tiny_files(tmp_path)
    first, second = tmp_path / "a" / "clip.rawvid", tmp_path / "b" / "clip.rawvid"
    for path in (first, second):
        path.parent.mkdir()
    first.write_bytes(video.read_bytes())
    second.write_bytes(video.read_bytes()[:-7])
    out = tmp_path / "enc"
    encode = ["encode", "--model", str(model_path), "--out", str(out),
              "--batch-frames", "2", "--inner-steps", "1"]
    assert main([*encode, str(first)]) == 0
    written = (out / "clip.venc").read_bytes()
    capsys.readouterr()
    assert main([*encode, "--keep-going", str(second)]) == 1
    assert "encode failed for" in capsys.readouterr().err
    assert (out / "clip.venc").read_bytes() == written
    doc = read_manifest(out / "run_manifest.json")
    assert doc["artifacts"] == {}
    assert doc["inputs"][str(second)] == raw_hash(second)


def clips_with_a_directory_in_the_way(tmp_path):
    """c1, c2 and c3 copies of the tiny video, and an encode output
    directory where `c2.venc` is a non-empty directory."""
    model_path, video, _ = tiny_files(tmp_path)
    clips = []
    for name in ("c1", "c2", "c3"):
        clips.append(tmp_path / f"{name}.rawvid")
        clips[-1].write_bytes(video.read_bytes())
    out = tmp_path / "enc"
    (out / "c2.venc").mkdir(parents=True)
    (out / "c2.venc" / "kept").write_text("not an encoding\n")
    argv = ["encode", "--model", str(model_path), "--out", str(out),
            "--batch-frames", "2", "--inner-steps", "1", *(str(c) for c in clips)]
    return argv, out


def test_an_os_error_fails_only_its_item_with_keep_going(tmp_path, capsys):
    argv, out = clips_with_a_directory_in_the_way(tmp_path)
    capsys.readouterr()
    assert main([*argv, "--keep-going"]) == 1
    captured = capsys.readouterr()
    [failed] = captured.err.splitlines()
    assert failed.startswith("encode failed for ") and "c2.rawvid" in failed
    assert "Is a directory" in failed and "c2.venc" in failed
    assert [line.split("\t")[0] for line in captured.out.splitlines()] == ["c1.rawvid",
                                                                          "c3.rawvid"]
    artifacts = read_manifest(out / "run_manifest.json")["artifacts"]
    assert artifacts == {name: stored_checksum(out / name) for name in ("c1.venc", "c3.venc")}


def test_an_os_error_without_keep_going_stops_the_run(tmp_path, monkeypatch, capsys):
    argv, out = clips_with_a_directory_in_the_way(tmp_path)
    loaded = []
    real_load = data.load_video
    monkeypatch.setattr(data, "load_video", lambda path: loaded.append(path.name)
                        or real_load(path))
    capsys.readouterr()
    assert main(argv) == 1
    assert_one_error_line(capsys.readouterr().err, "Is a directory", "c2.venc")
    assert loaded == ["c1.rawvid", "c2.rawvid"]
    assert not (out / "c3.venc").exists()
    assert list(read_manifest(out / "run_manifest.json")["artifacts"]) == ["c1.venc"]
