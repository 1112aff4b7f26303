"""Every refusal a user can reach is one `error:` line.

Each case writes one bad input (a key file, a video, a corpus manifest,
an encoding, or a flag), runs the command line on it, and expects exit
code 1, exactly one stderr line, starting `error:` and holding the
case's needle, and no output file (for eval, no `--out` directory).
"""

import struct

import numpy as np
import pytest

from vfuncta.cli import main
from vfuncta.codec import VideoEncoding, save_encoding
from vfuncta.container import ENCODING_MAGIC, MODEL_MAGIC, dtype_code, save_model, write_container
from vfuncta.model import FrameModulationSeq, MetaModel, VideoModulation, param_shapes

TRAIN_CONFIG = "batch_frames = 2\ncoords_per_frame = 4\n"


def config(tmp_path, text: bytes):
    """`train --config` on a key file holding `text`."""
    (tmp_path / "run.cfg").write_bytes(text)
    return (["train", "--corpus", "corpus", "--config", "run.cfg", "--out", "out/m.vfnc"],
            "out/m.vfnc")


def spec(tmp_path, text: bytes):
    """`gen-corpus --spec` on a key file holding `text`."""
    (tmp_path / "spec.cfg").write_bytes(text)
    return ["gen-corpus", "--out", "out", "--count", "1", "--spec", "spec.cfg"], "out"


def rawvid(tmp_path, blob: bytes):
    """`encode` of a `.rawvid` file holding `blob`."""
    (tmp_path / "clip.rawvid").write_bytes(blob)
    return encode(tmp_path, "clip.rawvid")


def pgm(tmp_path, blob: bytes):
    """`encode` of a PGM-directory video whose one frame holds `blob`."""
    (tmp_path / "clip").mkdir()
    (tmp_path / "clip" / "f0.pgm").write_bytes(blob)
    return encode(tmp_path, "clip")


def model_file(tmp_path) -> str:
    save_model(tmp_path / "m.vfnc", MetaModel.initialize(layers=2, hidden=8, video_dim=8,
                                                         frame_dim=4))
    return "m.vfnc"


def encode(tmp_path, video: str):
    return ["encode", "--model", model_file(tmp_path), "--out", "out", video], "out/clip.venc"


def manifest(tmp_path, text: bytes, command="eval"):
    """`eval` (or `train`) on a corpus manifest holding `text`."""
    (tmp_path / "manifest.tsv").write_bytes(text)
    if command == "train":
        (tmp_path / "run.cfg").write_text(TRAIN_CONFIG)
        return (["train", "--corpus", "manifest.tsv", "--config", "run.cfg",
                 "--out", "out/m.vfnc"], "out/m.vfnc")
    return (["eval", "--encodings", "enc", "--corpus", "manifest.tsv", "--task", "regression",
             "--out", "out"], "out")


def corpus_rows(splits, classes=None) -> bytes:
    classes = classes or [i % 2 for i in range(len(splits))]
    return "".join(f"v{i}.rawvid\t{1.0 + i}\t{c}\t{s}\n"
                   for i, (s, c) in enumerate(zip(splits, classes))).encode()


def evaluate(tmp_path, head_cfg: bytes | None = None, splits=("train",) * 4 + ("test",) * 2,
             classes=None, task="regression"):
    """`eval` of a corpus whose encodings are written directly, with a head
    config holding `head_cfg`; a refused eval leaves no `--out` directory."""
    (tmp_path / "manifest.tsv").write_bytes(corpus_rows(splits, classes))
    (tmp_path / "enc").mkdir()
    rng = np.random.default_rng(0)
    for i in range(len(splits)):
        save_encoding(tmp_path / "enc" / f"v{i}.venc", VideoEncoding(
            VideoModulation(rng.standard_normal(8).astype(np.float32)),
            FrameModulationSeq(rng.standard_normal((2, 4)).astype(np.float32)),
            frames=2, height=4, width=4, fingerprint=1, inner_steps=1, inner_lr=0.1))
    argv = ["eval", "--encodings", "enc", "--corpus", "manifest.tsv", "--task", task,
            "--out", "out"]
    if head_cfg is not None:
        (tmp_path / "head.cfg").write_bytes(head_cfg)
        argv += ["--head-config", "head.cfg"]
    return argv, "out"


def venc(tmp_path, dims=(2, 4, 4, 8, 4), v_value=0.0, command="decode"):
    """`decode` (or `summary`, or `eval`) of a `.venc` file whose header
    holds `dims` (frames, height, width, video_dim, frame_dim) and whose
    payload matches it, under a valid checksum."""
    frames, _, _, video_dim, frame_dim = dims
    dt = np.dtype(np.float32)
    head = (struct.pack("<BIIIII", dtype_code(dt), *dims)
            + struct.pack("<IdQ", 1, 0.1, 1))
    v = np.full(video_dim, v_value, dt)
    if command == "eval":
        argv, output = evaluate(tmp_path)
        path = tmp_path / "enc" / "v0.venc"
    else:
        path = tmp_path / "clip.venc"
        argv = [command, "--model", model_file(tmp_path), "--out", "out", "clip.venc"]
        output = "out/clip" + (".rawvid" if command == "decode" else ".pgm")
    write_container(path, ENCODING_MAGIC, head, [v, np.zeros((frames, frame_dim), dt)], dt)
    return argv, output


def nan_model(tmp_path):
    """`summary` of an encoding with a 2-layer model file whose
    `layer1.bias` holds a NaN under a valid checksum."""
    argv, output = venc(tmp_path, command="summary")
    dt = np.dtype(np.float32)
    params = {name: np.full(shape, 0.1, dt) for name, shape in param_shapes(2, 8, 8, 4).items()}
    params["layer1.bias"][3] = np.nan
    head = struct.pack("<IBIIIIdQ", 1, dtype_code(dt), 2, 8, 8, 4, 30.0, 0)
    write_container(tmp_path / "m.vfnc", MODEL_MAGIC, head, list(params.values()), dt)
    return argv, output


def rawvid_header(t, h, w) -> bytes:
    return b"VRAW" + struct.pack("<III", t, h, w)


def coords_per_frame(tmp_path, count: int):
    """`train` asking `count` pixels of each frame of a 1x2x2 video."""
    (tmp_path / "v0.rawvid").write_bytes(rawvid_header(1, 2, 2) + bytes(16))
    argv, output = manifest(tmp_path, corpus_rows(["train"]), "train")
    return argv + ["--set", f"coords_per_frame={count}"], output


CASES = {
    # key files
    "config-missing": (lambda p: (["train", "--corpus", "c", "--config", "missing.cfg",
                                   "--out", "out/m.vfnc"], "out/m.vfnc"), "cannot read config"),
    "config-no-equals": (lambda p: config(p, b"batch_frames 2\n"),
                         "run.cfg:1: expected key=value"),
    "config-empty-value": (lambda p: config(p, b"batch_frames =\n"),
                           "run.cfg:1: empty key or value"),
    "config-duplicate": (lambda p: config(p, b"layers = 2\nlayers = 3\n"),
                         "run.cfg:2: duplicate key 'layers'"),
    # each size is a u32 in the model file's header
    "config-video-dim-2**32": (lambda p: config(p, b"%svideo_dim = %d\n"
                                                % (TRAIN_CONFIG.encode(), 2**32)),
                               "run.cfg:3: video_dim must be <= 4294967295, got 4294967296"),
    "config-not-utf8": (lambda p: config(p, b"\xfflayers = 2\n"), "run.cfg: 'utf-8' codec"),
    "spec-not-utf8": (lambda p: spec(p, b"\xff"), "spec.cfg: 'utf-8'"),
    # a bump of width 1e-300 or 1e308 would overflow, and a feature at speed
    # 1e308 would leave the float range
    "spec-blob-sigma-1e-300": (lambda p: spec(p, b"blob_sigma = 1e-300\n"),
                               "spec.cfg:1: blob_sigma must lie in (0, 1e154] and keep"),
    "spec-blob-sigma-1e308": (lambda p: spec(p, b"blob_sigma = 1e308\n"),
                              "spec.cfg:1: blob_sigma must lie in (0, 1e154]"),
    "spec-speed-1e308": (lambda p: spec(p, b"speed_min = 1e308\nspeed_max = 1e308\n"),
                         "spec.cfg:1: speed must be <= 4294967295, got 1e+308 (speed_min)"),
    "config-coords-per-frame-5": (lambda p: coords_per_frame(p, 5),
                                  "coords_per_frame = 5 is more than the 4 pixels of a frame "
                                  "of v0.rawvid"),
    "head-config-not-utf8": (lambda p: evaluate(p, b"\xffseed = 1\n"), "head.cfg: 'utf-8'"),
    # .rawvid videos
    "rawvid-4-bytes": (lambda p: rawvid(p, b"VRAW"), "truncated header"),
    "rawvid-zero-extent": (lambda p: rawvid(p, rawvid_header(1, 0, 2)), "positive extents"),
    "rawvid-nan": (lambda p: rawvid(p, rawvid_header(1, 1, 2)
                                    + np.array([0.5, np.nan], "<f4").tobytes()), "non-finite"),
    "rawvid-above-one": (lambda p: rawvid(p, rawvid_header(1, 1, 2)
                                          + np.array([0.5, 1.5], "<f4").tobytes()),
                         "outside [0, 1]"),
    # PGM frames
    "pgm-p2": (lambda p: pgm(p, b"P2\n2 2\n255\n0 0 0 0\n"), "not a binary PGM"),
    "pgm-cut-after-height": (lambda p: pgm(p, b"P5\n2 2"), "truncated PGM header"),
    "pgm-16-bit": (lambda p: pgm(p, b"P5\n1 1\n65535\n\x00\x00"), "maxval 65535"),
    # corpus manifests
    "manifest-missing": (lambda p: (["eval", "--encodings", "enc", "--corpus", "none.tsv",
                                     "--task", "regression", "--out", "out"],
                                    "out"), "cannot read corpus manifest"),
    "manifest-3-fields": (lambda p: manifest(p, b"v0.rawvid\t1.0\t0\n"),
                          "manifest.tsv:1: expected 4 tab-separated fields"),
    "manifest-split-valid": (lambda p: manifest(p, b"v0.rawvid\t1.0\t0\tvalid\n"),
                             "split must be train or test, got 'valid'"),
    "manifest-comment-only": (lambda p: manifest(p, b"# path\tspeed\tclass\tsplit\n"),
                              "manifest lists no videos"),
    "train-manifest-not-utf8": (lambda p: manifest(p, b"\xff\n", "train"),
                                "manifest.tsv: 'utf-8'"),
    "eval-manifest-not-utf8": (lambda p: manifest(p, b"\xff\n"), "manifest.tsv: 'utf-8'"),
    # gen-corpus flags
    "gen-corpus-count-0": (lambda p: (["gen-corpus", "--out", "out", "--count", "0"], "out"),
                           "count must be >= 1, got 0"),
    "gen-corpus-split-1.5": (lambda p: (["gen-corpus", "--out", "out", "--count", "2",
                                         "--split", "1.5"], "out"),
                             "split must lie in [0, 1], got 1.5"),
    # head configs and eval corpora
    # the probes have no hidden layer: a width is an unknown key
    "head-hidden1-0": (lambda p: evaluate(p, b"hidden1 = 0\n"),
                       "head.cfg:1: unknown key 'hidden1'"),
    "head-seed-negative": (lambda p: evaluate(p, b"seed = -1\n"),
                           "head.cfg:1: seed must be >= 0, got -1"),
    "eval-one-train-item": (lambda p: evaluate(p, splits=("train", "test")),
                            "need at least two samples"),
    "eval-binary-class-2": (lambda p: evaluate(p, classes=[0, 1, 2, 0, 1, 0], task="binary"),
                            "binary task labels must be 0/1"),
    # encodings
    "venc-nan-in-v": (lambda p: venc(p, v_value=np.nan), "non-finite"),
    "venc-height-0": (lambda p: venc(p, (2, 0, 4, 8, 4)), "must be positive"),
    "venc-frames-0": (lambda p: venc(p, (0, 4, 4, 8, 4)), "extents must be positive"),
    # a decode's grid of 2^62 pixels or video of 2^63 values is past what
    # numpy can size; at 65535 x 65535 the allocation itself is refused
    "venc-frames-of-2**31-x-2**31": (lambda p: venc(p, (2, 2**31, 2**31, 8, 4)),
                                     "clip.venc: 2 frames of 2147483648 x 2147483648 pixels"),
    "summary-venc-frames-of-2**31-x-2**31": (
        lambda p: venc(p, (2, 2**31, 2**31, 8, 4), command="summary"),
        "clip.venc: 2 frames of 2147483648 x 2147483648 pixels"),
    "summary-venc-video-dim-0": (lambda p: venc(p, (2, 4, 4, 0, 4), command="summary"),
                                 "extents must be positive"),
    "eval-venc-frame-dim-0": (lambda p: venc(p, (2, 4, 4, 8, 0), command="eval"),
                              "extents must be positive"),
    # model files
    "summary-vfnc-nan-in-layer1-bias": (nan_model, "m.vfnc: non-finite values produced by "
                                                   "'layer1.bias'"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_a_refused_input_is_one_error_line(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    make, needle = CASES[case]
    argv, output = make(tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert needle in lines[0], lines[0]
    assert not (tmp_path / output).exists()
