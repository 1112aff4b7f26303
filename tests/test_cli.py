"""End-to-end command-line workflows at toy scale."""

import json
from pathlib import Path

import numpy as np
import pytest

from vfuncta.cli import main
from vfuncta.codec import load_model
from vfuncta.data import load_video, read_corpus_manifest
from vfuncta.manifest import read_manifest


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


def test_train_zero_iterations_writes_valid_checkpoint(tmp_path, capsys):
    corpus = gen_corpus(tmp_path)
    cfg = write_config(tmp_path / "run.cfg", iterations=0)
    model_path = tmp_path / "model.vfnc"
    rc = main(["train", "--corpus", str(corpus), "--config", str(cfg),
               "--out", str(model_path)])
    assert rc == 0
    model = load_model(model_path)
    assert model.iteration == 0
    assert (tmp_path / "model.manifest.json").exists()


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
    rc = main(["encode", "--model", str(model_path), "--out", str(tmp_path / "enc"),
               "--batch-frames", "4", "--inner-steps", "3", "--report", item.path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "psnr_db=" in out and "ssim3d=" in out


def test_decode_report_against_originals(tmp_path, capsys):
    corpus, model_path = trained_model(tmp_path)
    item = read_corpus_manifest(corpus)[0]
    enc_dir = tmp_path / "enc"
    main(["encode", "--model", str(model_path), "--out", str(enc_dir),
          "--batch-frames", "4", "--inner-steps", "3", item.path])
    venc = next(enc_dir.glob("*.venc"))
    rc = main(["decode", "--model", str(model_path), "--out", str(tmp_path / "dec"),
               "--report", "--originals", str(corpus), str(venc)])
    assert rc == 0
    assert "psnr_db=" in capsys.readouterr().out


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
    rc = main(["eval", "--model", str(model_path), "--corpus", str(corpus),
               "--task", "regression", "--batch-frames", "4", "--inner-steps", "3",
               "--out", str(tmp_path / "eval")])
    assert rc == 0
    out = capsys.readouterr().out
    for mode in ("mode=v", "mode=phi", "mode=combined"):
        assert mode in out
    assert "mae=" in out and "rmse=" in out and "r2=" in out
    assert (tmp_path / "eval" / "eval_report.tsv").exists()


def test_eval_binary_with_seed_aggregation(tmp_path, capsys):
    corpus, model_path = trained_model(tmp_path)
    rc = main(["eval", "--model", str(model_path), "--corpus", str(corpus),
               "--task", "binary", "--modes", "phi", "--seeds", "2",
               "--batch-frames", "4", "--inner-steps", "3"])
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


def test_non_integer_env_seed_is_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VFUNCTA_SEED", "seven")
    rc = main(["gen-corpus", "--out", str(tmp_path / "c"), "--count", "1"])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, "VFUNCTA_SEED", "seven")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_gradcheck_without_trials_is_an_error(capsys, trials):
    rc = main(["gradcheck", "--trials", trials])
    captured = capsys.readouterr()
    assert rc == 1 and "PASS" not in captured.out
    assert_one_error_line(captured.err, "trial", trials)


def test_eval_without_seeds_is_an_error(tmp_path, capsys):
    corpus, model_path = trained_model(tmp_path)
    capsys.readouterr()
    rc = main(["eval", "--model", str(model_path), "--corpus", str(corpus),
               "--task", "regression", "--seeds", "0", "--batch-frames", "4",
               "--inner-steps", "3", "--out", str(tmp_path / "eval")])
    captured = capsys.readouterr()
    assert rc == 1 and "nan" not in captured.out
    assert_one_error_line(captured.err, "--seeds")
    assert not (tmp_path / "eval").exists()


def test_eval_without_modes_is_an_error(tmp_path, capsys):
    rc = main(["eval", "--model", str(tmp_path / "m.vfnc"), "--corpus", str(tmp_path),
               "--task", "binary", "--modes", " , "])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, "--modes")


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
               "--batch-frames", "4", "--inner-steps", "3", "--jobs", "2", *videos])
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
    assert manifest["hash"] == "blake2b-64"
    assert all(len(h) == 16 for h in manifest["artifacts"].values())
