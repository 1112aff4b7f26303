"""The benchmark's workloads: `train`, `encode` and `decode` through the vfuncta CLI.

Every workload uses the paper-dimension network (10 sine layers of width
256, video latent 2048, frame latent 512, omega0 30, float32), so the
parameter payload is the paper's 28.6 MB. A workload builds its inputs
from the seed (`setup`), runs real `vfuncta` commands in-process through
`vfuncta.cli.main` (`measure`), and checks every command's outputs; a
failed command or check counts as a failed attempt, never as a skipped
sample.

The amount of work depends on `--seconds` only, never on the clock, so
the counts of a traced run repeat exactly for a given seed and run length.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from vfuncta import cli, codec
from vfuncta.config import load_corpus_options
from vfuncta.container import load_model, model_fingerprint, save_model
from vfuncta.data import SynthSpec, build_corpus, gen_synthetic, save_video
from vfuncta.model import FrameModulationSeq, MetaModel, VideoModulation

import oracle

PAPER_DIMS = {"layers": 10, "hidden": 256, "video_dim": 2048, "frame_dim": 512,
              "omega0": 30.0}
INNER_STEPS = 10
BATCH_FRAMES = 8

# the PSNR reported for a decode that matches the oracle exactly
PSNR_CEILING_DB = 200.0


def _psnr(mse: float) -> float:
    return min(PSNR_CEILING_DB, -10.0 * math.log10(mse)) if mse > 0 else PSNR_CEILING_DB


class Ledger:
    """Runs vfuncta commands in-process, timing them and counting failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def command(self, argv: list[str], check, patch=contextlib.nullcontext):
        """Run `vfuncta <argv>`; return (wall seconds, check result or None).

        `check(stdout)` validates the outputs after the clock stops and
        returns the values the workload reports; an exception from it, a
        non-zero exit code or an exception from the command fails the
        attempt. `patch` is a context manager active around the command
        only, inside any tracing.
        """
        self.attempted += 1
        out = io.StringIO()
        code, wall = None, 0.0
        if self.tracer is not None:
            self.tracer.install()
        try:
            with patch(), contextlib.redirect_stdout(out):
                span = (self.tracer.span(f"cli.{argv[0]}") if self.tracer is not None
                        else contextlib.nullcontext())
                t0 = time.perf_counter()
                with span:
                    code = cli.main(argv)
                wall = time.perf_counter() - t0
        except Exception:
            traceback.print_exc(file=sys.stderr)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        if code != 0:
            print(f"perfbench: vfuncta {argv[0]} exited with {code}", file=sys.stderr)
            self.failed += 1
            return wall, None
        try:
            return wall, check(out.getvalue())
        except Exception as exc:
            print(f"perfbench: vfuncta {argv[0]} output check failed: {exc}",
                  file=sys.stderr)
            self.failed += 1
            return wall, None


def _paper_model():
    """The paper-dimension model every run starts from; the workload seed
    varies the videos and latents, not the weights."""
    return MetaModel.initialize(**PAPER_DIMS, rng=np.random.default_rng([0, 101]))


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise ValueError(what)


def _require_manifest(path: Path, artifact: str) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    _require(artifact in doc.get("artifacts", {}), f"{path} does not list {artifact}")


def _require_same_model(a, b, what: str) -> None:
    """Same architecture and bit-identical parameters, hence the same
    `model_fingerprint`, without paying for two more hashes of 28.6 MB."""
    dims = ("layers", "hidden", "video_dim", "frame_dim", "omega0", "dtype")
    _require(all(getattr(a, d) == getattr(b, d) for d in dims)
             and all(np.array_equal(p.data, q.data)
                     for (_, p), (_, q) in zip(a.parameters(), b.parameters())), what)


@contextlib.contextmanager
def _capture(module, attr: str, store: dict):
    """Record in `store["value"]` what `module.attr` returns while active."""
    inner = getattr(module, attr)

    def capturing(*args, **kwargs):
        store["value"] = inner(*args, **kwargs)
        return store["value"]

    setattr(module, attr, capturing)
    try:
        yield
    finally:
        setattr(module, attr, inner)


class Train:
    """`vfuncta train` on a synthetic corpus of 16-frame 64x64 videos.

    Why: the paper's training regime. Each outer iteration re-reads a corpus
    video, adapts 8 frames x 256 sampled pixels (2048 rows of width 256)
    for 10 inner steps, then takes the outer step with weight gradients and
    a 7.15 M-parameter update; the command ends with one container write
    and the run manifest. One command per run.
    """

    name = "train"
    setups = 5
    peak_rss_mb = 400
    videos = 12
    coords_per_frame = 256

    @staticmethod
    def iterations(seconds: int) -> int:
        # ~1 s per iteration plus ~8 s of save and manifest hashing
        return max(3, seconds - 8)

    def setup(self, root: Path, seed: int, seconds: int) -> dict:
        options = load_corpus_options(None)
        options.update(frames=16, height=64, width=64)
        build_corpus(root / "corpus", self.videos, seed, options)
        config = root / "train.cfg"
        lines = [f"batch_frames = {BATCH_FRAMES}",
                 f"coords_per_frame = {self.coords_per_frame}",
                 *(f"{k} = {v}" for k, v in PAPER_DIMS.items()),
                 f"inner_steps = {INNER_STEPS}",
                 f"iterations = {self.iterations(seconds)}",
                 # the workload seed picks the corpus; the model's initial
                 # weights, which set the loss level, stay the same
                 "seed = 0",
                 "precision = float32"]
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return {"corpus": root / "corpus", "config": config,
                "iterations": self.iterations(seconds)}

    def measure(self, setups: list[dict], out: Path, ledger: Ledger) -> dict:
        inputs = setups[0]
        model_path = out / "model.vfnc"
        trained = {}

        def check(stdout: str) -> dict:
            rows = [line.split("\t") for line in
                    model_path.with_suffix(".log").read_text(encoding="utf-8").splitlines()
                    if line and not line.startswith("#")]
            _require(len(rows) == inputs["iterations"],
                     f"log has {len(rows)} of {inputs['iterations']} iterations")
            losses = [float(r[1]) for r in rows]
            _require(all(math.isfinite(x) for x in losses), "non-finite training loss")
            stamps = [float(r[2]) for r in rows]
            _require_manifest(model_path.with_suffix(".manifest.json"), model_path.name)
            in_memory, _ = trained["value"]
            _require_same_model(load_model(model_path), in_memory,
                                "saved model reloads unlike the trained one")
            return {"losses": losses, "iteration_s": np.diff(stamps).tolist()}

        wall, got = ledger.command(
            ["train", "--corpus", str(inputs["corpus"]), "--config", str(inputs["config"]),
             "--out", str(model_path)], check,
            patch=lambda: _capture(cli, "train", trained))
        if got is None:
            return {}
        iter_s = statistics.median(got["iteration_s"])
        losses = got["losses"]
        return {"command_s": [wall],
                "frames_per_s": BATCH_FRAMES / iter_s,
                # averaged over every iteration's video, so one corpus video
                # does not set the figure
                "quality_db": _psnr(statistics.fmean(losses)),
                "report": {"train_iter_s": (iter_s, "s", len(got["iteration_s"])),
                           "train_command_s": (wall, "s", 1),
                           "train_loss": (losses[-1], "mse", 1)}}


class Encode:
    """`vfuncta encode --report` of one 44x44 video in 8-frame windows.

    Why: the full-grid inner loop. The first window adapts the video latent
    with its 8 frame latents, later windows keep it frozen; 15488-row arrays
    carry gradients to the latents only and the tape sets the memory peak.
    Model load, fingerprint and the manifest's re-hash of the model are
    part of the command, as they are for a user. One command per run.
    """

    name = "encode"
    setups = 2
    peak_rss_mb = 1800
    height, width = 44, 44

    @staticmethod
    def frames(seconds: int) -> int:
        # ~8 s per window plus ~10.5 s of load, fingerprint and manifest
        return BATCH_FRAMES * max(2, seconds // 10)

    def setup(self, root: Path, seed: int, seconds: int) -> dict:
        model = _paper_model()
        save_model(root / "model.vfnc", model)
        rng = np.random.default_rng([seed, 103])
        spec = SynthSpec(frames=self.frames(seconds), height=self.height, width=self.width,
                         background_seed=seed, speed=float(rng.uniform(0.5, 3.0)),
                         trajectory=("line", "circle")[seed % 2])
        video, _ = gen_synthetic(spec, rng)
        save_video(root / "clip.rawvid", video)
        return {"model": model, "model_path": root / "model.vfnc",
                "video": root / "clip.rawvid", "frames": self.frames(seconds)}

    def measure(self, setups: list[dict], out: Path, ledger: Ledger) -> dict:
        inputs = setups[0]
        loaded = {}

        def check(stdout: str) -> float:
            fields = dict(f.split("=", 1) for f in stdout.strip().splitlines()[-1].split("\t")
                          if "=" in f)
            psnr = float(fields["psnr_db"])
            _require(math.isfinite(psnr), f"non-finite PSNR {psnr}")
            enc = codec.load_encoding(out / "clip.venc")
            _require((enc.frames, enc.height, enc.width)
                     == (inputs["frames"], self.height, self.width), "encoded dims differ")
            # the command fingerprinted the model it loaded; that model must be
            # the one set up, and the encoding must name its fingerprint
            _require_same_model(loaded["value"], inputs["model"],
                                "encode loaded another model than the one set up")
            _require(enc.fingerprint == codec.model_fingerprint(loaded["value"]),
                     "encoding names another model's fingerprint")
            _require_manifest(out / "run_manifest.json", "clip.venc")
            return psnr

        wall, psnr = ledger.command(
            ["encode", "--model", str(inputs["model_path"]), "--out", str(out), "--report",
             "--batch-frames", str(BATCH_FRAMES), "--inner-steps", str(INNER_STEPS),
             "--jobs", "1", str(inputs["video"])], check,
            patch=lambda: _capture(codec, "load_model", loaded))
        if psnr is None:
            return {}
        frames = inputs["frames"]
        return {"command_s": [wall],
                "frames_per_s": frames / wall,
                "quality_db": psnr,
                "report": {"encode_frames_per_s": (frames / wall, "1/s", 1),
                           "encode_psnr_db": (psnr, "dB", 1)}}


class Decode:
    """Cold `vfuncta decode` requests, each of one 4-frame 112x112 encoding.

    Why: a forward-only path at the paper's frame size, where container and
    manifest hashing (container reads) dominate and no inner loop runs.
    Each request loads the model, fingerprints it, decodes and writes the
    video, and re-hashes the model for the manifest. The encodings hold
    seeded latents built through the public VideoEncoding API, because
    decode cost does not depend on how latents were fitted.
    """

    name = "decode"
    setups = 2
    peak_rss_mb = 1500
    frames, height, width = 4, 112, 112
    oracle_pixels = 4096

    @staticmethod
    def requests(seconds: int) -> int:
        # ~13 s per request; the first one also faults in fresh memory for
        # the tape, which every cold process pays
        return max(2, round(seconds / 11))

    def setup(self, root: Path, seed: int, seconds: int) -> dict:
        model = _paper_model()
        save_model(root / "model.vfnc", model)
        rng = np.random.default_rng([seed, 107])
        v = rng.standard_normal(model.video_dim).astype(np.float32)
        phis = rng.standard_normal((self.frames, model.frame_dim)).astype(np.float32)
        enc = codec.VideoEncoding(VideoModulation(v), FrameModulationSeq(phis),
                            frames=self.frames, height=self.height, width=self.width,
                            fingerprint=model_fingerprint(model),
                            inner_steps=INNER_STEPS, inner_lr=0.1)
        codec.save_encoding(root / "clip.venc", enc)
        return {"model": model, "model_path": root / "model.vfnc",
                "encoding": root / "clip.venc", "v": v, "phis": phis, "seed": seed,
                "requests": self.requests(seconds)}

    def measure(self, setups: list[dict], out: Path, ledger: Ledger) -> dict:
        walls, errors = [], []
        for i in range(setups[0]["requests"]):
            req = setups[i % len(setups)]
            dest = out / f"request{i}"

            def check(stdout: str, req=req, dest=dest, i=i) -> float:
                decoded = oracle.read_rawvid(dest / "clip.rawvid")
                _require(decoded.shape == (self.frames, self.height, self.width),
                         f"decoded dims {decoded.shape}")
                _require_manifest(dest / "run_manifest.json", "clip.rawvid")
                return oracle.check_decoded(req["model"], req["v"], req["phis"], decoded,
                                            self.oracle_pixels, req["seed"] + i)

            wall, mse = ledger.command(
                ["decode", "--model", str(req["model_path"]), "--out", str(dest),
                 "--jobs", "1", str(req["encoding"])], check)
            if mse is not None:
                walls.append(wall)
                errors.append(mse)
        if not walls:
            return {}
        request_s = statistics.median(walls)
        return {"command_s": walls,
                "frames_per_s": self.frames / request_s,
                "quality_db": _psnr(float(np.mean(errors))),
                "report": {"decode_request_s": (request_s, "s", len(walls))}}


WORKLOADS = {w.name: w for w in (Train(), Encode(), Decode())}
