"""Command-line entry point wiring the pipeline stages together.

Subcommands: gen-corpus, train, encode, decode, summary, eval,
gradcheck. Every command resolves its seed (VFUNCTA_SEED wins over
flags and files), runs, and writes a run manifest with content hashes
of all artifacts, so reruns with the same seed can be compared
hash-for-hash.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import codec, data, heads, metrics
from .config import (
    TRAIN_SCHEMA,
    env_seed,
    load_corpus_options,
    load_head_options,
    load_train_config,
)
from .errors import ConfigError, VfunctaError
from .gradcheck import run_gradcheck
from .manifest import RunManifest
from .training import TrainConfig, train


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, argv)
    except VfunctaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vfuncta",
        description="Neural-field video codec with per-video and per-frame latents.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a labeled synthetic corpus")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--count", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spec", type=Path, default=None,
                   help="key=value file overriding corpus defaults")
    p.add_argument("--split", type=float, default=0.8,
                   help="fraction of items in the train split")
    p.set_defaults(handler=cmd_gen_corpus)

    p = sub.add_parser("train", help="meta-train a model on a corpus")
    p.add_argument("--corpus", required=True, type=Path,
                   help="corpus manifest (or directory holding manifest.tsv)")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path, help="output model path (.vfnc)")
    p.add_argument("--log", type=Path, default=None, help="training log path")
    p.add_argument("--checkpoint-dir", type=Path, default=None)
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--resume", type=Path, default=None, help="checkpoint to continue from")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key")
    p.add_argument("--all-splits", action="store_true",
                   help="train on every item, not just the train split")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("encode", help="encode videos into .venc files")
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("videos", nargs="+", type=Path)
    _add_encode_flags(p)
    p.add_argument("--report", action="store_true",
                   help="also decode and print quality lines")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--keep-going", action="store_true",
                   help="continue past per-item failures, exit 1 at the end")
    p.set_defaults(handler=cmd_encode)

    p = sub.add_parser("decode", help="decode .venc files back to videos")
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("encodings", nargs="+", type=Path)
    p.add_argument("--report", action="store_true",
                   help="print quality lines against originals")
    p.add_argument("--originals", type=Path, default=None,
                   help="directory of original .rawvid files (for --report)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--keep-going", action="store_true")
    p.set_defaults(handler=cmd_decode)

    p = sub.add_parser("summary", help="decode the static video-level image")
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("encodings", nargs="+", type=Path)
    p.add_argument("--keep-going", action="store_true")
    p.set_defaults(handler=cmd_summary)

    p = sub.add_parser("eval", help="train and score task heads on encodings")
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--corpus", required=True, type=Path)
    p.add_argument("--task", required=True, choices=["regression", "binary"])
    p.add_argument("--modes", default="v,phi,combined",
                   help="comma-separated feature modes to evaluate")
    p.add_argument("--head-config", type=Path, default=None)
    p.add_argument("--seeds", type=int, default=1, help="number of head seeds")
    p.add_argument("--out", type=Path, default=None, help="directory for reports")
    _add_encode_flags(p)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--step", type=float, default=1e-4)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(handler=cmd_gradcheck)
    return parser


def _add_encode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--batch-frames", type=int, default=8,
                   help="frames per encoding window")
    p.add_argument("--inner-steps", type=int, default=10)
    p.add_argument("--inner-lr", type=float, default=0.1)


def _encode_config(model, args) -> TrainConfig:
    # coords_per_frame is irrelevant at encode time (full grid); 1 is a placeholder
    return TrainConfig(batch_frames=args.batch_frames, coords_per_frame=1,
                       layers=model.layers, hidden=model.hidden,
                       video_dim=model.video_dim, frame_dim=model.frame_dim,
                       inner_steps=args.inner_steps, inner_lr=args.inner_lr,
                       omega0=model.omega0, iterations=0)


def _output_paths(inputs: list[Path], out: Path, suffix: str) -> dict[Path, Path]:
    """Map each input to `out/<stem><suffix>`, refusing two inputs that
    would write the same file."""
    writers: dict[Path, Path] = {}
    for path in inputs:
        dest = out / (path.stem + suffix)
        if dest in writers:
            raise VfunctaError(f"{writers[dest]} and {path} would both write {dest}")
        writers[dest] = path
    return {path: dest for dest, path in writers.items()}


def cmd_gen_corpus(args, argv) -> int:
    seed = env_seed(args.seed)
    options = load_corpus_options(args.spec)
    manifest = RunManifest("gen-corpus", argv,
                           config={**{k: str(v) for k, v in options.items()},
                                   "count": args.count, "split": args.split},
                           seed=seed)
    if args.spec is not None:
        manifest.add_input(args.spec)
    items = data.build_corpus(args.out, args.count, seed, options, split=args.split)
    for item in items:
        manifest.add_artifact(item.path, base=args.out)
    manifest.add_artifact(args.out / "manifest.tsv", base=args.out)
    manifest.write(args.out / "run_manifest.json")
    n_train = sum(1 for i in items if i.split == "train")
    print(f"gen-corpus: wrote {len(items)} videos ({n_train} train / "
          f"{len(items) - n_train} test) to {args.out}")
    return 0


def cmd_train(args, argv) -> int:
    overrides = {}
    for pair in args.set:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        if key not in TRAIN_SCHEMA:
            raise ConfigError(f"unknown override key {key!r}")
        try:
            overrides[key] = TRAIN_SCHEMA[key](value)
        except ValueError as exc:
            raise ConfigError(f"--set {key}: bad value {value!r}: {exc}") from exc
    cfg = load_train_config(args.config, overrides=overrides)

    items = data.read_corpus_manifest(args.corpus)
    if not args.all_splits:
        items = [i for i in items if i.split == "train"] or items
    paths = [i.path for i in items]

    manifest = RunManifest("train", argv, config=asdict(cfg), seed=cfg.seed)
    manifest.add_input(args.config)
    for p in paths:
        manifest.add_input(p)

    resume = codec.load_model(args.resume) if args.resume is not None else None
    model, log = train(paths, cfg,
                       checkpoint_dir=args.checkpoint_dir,
                       checkpoint_every=args.checkpoint_every,
                       resume=resume)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    codec.save_model(args.out, model)
    log_path = args.log if args.log is not None else args.out.with_suffix(".log")
    log.write(log_path)

    manifest.add_artifact(args.out)
    manifest.add_artifact(log_path)
    manifest.write(args.out.with_suffix(".manifest.json"))
    last = log.entries[-1].loss if log.entries else float("nan")
    print(f"train: {model.iteration} iterations, final loss {last:.6g}, "
          f"model -> {args.out}")
    return 0


def _run_items(items, worker, jobs: int, keep_going: bool):
    """Run worker over items, optionally in a thread pool; returns failures."""
    failures = []
    if jobs <= 1:
        for item in items:
            try:
                worker(item)
            except VfunctaError as exc:
                failures.append((item, exc))
                if not keep_going:
                    raise
        return failures
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = {pool.submit(worker, item): item for item in items}
        for future, item in futures.items():
            try:
                future.result()
            except VfunctaError as exc:
                failures.append((item, exc))
                if not keep_going:
                    raise
    return failures


def cmd_encode(args, argv) -> int:
    outputs = _output_paths(args.videos, args.out, ".venc")
    model = codec.load_model(args.model)
    cfg = _encode_config(model, args)
    args.out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest("encode", argv,
                           config={"batch_frames": cfg.batch_frames,
                                   "inner_steps": cfg.inner_steps,
                                   "inner_lr": cfg.inner_lr},
                           seed=None)
    manifest.add_input(args.model)

    def worker(video_path: Path):
        video = data.load_video(video_path)
        enc = codec.encode_video(model, video, cfg)
        codec.save_encoding(outputs[video_path], enc)
        line = (f"{video_path.name}\tframes={enc.frames}\t"
                f"rate={codec.compression_rate(video.dims, enc.video_dim, enc.frame_dim):.2f}")
        if args.report:
            rep = metrics.quality_report(video, codec.decode_video(model, enc))
            line += f"\t{rep.line()}"
        print(line)

    failures = _run_items(args.videos, worker, args.jobs, args.keep_going)
    for video_path in args.videos:
        manifest.add_input(video_path)
        produced = outputs[video_path]
        if produced.exists():
            manifest.add_artifact(produced, base=args.out)
    manifest.write(args.out / "run_manifest.json")
    for item, exc in failures:
        print(f"encode failed for {item}: {exc}", file=sys.stderr)
    return 1 if failures else 0


def cmd_decode(args, argv) -> int:
    outputs = _output_paths(args.encodings, args.out, ".rawvid")
    model = codec.load_model(args.model)
    args.out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest("decode", argv, config={}, seed=None)
    manifest.add_input(args.model)

    def worker(enc_path: Path):
        enc = codec.load_encoding(enc_path)
        video = codec.decode_video(model, enc)
        data.save_video(outputs[enc_path], video)
        line = f"{enc_path.name}\tdims={video.dims}"
        if args.report:
            if args.originals is None:
                raise VfunctaError("--report needs --originals DIR")
            original = data.load_video(args.originals / (enc_path.stem + ".rawvid"))
            rep = metrics.quality_report(original, video)
            line += f"\t{rep.line()}"
        print(line)

    failures = _run_items(args.encodings, worker, args.jobs, args.keep_going)
    for enc_path in args.encodings:
        manifest.add_input(enc_path)
        produced = outputs[enc_path]
        if produced.exists():
            manifest.add_artifact(produced, base=args.out)
    manifest.write(args.out / "run_manifest.json")
    for item, exc in failures:
        print(f"decode failed for {item}: {exc}", file=sys.stderr)
    return 1 if failures else 0


def cmd_summary(args, argv) -> int:
    outputs = _output_paths(args.encodings, args.out, ".pgm")
    model = codec.load_model(args.model)
    args.out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest("summary", argv, config={}, seed=None)
    manifest.add_input(args.model)

    def worker(enc_path: Path):
        enc = codec.load_encoding(enc_path)
        frame = codec.decode_static_summary(model, enc)
        data.write_pgm(outputs[enc_path], frame)
        print(f"{enc_path.name}\tsummary {frame.shape[0]}x{frame.shape[1]}")

    failures = _run_items(args.encodings, worker, 1, args.keep_going)
    for enc_path in args.encodings:
        manifest.add_input(enc_path)
        produced = outputs[enc_path]
        if produced.exists():
            manifest.add_artifact(produced, base=args.out)
    manifest.write(args.out / "run_manifest.json")
    for item, exc in failures:
        print(f"summary failed for {item}: {exc}", file=sys.stderr)
    return 1 if failures else 0


def cmd_eval(args, argv) -> int:
    if args.seeds < 1:
        raise VfunctaError(f"--seeds must be at least 1, got {args.seeds}")
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes:
        raise VfunctaError(f"--modes {args.modes!r} names no feature mode")
    model = codec.load_model(args.model)
    cfg = _encode_config(model, args)
    items = data.read_corpus_manifest(args.corpus)
    head_options = load_head_options(args.head_config)
    hidden = (head_options.pop("hidden1", 256), head_options.pop("hidden2", 64))
    head_options.pop("mode", None)
    config_seed = head_options.pop("seed", 0)
    base_seed = env_seed(config_seed)
    config_task = head_options.pop("task", None)
    if config_task is not None and config_task != args.task:
        raise VfunctaError(f"--task {args.task} conflicts with head config task "
                           f"{config_task!r}")

    manifest = RunManifest("eval", argv,
                           config={"task": args.task, "modes": ",".join(modes),
                                   "seeds": args.seeds, **{k: str(v) for k, v in head_options.items()}},
                           seed=base_seed)
    manifest.add_input(args.model)
    manifest.add_input(args.corpus)

    print(f"eval: encoding {len(items)} videos")
    encodings = {}
    for item in items:
        video = data.load_video(item.path)
        encodings[item.path] = codec.encode_video(model, video, cfg)

    train_items = [i for i in items if i.split == "train"]
    test_items = [i for i in items if i.split == "test"]
    if not train_items or not test_items:
        raise VfunctaError("eval needs both train and test splits in the corpus")

    def label_of(item):
        return item.speed if args.task == "regression" else float(item.trajectory_class)

    lines = []
    for mode in modes:
        per_seed = []
        for s in range(args.seeds):
            head_cfg = heads.HeadConfig(mode=mode, task=args.task, hidden=hidden,
                                        seed=base_seed + s, **head_options)
            x_train = np.stack([heads.extract_features(encodings[i.path], mode)
                                for i in train_items])
            y_train = np.array([label_of(i) for i in train_items])
            x_test = np.stack([heads.extract_features(encodings[i.path], mode)
                               for i in test_items])
            y_test = np.array([label_of(i) for i in test_items])
            head, _ = heads.train_head(x_train, y_train, head_cfg)
            report = heads.evaluate_head(head, x_test, y_test)
            per_seed.append(report)
        lines.append(_format_eval_line(mode, args.task, per_seed))
    for line in lines:
        print(line)

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        report_path = args.out / "eval_report.tsv"
        report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        manifest.add_artifact(report_path, base=args.out)
        manifest.write(args.out / "run_manifest.json")
    return 0


def _format_eval_line(mode: str, task: str, reports) -> str:
    def agg(values):
        values = [v for v in values if v is not None]
        if not values:
            return "nan"
        if len(values) == 1:
            return f"{values[0]:.4f}"
        return f"{np.mean(values):.4f}±{np.std(values):.4f}"

    if task == "regression":
        return (f"mode={mode}\tmae={agg([r.mae for r in reports])}\t"
                f"rmse={agg([r.rmse for r in reports])}\t"
                f"r2={agg([r.r2 for r in reports])}")
    return (f"mode={mode}\tacc={agg([r.accuracy for r in reports])}\t"
            f"f1={agg([r.f1 for r in reports])}\t"
            f"auroc={agg([r.auroc for r in reports])}")


def cmd_gradcheck(args, argv) -> int:
    result = run_gradcheck(trials=args.trials, step=args.step,
                           tolerance=args.tolerance)
    status = "PASS" if result.passed else "FAIL"
    print(f"gradcheck: {status} max_rel_err={result.max_rel_err:.3e} "
          f"(tolerance {result.tolerance:.0e}, {result.trials} trials, "
          f"worst {result.worst_param} at trial {result.worst_trial})")
    return 0 if result.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
