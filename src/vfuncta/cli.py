"""Command-line entry point wiring the pipeline stages together.

Subcommands: gen-corpus, train, encode, decode, summary, eval,
gradcheck. Every command but gradcheck resolves its seed (VFUNCTA_SEED
wins over flags and files), runs, and writes a run manifest with content
hashes of its inputs and artifacts (eval only with --out), so reruns
with the same seed can be compared hash-for-hash.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import codec, data, heads, metrics
from .config import (
    env_seed,
    load_corpus_options,
    load_head_config,
    load_train_config,
)
from .container import atomic_write_bytes
from .errors import VfunctaError
from .gradcheck import run_gradcheck
from .manifest import RunManifest
from .training import train


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, argv)
    except (VfunctaError, OSError) as exc:
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
    p.add_argument("--batch-frames", type=int, default=8,
                   help="frames per encoding window")
    p.add_argument("--inner-steps", type=int, default=10)
    p.add_argument("--inner-lr", type=float, default=0.1)
    p.add_argument("--report", action="store_true",
                   help="also decode and print quality lines")
    p.add_argument("--jobs", type=int, default=1, help="must be 1: items run one at a time")
    p.add_argument("--keep-going", action="store_true",
                   help="continue past per-item failures, exit 1 at the end")
    p.set_defaults(handler=cmd_encode)

    p = sub.add_parser("decode", help="decode .venc files back to videos")
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("encodings", nargs="+", type=Path)
    p.add_argument("--originals", type=Path, default=None,
                   help="directory of original .rawvid files to print quality lines against")
    p.add_argument("--jobs", type=int, default=1, help="must be 1: items run one at a time")
    p.add_argument("--keep-going", action="store_true")
    p.set_defaults(handler=cmd_decode)

    p = sub.add_parser("summary", help="decode the static video-level image")
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("encodings", nargs="+", type=Path)
    p.add_argument("--keep-going", action="store_true")
    p.set_defaults(handler=cmd_summary)

    p = sub.add_parser("eval", help="train and score task heads on encodings")
    p.add_argument("--encodings", required=True, type=Path,
                   help="directory holding each corpus video's <stem>.venc, as encode wrote it")
    p.add_argument("--corpus", required=True, type=Path)
    p.add_argument("--task", required=True, choices=heads.TASKS)
    p.add_argument("--modes", default="v,phi,combined",
                   help="comma-separated feature modes to evaluate")
    p.add_argument("--head-config", type=Path, default=None)
    p.add_argument("--seeds", type=int, default=1, help="number of head seeds")
    p.add_argument("--out", type=Path, default=None, help="directory for reports")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(handler=cmd_gradcheck)
    return parser


def _output_paths(inputs: list[Path], out: Path, suffix: str) -> dict[Path, Path]:
    """Map each input to `out/<stem><suffix>`, the file a per-item
    command writes for it and eval reads, refusing two inputs that map to
    the same file."""
    owners: dict[Path, Path] = {}
    for path in inputs:
        dest = out / (path.stem + suffix)
        if dest in owners:
            raise VfunctaError(f"{owners[dest]} and {path} both map to {dest}")
        owners[dest] = path
    return {path: dest for dest, path in owners.items()}


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
    # either flag alone, or a period below 1, would write no checkpoint
    if args.checkpoint_every < 0:
        raise VfunctaError(f"--checkpoint-every must be at least 1, got {args.checkpoint_every}")
    if (args.checkpoint_dir is None) != (args.checkpoint_every == 0):
        raise VfunctaError("--checkpoint-dir DIR and --checkpoint-every N (N >= 1) "
                           "go together")
    log_path = args.log if args.log is not None else args.out.with_suffix(".log")
    manifest_path = args.out.with_suffix(".manifest.json")
    # two of them at one file would leave only the one written last
    written: dict[Path, str] = {}
    for name, path in (("model", args.out), ("log", log_path), ("manifest", manifest_path)):
        other = written.setdefault(path.resolve(), name)
        if other != name:
            raise VfunctaError(f"the {other} and the {name} would both be written to {path}")
    cfg = load_train_config(args.config, overrides=args.set)

    items = data.read_corpus_manifest(args.corpus)
    if not args.all_splits:
        items = [i for i in items if i.split == "train"]
        if not items:
            raise VfunctaError(f"corpus {args.corpus} has no train items; "
                               "pass --all-splits to train on its test items")
    paths = [i.path for i in items]
    resume = None if args.resume is None else codec.load_model(args.resume)
    start = 0 if resume is None else resume.iteration
    if start >= cfg.iterations:
        raise VfunctaError(f"nothing to train: the run starts at iteration {start}, "
                           f"which is not below iterations = {cfg.iterations}")

    manifest = RunManifest("train", argv, config=asdict(cfg), seed=cfg.seed)
    manifest.add_input(args.config)
    manifest.add_input(data.corpus_manifest_path(args.corpus))
    for p in paths:
        manifest.add_input(p)
    if resume is not None:
        manifest.add_input(args.resume, resume.checksum)
    for directory in (args.out.parent, log_path.parent):
        directory.mkdir(parents=True, exist_ok=True)
    model, log = train(paths, cfg,
                       checkpoint_dir=args.checkpoint_dir,
                       checkpoint_every=args.checkpoint_every,
                       resume=resume)
    # checkpoints first: where --out or --log takes a checkpoint's entry, the
    # file written last is the one entered
    for path, checksum in log.checkpoints.items():
        manifest.add_artifact(path, base=args.checkpoint_dir.parent, digest=checksum)
    manifest.add_artifact(args.out, digest=codec.save_model(args.out, model))
    manifest.add_artifact(log_path, digest=log.write(log_path))
    manifest.write(manifest_path)
    print(f"train: {model.iteration} iterations, final loss {log.entries[-1].loss:.6g}, "
          f"model -> {args.out}")
    return 0


def _run_per_item(args, argv, inputs: list[Path], suffix: str, config: dict, worker) -> int:
    """Shared body of encode, decode and summary.

    Maps each input to `args.out/<stem><suffix>`, loads the model and runs
    `worker(model, input, output)` per input, one at a time, in input
    order, in the calling thread; each evaluation's row blocks already use
    every core. A worker returns its stdout line and the `{path:
    checksum}` of the container files it read or wrote, with any other
    file it read besides its input (checksum None), and writes its output
    only once nothing else can fail it; a VfunctaError or OSError it
    raises fails that item only. Without --keep-going the first failure
    starts no later item. The run manifest then enters the model, every
    input, and the output and other reads of each item that succeeded, by
    those checksums where the worker returned one (a version 1 or 2 file,
    whose checksum is None, is hashed whole, as is every other file). A
    failed item's output is not entered, even where an earlier run left
    that file. After the manifest is written the first failure is raised,
    or with --keep-going each is reported on stderr.
    """
    jobs = getattr(args, "jobs", 1)
    if jobs != 1:
        raise VfunctaError(f"--jobs must be 1, got {jobs}: items run one at a time")
    outputs = _output_paths(inputs, args.out, suffix)
    model = codec.load_model(args.model)
    args.out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(args.command, argv, config=config, seed=None)
    manifest.add_input(args.model, model.checksum)
    failures = []
    for path in inputs:
        checksums = None
        if args.keep_going or not failures:
            try:
                line, checksums = worker(model, path, outputs[path])
            except (VfunctaError, OSError) as exc:
                failures.append((path, exc))
        if checksums is None:
            manifest.add_input(path)
            continue
        print(line)
        manifest.add_input(path, checksums.pop(path, None))
        manifest.add_artifact(outputs[path], base=args.out,
                              digest=checksums.pop(outputs[path], None))
        for read, checksum in checksums.items():
            manifest.add_input(read, checksum)
    manifest.write(args.out / "run_manifest.json")
    if failures and not args.keep_going:
        raise failures[0][1]
    for item, exc in failures:
        print(f"{args.command} failed for {item}: {exc}", file=sys.stderr)
    return 1 if failures else 0


def cmd_encode(args, argv) -> int:
    settings = codec.EncodeSettings(args.batch_frames, args.inner_steps, args.inner_lr)

    def worker(model, video_path: Path, dest: Path):
        video = data.load_video(video_path)
        enc = codec.encode_video(model, video, settings)
        line = (f"{video_path.name}\tframes={enc.frames}\t"
                f"rate={codec.compression_rate(video.dims, enc.video_dim, enc.frame_dim):.2f}")
        if args.report:
            rep = metrics.quality_report(video, codec.decode_video(model, enc))
            line += f"\t{rep.line()}"
        return line, {dest: codec.save_encoding(dest, enc)}

    return _run_per_item(args, argv, args.videos, ".venc", asdict(settings), worker)


def cmd_decode(args, argv) -> int:
    def worker(model, enc_path: Path, dest: Path):
        enc = codec.load_encoding(enc_path)
        video = codec.decode_video(model, enc)
        line = f"{enc_path.name}\tdims={video.dims}"
        checksums = {enc_path: enc.checksum}
        if args.originals is not None:
            original_path = args.originals / (enc_path.stem + ".rawvid")
            original = data.load_video(original_path)
            line += f"\t{metrics.quality_report(original, video).line()}"
            checksums[original_path] = None
        data.save_video(dest, video)
        return line, checksums

    return _run_per_item(args, argv, args.encodings, ".rawvid", {}, worker)


def cmd_summary(args, argv) -> int:
    def worker(model, enc_path: Path, dest: Path):
        enc = codec.load_encoding(enc_path)
        frame = codec.decode_static_summary(model, enc)
        data.write_pgm(dest, frame)
        return (f"{enc_path.name}\tsummary {frame.shape[0]}x{frame.shape[1]}",
                {enc_path: enc.checksum})

    return _run_per_item(args, argv, args.encodings, ".pgm", {}, worker)


def cmd_eval(args, argv) -> int:
    if args.seeds < 1:
        raise VfunctaError(f"--seeds must be at least 1, got {args.seeds}")
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes:
        raise VfunctaError(f"--modes {args.modes!r} names no feature mode")
    for i, mode in enumerate(modes):
        if mode not in heads.MODES:
            raise VfunctaError(f"--modes: unknown feature mode {mode!r}; "
                               f"choose from {', '.join(heads.MODES)}")
        if mode in modes[:i]:
            raise VfunctaError(f"--modes names feature mode {mode!r} twice")
    items = data.read_corpus_manifest(args.corpus)
    train_items = [i for i in items if i.split == "train"]
    test_items = [i for i in items if i.split == "test"]
    if not train_items or not test_items:
        raise VfunctaError("eval needs both train and test splits in the corpus")
    # every head option is checked here, before any encoding is read
    head_cfg = load_head_config(args.head_config, task=args.task)
    sources = _output_paths([Path(i.path) for i in items], args.encodings, ".venc")

    config = {**asdict(head_cfg), "modes": ",".join(modes), "seeds": args.seeds}
    manifest = RunManifest("eval", argv, config=config, seed=head_cfg.seed)
    manifest.add_input(data.corpus_manifest_path(args.corpus))
    encodings = {}
    models = {}  # the first encoding of each model, by the model's fingerprint
    for video, path in sources.items():
        enc = encodings[video] = codec.load_encoding(path)
        models.setdefault((enc.fingerprint_version, enc.fingerprint), path)
        manifest.add_input(path, enc.checksum)
    if len(models) > 1:
        raise VfunctaError("encodings of more than one model: " + ", ".join(
            f"{path} names model {fp:016x}" for (_, fp), path in models.items()))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    def labels(split):
        return np.array([i.speed if args.task == "regression" else float(i.trajectory_class)
                         for i in split])

    def features(split, mode):
        return np.stack([heads.extract_features(encodings[Path(i.path)], mode) for i in split])

    y_train, y_test = labels(train_items), labels(test_items)
    lines = []
    for mode in modes:
        x_train, x_test = features(train_items, mode), features(test_items, mode)
        per_seed = []
        for s in range(args.seeds):
            head, _ = heads.train_head(x_train, y_train, replace(head_cfg, seed=head_cfg.seed + s))
            report = heads.evaluate_head(head, x_test, y_test)
            per_seed.append(report)
        lines.append(_format_eval_line(mode, args.task, per_seed))
    for line in lines:
        print(line)

    if args.out is not None:
        report_path = args.out / "eval_report.tsv"
        atomic_write_bytes(report_path, ("\n".join(lines) + "\n").encode("utf-8"))
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
    result = run_gradcheck(args.trials)
    status = "PASS" if result.passed else "FAIL"
    print(f"gradcheck: {status} max_rel_err={result.max_rel_err:.3e} "
          f"(tolerance {result.tolerance:.0e}, {result.trials} trials, "
          f"worst {result.worst_param} at trial {result.worst_trial})")
    return 0 if result.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
