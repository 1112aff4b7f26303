"""Video ingestion, resizing, and the synthetic corpus generator.

Two on-disk forms are supported: a raw container (`.rawvid`, magic
"VRAW", three 32-bit little-endian unsigned extents, then float32
little-endian values) and directories of binary 8-bit PGM frames read in
lexicographic order. Values are always normalized to [0, 1].
"""

from __future__ import annotations

import math
import re
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import atomic_write_bytes
from .errors import U32_MAX, ContractError, DataError, require_least
from .model import frozen

RAWVID_MAGIC = b"VRAW"


class VideoTensor:
    """Grayscale video as a read-only (T, h, w) float32 array with values in
    [0, 1]; a float32 array that no one can write is held, any other copied."""

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.asarray(values)
        if arr.dtype != np.float32 or not frozen(arr):
            arr = arr.astype(np.float32, order="C")
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ContractError(f"video must be (T, h, w) with positive extents, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ContractError("video contains non-finite values")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ContractError(
                f"video values outside [0, 1]: min {arr.min():.6g}, max {arr.max():.6g}")
        arr.setflags(write=False)
        self.values = arr

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape

    def __eq__(self, other):
        return isinstance(other, VideoTensor) and np.array_equal(self.values, other.values)

    def __repr__(self):
        return f"VideoTensor(dims={self.dims})"


def save_video(path, video: VideoTensor) -> None:
    """Write the raw container; the round trip through load_video is bit-exact.
    The payload goes out as the array itself, not a copy of it."""
    atomic_write_bytes(path, RAWVID_MAGIC + struct.pack("<III", *video.dims),
                       video.values.astype("<f4", copy=False))


def load_video(path) -> VideoTensor:
    """Read a `.rawvid` file or a directory of P5 PGM frames."""
    path = Path(path)
    if path.is_dir():
        return _load_pgm_dir(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if len(blob) < 16:
        raise DataError(f"{path}: truncated header")
    if blob[:4] != RAWVID_MAGIC:
        raise DataError(f"{path}: bad magic {blob[:4]!r}, expected {RAWVID_MAGIC!r}")
    t, h, w = struct.unpack("<III", blob[4:16])
    expected = 16 + 4 * t * h * w
    if len(blob) != expected:
        raise DataError(f"{path}: payload is {len(blob) - 16} bytes, expected {expected - 16}")
    values = np.frombuffer(blob, dtype="<f4", offset=16).reshape(t, h, w)
    try:
        return VideoTensor(values)
    except ContractError as exc:
        raise DataError(f"{path}: {exc}") from exc


def pgm_frames(path) -> list[Path]:
    """The frame files of a PGM-directory video, in frame order: its
    `.pgm` files (any case), sorted by name. The loader and the run
    manifest both select them here."""
    return sorted(p for p in Path(path).iterdir() if p.suffix.lower() == ".pgm")


def _load_pgm_dir(path: Path) -> VideoTensor:
    frames = pgm_frames(path)
    if not frames:
        raise DataError(f"{path}: directory contains no .pgm frames")
    stack = [_read_pgm(p) for p in frames]
    first = stack[0].shape
    for p, frame in zip(frames, stack):
        if frame.shape != first:
            raise DataError(f"{p}: frame size {frame.shape} differs from {first}")
    values = np.stack(stack) / np.float32(255.0)
    values.setflags(write=False)  # so that the video holds it without a copy
    return VideoTensor(values)


def _read_pgm(path: Path) -> np.ndarray:
    blob = path.read_bytes()
    if blob[:2] != b"P5":
        raise DataError(f"{path}: not a binary PGM (magic {blob[:2]!r})")
    # header tokens: magic, width, height, maxval; '#' comments run to EOL
    tokens, pos = [], 2
    while len(tokens) < 3:
        match = re.match(rb"\s*(?:#[^\n]*\n\s*)*(\S+)", blob[pos:])
        if match is None:
            raise DataError(f"{path}: truncated PGM header")
        tokens.append(match.group(1))
        pos += match.end()
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise DataError(f"{path}: PGM header {b' '.join(tokens)!r} is not three "
                        "integers") from None
    if width < 1 or height < 1:
        raise DataError(f"{path}: PGM extents {width}x{height} must be positive")
    if maxval != 255:
        raise DataError(f"{path}: only 8-bit PGM supported, maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    if len(blob) - pos != width * height:  # one image, as a .rawvid payload is its frames
        raise DataError(f"{path}: payload is {max(len(blob) - pos, 0)} bytes, "
                        f"expected {width * height} for {width}x{height}")
    return np.frombuffer(blob, np.uint8, offset=pos).reshape(height, width).astype(np.float32)


def write_pgm(path, frame: np.ndarray) -> None:
    """Export one [0, 1] frame as 8-bit binary PGM."""
    arr = np.clip(np.asarray(frame, dtype=np.float64), 0.0, 1.0)
    pixels = np.round(arr * 255.0).astype(np.uint8)
    h, w = pixels.shape
    atomic_write_bytes(path, b"P5\n%d %d\n255\n" % (w, h) + pixels.tobytes())


def _resize_frame(frame: np.ndarray, height: int, width: int) -> np.ndarray:
    src_h, src_w = frame.shape
    ys = _source_positions(height, src_h)
    xs = _source_positions(width, src_w)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    fy = (ys - y0).astype(np.float32)
    fx = (xs - x0).astype(np.float32)
    y1 = np.minimum(y0 + 1, src_h - 1)
    x1 = np.minimum(x0 + 1, src_w - 1)
    top = frame[y0][:, x0] + fx * (frame[y0][:, x1] - frame[y0][:, x0])
    bot = frame[y1][:, x0] + fx * (frame[y1][:, x1] - frame[y1][:, x0])
    return top + fy[:, None] * (bot - top)


def _source_positions(target: int, source: int) -> np.ndarray:
    # half-pixel centers, clamped so every sample interpolates inside the frame
    pos = (np.arange(target, dtype=np.float64) + 0.5) * (source / target) - 0.5
    return np.clip(pos, 0.0, source - 1)


FAMILIES = ("blob", "sweep", "speckle")
TRAJECTORIES = ("line", "circle")


@dataclass(frozen=True)
class Labels:
    """Targets attached to a generated video."""

    speed: float          # regression target, pixels per frame
    trajectory_class: int  # 0 = line, 1 = circle


@dataclass(frozen=True)
class SynthSpec:
    """Deterministic recipe for one synthetic video.

    The background comes from `background_seed` alone; blob placement
    comes from the generator rng, so one spec plus one rng state fixes
    the video bit-for-bit.
    """

    family: str = "blob"
    frames: int = 8
    height: int = 32
    width: int = 32
    background_seed: int = 0
    speed: float = 1.5
    amplitude: float = 0.35
    trajectory: str = "line"
    blob_sigma: float = 3.0

    def __post_init__(self):
        for name, choices in (("family", FAMILIES), ("trajectory", TRAJECTORIES)):
            if getattr(self, name) not in choices:
                raise ContractError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")
        for name in ("speed", "amplitude", "blob_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ContractError(f"{name} must be finite, got {getattr(self, name)}")
        # `save_video` stores each extent as a u32; no feature moves further a
        # frame than an extent can be long, which keeps every path finite
        require_least(vars(self), most=U32_MAX, frames=1, height=1, width=1, speed=0)
        require_least(vars(self), amplitude=0)
        # the bump divides squared distances of up to `reach` by 2 blob_sigma^2,
        # which must be a positive float (1e154 squared still is) that
        # leaves the quotient finite
        reach = float(self.height - 1) ** 2 + float(self.width - 1) ** 2
        if not (0 < self.blob_sigma <= 1e154 and 2.0 * self.blob_sigma**2 > 0
                and reach / (2.0 * self.blob_sigma**2) <= sys.float_info.max):
            raise ContractError(f"blob_sigma must lie in (0, 1e154] and keep the bump finite "
                                f"across {self.height}x{self.width} frames, got {self.blob_sigma}")

    @property
    def labels(self) -> Labels:
        return Labels(speed=self.speed,
                      trajectory_class=TRAJECTORIES.index(self.trajectory))


def gen_synthetic(spec: SynthSpec, rng: np.random.Generator) -> tuple[VideoTensor, Labels]:
    """Static smooth background plus a moving bright feature.

    Families: `blob` is a Gaussian spot following the trajectory, `sweep`
    is a vertical band whose x follows it (straight across for `line`,
    the circle path's x for `circle`), `speckle` is the blob under a
    multiplicative speckle texture. Amplitude 0 gives a time-constant
    video in every family.
    """
    background = _smooth_field(spec.height, spec.width,
                               np.random.default_rng([spec.background_seed, 17]),
                               grid=5, lo=0.25, hi=0.65)
    if spec.family == "speckle":
        texture = _smooth_field(spec.height, spec.width,
                                np.random.default_rng([spec.background_seed, 23]),
                                grid=max(4, spec.width // 2), lo=0.7, hi=1.3)
        background = np.clip(background * texture, 0.0, 1.0)

    centers = _trajectory_points(spec, rng)
    yy = np.arange(spec.height, dtype=np.float64)[:, None]
    xx = np.arange(spec.width, dtype=np.float64)[None, :]
    frames = np.empty((spec.frames, spec.height, spec.width), dtype=np.float64)
    for t in range(spec.frames):
        if spec.family == "sweep":
            cx, _ = centers[t]
            bump = np.exp(-((xx - cx) ** 2) / (2.0 * spec.blob_sigma**2))
            bump = np.broadcast_to(bump, (spec.height, spec.width))
        else:
            cx, cy = centers[t]
            bump = np.exp(-(((xx - cx) ** 2) + ((yy - cy) ** 2)) / (2.0 * spec.blob_sigma**2))
        frames[t] = background + spec.amplitude * bump
    return VideoTensor(np.clip(frames, 0.0, 1.0)), spec.labels


def _smooth_field(height, width, rng, *, grid, lo, hi) -> np.ndarray:
    coarse = rng.uniform(lo, hi, size=(grid, grid)).astype(np.float32)
    return _resize_frame(coarse, height, width).astype(np.float64)


def _trajectory_points(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """Per-frame feature centers (x, y), kept inside the frame."""
    t = np.arange(spec.frames, dtype=np.float64)
    if spec.family == "sweep" and spec.trajectory == "line":
        # the band crosses horizontally; a 'circle' band follows the x of
        # the circle path below
        start = rng.uniform(0.15, 0.35) * spec.width
        xs = start + spec.speed * t
        xs = _reflect(xs, 0.0, spec.width - 1.0)
        return np.stack([xs, np.zeros_like(xs)], axis=1)

    margin = 2.5 * spec.blob_sigma
    if spec.trajectory == "line":
        angle = rng.uniform(0.0, 2.0 * np.pi)
        sx = spec.width / 2 + rng.uniform(-0.12, 0.12) * spec.width
        sy = spec.height / 2 + rng.uniform(-0.12, 0.12) * spec.height
        span = spec.speed * (spec.frames - 1)
        xs = sx - span / 2 * np.cos(angle) + spec.speed * t * np.cos(angle)
        ys = sy - span / 2 * np.sin(angle) + spec.speed * t * np.sin(angle)
    else:
        radius = max(min(spec.height, spec.width) / 4.0, 1e-6)
        cx = spec.width / 2 + rng.uniform(-0.08, 0.08) * spec.width
        cy = spec.height / 2 + rng.uniform(-0.08, 0.08) * spec.height
        theta0 = rng.uniform(0.0, 2.0 * np.pi)
        omega = spec.speed / radius
        xs = cx + radius * np.cos(theta0 + omega * t)
        ys = cy + radius * np.sin(theta0 + omega * t)
    return np.stack([_reflect(xs, *_track(spec.width, margin)),
                     _reflect(ys, *_track(spec.height, margin))], axis=1)


def _track(side: int, margin: float) -> tuple[float, float]:
    """The range a feature center keeps to along a side of `side` pixels:
    `margin` clear of both edges, or the whole side where that leaves no
    room, so that a small frame's feature still moves."""
    if side - 1 - margin > margin:
        return margin, side - 1 - margin
    return 0.0, side - 1.0


def _reflect(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    if hi <= lo:
        return np.full_like(values, (lo + hi) / 2.0)
    period = 2.0 * (hi - lo)
    folded = np.mod(values - lo, period)
    return lo + np.minimum(folded, period - folded)


@dataclass(frozen=True)
class CorpusItem:
    """One manifest row: a video file with its labels and split."""

    path: str
    speed: float
    trajectory_class: int
    split: str  # "train" | "test"


def write_corpus_manifest(path, items) -> None:
    lines = ["# path\tspeed\ttrajectory_class\tsplit"]
    lines += [f"{i.path}\t{i.speed!r}\t{i.trajectory_class}\t{i.split}" for i in items]
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def corpus_manifest_path(path) -> Path:
    """The manifest file a corpus path names: the path itself, or a
    directory's `manifest.tsv`."""
    path = Path(path)
    return path / "manifest.tsv" if path.is_dir() else path


def read_corpus_manifest(path) -> list[CorpusItem]:
    path = corpus_manifest_path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read corpus manifest {path}: {exc}") from exc
    items = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError(f"{path}:{lineno}: expected 4 tab-separated fields")
        rel, speed, cls, split = parts
        if split not in ("train", "test"):
            raise DataError(f"{path}:{lineno}: split must be train or test, got {split!r}")
        item_path = Path(rel)
        if not item_path.is_absolute():
            item_path = path.parent / item_path
        try:
            number = float(speed)
        except ValueError:
            raise DataError(f"{path}:{lineno}: speed must be a number, got {speed!r}") from None
        if not math.isfinite(number):
            raise DataError(f"{path}:{lineno}: speed must be finite, got {speed!r}")
        try:
            label = int(cls)
        except ValueError:
            raise DataError(f"{path}:{lineno}: trajectory_class must be an integer, "
                            f"got {cls!r}") from None
        items.append(CorpusItem(path=str(item_path), speed=number,
                                trajectory_class=label, split=split))
    if not items:
        raise DataError(f"{path}: manifest lists no videos")
    return items


def build_corpus(out_dir, count: int, seed: int, options: dict,
                 split: float = 0.8) -> list[CorpusItem]:
    """Generate `count` videos plus a manifest, deterministically from the
    seed. Speeds are uniform in the configured range; trajectories cycle
    through the configured set; roughly `split` of the items land in the
    training split (by seeded shuffle)."""
    if count < 1:
        raise ContractError(f"count must be >= 1, got {count}")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    if not 0.0 <= split <= 1.0:
        raise ContractError(f"split must lie in [0, 1], got {split}")
    out_dir = Path(out_dir)
    trajectories = options["trajectories"]

    n_train = int(count * split)
    order = np.random.default_rng([seed, 8]).permutation(count)
    split_of = {int(order[i]): ("train" if i < n_train else "test") for i in range(count)}

    items = []
    for i in range(count):
        rng = np.random.default_rng([seed, 7, i])
        speed = float(rng.uniform(options["speed_min"], options["speed_max"]))
        spec = SynthSpec(
            family=options["family"], frames=options["frames"],
            height=options["height"], width=options["width"],
            background_seed=seed * 1_000_003 + i, speed=speed,
            amplitude=options["amplitude"], trajectory=trajectories[i % len(trajectories)],
            blob_sigma=options["blob_sigma"])
        video, labels = gen_synthetic(spec, rng)
        name = f"{i:05d}.rawvid"
        save_video(out_dir / name, video)
        items.append(CorpusItem(path=name, speed=labels.speed,
                                trajectory_class=labels.trajectory_class,
                                split=split_of[i]))
    write_corpus_manifest(out_dir / "manifest.tsv", items)
    return [CorpusItem(path=str(out_dir / it.path), speed=it.speed,
                       trajectory_class=it.trajectory_class, split=it.split)
            for it in items]
