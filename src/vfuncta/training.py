"""Two-level optimization: an outer loop over the dataset updating the
shared weights, and an inner loop adapting the modulation vectors of one
sampled batch of frames from zero.

Every inner step takes the frame updates and the video-vector update from
one closed-form forward/backward evaluation (`model.loss_and_grads`).
`adapt` runs that loop: training takes plain steps at the fixed inner
rate, and `codec.encode_video` takes two-point steps, whose rate comes
from the last two evaluations at no further cost. The outer step applies
a first-order gradient at the adapted modulations, treating them as
constants. Each outer iteration trains on one video that the seed and
the iteration alone pick, and a video that cannot be read ends the run.
Training keeps no optimizer state, so a checkpoint plus the seed fully
determines the rest of a run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .container import atomic_write_bytes, save_model, sha256_64
from .data import VideoTensor, load_video
from .errors import ContractError, DivergenceError, NonFiniteError, require_least
from .model import MetaModel, init_bound, loss_and_grads, require_sizes, sample_coords

_PRECISIONS = {"float32": np.float32, "float64": np.float64}

# seed-stream tags; every generator in a run derives from (seed, tag, index)
_STREAM_INIT = 0
_STREAM_SHUFFLE = 1
_STREAM_STEP = 2


@dataclass(frozen=True)
class TrainConfig:
    """All knobs of the optimization procedure.

    `batch_frames` and `coords_per_frame` have no canonical defaults and
    must always be chosen for the data at hand.
    """

    batch_frames: int
    coords_per_frame: int
    layers: int = 10
    hidden: int = 256
    video_dim: int = 2048
    frame_dim: int = 512
    inner_steps: int = 10
    inner_lr: float = 0.1
    meta_lr: float = 5e-7
    iterations: int = 100_000
    omega0: float = 30.0
    seed: int = 0
    precision: str = "float32"

    def __post_init__(self):
        require_least(vars(self), batch_frames=1, coords_per_frame=1, inner_steps=0,
                      iterations=0, seed=0)
        require_sizes(vars(self))
        for name in ("inner_lr", "meta_lr"):
            require_rate(name, getattr(self, name))
        if self.precision not in _PRECISIONS:
            raise ContractError(f"precision must be one of {sorted(_PRECISIONS)}")
        # each fan-in whose initial weights `MetaModel.initialize` scales by 1/omega0
        for fan_in in (self.video_dim, self.frame_dim) + ((self.hidden,) if self.layers > 1 else ()):
            init_bound(fan_in, self.omega0, self.dtype)

    @property
    def dtype(self):
        return _PRECISIONS[self.precision]

    def new_model(self) -> MetaModel:
        return MetaModel.initialize(
            layers=self.layers, hidden=self.hidden, video_dim=self.video_dim,
            frame_dim=self.frame_dim, omega0=self.omega0, dtype=self.dtype,
            rng=np.random.default_rng([self.seed, _STREAM_INIT]))


@dataclass
class LogEntry:
    iteration: int
    loss: float
    seconds: float
    timestamp: float = field(default_factory=time.time)


@dataclass
class TrainLog:
    """One record per completed outer iteration, and the checksum of each
    checkpoint written, by its path."""

    entries: list[LogEntry] = field(default_factory=list)
    checkpoints: dict[Path, int] = field(default_factory=dict)

    def write(self, path) -> int:
        """Write the log; returns the `sha256_64` a run manifest enters
        for it, over the iteration and loss columns only, one row per
        line, so that same-seed runs hash alike."""
        lines = ["# iteration\tloss\ttimestamp\tseconds\n"]
        rows = []
        for e in self.entries:
            rows.append(f"{e.iteration}\t{e.loss!r}")
            lines.append(f"{rows[-1]}\t{e.timestamp:.3f}\t{e.seconds:.3f}\n")
        atomic_write_bytes(path, "".join(lines).encode("utf-8"))
        return sha256_64(["\n".join(rows).encode("utf-8")])


def adapt(model: MetaModel, targets: np.ndarray, coords: np.ndarray, *,
          steps: int, inner_lr: float, v: np.ndarray | None = None,
          two_point: bool = False) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Run the inner loop and return (v, phis, per-step mean losses).

    Without `v` the video vector is adapted from zero alongside the frame
    vectors; a given `v` is held fixed and returned as it came.

    Each step moves the joint vector of the adapted latents against its
    gradient, the frames' part taken per frame (b times the gradient of
    the batch mean), by one rate. Plain steps take `inner_lr` every time.
    With `two_point`, a step after the first takes the Barzilai-Borwein
    rate s.s / s.y, where s is the last step's move and y the change of
    the gradient over it, clipped to [0.1, 10] * `inner_lr`; it takes
    `inner_lr` when s.y <= 0 or the last step raised the loss.
    """
    b = targets.shape[0]
    adapt_v = v is None
    if adapt_v:
        v = np.zeros(model.video_dim, dtype=model.dtype)
    phis = np.zeros((b, model.frame_dim), dtype=model.dtype)
    history: list[float] = []
    last = None  # the previous step's joint point and gradient, with two_point
    for g in range(steps):
        try:
            step = loss_and_grads(model, v, phis, coords, targets)
        except NonFiniteError as exc:
            raise DivergenceError(g, history) from exc
        history.append(step.loss)
        # an update that overflows surfaces at the next evaluation, or the
        # last update at the check below, not as a warning; an overflowing
        # rate is clipped or falls back
        with np.errstate(over="ignore", invalid="ignore"):
            rate = inner_lr
            if two_point:
                point = _joint(phis, v if adapt_v else None)
                grad = _joint(step.phis, step.v if adapt_v else None, scale=b)
                if last is not None and history[-1] <= history[-2]:
                    rate = two_point_rate(point - last[0], grad - last[1], inner_lr)
                last = point, grad
            # per-frame loss gradient = b times the gradient of the batch mean
            phis = phis - (rate * b) * step.phis
            if adapt_v:
                v = v - rate * step.v
    if not (np.isfinite(v).all() and np.isfinite(phis).all()):
        raise DivergenceError(steps, history, what="modulations")
    return v, phis, history


def two_point_rate(s: np.ndarray, y: np.ndarray, inner_lr: float) -> float:
    """The Barzilai-Borwein rate s.s / s.y of a move s and its gradient
    change y, clipped to [0.1, 10] * inner_lr; `inner_lr` when s.y <= 0.

    Both dot products are numpy's own sums of float64 products, not BLAS
    calls: OpenBLAS splits a long dot product over its threads, so its
    rounding would follow the thread count.
    """
    sy = float(np.sum(s * y))
    if not sy > 0:
        return inner_lr
    return min(max(float(np.sum(s * s)) / sy, 0.1 * inner_lr), 10 * inner_lr)


def _joint(phis: np.ndarray, v: np.ndarray | None, scale: int = 1) -> np.ndarray:
    """`phis` times `scale`, then `v` if given, as one float64 vector."""
    x = np.concatenate([phis.ravel()] + ([] if v is None else [v]), dtype=np.float64)
    x[: phis.size] *= scale
    return x


def sample_batch(video, cfg: TrainConfig,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Pick b frames (with replacement only for short videos) and one
    coordinate subset shared by all of them; returns the (b, N) targets
    and the (N, 2) coordinates."""
    t_total, height, width = video.dims
    replace = t_total < cfg.batch_frames
    frame_idx = np.sort(rng.choice(t_total, size=cfg.batch_frames, replace=replace))
    indices, coords = sample_coords(height, width, cfg.coords_per_frame, rng)
    flat = video.values.reshape(t_total, -1)
    return flat[frame_idx][:, indices], coords


def meta_step(model: MetaModel, video, cfg: TrainConfig,
              rng: np.random.Generator) -> tuple[MetaModel, float]:
    """One outer iteration on one video; returns the updated model and the
    mean batch loss at the adapted modulations."""
    targets, coords = sample_batch(video, cfg, rng)
    v, phis, history = adapt(model, targets, coords,
                             steps=cfg.inner_steps, inner_lr=cfg.inner_lr)
    try:
        outer = loss_and_grads(model, v, phis, coords, targets, weights=True)
    except NonFiniteError as exc:
        raise DivergenceError(cfg.inner_steps, history) from exc
    # each gradient becomes its new weights in place and is then held
    # read-only as they are, so no update allocates a parameter-sized array;
    # an overflow surfaces as the model's NonFiniteError, not as a warning
    updated = {}
    for name, p in model.parameters():
        g = outer.weights.pop(name)
        with np.errstate(over="ignore", invalid="ignore"):
            g *= cfg.meta_lr
            np.subtract(p, g, out=g)
        g.setflags(write=False)
        updated[name] = g
    try:
        return model.replace_params(updated, iteration=model.iteration + 1), outer.loss
    except NonFiniteError as exc:
        raise DivergenceError(cfg.inner_steps, history + [outer.loss],
                              what=f"weights in {exc.op}") from exc


def train(dataset: Sequence, cfg: TrainConfig, *,
          checkpoint_dir=None, checkpoint_every: int = 0,
          resume: MetaModel | None = None) -> tuple[MetaModel, TrainLog]:
    """Outer loop over the dataset in seeded shuffled order.

    Dataset items are VideoTensor objects or paths. Iteration `it` trains
    on the item at place `it % len(dataset)` of its epoch's seeded
    permutation; a path that cannot be read raises its DataError there,
    and a video whose frames hold fewer pixels than `coords_per_frame` a
    ContractError naming both.
    Passing the model from a saved checkpoint as `resume` continues the
    identical run from its stored iteration. A DivergenceError names the
    outer iteration it ended, numbered as the log numbers it.
    """
    items = list(dataset)
    if not items:
        raise ContractError("training dataset is empty")
    model = cfg.new_model() if resume is None else resume
    _require_dims(model, cfg)
    log = TrainLog()

    for it in range(model.iteration, cfg.iterations):
        epoch, pos = divmod(it, len(items))
        order = np.random.default_rng([cfg.seed, _STREAM_SHUFFLE, epoch]).permutation(len(items))
        item = items[order[pos]]
        video = item if isinstance(item, VideoTensor) else load_video(item)
        _, height, width = video.dims
        if cfg.coords_per_frame > height * width:
            raise ContractError(f"coords_per_frame = {cfg.coords_per_frame} is more than the "
                                f"{height * width} pixels of a frame of {item}")

        t0 = time.perf_counter()
        rng = np.random.default_rng([cfg.seed, _STREAM_STEP, it])
        try:
            model, loss = meta_step(model, video, cfg, rng)
        except DivergenceError as exc:
            exc.iteration = it + 1
            raise
        log.entries.append(LogEntry(iteration=model.iteration, loss=loss,
                                    seconds=time.perf_counter() - t0))
        if (checkpoint_dir is not None and checkpoint_every > 0
                and model.iteration % checkpoint_every == 0):
            path = Path(checkpoint_dir) / f"checkpoint_{model.iteration:08d}.vfnc"
            log.checkpoints[path] = save_model(path, model)
    return model, log


def require_rate(name: str, value: float) -> None:
    """Refuse a learning rate that is not finite and non-negative."""
    if not (math.isfinite(value) and value >= 0):
        raise ContractError(f"{name} must be finite and >= 0, got {value}")


def _require_dims(model: MetaModel, cfg: TrainConfig) -> None:
    got = (model.layers, model.hidden, model.video_dim, model.frame_dim, model.dtype.name,
           model.omega0)
    want = (cfg.layers, cfg.hidden, cfg.video_dim, cfg.frame_dim, cfg.precision, cfg.omega0)
    if got != want:
        raise ContractError(f"model (layers, hidden, video_dim, frame_dim, precision, omega0) "
                            f"{got} do not match the config's {want}")
