"""Coordinate network with per-video and per-frame shift modulations.

A stack of sine layers maps a normalized (x, y) coordinate to a grayscale
value. Two latent vectors condition the shared weights: a video-level
vector projected into one shift per layer, and a per-frame vector
projected into one shift per layer per frame. Both shifts are added to
the pre-activation before the sine, so zero latents reproduce the bare
network exactly (the projections carry no bias).

The network is fixed, so its backward pass is written out once in closed
form (`loss_and_grads`) next to the plain forward (`forward_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import parallel
from .errors import ContractError, NonFiniteError, ShapeError
from .tensor import Tensor


@dataclass(frozen=True)
class VideoModulation:
    """Latent vector holding the time-invariant features of one video."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 1:
            raise ShapeError(f"video modulation must be 1-D, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ContractError("video modulation contains non-finite entries")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class FrameModulationSeq:
    """One latent vector per frame, stacked as a (T, r) array."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ShapeError(f"frame modulations must be (T, r) with T >= 1, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ContractError("frame modulations contain non-finite entries")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.shape[0]

    def frame(self, t: int) -> np.ndarray:
        return self.values[t]


@dataclass(frozen=True)
class CoordinateGrid:
    """Full pixel grid of a frame in normalized [-1, 1] coordinates.

    Pixel (i, j) maps to x = 2j/(w-1) - 1 and y = 2i/(h-1) - 1, row-major;
    an axis of extent 1 maps to 0.
    """

    height: int
    width: int
    coords: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ContractError(f"grid extents must be positive, got {self.height}x{self.width}")
        xs = _axis_coords(self.width)
        ys = _axis_coords(self.height)
        grid = np.empty((self.height * self.width, 2), dtype=np.float32)
        grid[:, 0] = np.tile(xs, self.height)
        grid[:, 1] = np.repeat(ys, self.width)
        grid.setflags(write=False)
        object.__setattr__(self, "coords", grid)


def _axis_coords(extent: int) -> np.ndarray:
    if extent == 1:
        return np.zeros(1, dtype=np.float32)
    return (2.0 * np.arange(extent, dtype=np.float32) / (extent - 1) - 1.0).astype(np.float32)


@dataclass(frozen=True)
class CoordSample:
    """Subset of pixel positions with their normalized coordinates."""

    indices: np.ndarray  # (N,) row-major pixel indices
    coords: np.ndarray   # (N, 2) normalized (x, y)


def sample_coords(height: int, width: int, count: int, rng: np.random.Generator) -> CoordSample:
    """Sample `count` distinct pixels uniformly; the full count gives the
    whole grid in row-major order."""
    total = height * width
    if not 1 <= count <= total:
        raise ContractError(f"coordinate count {count} outside [1, {total}]")
    grid = CoordinateGrid(height, width)
    if count == total:
        indices = np.arange(total, dtype=np.int64)
    else:
        indices = np.sort(rng.choice(total, size=count, replace=False)).astype(np.int64)
    return CoordSample(indices=indices, coords=grid.coords[indices])


def param_shapes(layers: int, hidden: int, video_dim: int,
                 frame_dim: int) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in file (`.vfnc` payload) order:
    each sine layer's weight and bias, the output layer, then the K video
    projections and the K frame projections."""
    shapes: dict[str, tuple[int, ...]] = {}
    for k in range(layers):
        shapes[f"layer{k}.weight"] = (2 if k == 0 else hidden, hidden)
        shapes[f"layer{k}.bias"] = (hidden,)
    shapes["out.weight"] = (hidden, 1)
    shapes["out.bias"] = (1,)
    shapes.update({f"video_proj{k}": (video_dim, hidden) for k in range(layers)})
    shapes.update({f"frame_proj{k}": (frame_dim, hidden) for k in range(layers)})
    return shapes


class MetaModel:
    """Shared network weights plus the modulation projections.

    `params` maps every name of `param_shapes` to its tensor; the four
    dimensions follow from the name count (4K + 2) and the shapes of
    `layer0.weight`, `video_proj0` and `frame_proj0`. Weight matrices
    are stored input-major, so a batch of rows X maps through a layer as
    X @ W + b. Immutable during evaluation; training swaps in fresh
    tensors via `replace_params`.
    """

    def __init__(self, params: dict[str, Tensor], omega0: float, iteration: int = 0):
        self.omega0 = float(omega0)
        self.iteration = int(iteration)
        if self.omega0 <= 0:
            raise ContractError(f"omega0 must be positive, got {self.omega0}")
        # 4K + 2 names: the nearest K, so that one missing or unknown
        # name is reported as such
        self.layers = len(params) // 4
        if self.layers < 1:
            raise ContractError("need at least one sine layer")

        def dim(name: str, axis: int) -> int:
            return params[name].shape[axis] if name in params else 0

        self.hidden = dim("layer0.weight", -1)
        self.video_dim = dim("video_proj0", 0)
        self.frame_dim = dim("frame_proj0", 0)
        shapes = param_shapes(self.layers, self.hidden, self.video_dim, self.frame_dim)
        missing = sorted(shapes.keys() - params.keys())
        unknown = sorted(params.keys() - shapes.keys())
        if missing or unknown:
            raise ShapeError(f"a {self.layers}-layer model: missing parameters {missing}, "
                             f"unknown parameters {unknown}")
        for name, shape in shapes.items():
            if params[name].shape != shape:
                raise ShapeError(f"{name} shape {params[name].shape}, expected {shape}")
        self._params = {name: params[name] for name in shapes}
        k = range(self.layers)
        self.layer_weights = [self._params[f"layer{i}.weight"] for i in k]
        self.layer_biases = [self._params[f"layer{i}.bias"] for i in k]
        self.out_weight = self._params["out.weight"]
        self.out_bias = self._params["out.bias"]
        self.video_projs = [self._params[f"video_proj{i}"] for i in k]
        self.frame_projs = [self._params[f"frame_proj{i}"] for i in k]
        self.dtype = self.layer_weights[0].dtype

    @classmethod
    def initialize(cls, layers: int, hidden: int, video_dim: int, frame_dim: int,
                   omega0: float = 30.0, seed: int = 0, dtype=np.float32,
                   rng: np.random.Generator | None = None) -> "MetaModel":
        """Fresh weights under the standard sine-network scheme: first layer
        uniform in +-1/fan_in, later layers and projections uniform in
        +-sqrt(6/fan_in)/omega0, output layer uniform in +-sqrt(6/fan_in).
        Draws go layer by layer (weight, bias, video and frame
        projection), then the output layer."""
        if layers < 1 or hidden < 1 or video_dim < 1 or frame_dim < 1:
            raise ContractError("all architecture dimensions must be >= 1")
        if rng is None:
            rng = np.random.default_rng([seed, 0])
        shapes = param_shapes(layers, hidden, video_dim, frame_dim)
        params: dict[str, Tensor] = {}

        def draw(name, bound):
            params[name] = Tensor(rng.uniform(-bound, bound, size=shapes[name]).astype(dtype))

        for k in range(layers):
            fan_in = shapes[f"layer{k}.weight"][0]
            bound = (1.0 / fan_in) if k == 0 else (np.sqrt(6.0 / fan_in) / omega0)
            draw(f"layer{k}.weight", bound)
            draw(f"layer{k}.bias", bound)
            draw(f"video_proj{k}", np.sqrt(6.0 / video_dim) / omega0)
            draw(f"frame_proj{k}", np.sqrt(6.0 / frame_dim) / omega0)
        out_bound = np.sqrt(6.0 / hidden)
        draw("out.weight", out_bound)
        draw("out.bias", out_bound)
        return cls(params, omega0=omega0)

    def parameters(self) -> list[tuple[str, Tensor]]:
        """All trainable tensors in their declared (serialization) order."""
        return list(self._params.items())

    def replace_params(self, new_params: dict[str, Tensor], iteration: int | None = None) -> "MetaModel":
        return MetaModel({**self._params, **new_params}, self.omega0,
                         self.iteration if iteration is None else iteration)


@dataclass(frozen=True)
class BatchGrads:
    """Loss of one stacked batch and its gradients, from `loss_and_grads`."""

    loss: float              # mean over frames of the per-frame losses
    per_frame: np.ndarray    # (b,) mean squared error of each frame
    v: np.ndarray            # (s,) d loss / d v
    phis: np.ndarray         # (b, r) d loss / d phis
    weights: dict | None     # d loss / d parameter by name, when asked for


def _batch_arrays(model: MetaModel, v, phis, coords, rows_per_frame: int):
    """Check one stacked batch and cast it to the model's dtype."""
    dtype = model.dtype
    v = np.asarray(v, dtype=dtype)
    phis = np.asarray(phis, dtype=dtype)
    coords = np.ascontiguousarray(coords, dtype=dtype)
    if v.shape != (model.video_dim,):
        raise ShapeError(f"video modulation length {v.shape} != ({model.video_dim},)")
    if phis.ndim != 2 or phis.shape[0] < 1 or phis.shape[1] != model.frame_dim:
        raise ShapeError(f"frame modulation shape {phis.shape} incompatible with r={model.frame_dim}")
    b = phis.shape[0]
    if rows_per_frame < 1 or coords.shape != (b * rows_per_frame, 2):
        raise ShapeError(
            f"coords shape {coords.shape} != ({b * rows_per_frame}, 2) for {b} frames"
        )
    return v, phis, coords


def _shifts(model: MetaModel, v, phis) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's video shift v P_k, (1, l), and frame shifts phis Q_k, (b, l)."""
    v_row = v.reshape(1, -1)
    return [(v_row @ model.video_projs[k].data, phis @ model.frame_projs[k].data)
            for k in range(model.layers)]


def _sine_layers(model: MetaModel, shifts, coords, start: int, rows_per_frame: int,
                 slopes: list | None = None, inputs: list | None = None) -> np.ndarray:
    """Run the sine layers over some rows of stacked frames; returns the
    last activations.

    `coords` holds rows start, start + 1, ... of the stack, where frame t
    owns rows t * rows_per_frame onwards. Layer k computes, in this float
    order, a = h W_k, a += b_k, a += v P_k, a += phi_t Q_k over the rows
    of frame t, then h = sin(omega0 a); each row's value is independent
    of the other rows. `slopes` collects omega0 cos(omega0 a) and
    `inputs` each layer's input h, as the backward pass needs them.
    """
    n = rows_per_frame
    stop = start + coords.shape[0]
    h = coords
    for k, (v_shift, frame_shifts) in enumerate(shifts):
        if inputs is not None:
            inputs.append(h)
        a = h @ model.layer_weights[k].data
        a += model.layer_biases[k].data
        a += v_shift
        for t in range(start // n, -(-stop // n)):
            a[max(t * n, start) - start : min((t + 1) * n, stop) - start] += frame_shifts[t]
        a *= model.omega0
        if slopes is not None:
            slope = np.cos(a)
            slope *= model.omega0
            slopes.append(slope)
        h = np.sin(a, out=a)
    return h


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(what)


def forward_batch(model: MetaModel, v, phis, coords: np.ndarray,
                  rows_per_frame: int) -> np.ndarray:
    """Forward pass over stacked frames, keeping no activations.

    `coords` holds rows_per_frame coordinate rows for each of the b frames,
    concatenated in frame order (b * rows_per_frame, 2); `v` is (s,) and
    `phis` is (b, r). Returns the (b * rows_per_frame,) raw (unclamped)
    predictions; a non-finite prediction raises NonFiniteError. Row
    blocks may split a frame: the output layer is a row-wise reduction,
    not a BLAS product, so no row's value depends on the split.
    """
    v, phis, coords = _batch_arrays(model, v, phis, coords, rows_per_frame)

    def block(lo: int, hi: int) -> np.ndarray:
        # overflow surfaces as NonFiniteError below, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            h = _sine_layers(model, shifts, coords[lo:hi], lo, rows_per_frame)
            out = np.einsum("ij,j->i", h, model.out_weight.data[:, 0])
            out += model.out_bias.data
        return out

    with parallel.RUNNER.blocks(coords.shape[0], 1) as map_blocks:
        with np.errstate(over="ignore", invalid="ignore"):
            shifts = _shifts(model, v, phis)
        out = np.concatenate(map_blocks(block))
    _require_finite(out, "forward")
    return out


def frame_mse(pred: np.ndarray, targets: np.ndarray, frames: int) -> np.ndarray:
    """Mean squared error of each of `frames` equal row blocks, (frames,).

    Accumulates in 64-bit and returns the predictions' dtype; a
    non-finite loss raises NonFiniteError.
    """
    if pred.shape != targets.shape or pred.ndim != 1:
        raise ShapeError(f"frame_mse: shape mismatch {pred.shape} vs {targets.shape}")
    if frames < 1 or pred.size % frames:
        raise ShapeError(f"frame_mse: {pred.size} rows do not split into {frames} frames")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = pred - targets
        per_frame = np.mean((diff * diff).reshape(frames, -1), axis=1,
                            dtype=np.float64).astype(pred.dtype)
    _require_finite(per_frame, "loss")
    return per_frame


def _backward_rows(model: MetaModel, shifts, coords, targets, start: int,
                   rows_per_frame: int, scale: float, weights: bool):
    """Forward and backward through whole frames of a stack.

    `coords` and `targets` cover frames start // rows_per_frame onwards;
    each row's loss gradient is scale * (pred - target). Returns the
    predictions, each layer's (frames, l) sums of its pre-activation
    gradient, and with `weights` these rows' layer and output weight
    gradients.
    """
    slopes: list = []
    inputs: list | None = [] if weights else None
    sums: list = [None] * model.layers
    weight_grads: dict = {}
    with np.errstate(over="ignore", invalid="ignore"):
        h = _sine_layers(model, shifts, coords, start, rows_per_frame, slopes, inputs)
        pred = np.einsum("ij,j->i", h, model.out_weight.data[:, 0])
        pred += model.out_bias.data
        d_pred = (pred - targets) * scale
        if weights:
            weight_grads["out.weight"] = h.T @ d_pred[:, None]
            weight_grads["out.bias"] = np.sum(d_pred, keepdims=True)
        d_h = d_pred[:, None] * model.out_weight.data[:, 0]
        for k in reversed(range(model.layers)):
            d_a = d_h
            d_a *= slopes.pop()
            sums[k] = d_a.reshape(-1, rows_per_frame, d_a.shape[1]).sum(axis=1)
            if weights:
                weight_grads[f"layer{k}.weight"] = inputs.pop().T @ d_a
            if k:
                d_h = d_a @ model.layer_weights[k].data.T
    return pred, sums, weight_grads


def loss_and_grads(model: MetaModel, v, phis, coords: np.ndarray, rows_per_frame: int,
                   targets: np.ndarray, *, weights: bool = False) -> BatchGrads:
    """Batch loss and its gradients in closed form.

    The loss is the mean over the b frames of each frame's mean squared
    error against `targets` ((b * rows_per_frame,) values, stacked like
    `coords`). Gradients of v and phis are always returned; with
    `weights` the gradient of every named parameter is too. A non-finite
    loss or gradient raises NonFiniteError.

    Row blocks of whole frames run the forward and backward passes, and
    the gradients are then formed once from the joined frame sums. With
    `weights` the whole batch is one block: its layer and output weight
    gradients are products over every row, which a sum of per-block
    pieces would round differently with the block count.
    """
    v, phis, coords = _batch_arrays(model, v, phis, coords, rows_per_frame)
    targets = np.asarray(targets, dtype=model.dtype)
    b = phis.shape[0]
    n = rows_per_frame
    # every row carries weight 1/(b n) in the loss
    scale = 2.0 / coords.shape[0]
    unit = b * n if weights else n

    def block(lo: int, hi: int):
        return _backward_rows(model, shifts, coords[lo * unit : hi * unit],
                              targets[lo * unit : hi * unit], lo * unit, n, scale, weights)

    with parallel.RUNNER.blocks(coords.shape[0] // unit, unit) as map_blocks:
        with np.errstate(over="ignore", invalid="ignore"):
            shifts = _shifts(model, v, phis)
        preds, sums, weight_grads = zip(*map_blocks(block))
        per_frame = frame_mse(np.concatenate(preds), targets, b)
        loss = float(np.mean(per_frame, dtype=np.float64).astype(model.dtype))
        grads = weight_grads[0]
        with np.errstate(over="ignore", invalid="ignore"):
            g_v = np.zeros_like(v)
            g_phis = np.zeros_like(phis)
            for k in reversed(range(model.layers)):
                frame_sums = np.concatenate([block_sums[k] for block_sums in sums])
                col = frame_sums.sum(axis=0)
                g_v += model.video_projs[k].data @ col
                g_phis += frame_sums @ model.frame_projs[k].data.T
                if weights:
                    grads[f"layer{k}.bias"] = col
                    grads[f"video_proj{k}"] = np.outer(v, col)
                    grads[f"frame_proj{k}"] = phis.T @ frame_sums
    _require_finite(g_v, "video gradient")
    _require_finite(g_phis, "frame gradient")
    for name, g in grads.items():
        _require_finite(g, f"{name} gradient")
    return BatchGrads(loss=loss, per_frame=per_frame, v=g_v, phis=g_phis,
                      weights=grads if weights else None)


def forward_frame(model: MetaModel, v, phi, coords) -> np.ndarray:
    """Predict values for one frame at the given coordinates.

    `v` may be a VideoModulation or an array, `phi` an array of length r;
    `coords` is an (N, 2) array, a CoordinateGrid, or a CoordSample.
    Returns the length-N raw (unclamped) predictions.
    """
    if isinstance(coords, (CoordinateGrid, CoordSample)):
        coords = coords.coords
    coords = np.asarray(coords, dtype=model.dtype)
    if coords.ndim != 2 or coords.shape[1] != 2 or coords.shape[0] < 1:
        raise ShapeError(f"coords must be (N, 2) with N >= 1, got {coords.shape}")
    if isinstance(v, VideoModulation):
        v = v.values
    phi = np.asarray(phi)
    if phi.shape != (model.frame_dim,):
        raise ShapeError(f"frame modulation shape {phi.shape} != ({model.frame_dim},)")
    return forward_batch(model, v, phi.reshape(1, -1), coords, coords.shape[0])
