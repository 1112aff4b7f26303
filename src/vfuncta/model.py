"""Coordinate network with per-video and per-frame shift modulations.

A stack of sine layers maps a normalized (x, y) coordinate to a grayscale
value. Two latent vectors condition the shared weights: a video-level
vector projected into one shift per layer, and a per-frame vector
projected into one per layer and frame. With the bias they make one
shift row per frame and layer, added before the sine, so zero latents
reproduce the bare network exactly (the projections carry no bias).

The network is fixed, so its backward pass is written out once in closed
form (`loss_and_grads`) next to the plain forward (`forward_batch`). Both
take a batch of b frames evaluated at one shared set of N pixels:
coordinates are (N, 2), and targets and predictions are (b, N). Every
pass, with weight gradients or without, runs in tiles of one frame at a
run of its pixels, since each frame has its own modulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import U32_MAX, ContractError, NonFiniteError, ShapeError, require_least
from .tensor import Tensor

# Rows of one tile, one frame at a run of its pixels (`_pixel_runs`). One
# layer's three live arrays of a tile (activations, cosine, gradient)
# then fit a core's 2 MB L2 at the paper's 256 units,
# 3 x 512 x 256 x 4 B = 1.5 MB. On a 2-core Xeon
# an inner step ran at the same speed with 512 to 2048 rows a tile, and a
# forward pass 3% slower at 512 than at 2048.
TILE_ROWS = 512


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


def grid_coords(height: int, width: int) -> np.ndarray:
    """Full pixel grid of a frame in normalized [-1, 1] coordinates, a
    read-only float32 (height * width, 2) array.

    Pixel (i, j) maps to x = 2j/(w-1) - 1 and y = 2i/(h-1) - 1, row-major;
    an axis of extent 1 maps to 0.
    """
    grid = np.empty((height * width, 2), dtype=np.float32)
    grid[:, 0] = np.tile(_axis_coords(width), height)
    grid[:, 1] = np.repeat(_axis_coords(height), width)
    grid.setflags(write=False)
    return grid


def _axis_coords(extent: int) -> np.ndarray:
    if extent == 1:
        return np.zeros(1, dtype=np.float32)
    return (2.0 * np.arange(extent, dtype=np.float32) / (extent - 1) - 1.0).astype(np.float32)


def sample_coords(height: int, width: int, count: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample `count` distinct pixels uniformly; returns their (N,)
    row-major indices and (N, 2) normalized coordinates. The full count
    gives the whole grid in row-major order."""
    total = height * width
    if not 1 <= count <= total:
        raise ContractError(f"coordinate count {count} outside [1, {total}]")
    indices = np.sort(rng.choice(total, size=count, replace=False)).astype(np.int64)
    return indices, grid_coords(height, width)[indices]


def init_bound(fan_in: int, omega0: float, dtype) -> float:
    """sqrt(6/fan_in)/omega0, half the width of a modulated layer's initial
    draw; an omega0 that is not finite and positive, or that takes the
    width past `dtype`'s range, is refused. (An int quotient: a fan-in past
    float's range gives 0 and is refused, not an OverflowError.)"""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bound = np.sqrt(6 / fan_in) / omega0
        if not 0 < 2 * bound <= np.finfo(dtype).max:
            raise ContractError(f"omega0 must be finite and positive with sqrt(6/{fan_in})/omega0"
                                f" inside {np.dtype(dtype).name}'s range, got {omega0}")
    return bound


def require_sizes(sizes) -> None:
    """Refuse the first network size in `sizes` below its least value or past a u32."""
    # numpy takes a one-unit layer's product to its matrix-vector kernel,
    # which rounds by row offset, and sums a one-wide pixel axis pairwise
    # rather than row by row: such a network's values would depend on
    # the tiles and row blocks, and so on the BLAS thread count
    require_least(sizes, most=U32_MAX, layers=1, hidden=2, video_dim=1, frame_dim=1)


def param_shapes(layers: int, hidden: int, video_dim: int,
                 frame_dim: int) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in file (`.vfnc` payload) order:
    each sine layer's weight and bias, the output layer, then the K video
    projections and the K frame projections. Sizes `require_sizes` refuses
    are refused first."""
    require_sizes(dict(layers=layers, hidden=hidden, video_dim=video_dim, frame_dim=frame_dim))
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

    `params` maps every name of `param_shapes` to its array; the four
    dimensions follow from the name count (4K + 2) and the shapes of
    `layer0.weight`, `video_proj0` and `frame_proj0`. Here alone a
    parameter array is taken in: each must have `layer0.weight`'s dtype,
    float32 or float64, and be finite, or it is refused by its name; one
    that no one can write any more is held as it is, any other is copied,
    and each is read-only. The per-layer lists hold them as `Tensor`s;
    the API gives arrays back.
    Weight matrices are stored input-major, so a batch of rows X maps
    through a layer as X @ W + b. Immutable during evaluation; training
    swaps in fresh arrays via `replace_params`. So `fingerprints`, the memo of
    `container.model_fingerprint` by container version, stays valid for
    the object's life; a version 3 load or save fills its version 3
    entry from the payload digest it already took. So does `checksum`,
    the verified checksum of the version 3 file the object was read from
    (None otherwise), which names that file in a run manifest.
    """

    def __init__(self, params: dict[str, np.ndarray], omega0: float, iteration: int = 0):
        self.omega0 = float(omega0)
        self.iteration = int(iteration)
        if not (np.isfinite(self.omega0) and self.omega0 > 0):
            raise ContractError(f"omega0 must be finite and positive, got {self.omega0}")
        # 4K + 2 names: the nearest K, so that one missing or unknown
        # name is reported as such
        self.layers = len(params) // 4
        missing = sorted({"layer0.weight", "video_proj0", "frame_proj0"} - params.keys())
        if missing:
            raise ShapeError(f"a {self.layers}-layer model: missing parameters {missing}")
        self.hidden = params["layer0.weight"].shape[-1]
        self.video_dim = params["video_proj0"].shape[0]
        self.frame_dim = params["frame_proj0"].shape[0]
        shapes = param_shapes(self.layers, self.hidden, self.video_dim, self.frame_dim)
        missing = sorted(shapes.keys() - params.keys())
        unknown = sorted(params.keys() - shapes.keys())
        if missing or unknown:
            raise ShapeError(f"a {self.layers}-layer model: missing parameters {missing}, "
                             f"unknown parameters {unknown}")
        self.dtype = params["layer0.weight"].dtype
        if self.dtype not in (np.float32, np.float64):
            raise ContractError(f"layer0.weight is {self.dtype}, "
                                f"the model's parameters must be float32 or float64")
        self._params = {}
        for name, shape in shapes.items():
            arr = params[name]
            if arr.shape != shape:
                raise ShapeError(f"{name} shape {arr.shape}, expected {shape}")
            if arr.dtype != self.dtype:
                raise ContractError(f"{name} is {arr.dtype}, the model's parameters are {self.dtype}")
            if not frozen(arr):
                arr = arr.copy()
            _require_finite(arr, name)
            arr.setflags(write=False)
            self._params[name] = arr
        leaves = {name: Tensor(arr) for name, arr in self._params.items()}
        k = range(self.layers)
        self.layer_weights = [leaves[f"layer{i}.weight"] for i in k]
        self.layer_biases = [leaves[f"layer{i}.bias"] for i in k]
        self.out_weight = leaves["out.weight"]
        self.out_bias = leaves["out.bias"]
        self.video_projs = [leaves[f"video_proj{i}"] for i in k]
        self.frame_projs = [leaves[f"frame_proj{i}"] for i in k]
        self.fingerprints: dict[int, int] = {}
        self.checksum: int | None = None

    @classmethod
    def initialize(cls, layers: int, hidden: int, video_dim: int, frame_dim: int,
                   omega0: float = 30.0, dtype=np.float32,
                   rng: np.random.Generator | None = None) -> "MetaModel":
        """Fresh weights under the standard sine-network scheme: first layer
        uniform in +-1/fan_in, later layers and projections uniform in
        +-`init_bound`, output layer uniform in +-sqrt(6/fan_in).
        Draws go layer by layer (weight, bias, video and frame
        projection), then the output layer."""
        if rng is None:
            rng = np.random.default_rng([0, 0])
        shapes = param_shapes(layers, hidden, video_dim, frame_dim)
        params: dict[str, np.ndarray] = {}

        def draw(name, bound):
            # read-only, so that the model holds it without a copy; made
            # before the float64 draw, which is then freed at the heap's top
            # rather than left as a hole below it
            values = params[name] = np.empty(shapes[name], dtype)
            values[...] = rng.uniform(-bound, bound, size=shapes[name])
            values.setflags(write=False)

        for k in range(layers):
            fan_in = shapes[f"layer{k}.weight"][0]
            bound = (1.0 / fan_in) if k == 0 else init_bound(fan_in, omega0, dtype)
            draw(f"layer{k}.weight", bound)
            draw(f"layer{k}.bias", bound)
            draw(f"video_proj{k}", init_bound(video_dim, omega0, dtype))
            draw(f"frame_proj{k}", init_bound(frame_dim, omega0, dtype))
        out_bound = np.sqrt(6.0 / hidden)
        draw("out.weight", out_bound)
        draw("out.bias", out_bound)
        return cls(params, omega0=omega0)

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """Every parameter's read-only array, in file (serialization) order."""
        return list(self._params.items())

    def replace_params(self, new_params: dict[str, np.ndarray],
                       iteration: int | None = None) -> "MetaModel":
        return MetaModel({**self._params, **new_params}, self.omega0,
                         self.iteration if iteration is None else iteration)


def frozen(arr: np.ndarray) -> bool:
    """Whether `arr` can be held without a copy: a C-contiguous, aligned
    array that is read-only, as is every array down to the one that owns
    its memory or to the immutable `bytes` it lies over."""
    if not (arr.flags.c_contiguous and arr.flags.aligned):
        return False
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        if arr.base is None:
            return True
        arr = arr.base
    return isinstance(arr, bytes)


@dataclass(frozen=True)
class BatchGrads:
    """Loss of one batch and its gradients, from `loss_and_grads`."""

    loss: float              # mean over frames of the per-frame losses
    per_frame: np.ndarray    # (b,) mean squared error of each frame
    v: np.ndarray            # (s,) d loss / d v
    phis: np.ndarray         # (b, r) d loss / d phis
    weights: dict | None     # d loss / d parameter by name, when asked for


def _batch_arrays(model: MetaModel, v, phis, coords):
    """Check one batch and cast it to the model's dtype."""
    dtype = model.dtype
    v = np.asarray(v, dtype=dtype)
    phis = np.asarray(phis, dtype=dtype)
    coords = np.ascontiguousarray(coords, dtype=dtype)
    if v.shape != (model.video_dim,):
        raise ShapeError(f"video modulation length {v.shape} != ({model.video_dim},)")
    if phis.ndim != 2 or phis.shape[0] < 1 or phis.shape[1] != model.frame_dim:
        raise ShapeError(f"frame modulation shape {phis.shape} incompatible with r={model.frame_dim}")
    if coords.ndim != 2 or coords.shape[0] < 1 or coords.shape[1] != 2:
        raise ShapeError(f"coords shape {coords.shape} is not (N, 2) with N >= 1")
    return v, phis, coords


def _shifts(model: MetaModel, v, phis) -> list[np.ndarray]:
    """Each layer's shift rows, (b, l), row t (b_k + v P_k) + phi_t Q_k: one
    row product phi_t Q_k per frame, which a b-row product rounds apart from."""
    v_row = v.reshape(1, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        return [np.stack([phi @ model.frame_projs[k].data for phi in phis])
                + (model.layer_biases[k].data + v_row @ model.video_projs[k].data)
                for k in range(model.layers)]


def _forward_tile(model: MetaModel, shifts, coords, t: int, acts, slopes=None) -> np.ndarray:
    """Run the network for frame t of a batch at some of its pixels, the
    (pixels, 2) `coords`; returns their (pixels,) raw predictions, each
    independent of the other pixels.

    Sine layer k computes, in this float order, a = h W_k, a += row t of
    `_shifts`, a *= omega0, then h = sin(a); the output layer reduces h row
    by row, not as a one-column BLAS product, which rounds by row offset.
    Layer k's activations go in place to the first `pixels` rows of
    `acts[k % n]`, for n of at least 2 buffers, and `slopes`, when given,
    receives cos(a) in `slopes[k]` for the backward pass.
    """
    n = len(acts)
    pixels = coords.shape[0]
    h = coords
    for k, rows in enumerate(shifts):
        a = np.matmul(h, model.layer_weights[k].data, out=acts[k % n][:pixels])
        a += rows[t]
        a *= model.omega0
        if slopes is not None:
            np.cos(a, out=slopes[k][:pixels])
        h = np.sin(a, out=a)
    out = np.einsum("ij,j->i", h, model.out_weight.data[:, 0])
    out += model.out_bias.data
    return out


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(what)


def _pixel_runs(lo: int, hi: int) -> list[slice]:
    """Pixels lo..hi in the fewest runs of at most TILE_ROWS pixels, as
    even as possible.

    Even runs keep every tile of a split near the cap. Only a one-row
    run would still take another kernel: numpy sends it to BLAS's
    matrix-vector product, which rounds apart from the one a long run
    takes.
    """
    count = -(-(hi - lo) // TILE_ROWS)
    cuts = [lo + (hi - lo) * i // count for i in range(count + 1)]
    return [slice(a, z) for a, z in zip(cuts, cuts[1:])]


def forward_batch(model: MetaModel, v, phis, coords: np.ndarray) -> np.ndarray:
    """Forward pass of b frames at one shared set of pixels, keeping no
    activations.

    `v` is (s,), `phis` is (b, r) and `coords` is (N, 2), the pixels
    every frame is evaluated at. Returns the (b, N) raw (unclamped)
    predictions; a non-finite prediction raises NonFiniteError. Row
    blocks split the pixels, and a block runs each frame at its pixels
    in runs of `_pixel_runs`, so its arrays stay one tile whatever the
    frame; no value depends on the split, nor on the other frames.
    """
    v, phis, coords = _batch_arrays(model, v, phis, coords)
    b = phis.shape[0]
    out = np.empty((b, coords.shape[0]), dtype=model.dtype)

    def block(lo: int, hi: int) -> None:
        runs = _pixel_runs(lo, hi)
        # both buffers in one allocation: as two arrays, the heap placed them
        # so that a decode's peak RSS rose by one buffer in about half of
        # the runs
        acts = np.empty((2, max(r.stop - r.start for r in runs), model.hidden),
                        dtype=model.dtype)
        # overflow surfaces as NonFiniteError below, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(b):
                for pixels in runs:
                    out[t, pixels] = _forward_tile(model, shifts, coords[pixels], t, acts)

    with parallel.RUNNER.blocks(coords.shape[0], b * model.hidden) as map_blocks:
        shifts = _shifts(model, v, phis)
        map_blocks(block)
    _require_finite(out, "forward")
    return out


def frame_mse(pred: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Mean squared error of each frame of (b, N) predictions, (b,).

    Accumulates in 64-bit and returns the predictions' dtype; a
    non-finite loss raises NonFiniteError.
    """
    if pred.shape != targets.shape or pred.ndim != 2:
        raise ShapeError(f"frame_mse: shape mismatch {pred.shape} vs {targets.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = pred - targets
        per_frame = np.mean(diff * diff, axis=1, dtype=np.float64).astype(pred.dtype)
    _require_finite(per_frame, "loss")
    return per_frame


def loss_and_grads(model: MetaModel, v, phis, coords: np.ndarray, targets: np.ndarray,
                   *, weights: bool = False) -> BatchGrads:
    """Batch loss and its gradients in closed form.

    The loss is the mean over the b frames of each frame's mean squared
    error against `targets`, (b, N) values at the N shared pixels of
    `coords`. Gradients of v and phis are always returned; with `weights`
    the gradient of every named parameter is too. A wrong `targets` shape
    raises ShapeError, a non-finite loss or gradient NonFiniteError.

    Row blocks of whole frames run the forward and backward passes, one
    frame at a time at runs of `_pixel_runs` of its pixels, so a block's
    arrays stay one tile whatever the frame or the batch. A frame's pixel
    sums and, with `weights`, its weight-gradient products carry from one
    run into the next; the products go to the frame's place in one stack
    per layer. Once the blocks have joined, the gradients are formed from
    the frame sums, and each stack is summed over its frames in frame
    order and gone before the projection gradients are formed. No value
    depends on the blocks; a frame of several runs sums its weight
    products per run.

    A tile's backward walks the layers from K, the output layer, down to
    0. Layer K's pre-activation gradient d is the loss gradient, scale *
    (pred - target), and a sine layer's is its slope, cos(a), times the
    activation gradient from above. Each layer adds x.T @ d of its input x
    to its product and passes d @ back[k] down. `back[k]` is omega0 W_k.T,
    W_K the output layer's, as a row-major copy: the transposed view would
    take a product of a few rows to OpenBLAS's small-matrix kernel, which
    rounds apart. The tile runs in `acts` and `slopes` as `_forward_tile`
    lays them out. Each activation gradient goes to `acts[-1]`, and each
    sine layer's pre-activation gradient overwrites its slope in
    `slopes[k]`. So when `acts` holds a buffer per layer and one more, as
    the products need, every layer's input outlives the gradients.
    numpy sums the pixel axis row by row, so a frame sum that starts from
    the carried one in the run's first row is the sum over all the frame's
    pixels in one run; the product has taken d before that add overwrites
    its first row.
    """
    v, phis, coords = _batch_arrays(model, v, phis, coords)
    targets = np.asarray(targets, dtype=model.dtype)
    b, n = phis.shape[0], coords.shape[0]
    if targets.shape != (b, n):
        raise ShapeError(f"targets shape {targets.shape} != ({b}, {n}) "
                         f"for {b} frames of {n} pixels")
    # every value carries weight 1/(b n) in the loss
    scale = 2.0 / (b * n)
    pred = np.empty((b, n), dtype=model.dtype)

    # Each array is one layer's rows, like the other arrays of a step: as
    # K-layer stacks they left the heap about 20 MB larger through training.
    def arrays(k: int, rows: int) -> list:
        return [np.empty((rows, model.hidden), dtype=model.dtype) for _ in range(k)]

    # each layer's sums of its pre-activation gradient over each frame's pixels
    sums = arrays(model.layers, b)
    runs = _pixel_runs(0, n)
    with np.errstate(over="ignore"):  # overflow surfaces below as NonFiniteError
        back = [np.multiply(w.data.T, model.omega0, order="C")
                for w in (*model.layer_weights, model.out_weight)]
    # each sine layer's and the output layer's weight-gradient product of
    # every frame
    products = ([np.empty((b, *w.data.shape), dtype=model.dtype)
                 for w in (*model.layer_weights, model.out_weight)] if weights else None)

    def block(lo: int, hi: int) -> None:
        # every frame of the block goes through these arrays, which are gone
        # before the gradients are formed
        rows = max(r.stop - r.start for r in runs)
        acts = arrays(model.layers + 1 if weights else 2, rows)
        slopes = arrays(model.layers, rows)
        # overflow surfaces as NonFiniteError below, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(lo, hi):
                for pixels in runs:
                    count = pixels.stop - pixels.start
                    pred[t, pixels] = _forward_tile(model, shifts, coords[pixels], t, acts, slopes)
                    d = ((pred[t, pixels] - targets[t, pixels]) * scale)[:, None]
                    for k in reversed(range(model.layers + 1)):
                        sine = k < model.layers
                        if sine:
                            d = np.multiply(d_h, slopes[k][:count], out=slopes[k][:count])
                        if weights:
                            x = acts[k - 1][:count] if k else coords[pixels]
                            if pixels.start:
                                products[k][t] += x.T @ d
                            else:
                                np.matmul(x.T, d, out=products[k][t])
                        if k:
                            d_h = np.matmul(d, back[k], out=acts[-1][:count])
                        if sine:
                            if pixels.start:
                                d[0] += sums[k][t]
                            np.sum(d, axis=0, out=sums[k][t])

    grads = {}
    with parallel.RUNNER.blocks(b, n * model.hidden) as map_blocks:
        shifts = _shifts(model, v, phis)
        map_blocks(block)
        per_frame = frame_mse(pred, targets)
        loss = float(np.mean(per_frame, dtype=np.float64).astype(model.dtype))
        with np.errstate(over="ignore", invalid="ignore"):
            if weights:
                grads["out.weight"] = products[-1].sum(axis=0)
                # from the joined residuals, not carried per run as the frame
                # sums are: numpy sums a one-wide axis pairwise, not row by row,
                # so a carried sum would move its bits with the tiling
                grads["out.bias"] = np.sum(((pred - targets) * scale).reshape(-1), keepdims=True)
                for k in reversed(range(model.layers)):
                    grads[f"layer{k}.weight"] = products[k].sum(axis=0)
                products = None  # freed before the projection gradients exist
            g_v = np.zeros_like(v)
            g_phis = np.zeros_like(phis)
            for k in reversed(range(model.layers)):
                col = sums[k].sum(axis=0)
                g_v += model.video_projs[k].data @ col
                g_phis += sums[k] @ model.frame_projs[k].data.T
                if weights:
                    grads[f"layer{k}.bias"] = col
                    grads[f"video_proj{k}"] = np.outer(v, col)
                    grads[f"frame_proj{k}"] = phis.T @ sums[k]
    _require_finite(g_v, "video gradient")
    _require_finite(g_phis, "frame gradient")
    for name, g in grads.items():
        _require_finite(g, f"{name} gradient")
    return BatchGrads(loss=loss, per_frame=per_frame, v=g_v, phis=g_phis,
                      weights=grads if weights else None)
