"""Task heads operating directly on modulation vectors.

A feature vector per video comes from the video vector, the temporal
mean of the frame vectors, or their concatenation. The head is a
three-layer ReLU perceptron with dropout, trained by mini-batch
gradient descent on squared error (regression) or logistic loss
(binary), with input and regression-target standardization folded into
the head itself. Dropout is active only while training, so evaluation
is a pure function of the weights.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import VideoEncoding
from .container import (
    KIND_HEAD,
    MODEL_MAGIC,
    _BodyReader,
    atomic_write_bytes,
    pack_container,
    unpack_container,
)
from .errors import ContractError, DivergenceError, FormatError
from .metrics import ClassificationReport, RegressionReport, classification_metrics, regression_metrics

_MODES = ("v", "phi", "combined")
_TASKS = ("regression", "binary")


@dataclass(frozen=True)
class HeadConfig:
    mode: str = "phi"
    task: str = "regression"
    hidden: tuple[int, int] = (256, 64)
    dropout: float = 0.2
    epochs: int = 400
    batch_size: int = 32
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ContractError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.task not in _TASKS:
            raise ContractError(f"task must be one of {_TASKS}, got {self.task!r}")
        if len(self.hidden) != 2 or min(self.hidden) < 1:
            raise ContractError("hidden widths must be two positive integers")
        if not 0.0 <= self.dropout < 1.0:
            raise ContractError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.epochs < 0 or self.batch_size < 1 or self.learning_rate <= 0:
            raise ContractError("epochs >= 0, batch_size >= 1, learning_rate > 0 required")


@dataclass(frozen=True)
class FeatureRecord:
    """One extracted feature vector with its label and provenance."""

    source: str
    features: np.ndarray
    label: float


def extract_features(enc: VideoEncoding, mode: str) -> np.ndarray:
    """Feature vector for one encoding under the given input mode."""
    if mode == "v":
        return enc.video_mod.values.astype(np.float64, copy=True)
    if mode == "phi":
        return enc.frame_mods.values.astype(np.float64).mean(axis=0)
    if mode == "combined":
        pooled = enc.frame_mods.values.astype(np.float64).mean(axis=0)
        return np.concatenate([enc.video_mod.values.astype(np.float64), pooled])
    raise ContractError(f"mode must be one of {_MODES}, got {mode!r}")


def feature_dim(mode: str, video_dim: int, frame_dim: int) -> int:
    return {"v": video_dim, "phi": frame_dim, "combined": video_dim + frame_dim}[mode]


class MlpHead:
    """Trained head: three linear layers plus the normalization constants."""

    def __init__(self, weights, biases, feature_mean, feature_scale,
                 target_mean, target_scale, config: HeadConfig):
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        self.feature_mean = np.asarray(feature_mean, dtype=np.float64)
        self.feature_scale = np.asarray(feature_scale, dtype=np.float64)
        self.target_mean = float(target_mean)
        self.target_scale = float(target_scale)
        self.config = config

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    def _logits(self, features: np.ndarray) -> np.ndarray:
        x = (np.asarray(features, dtype=np.float64) - self.feature_mean) / self.feature_scale
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            x = np.maximum(x @ w + b, 0.0)
        return x @ self.weights[-1] + self.biases[-1]

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Scores per row: sigmoid probabilities for binary, plain values
        (de-standardized) for regression. Deterministic, dropout off."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        z = self._logits(features).reshape(-1)
        if self.config.task == "binary":
            return _sigmoid(z)
        return z * self.target_scale + self.target_mean


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _init_head(dim: int, cfg: HeadConfig, rng: np.random.Generator):
    sizes = [dim, cfg.hidden[0], cfg.hidden[1], 1]
    weights, biases = [], []
    for i in range(3):
        fan_in = sizes[i]
        gain = np.sqrt(2.0 / fan_in) if i < 2 else np.sqrt(1.0 / fan_in)
        weights.append(rng.normal(0.0, gain, size=(sizes[i], sizes[i + 1])))
        biases.append(np.zeros(sizes[i + 1]))
    return weights, biases


def train_head(features, labels, cfg: HeadConfig):
    """Fit a head to (n, d) features; returns (head, per-epoch mean losses)."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ContractError(f"features {x.shape} do not match {y.shape[0]} labels")
    n = x.shape[0]
    if n < 2:
        raise ContractError("need at least two samples")
    if cfg.task == "binary":
        if not np.isin(y, (0.0, 1.0)).all():
            raise ContractError("binary task labels must be 0/1")
        if y.min() == y.max():
            raise ContractError("binary task needs both classes in the training set")

    feature_mean = x.mean(axis=0)
    feature_scale = np.maximum(x.std(axis=0), 1e-8)
    xs = (x - feature_mean) / feature_scale
    if cfg.task == "regression":
        target_mean = float(y.mean())
        target_scale = float(max(y.std(), 1e-8))
        ys = (y - target_mean) / target_scale
    else:
        target_mean, target_scale = 0.0, 1.0
        ys = y

    rng = np.random.default_rng([cfg.seed, 31])
    weights, biases = _init_head(x.shape[1], cfg, rng)
    keep = 1.0 - cfg.dropout
    losses: list[float] = []
    # overflow surfaces as a structured divergence error below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        return _fit(xs, ys, weights, biases, cfg, rng, keep, losses,
                    feature_mean, feature_scale, target_mean, target_scale)


def _fit(xs, ys, weights, biases, cfg, rng, keep, losses,
         feature_mean, feature_scale, target_mean, target_scale):
    n = xs.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb = xs[idx], ys[idx]
            m = xb.shape[0]

            acts, pre, masks = [xb], [], []
            h = xb
            for layer in range(2):
                z = h @ weights[layer] + biases[layer]
                a = np.maximum(z, 0.0)
                if cfg.dropout > 0.0:
                    mask = (rng.random(a.shape) < keep) / keep
                    a = a * mask
                else:
                    mask = None
                pre.append(z)
                masks.append(mask)
                acts.append(a)
                h = a
            out = (h @ weights[2] + biases[2]).reshape(-1)

            if cfg.task == "regression":
                diff = out - yb
                loss = float(np.mean(diff**2))
                dz = (2.0 * diff / m).reshape(-1, 1)
            else:
                p = _sigmoid(out)
                eps = 1e-12
                loss = float(-np.mean(yb * np.log(p + eps) + (1 - yb) * np.log(1 - p + eps)))
                dz = ((p - yb) / m).reshape(-1, 1)
            if not np.isfinite(loss):
                raise DivergenceError(epoch, losses)
            epoch_loss += loss * m

            grads_w = [None, None, acts[2].T @ dz]
            grads_b = [None, None, dz.sum(axis=0)]
            dh = dz @ weights[2].T
            for layer in (1, 0):
                if masks[layer] is not None:
                    dh = dh * masks[layer]
                dzl = dh * (pre[layer] > 0.0)
                grads_w[layer] = acts[layer].T @ dzl
                grads_b[layer] = dzl.sum(axis=0)
                if layer > 0:
                    dh = dzl @ weights[layer].T
            for layer in range(3):
                weights[layer] -= cfg.learning_rate * grads_w[layer]
                biases[layer] -= cfg.learning_rate * grads_b[layer]
        losses.append(epoch_loss / n)

    head = MlpHead(weights, biases, feature_mean, feature_scale,
                   target_mean, target_scale, cfg)
    return head, losses


def evaluate_head(head: MlpHead, features, labels):
    """Score a head on labeled features; the report type follows the task."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ContractError(f"features {x.shape} do not match {y.shape[0]} labels")
    scores = head.predict(x)
    if head.config.task == "regression":
        return regression_metrics(scores, y)
    return classification_metrics(scores, y.astype(np.int64))


_MODE_CODES = {"v": 0, "phi": 1, "combined": 2}
_TASK_CODES = {"regression": 0, "binary": 1}


def save_head(path, head: MlpHead) -> None:
    cfg = head.config
    sizes = [head.weights[0].shape[0], cfg.hidden[0], cfg.hidden[1], 1]
    payload = b"".join(a.astype("<f8").tobytes()
                       for pair in zip(head.weights, head.biases) for a in pair)
    payload += head.feature_mean.astype("<f8").tobytes()
    payload += head.feature_scale.astype("<f8").tobytes()
    payload += struct.pack("<dd", head.target_mean, head.target_scale)
    body = (struct.pack("<I", KIND_HEAD)
            + struct.pack("<BB", _MODE_CODES[cfg.mode], _TASK_CODES[cfg.task])
            + struct.pack("<IIII", *sizes)
            + struct.pack("<dIId q", cfg.dropout, cfg.epochs, cfg.batch_size,
                          cfg.learning_rate, cfg.seed)
            + struct.pack("<Q", len(payload))
            + payload)
    atomic_write_bytes(path, pack_container(MODEL_MAGIC, body))


def load_head(path) -> MlpHead:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    _, body = unpack_container(blob, MODEL_MAGIC, source=str(path))
    reader = _BodyReader(body, str(path))
    (kind,) = reader.unpack("<I")
    if kind != KIND_HEAD:
        raise FormatError(f"{path}: kind {kind} is not a head")
    mode_code, task_code = reader.unpack("<BB")
    sizes = list(reader.unpack("<IIII"))
    dropout, epochs, batch_size, lr, seed = reader.unpack("<dIId q")
    (payload_len,) = reader.unpack("<Q")
    payload = reader.raw(payload_len)
    reader.expect_end()

    modes = {v: k for k, v in _MODE_CODES.items()}
    tasks = {v: k for k, v in _TASK_CODES.items()}
    if mode_code not in modes or task_code not in tasks:
        raise FormatError(f"{path}: unknown mode/task codes {(mode_code, task_code)}")
    cfg = HeadConfig(mode=modes[mode_code], task=tasks[task_code],
                     hidden=(sizes[1], sizes[2]), dropout=dropout, epochs=epochs,
                     batch_size=batch_size, learning_rate=lr, seed=seed)

    counts = []
    for i in range(3):
        counts.append(sizes[i] * sizes[i + 1])
        counts.append(sizes[i + 1])
    counts.extend([sizes[0], sizes[0]])
    expected = (sum(counts) + 2) * 8
    if payload_len != expected:
        raise FormatError(f"{path}: payload {payload_len} bytes, expected {expected}")

    arrays, offset = [], 0
    for count in counts:
        arrays.append(np.frombuffer(payload, dtype="<f8", count=count,
                                    offset=offset).astype(np.float64))
        offset += count * 8
    target_mean, target_scale = struct.unpack_from("<dd", payload, offset)
    weights = [arrays[0].reshape(sizes[0], sizes[1]),
               arrays[2].reshape(sizes[1], sizes[2]),
               arrays[4].reshape(sizes[2], sizes[3])]
    biases = [arrays[1], arrays[3], arrays[5]]
    return MlpHead(weights, biases, arrays[6], arrays[7],
                   target_mean, target_scale, cfg)
