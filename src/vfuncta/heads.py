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

import math
from dataclasses import dataclass

import numpy as np

from .codec import VideoEncoding
from .errors import ContractError, DivergenceError, NonFiniteError, require_least
from .metrics import classification_metrics, regression_metrics

MODES = ("v", "phi", "combined")
TASKS = ("regression", "binary")


@dataclass(frozen=True)
class HeadConfig:
    task: str = "regression"
    hidden1: int = 256
    hidden2: int = 64
    dropout: float = 0.2
    epochs: int = 400
    batch_size: int = 32
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ContractError(f"task must be one of {TASKS}, got {self.task!r}")
        require_least(vars(self), hidden1=1, hidden2=1, epochs=0, batch_size=1, seed=0)
        if not 0.0 <= self.dropout < 1.0:
            raise ContractError(f"dropout must lie in [0, 1), got {self.dropout}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ContractError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


def extract_features(enc: VideoEncoding, mode: str) -> np.ndarray:
    """Feature vector for one encoding under the given input mode."""
    if mode == "v":
        return enc.video_mod.values.astype(np.float64, copy=True)
    if mode == "phi":
        return enc.frame_mods.values.astype(np.float64).mean(axis=0)
    if mode == "combined":
        return np.concatenate([extract_features(enc, "v"), extract_features(enc, "phi")])
    raise ContractError(f"mode must be one of {MODES}, got {mode!r}")


@dataclass(eq=False)
class MlpHead:
    """Trained head: three float64 linear layers plus the normalization
    constants, as `train_head` leaves them."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    target_mean: float
    target_scale: float
    config: HeadConfig

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Scores per row: sigmoid probabilities for binary, plain values
        (de-standardized) for regression. Deterministic, dropout off."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        x = (features - self.feature_mean) / self.feature_scale
        z = _forward(self.weights, self.biases, x)[0]
        if self.config.task == "binary":
            return _sigmoid(z)
        return z * self.target_scale + self.target_mean


def _forward(weights, biases, x, dropout: float = 0.0, rng=None):
    """Run the three layers on standardized (m, d) inputs.

    Returns the (m,) outputs and, for the backward pass, each layer's
    input and each hidden layer's slope: the ReLU indicator `z > 0`,
    times the dropout mask when there is one. Dropout applies only when
    `rng` is given.
    """
    acts, slopes = [x], []
    for w, b in zip(weights[:-1], biases[:-1]):
        z = x @ w + b
        x, slope = np.maximum(z, 0.0), z > 0.0
        if rng is not None and dropout > 0.0:
            keep = 1.0 - dropout
            mask = (rng.random(x.shape) < keep) / keep
            x, slope = x * mask, slope * mask
        slopes.append(slope)
        acts.append(x)
    return (x @ weights[-1] + biases[-1]).reshape(-1), acts, slopes


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _init_head(dim: int, cfg: HeadConfig, rng: np.random.Generator):
    sizes = [dim, cfg.hidden1, cfg.hidden2, 1]
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
    losses: list[float] = []
    # overflow surfaces as a structured divergence error below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                xb, yb = xs[idx], ys[idx]
                m = xb.shape[0]
                out, acts, slopes = _forward(weights, biases, xb, cfg.dropout, rng)

                if cfg.task == "regression":
                    diff = out - yb
                    loss = float(np.mean(diff**2))
                    dz = (2.0 * diff / m).reshape(-1, 1)
                else:
                    p = _sigmoid(out)
                    eps = 1e-12
                    loss = float(-np.mean(yb * np.log(p + eps)
                                          + (1 - yb) * np.log(1 - p + eps)))
                    dz = ((p - yb) / m).reshape(-1, 1)
                if not np.isfinite(loss):
                    raise DivergenceError(epoch, losses)
                epoch_loss += loss * m

                # each layer is updated after its weights' last use
                for layer in (2, 1, 0):
                    grad_w, grad_b = acts[layer].T @ dz, dz.sum(axis=0)
                    if layer > 0:
                        dz = (dz @ weights[layer].T) * slopes[layer - 1]
                    weights[layer] -= cfg.learning_rate * grad_w
                    biases[layer] -= cfg.learning_rate * grad_b
            losses.append(epoch_loss / n)

    head = MlpHead(weights, biases, feature_mean, feature_scale,
                   target_mean, target_scale, cfg)
    return head, losses


def evaluate_head(head: MlpHead, features, labels):
    """Score a head on labeled features; the report type follows the task.

    A head whose last updates ran its weights away scores values that are
    not finite, which are refused; finite scores too large to square give
    infinite errors, which are reported. Neither is a warning.
    """
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = head.predict(features)
        if not np.isfinite(scores).all():
            raise NonFiniteError("head prediction")
        if head.config.task == "regression":
            return regression_metrics(scores, y)
    return classification_metrics(scores, y.astype(np.int64))

