"""Reconstruction quality and downstream-task metrics.

All functions are pure. Video metrics take unit-peak grayscale videos;
the structural index slides a uniform 7x7x7 window over time, height,
and width, clamping the window along any axis shorter than 7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import VideoTensor
from .errors import ContractError, ShapeError, SingleClassError

SSIM_WINDOW = 7
_C1 = 0.01**2
_C2 = 0.03**2


@dataclass(frozen=True)
class QualityReport:
    psnr_db: float
    ssim3d: float
    mse: float

    def line(self) -> str:
        return f"psnr_db={self.psnr_db:.4f}\tssim3d={self.ssim3d:.6f}\tmse={self.mse:.8g}"


@dataclass(frozen=True)
class RegressionReport:
    mae: float
    rmse: float
    r2: float


@dataclass(frozen=True)
class ClassificationReport:
    accuracy: float
    f1: float
    auroc: float | None  # None when only one class was present


def _paired_videos(a: VideoTensor, b: VideoTensor):
    if a.dims != b.dims:
        raise ShapeError(f"video shapes differ: {a.dims} vs {b.dims}")
    return a.values.astype(np.float64), b.values.astype(np.float64)


def video_mse(a: VideoTensor, b: VideoTensor) -> float:
    x, y = _paired_videos(a, b)
    return float(np.mean((x - y) ** 2))


def ssim3d(a: VideoTensor, b: VideoTensor) -> float:
    """Mean structural similarity over all sliding spatiotemporal windows."""
    x, y = _paired_videos(a, b)
    window = tuple(min(SSIM_WINDOW, extent) for extent in x.shape)
    n = float(np.prod(window))
    mu_x = _box_sums(x, window) / n
    mu_y = _box_sums(y, window) / n
    ex2 = _box_sums(x * x, window) / n
    ey2 = _box_sums(y * y, window) / n
    exy = _box_sums(x * y, window) / n
    var_x = ex2 - mu_x * mu_x
    var_y = ey2 - mu_y * mu_y
    cov = exy - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + _C1) * (2.0 * cov + _C2)
    den = (mu_x**2 + mu_y**2 + _C1) * (var_x + var_y + _C2)
    return float(np.mean(num / den))


def _box_sums(x: np.ndarray, window: tuple[int, int, int]) -> np.ndarray:
    """Sums over every valid window position via a 3-D summed-area table."""
    wt, wh, ww = window
    padded = np.zeros(tuple(e + 1 for e in x.shape), dtype=np.float64)
    padded[1:, 1:, 1:] = x.cumsum(0).cumsum(1).cumsum(2)
    c = padded
    return (c[wt:, wh:, ww:] - c[:-wt, wh:, ww:] - c[wt:, :-wh, ww:] - c[wt:, wh:, :-ww]
            + c[:-wt, :-wh, ww:] + c[:-wt, wh:, :-ww] + c[wt:, :-wh, :-ww]
            - c[:-wt, :-wh, :-ww])


def quality_report(original: VideoTensor, reconstruction: VideoTensor) -> QualityReport:
    """PSNR in dB for unit-peak videos (+inf for identical ones), SSIM3D
    and the mean squared error."""
    err = video_mse(original, reconstruction)
    return QualityReport(
        psnr_db=math.inf if err == 0.0 else -10.0 * math.log10(err),
        ssim3d=ssim3d(original, reconstruction),
        mse=err)


def regression_metrics(pred, target) -> RegressionReport:
    """MAE, RMSE, and the coefficient of determination.

    A constant target makes R2 degenerate: 0 when predictions are exact,
    else -inf.
    """
    p = np.asarray(pred, dtype=np.float64).reshape(-1)
    t = np.asarray(target, dtype=np.float64).reshape(-1)
    if p.shape != t.shape:
        raise ShapeError(f"length mismatch: {p.shape[0]} vs {t.shape[0]}")
    if p.size == 0:
        raise ContractError("empty inputs")
    diff = p - t
    mae = float(np.mean(np.abs(diff)))
    rmse = float(np.sqrt(np.mean(diff**2)))
    ss_res = float(np.sum(diff**2))
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot > 0.0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 0.0 if ss_res == 0.0 else -math.inf
    return RegressionReport(mae=mae, rmse=rmse, r2=r2)


def auroc(scores, labels) -> float:
    """Area under the ROC curve via the rank statistic, midranks for ties."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels).reshape(-1)
    if s.shape != y.shape:
        raise ShapeError(f"length mismatch: {s.shape[0]} vs {y.shape[0]}")
    if not np.isin(y, (0, 1)).all():
        raise ContractError("labels must be binary 0/1")
    n_pos = int(np.sum(y == 1))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("AUROC needs both classes present")
    ranks = _midranks(s)
    rank_sum = float(np.sum(ranks[y == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _midranks(values: np.ndarray) -> np.ndarray:
    # a tie group of c values that ends at 1-based rank e has midrank e - (c - 1)/2
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[group]


def classification_metrics(scores, labels) -> ClassificationReport:
    """Accuracy and F1 of the scores cut at 0.5, plus AUROC when both
    classes occur."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels).reshape(-1)
    if s.shape != y.shape:
        raise ShapeError(f"length mismatch: {s.shape[0]} vs {y.shape[0]}")
    if s.size == 0:
        raise ContractError("empty inputs")
    if not np.isin(y, (0, 1)).all():
        raise ContractError("labels must be binary 0/1")
    pred = (s >= 0.5).astype(np.int64)
    y = y.astype(np.int64)
    tp = int(np.sum((pred == 1) & (y == 1)))
    fp = int(np.sum((pred == 1) & (y == 0)))
    fn = int(np.sum((pred == 0) & (y == 1)))
    accuracy = float(np.mean(pred == y))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    try:
        area = auroc(s, y)
    except SingleClassError:
        area = None
    return ClassificationReport(accuracy=accuracy, f1=f1, auroc=area)
