"""Metric checks against closed-form values and brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfuncta.data import VideoTensor
from vfuncta.errors import ContractError, ShapeError
from vfuncta.metrics import (
    SSIM_WINDOW,
    auroc,
    classification_metrics,
    quality_report,
    regression_metrics,
    ssim3d,
    video_mse,
)


def const_video(value, dims=(2, 3, 3)):
    return VideoTensor(np.full(dims, value, dtype=np.float32))


# --- PSNR ---------------------------------------------------------------------

def psnr(a, b):
    return quality_report(a, b)["psnr_db"]


def test_psnr_identical_is_infinite():
    v = const_video(0.25)
    assert psnr(v, v) == math.inf


def test_psnr_quarter_mse():
    assert psnr(const_video(0.0), const_video(0.5)) == pytest.approx(6.0206, abs=1e-3)


def test_psnr_hundredth_mse():
    assert psnr(const_video(0.0), const_video(0.1)) == pytest.approx(20.0, abs=1e-3)


def test_psnr_symmetric():
    rng = np.random.default_rng(0)
    a = VideoTensor(rng.random((3, 5, 4), dtype=np.float32))
    b = VideoTensor(rng.random((3, 5, 4), dtype=np.float32))
    assert psnr(a, b) == psnr(b, a)


def test_psnr_shape_mismatch():
    with pytest.raises(ShapeError):
        psnr(const_video(0.1, (1, 2, 2)), const_video(0.1, (1, 2, 3)))


def test_quality_report_consistency():
    rng = np.random.default_rng(1)
    a = VideoTensor(rng.random((2, 4, 4), dtype=np.float32))
    b = VideoTensor(rng.random((2, 4, 4), dtype=np.float32))
    rep = quality_report(a, b)
    assert list(rep) == ["psnr_db", "ssim3d", "mse"]
    assert rep["mse"] == video_mse(a, b)
    assert rep["psnr_db"] == pytest.approx(-10 * math.log10(rep["mse"]), abs=1e-12)


# --- SSIM3D -------------------------------------------------------------------

def brute_force_ssim3d(a, b, window=SSIM_WINDOW, c1=0.01**2, c2=0.03**2):
    """Direct summation over every sliding window position."""
    x = a.values.astype(np.float64)
    y = b.values.astype(np.float64)
    wt, wh, ww = (min(window, e) for e in x.shape)
    vals = []
    for i in range(x.shape[0] - wt + 1):
        for j in range(x.shape[1] - wh + 1):
            for k in range(x.shape[2] - ww + 1):
                wx = x[i : i + wt, j : j + wh, k : k + ww]
                wy = y[i : i + wt, j : j + wh, k : k + ww]
                mx, my = wx.mean(), wy.mean()
                vx = (wx * wx).mean() - mx * mx
                vy = (wy * wy).mean() - my * my
                cov = (wx * wy).mean() - mx * my
                vals.append(((2 * mx * my + c1) * (2 * cov + c2))
                            / ((mx**2 + my**2 + c1) * (vx + vy + c2)))
    return float(np.mean(vals))


def test_ssim_identical_is_one():
    rng = np.random.default_rng(5)
    v = VideoTensor(rng.random((8, 16, 16), dtype=np.float32))
    assert ssim3d(v, v) == pytest.approx(1.0, abs=1e-9)


def test_ssim_inverted_below_one():
    rng = np.random.default_rng(6)
    v = VideoTensor(rng.random((4, 8, 8), dtype=np.float32))
    inv = VideoTensor(1.0 - v.values)
    assert ssim3d(v, inv) < 1.0


@pytest.mark.parametrize("seed", range(5))
def test_ssim_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    a = VideoTensor(rng.random((8, 16, 16), dtype=np.float32))
    b = VideoTensor(np.clip(a.values + rng.normal(0, 0.1, a.dims), 0, 1).astype(np.float32))
    assert ssim3d(a, b) == pytest.approx(brute_force_ssim3d(a, b), abs=1e-6)


def test_ssim_short_axes_clamp_window():
    rng = np.random.default_rng(7)
    a = VideoTensor(rng.random((2, 5, 9), dtype=np.float32))
    b = VideoTensor(rng.random((2, 5, 9), dtype=np.float32))
    assert ssim3d(a, b) == pytest.approx(brute_force_ssim3d(a, b), abs=1e-6)


def test_ssim_symmetric():
    rng = np.random.default_rng(8)
    a = VideoTensor(rng.random((3, 9, 9), dtype=np.float32))
    b = VideoTensor(rng.random((3, 9, 9), dtype=np.float32))
    assert ssim3d(a, b) == pytest.approx(ssim3d(b, a), abs=1e-12)


def test_ssim_single_frame_equals_classic_2d():
    """With T=1 the window clamps to 1x7x7, which is plain 2-D SSIM."""
    rng = np.random.default_rng(9)
    a2d = rng.random((12, 10))
    b2d = np.clip(a2d + rng.normal(0, 0.05, a2d.shape), 0, 1)

    def ssim_2d(x, y, w=SSIM_WINDOW, c1=0.01**2, c2=0.03**2):
        vals = []
        for i in range(x.shape[0] - w + 1):
            for j in range(x.shape[1] - w + 1):
                wx, wy = x[i : i + w, j : j + w], y[i : i + w, j : j + w]
                mx, my = wx.mean(), wy.mean()
                vx = (wx * wx).mean() - mx * mx
                vy = (wy * wy).mean() - my * my
                cov = (wx * wy).mean() - mx * my
                vals.append(((2 * mx * my + c1) * (2 * cov + c2))
                            / ((mx**2 + my**2 + c1) * (vx + vy + c2)))
        return float(np.mean(vals))

    got = ssim3d(VideoTensor(a2d[None].astype(np.float32)),
                 VideoTensor(b2d[None].astype(np.float32)))
    want = ssim_2d(a2d.astype(np.float32).astype(np.float64),
                   b2d.astype(np.float32).astype(np.float64))
    assert got == pytest.approx(want, abs=1e-9)


# --- regression ---------------------------------------------------------------

def test_regression_exact_prediction():
    rep = regression_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert rep == {"mae": 0.0, "rmse": 0.0, "r2": 1.0}


def test_regression_mean_predictor_scores_zero():
    target = np.array([1.0, 2.0, 3.0, 6.0])
    rep = regression_metrics(np.full(4, target.mean()), target)
    assert rep["r2"] == pytest.approx(0.0, abs=1e-12)


def test_regression_constant_target_sentinel():
    rep = regression_metrics([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    assert rep["mae"] == pytest.approx(2 / 3)
    assert rep["rmse"] == pytest.approx(math.sqrt(2 / 3))
    assert rep["r2"] == -math.inf


def test_regression_constant_target_exact_is_zero():
    rep = regression_metrics([2.0, 2.0], [2.0, 2.0])
    assert rep["r2"] == 0.0


def test_regression_length_mismatch():
    with pytest.raises(ShapeError):
        regression_metrics([1.0], [1.0, 2.0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=30),
       st.lists(st.floats(-100, 100), min_size=1, max_size=30))
def test_mae_never_exceeds_rmse(pred, target):
    n = min(len(pred), len(target))
    rep = regression_metrics(pred[:n], target[:n])
    assert rep["mae"] <= rep["rmse"] + 1e-12


# --- classification -----------------------------------------------------------

def pairwise_auroc(scores, labels):
    """Exhaustive pairwise counting with half credit for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_auroc_perfect_separation():
    assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auroc_all_tied_is_half():
    assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


def test_classification_hand_case():
    rep = classification_metrics([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0])
    assert list(rep) == ["acc", "f1", "auroc"]
    assert rep["auroc"] == pytest.approx(0.75)
    assert rep["acc"] == pytest.approx(0.5)
    assert rep["f1"] == pytest.approx(0.5)


def test_auroc_single_class_raises_but_report_survives():
    with pytest.raises(ContractError, match="AUROC needs both classes present"):
        auroc([0.1, 0.9], [1, 1])
    rep = classification_metrics([0.1, 0.9], [1, 1])
    assert rep["auroc"] is None
    assert rep["acc"] == 0.5


def test_auroc_matches_pairwise_counting_on_random_sets():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
        assert auroc(scores, labels) == pytest.approx(pairwise_auroc(scores, labels), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 8), st.randoms(use_true_random=False))
def test_auroc_invariant_under_monotone_transforms(n, rnd):
    labels = [rnd.randint(0, 1) for _ in range(n)]
    if min(labels) == max(labels):
        labels[0] = 1 - labels[0]
    scores = np.array([rnd.choice([0.1, 0.2, 0.5, 0.7]) for _ in range(n)])
    base = auroc(scores, labels)
    assert auroc(np.exp(3 * scores), labels) == pytest.approx(base, abs=1e-12)
    assert auroc(scores**3 + 5, labels) == pytest.approx(base, abs=1e-12)


def test_labels_must_be_binary():
    with pytest.raises(ContractError):
        classification_metrics([0.1, 0.2], [0, 2])
