"""Feature extraction modes and head training/evaluation behavior."""

import numpy as np
import pytest
from helpers import rel_err

from vfuncta.codec import VideoEncoding
from vfuncta.errors import ContractError, DivergenceError
from vfuncta.heads import (
    HeadConfig,
    evaluate_head,
    extract_features,
    train_head,
)
from vfuncta.model import FrameModulationSeq, VideoModulation


def make_encoding(v, phis):
    phis = np.asarray(phis, dtype=np.float32)
    return VideoEncoding(VideoModulation(np.asarray(v, dtype=np.float32)),
                         FrameModulationSeq(phis),
                         frames=phis.shape[0], height=4, width=4,
                         fingerprint=123, inner_steps=10, inner_lr=0.1)


# --- feature extraction ---------------------------------------------------------

def test_phi_mode_single_frame_is_identity():
    enc = make_encoding(np.zeros(3), [[1.0, 2.0]])
    assert np.array_equal(extract_features(enc, "phi"), [1.0, 2.0])


def test_phi_mode_equal_frames_collapse():
    enc = make_encoding(np.zeros(3), [[1.0, 2.0]] * 4)
    assert np.allclose(extract_features(enc, "phi"), [1.0, 2.0])


def test_phi_mode_invariant_to_frame_permutation():
    rng = np.random.default_rng(2)
    phis = rng.normal(size=(6, 4)).astype(np.float32)
    enc = make_encoding(np.zeros(3), phis)
    shuffled = make_encoding(np.zeros(3), phis[rng.permutation(6)])
    assert np.allclose(extract_features(enc, "phi"),
                       extract_features(shuffled, "phi"), atol=1e-12)


def test_combined_mode_concatenates():
    enc = make_encoding([5.0, 6.0], [[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(extract_features(enc, "combined"), [5.0, 6.0, 2.0, 3.0])


def test_extraction_does_not_mutate_encoding():
    enc = make_encoding([1.0], [[2.0], [4.0]])
    before = enc.frame_mods.values.copy()
    feats = extract_features(enc, "phi")
    feats += 100.0
    assert np.array_equal(enc.frame_mods.values, before)


# --- training -------------------------------------------------------------------

def test_zero_epochs_returns_initialized_head_and_empty_log():
    rng = np.random.default_rng(0)
    cfg = HeadConfig(task="regression", epochs=0, hidden1=8, hidden2=4)
    head, losses = train_head(rng.normal(size=(10, 3)), rng.normal(size=10), cfg)
    assert losses == []
    assert head.weights[0].shape[0] == 3


def test_linearly_separable_reaches_perfect_accuracy():
    rng = np.random.default_rng(1)
    n = 60
    x = rng.normal(size=(n, 2))
    y = (x[:, 0] + x[:, 1] > 0).astype(float)
    cfg = HeadConfig(task="binary", hidden1=16, hidden2=8, dropout=0.0,
                     epochs=200, batch_size=16, learning_rate=0.1, seed=4)
    head, _ = train_head(x, y, cfg)
    rep = evaluate_head(head, x, y.astype(int))
    assert rep.accuracy == 1.0


def test_realizable_linear_target_fits_to_high_r2():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(64, 6))
    w = rng.normal(size=6)
    y = x @ w + 0.5
    cfg = HeadConfig(task="regression", hidden1=32, hidden2=16, dropout=0.0,
                     epochs=400, batch_size=16, learning_rate=0.05, seed=7)
    head, losses = train_head(x, y, cfg)
    rep = evaluate_head(head, x, y)
    assert rep.r2 >= 0.99
    assert losses[-1] < losses[0]


def test_training_is_deterministic_per_seed():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(20, 4))
    y = rng.normal(size=20)
    cfg = HeadConfig(epochs=30, hidden1=8, hidden2=4, seed=3)
    h1, l1 = train_head(x, y, cfg)
    h2, l2 = train_head(x, y, cfg)
    assert l1 == l2
    for a, b in zip(h1.weights, h2.weights):
        assert np.array_equal(a, b)


def test_a_run_away_last_update_is_a_divergence():
    # the one batch's loss is finite; the update after it is not
    rng = np.random.default_rng(0)
    cfg = HeadConfig(task="regression", hidden1=8, hidden2=4, dropout=0.0, epochs=1,
                     batch_size=64, learning_rate=1e60)
    with pytest.raises(DivergenceError) as exc:
        train_head(rng.normal(size=(8, 12)), rng.normal(size=8), cfg)
    assert exc.value.step == cfg.epochs
    assert len(exc.value.loss_history) == 1 and np.isfinite(exc.value.loss_history[0])


def test_binary_task_requires_both_classes():
    with pytest.raises(ContractError):
        train_head(np.zeros((4, 2)), np.ones(4), HeadConfig(task="binary"))


def test_evaluation_is_deterministic_despite_dropout_config():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(30, 3))
    y = (x[:, 0] > 0).astype(float)
    cfg = HeadConfig(task="binary", dropout=0.5, epochs=50, hidden1=8, hidden2=4, seed=2)
    head, _ = train_head(x, y, cfg)
    s1 = head.predict(x)
    s2 = head.predict(x)
    assert np.array_equal(s1, s2)


def test_zero_output_layer_scores_half():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(10, 3))
    y = np.array([0, 1] * 5, dtype=float)
    head, _ = train_head(x, y, HeadConfig(task="binary", epochs=5, hidden1=4, hidden2=4))
    head.weights[2][:] = 0.0
    head.biases[2][:] = 0.0
    scores = head.predict(x)
    assert np.all(scores == 0.5)
    rep = evaluate_head(head, x, y.astype(int))
    assert rep.auroc == 0.5


def test_shuffled_labels_stay_near_chance():
    rng = np.random.default_rng(13)
    n_train, n_test = 40, 50
    aurocs = []
    for seed in range(10):
        r = np.random.default_rng(seed)
        x = r.normal(size=(n_train + n_test, 6))
        y = r.integers(0, 2, size=n_train + n_test).astype(float)
        y = y[r.permutation(y.size)]
        if y[:n_train].min() == y[:n_train].max():
            y[0] = 1 - y[0]
        cfg = HeadConfig(task="binary", hidden1=16, hidden2=8, dropout=0.0,
                         epochs=80, batch_size=16, seed=seed)
        head, _ = train_head(x[:n_train], y[:n_train], cfg)
        rep = evaluate_head(head, x[n_train:], y[n_train:].astype(int))
        if rep.auroc is not None:
            aurocs.append(rep.auroc)
    assert 0.35 <= float(np.mean(aurocs)) <= 0.65


def test_head_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(8, 3))
    y = rng.normal(size=8)
    cfg = HeadConfig(task="regression", hidden1=4, hidden2=3, dropout=0.0,
                     epochs=1, batch_size=8, learning_rate=1e-6, seed=0)
    # one almost-zero-lr epoch approximates the gradient: W1 - W0 = -lr * dW
    head0, _ = train_head(x, y, HeadConfig(task="regression", hidden1=4, hidden2=3,
                                           dropout=0.0, epochs=0, seed=0))
    head1, _ = train_head(x, y, cfg)
    analytic = (head0.weights[0] - head1.weights[0]) / cfg.learning_rate

    xs = (x - head0.feature_mean) / head0.feature_scale
    ys = (y - head0.target_mean) / head0.target_scale

    def loss_at(w0):
        h = np.maximum(xs @ w0 + head0.biases[0], 0.0)
        h = np.maximum(h @ head0.weights[1] + head0.biases[1], 0.0)
        out = (h @ head0.weights[2] + head0.biases[2]).reshape(-1)
        return float(np.mean((out - ys) ** 2))

    numeric = np.zeros_like(head0.weights[0])
    step = 1e-6
    for i in range(numeric.shape[0]):
        for j in range(numeric.shape[1]):
            w = head0.weights[0].copy()
            w[i, j] += step
            hi = loss_at(w)
            w[i, j] -= 2 * step
            lo = loss_at(w)
            numeric[i, j] = (hi - lo) / (2 * step)
    assert rel_err(analytic, numeric) < 1e-3

