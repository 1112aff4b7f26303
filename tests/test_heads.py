"""Feature extraction modes and the linear probes' fit and evaluation."""

import numpy as np
import pytest

from vfuncta import heads
from vfuncta.cli import main
from vfuncta.codec import VideoEncoding, save_encoding
from vfuncta.data import CorpusItem, write_corpus_manifest
from vfuncta.errors import ContractError
from vfuncta.heads import (
    PENALTIES,
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


# --- probes --------------------------------------------------------------------

def standardised(head, x):
    return (x - head.feature_mean) / head.feature_scale


def test_ridge_is_least_squares_on_the_augmented_system():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 5)) * [1.0, 10.0, 0.1, 1.0, 3.0]
    y = x @ rng.normal(size=5) + rng.normal(size=30) + 4.0
    head = train_head(x, y, HeadConfig())
    xs = standardised(head, x)
    augmented = np.vstack([xs, np.sqrt(head.penalty) * np.eye(5)])
    target = np.concatenate([y - y.mean(), np.zeros(5)])
    expected = np.linalg.lstsq(augmented, target, rcond=None)[0]
    assert np.allclose(head.weights, expected, rtol=1e-10, atol=1e-12)
    assert head.intercept == pytest.approx(y.mean(), abs=1e-12)


@pytest.mark.parametrize("width", [4, 50])
def test_the_logistic_penalised_gradient_vanishes(width):
    """At the weights returned, X^T (p - y) + lambda w is zero, also for
    features wider than the train split."""
    rng = np.random.default_rng(width)
    x = rng.normal(size=(24, width))
    y = (x[:, 0] + rng.normal(size=24) > 0).astype(float)
    head = train_head(x, y, HeadConfig(task="binary"))
    xs = standardised(head, x)
    p = head.predict(x)
    grad = xs.T @ (p - y) + head.penalty * head.weights
    assert np.max(np.abs(grad)) < 1e-8
    assert head.penalty in PENALTIES


@pytest.mark.parametrize("task", ["regression", "binary"])
def test_permuted_test_labels_leave_the_probes_unchanged(tmp_path, monkeypatch, task):
    """eval picks each penalty and fits each probe on the train split alone."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("VFUNCTA_SEED", raising=False)
    rng = np.random.default_rng(8)
    splits = ["train"] * 12 + ["test"] * 6
    for i in range(len(splits)):
        save_encoding(tmp_path / "enc" / f"v{i}.venc", VideoEncoding(
            VideoModulation(rng.standard_normal(6).astype(np.float32)),
            FrameModulationSeq(rng.standard_normal((3, 4)).astype(np.float32)),
            frames=3, height=4, width=4, fingerprint=1, inner_steps=1, inner_lr=0.1))
    speeds, classes = rng.uniform(0.5, 3.0, size=18), np.arange(18) % 2
    fitted = []
    for order in (np.arange(18), np.r_[np.arange(12), 12 + rng.permutation(6)]):
        write_corpus_manifest(tmp_path / "manifest.tsv", [
            CorpusItem(path=f"v{i}.rawvid", speed=float(speeds[j]),
                       trajectory_class=int(classes[j]), split=splits[i])
            for i, j in enumerate(order)])
        probes = []

        def recorded(*args, probes=probes):
            probes.append(train_head(*args))
            return probes[-1]

        monkeypatch.setattr(heads, "train_head", recorded)
        assert main(["eval", "--encodings", "enc", "--corpus", "manifest.tsv", "--task", task,
                     "--seeds", "2"]) == 0
        fitted.append(probes)
    assert len(fitted[0]) == len(fitted[1]) == 6
    for a, b in zip(*fitted):
        assert a.penalty == b.penalty and a.intercept == b.intercept
        assert np.array_equal(a.weights, b.weights)


def test_linearly_separable_reaches_perfect_accuracy():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(80, 2))
    x = x[np.abs(x.sum(axis=1)) > 0.2]  # a margin around the boundary
    y = (x[:, 0] + x[:, 1] > 0).astype(float)
    head = train_head(x, y, HeadConfig(task="binary", seed=4))
    assert evaluate_head(head, x, y.astype(int))["acc"] == 1.0


def test_realizable_linear_target_fits_to_high_r2():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(64, 6))
    y = x @ rng.normal(size=6) + 0.5
    head = train_head(x, y, HeadConfig(task="regression", seed=7))
    assert evaluate_head(head, x, y)["r2"] >= 0.99


def test_training_is_deterministic_per_seed():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(20, 4))
    y = (rng.normal(size=20) > 0).astype(float)
    h1, h2 = (train_head(x, y, HeadConfig(task="binary", seed=3)) for _ in range(2))
    assert h1.penalty == h2.penalty and h1.intercept == h2.intercept
    assert np.array_equal(h1.weights, h2.weights)


def test_binary_task_requires_both_classes():
    with pytest.raises(ContractError):
        train_head(np.zeros((4, 2)), np.ones(4), HeadConfig(task="binary"))


def test_shuffled_labels_stay_near_chance():
    n_train, n_test = 40, 50
    aurocs = []
    for seed in range(10):
        r = np.random.default_rng(seed)
        x = r.normal(size=(n_train + n_test, 6))
        y = r.integers(0, 2, size=n_train + n_test).astype(float)
        if y[:n_train].min() == y[:n_train].max():
            y[0] = 1 - y[0]
        head = train_head(x[:n_train], y[:n_train], HeadConfig(task="binary", seed=seed))
        rep = evaluate_head(head, x[n_train:], y[n_train:].astype(int))
        if rep["auroc"] is not None:
            aurocs.append(rep["auroc"])
    assert 0.35 <= float(np.mean(aurocs)) <= 0.65


def test_a_one_class_fold_and_fewer_rows_than_folds_score_finite():
    rng = np.random.default_rng(14)
    # a one-class fit keeps a finite intercept at every penalty
    for w, b in heads._fit(rng.normal(size=(4, 3)), np.ones(4), "binary", PENALTIES):
        assert np.isfinite(w).all() and np.isfinite(b)
    # six rows in five folds: the fold holding out the one 0 trains on 1s alone
    x = rng.normal(size=(6, 3))
    y = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    # three rows, fewer than the folds: each fold holds out one row
    for rows, labels, task in ((x, y, "binary"), (x[:3], y[:3], "binary"),
                               (x[:3], y[:3] * 2.5, "regression")):
        head = train_head(rows, labels, HeadConfig(task=task))
        assert np.isfinite(head.weights).all() and np.isfinite(head.intercept)
        assert np.isfinite(head.predict(x)).all()


@pytest.mark.parametrize("task", ["regression", "binary"])
def test_labels_independent_of_the_features_pick_the_intercept_only_probe(task):
    """The infinite penalty wins cross-validation on pure noise more often
    than any finite one, and its probe predicts one constant: the mean
    label, or the sigmoid of the Jeffreys-row logit."""
    picks = []
    for seed in range(20):
        rng = np.random.default_rng([seed, 3])
        x = rng.normal(size=(50, 3))
        y = (rng.normal(size=50) if task == "regression"
             else rng.integers(0, 2, size=50).astype(float))
        head = train_head(x, y, HeadConfig(task=task, seed=seed))
        picks.append(head.penalty)
        if head.penalty == np.inf:
            assert not head.weights.any()
            scores = head.predict(rng.normal(size=(7, 3)))
            if task == "regression":
                assert np.all(scores == y.mean())
            else:
                rate = (y.sum() + 0.5) / (len(y) + 1)
                assert np.allclose(scores, rate, rtol=1e-14, atol=0.0)
    values, counts = np.unique(picks, return_counts=True)
    assert values[np.argmax(counts)] == np.inf


def test_the_infinite_penalty_is_the_limit_of_newton():
    rng = np.random.default_rng(6)
    z = rng.normal(size=(9, 4))
    z -= z.mean(axis=0)
    y = (rng.normal(size=9) > 0.5).astype(float)
    [(w, b)] = heads._fit(z, y, "binary", [np.inf])
    assert not w.any()
    assert b == pytest.approx(heads._newton(z, y, 1e12)[1], abs=1e-9)


def test_a_fold_a_small_penalty_separates_fits_a_finite_probe():
    """30 train videos, each v 20 random values, random classes: with fold
    seed 13 one fold is all but separable at lambda = 1e-3, where full
    Newton steps drove every p(1 - p) to 0 and the solve failed."""
    rng = np.random.default_rng(30)
    x = rng.normal(size=(30, 20)).astype(np.float32).astype(np.float64)
    y = rng.integers(0, 2, size=30).astype(float)
    head = train_head(x, y, HeadConfig(task="binary", seed=13))
    assert np.isfinite(head.weights).all() and np.isfinite(head.intercept)
    # halved steps reach that fold's penalised optimum
    held = np.array_split(np.random.default_rng([13, 31]).permutation(30), heads.FOLDS)[0]
    kept = np.setdiff1d(np.arange(30), held)
    z = (x[kept] - x[kept].mean(axis=0)) / x.std(axis=0)
    w, b = heads._newton(z, y[kept], 1e-3)
    p = heads._sigmoid(z @ w + b)
    assert np.max(np.abs(z.T @ (p - y[kept]) + 1e-3 * w)) < 1e-8


def test_a_penalty_whose_solve_fails_is_not_picked(monkeypatch):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 3))
    y = (x[:, 0] + rng.normal(size=40) > 0).astype(float)
    picked = train_head(x, y, HeadConfig(task="binary")).penalty
    newton = heads._newton

    def failing(z, labels, penalty):
        if penalty == picked:
            raise np.linalg.LinAlgError("Singular matrix")
        return newton(z, labels, penalty)

    monkeypatch.setattr(heads, "_newton", failing)
    head = train_head(x, y, HeadConfig(task="binary"))
    assert head.penalty != picked and head.penalty in PENALTIES
    assert np.isfinite(head.weights).all() and np.isfinite(head.intercept)
