"""Linear probes on modulation vectors (Alain and Bengio 2016).

A video's feature vector is its video vector, the temporal mean of its
frame vectors, or both, standardised by the train split's statistics. A
probe is ridge regression on centred targets, or L2-penalised logistic
regression by Newton-IRLS. Its penalty is the one in `PENALTIES` with
the least `FOLDS`-fold cross-validated squared error or log-loss on the
train split, the folds shuffled by the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import VideoEncoding
from .errors import ContractError, NonFiniteError
from .metrics import classification_metrics, regression_metrics

MODES = ("v", "phi", "combined")
TASKS = ("regression", "binary")
# half a decade apart, and infinity: the intercept-only probe
PENALTIES = np.r_[np.logspace(-3, 4, 15), np.inf]
FOLDS = 5
# Newton-IRLS stops once no coefficient moves by more than the tolerance
NEWTON_STEPS, NEWTON_TOL = 50, 1e-10


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
class Probe:
    """A fitted probe of `task`: weights and intercept on standardised
    features, the standardisation, and the penalty that cross-validation
    chose."""

    weights: np.ndarray
    intercept: float
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    penalty: float
    task: str

    def predict(self, features) -> np.ndarray:
        """Scores per row: probabilities for binary, values for regression."""
        x = np.atleast_2d(np.asarray(features, dtype=np.float64))
        z = (x - self.feature_mean) / self.feature_scale @ self.weights + self.intercept
        return _sigmoid(z) if self.task == "binary" else z


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _newton(z: np.ndarray, y: np.ndarray, penalty: float):
    """Logistic regression of 0/1 labels `y` on centred rows `z`, its
    weights under the L2 `penalty`, by Newton-IRLS; returns (weights,
    intercept). The intercept is not penalised, but it sees one more row,
    at the rows' mean with label 1/2 (the Jeffreys prior), so a one-class
    fit keeps it finite. A step that would raise the penalised log-loss
    is halved until it does not: on rows a small penalty all but
    separates, full steps overshoot until every p(1 - p) is 0 and the
    Hessian is singular."""
    a = np.vstack([np.c_[np.ones(len(z)), z], np.eye(1, z.shape[1] + 1)])
    y = np.append(y, 0.5)
    ridge = np.diag(np.r_[0.0, np.full(z.shape[1], penalty)])

    def loss(theta):
        logits = a @ theta
        return np.sum(np.logaddexp(0.0, logits) - y * logits) + theta @ ridge @ theta / 2

    theta = np.zeros(a.shape[1])
    for _ in range(NEWTON_STEPS):
        p = _sigmoid(a @ theta)
        step = np.linalg.solve((a.T * (p * (1.0 - p))) @ a + ridge, a.T @ (p - y) + ridge @ theta)
        current = loss(theta)
        while loss(theta - step) > current and np.max(np.abs(step)) > NEWTON_TOL:
            step /= 2
        theta -= step
        if np.max(np.abs(step)) <= NEWTON_TOL:
            break
    return theta[1:], theta[0]


def _fit(x: np.ndarray, y: np.ndarray, task: str, penalties):
    """(weights, intercept) of the probe on (m, d) rows `x` under each
    penalty. Under an L2 penalty the weights lie in the span of the
    centred rows, so each fit solves for at most m coefficients in the
    basis of their one SVD, however wide the features. An infinite
    penalty gives zero weights and the intercept in closed form: ridge's
    mean label, or the logit of (sum(y) + 1/2) / (m + 1), where Newton's
    Jeffreys row puts it. A Newton fit whose solve fails gives None."""
    centre = x.mean(axis=0)
    u, s, vt = np.linalg.svd(x - centre, full_matrices=False)
    for lam in penalties:
        if task == "regression":
            beta, b = s / (s**2 + lam) * (u.T @ (y - y.mean())), y.mean()
        elif lam == np.inf:
            beta, b = np.zeros_like(s), np.log((y.sum() + 0.5) / (len(y) - y.sum() + 0.5))
        else:
            try:
                beta, b = _newton(u * s, y, lam)
            except np.linalg.LinAlgError:
                yield None
                continue
        w = vt.T @ beta
        yield w, float(b - centre @ w)


def train_head(features, labels, task: str, seed: int) -> Probe:
    """Fit a probe of `task` to (n, d) features, its penalty
    cross-validated on these rows alone, in folds shuffled by `seed`."""
    if task not in TASKS:
        raise ContractError(f"task must be one of {TASKS}, got {task!r}")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ContractError(f"features {x.shape} do not match {y.shape[0]} labels")
    n = x.shape[0]
    if n < 2:
        raise ContractError("need at least two samples")
    if task == "binary":
        if not np.isin(y, (0.0, 1.0)).all():
            raise ContractError("binary task labels must be 0/1")
        if y.min() == y.max():
            raise ContractError("binary task needs both classes in the training set")

    mean, scale = x.mean(axis=0), np.maximum(x.std(axis=0), 1e-8)
    xs = (x - mean) / scale
    order = np.random.default_rng([seed, 31]).permutation(n)
    cv_loss = np.zeros(len(PENALTIES))
    for held in np.array_split(order, min(FOLDS, n)):
        kept = np.setdiff1d(order, held)
        for i, fit in enumerate(_fit(xs[kept], y[kept], task, PENALTIES)):
            if fit is None:
                cv_loss[i] = np.inf
                continue
            z = xs[held] @ fit[0] + fit[1]
            # squared error, or the log-loss of the logits z
            cv_loss[i] += np.sum((z - y[held]) ** 2 if task == "regression"
                                 else np.logaddexp(0.0, z) - y[held] * z)
    # the least loss whose fit to every row solves; an infinite penalty always does
    for penalty in PENALTIES[np.argsort(cv_loss, kind="stable")]:
        [fit] = _fit(xs, y, task, [penalty])
        if fit is not None:
            return Probe(*fit, mean, scale, float(penalty), task)


def evaluate_head(head: Probe, features, labels):
    """Score a probe on labeled features, refusing scores that are not
    finite; finite scores too large to square give infinite errors."""
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = head.predict(features)
        if not np.isfinite(scores).all():
            raise NonFiniteError("head prediction")
        if head.task == "regression":
            return regression_metrics(scores, y)
    return classification_metrics(scores, y.astype(np.int64))
