"""Finite-difference verification of the closed-form gradients.

Builds small 64-bit models and compares every gradient the optimization
uses (shared weights, video vector, each frame vector) against central
finite differences of the batch loss. The two routes share only the
forward pass: one runs the hand-written backward of
`model.loss_and_grads`, the other re-evaluates the loss at nudged inputs.
Each trial then checks frames of two pixel runs, whose sums carry from
run to run, along one random unit direction per gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .model import TILE_ROWS, MetaModel, forward_batch, frame_mse, loss_and_grads

# central-difference step and the largest relative error that passes
STEP = 1e-4
TOLERANCE = 1e-4
# the checked network and batch: small enough to difference every weight
LAYERS, HIDDEN, VIDEO_DIM, FRAME_DIM = 2, 8, 8, 4
BATCH, COORDS_PER_FRAME = 2, 6


@dataclass(frozen=True)
class GradCheckResult:
    trials: int
    tolerance: float
    max_rel_err: float
    worst_param: str
    worst_trial: int

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def _loss_value(model, v_arr, phi_arr, coords, targets) -> float:
    return float(np.mean(frame_mse(forward_batch(model, v_arr, phi_arr, coords), targets)))


def _central_diff(f, base: np.ndarray) -> np.ndarray:
    """Central differences of f around base; f gets a fresh nudged copy."""
    grad = np.zeros_like(base)
    flat = grad.reshape(-1)
    for i in range(base.size):
        bump = base.copy()
        bump.reshape(-1)[i] += STEP
        hi = f(bump)
        bump.reshape(-1)[i] -= 2.0 * STEP
        lo = f(bump)
        flat[i] = (hi - lo) / (2.0 * STEP)
    return grad


def _checks(model, v, phis, coords, targets):
    """(name, the loss as a function of one input, that input, its
    closed-form gradient) for the video vector, the frame vectors and
    each parameter."""
    grads = loss_and_grads(model, v, phis, coords, targets, weights=True)
    yield "video_mod", lambda arr: _loss_value(model, arr, phis, coords, targets), v, grads.v
    yield "frame_mods", lambda arr: _loss_value(model, v, arr, coords, targets), phis, grads.phis
    for name, p in model.parameters():
        def loss(arr, name=name):
            return _loss_value(model.replace_params({name: arr}), v, phis, coords, targets)
        yield name, loss, p, grads.weights[name]


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def run_gradcheck(trials: int) -> GradCheckResult:
    if trials < 1:
        raise ContractError(f"gradcheck needs at least one trial, got {trials}")
    worst, worst_param, worst_trial = 0.0, "", -1

    def note(err: float, param: str, trial: int):
        nonlocal worst, worst_param, worst_trial
        if err > worst:
            worst, worst_param, worst_trial = err, param, trial

    for trial in range(trials):
        rng = np.random.default_rng([trial, 5])
        model = MetaModel.initialize(layers=LAYERS, hidden=HIDDEN,
                                     video_dim=VIDEO_DIM, frame_dim=FRAME_DIM,
                                     omega0=30.0, dtype=np.float64, rng=rng)
        coords = rng.uniform(-1.0, 1.0, size=(COORDS_PER_FRAME, 2))
        targets = rng.uniform(0.0, 1.0, size=(BATCH, COORDS_PER_FRAME))
        v = rng.normal(scale=0.05, size=VIDEO_DIM)
        phis = rng.normal(scale=0.05, size=(BATCH, FRAME_DIM))

        for name, f, base, grad in _checks(model, v, phis, coords, targets):
            note(_rel_err(grad, _central_diff(f, base)), name, trial)
        # frames of two pixel runs, each gradient along a random unit direction
        coords = rng.uniform(-1.0, 1.0, size=(TILE_ROWS + COORDS_PER_FRAME, 2))
        targets = rng.uniform(0.0, 1.0, size=(BATCH, len(coords)))
        for name, f, base, grad in _checks(model, v, phis, coords, targets):
            d = rng.normal(size=base.shape)
            d /= np.linalg.norm(d)
            numeric = (f(base + STEP * d) - f(base - STEP * d)) / (2.0 * STEP)
            note(_rel_err(np.sum(grad * d), numeric), f"{name} over 2 runs", trial)
    return GradCheckResult(trials=trials, tolerance=TOLERANCE, max_rel_err=worst,
                           worst_param=worst_param, worst_trial=worst_trial)
