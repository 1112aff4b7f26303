"""Finite-difference verification of the closed-form gradients.

Builds small 64-bit models and compares every gradient the optimization
uses (shared weights, video vector, each frame vector) against central
finite differences of the batch loss. The two routes share only the
forward pass: one runs the hand-written backward of
`model.loss_and_grads`, the other re-evaluates the loss at nudged inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .model import MetaModel, forward_batch, frame_mse, loss_and_grads
from .tensor import Tensor

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

        grads = loss_and_grads(model, v, phis, coords, targets, weights=True)

        numeric_v = _central_diff(
            lambda arr: _loss_value(model, arr, phis, coords, targets), v)
        note(_rel_err(grads.v, numeric_v), "video_mod", trial)

        numeric_phi = _central_diff(
            lambda arr: _loss_value(model, v, arr, coords, targets), phis)
        for t in range(BATCH):
            note(_rel_err(grads.phis[t], numeric_phi[t]), f"frame_mod[{t}]", trial)

        for name, p in model.parameters():
            numeric = _central_diff(
                lambda arr: _loss_value(model.replace_params({name: Tensor(arr)}),
                                        v, phis, coords, targets),
                p.data)
            note(_rel_err(grads.weights[name], numeric), name, trial)
    return GradCheckResult(trials=trials, tolerance=TOLERANCE, max_rel_err=worst,
                           worst_param=worst_param, worst_trial=worst_trial)
