"""Finite-difference verification of the reverse-mode gradients.

Builds small 64-bit models and compares every gradient the optimization
uses (shared weights, video vector, each frame vector) against central
finite differences of the batch loss. The two routes share no code: one
replays the recorded graph, the other re-evaluates the loss at nudged
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tg
from .errors import ContractError
from .model import MetaModel, forward_batch, loss_mse_frame
from .tensor import Tensor, backward


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
    pred = forward_batch(model, Tensor(v_arr), Tensor(phi_arr), coords,
                         coords.shape[0] // phi_arr.shape[0])
    return loss_mse_frame(tg.reshape(pred, (pred.shape[0],)), Tensor(targets)).item()


def _central_diff(f, base: np.ndarray, step: float) -> np.ndarray:
    """Central differences of f around base; f gets a fresh nudged copy."""
    grad = np.zeros_like(base)
    flat = grad.reshape(-1)
    for i in range(base.size):
        bump = base.copy()
        bump.reshape(-1)[i] += step
        hi = f(bump)
        bump.reshape(-1)[i] -= 2.0 * step
        lo = f(bump)
        flat[i] = (hi - lo) / (2.0 * step)
    return grad


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def run_gradcheck(trials: int = 100, step: float = 1e-4, tolerance: float = 1e-4,
                  layers: int = 2, hidden: int = 8, video_dim: int = 8,
                  frame_dim: int = 4, batch: int = 2, coords_per_frame: int = 6,
                  on_trial=None) -> GradCheckResult:
    if trials < 1:
        raise ContractError(f"gradcheck needs at least one trial, got {trials}")
    worst, worst_param, worst_trial = 0.0, "", -1

    def note(err: float, param: str, trial: int):
        nonlocal worst, worst_param, worst_trial
        if err > worst:
            worst, worst_param, worst_trial = err, param, trial

    for trial in range(trials):
        rng = np.random.default_rng([trial, 5])
        model = MetaModel.initialize(layers=layers, hidden=hidden,
                                     video_dim=video_dim, frame_dim=frame_dim,
                                     omega0=30.0, dtype=np.float64, rng=rng)
        coords = rng.uniform(-1.0, 1.0, size=(batch * coords_per_frame, 2))
        targets = rng.uniform(0.0, 1.0, size=batch * coords_per_frame)
        v = rng.normal(scale=0.05, size=video_dim)
        phis = rng.normal(scale=0.05, size=(batch, frame_dim))

        v_t, phi_t = Tensor(v), Tensor(phis)
        pred = forward_batch(model, v_t, phi_t, coords, coords_per_frame)
        loss = loss_mse_frame(tg.reshape(pred, (pred.shape[0],)), Tensor(targets))
        named = model.parameters()
        grads = backward(loss, [v_t, phi_t] + [p for _, p in named])

        numeric_v = _central_diff(
            lambda arr: _loss_value(model, arr, phis, coords, targets), v, step)
        note(_rel_err(grads[v_t].data, numeric_v), "video_mod", trial)

        numeric_phi = _central_diff(
            lambda arr: _loss_value(model, v, arr, coords, targets), phis, step)
        for t in range(batch):
            note(_rel_err(grads[phi_t].data[t], numeric_phi[t]), f"frame_mod[{t}]", trial)

        for name, p in named:
            numeric = _central_diff(
                lambda arr: _loss_value(model.replace_params({name: Tensor(arr)}),
                                        v, phis, coords, targets),
                p.data, step)
            note(_rel_err(grads[p].data, numeric), name, trial)
        if on_trial is not None:
            on_trial(trial, worst)
    return GradCheckResult(trials=trials, tolerance=tolerance, max_rel_err=worst,
                           worst_param=worst_param, worst_trial=worst_trial)
