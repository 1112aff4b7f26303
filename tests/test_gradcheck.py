"""`run_gradcheck` checks frames of two pixel runs as well as one."""

from vfuncta import gradcheck
from vfuncta.model import TILE_ROWS, loss_and_grads


def test_a_gradient_wrong_only_over_several_runs_fails_the_check(monkeypatch):
    def skewed(model, v, phis, coords, targets, *, weights=False):
        grads = loss_and_grads(model, v, phis, coords, targets, weights=weights)
        if len(coords) > TILE_ROWS:
            for g in grads.weights.values():
                g *= 1.01
        return grads

    assert gradcheck.run_gradcheck(2).passed
    monkeypatch.setattr(gradcheck, "loss_and_grads", skewed)
    result = gradcheck.run_gradcheck(2)
    assert not result.passed
    assert result.worst_param.endswith(" over 2 runs")
