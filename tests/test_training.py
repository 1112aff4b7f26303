"""Inner/outer loop contracts: zero-step identities, determinism,
frozen-weight discipline, loss descent, two-point step sizes, and
checkpoint resume."""

import numpy as np
import pytest

from vfuncta import training
from vfuncta.container import load_model, save_model
from vfuncta.data import SynthSpec, VideoTensor, gen_synthetic
from vfuncta.errors import ContractError, DataError, DivergenceError
from vfuncta.model import MetaModel, forward_batch, grid_coords, loss_and_grads
from vfuncta.training import (
    _STREAM_SHUFFLE, TrainConfig, adapt, meta_step, train, two_point_rate)


def tiny_cfg(**overrides):
    base = dict(batch_frames=3, coords_per_frame=16, layers=2, hidden=8,
                video_dim=8, frame_dim=4, inner_steps=10, inner_lr=0.1,
                meta_lr=1e-4, iterations=5, omega0=30.0, seed=11,
                precision="float64")
    base.update(overrides)
    return TrainConfig(**base)


def constant_video(value=0.4, dims=(4, 6, 6)):
    return VideoTensor(np.full(dims, value, dtype=np.float32))


def full_grid_batch(video, cfg):
    """(targets, coords) of the first batch_frames frames on the full grid."""
    t, h, w = video.dims
    flat = video.values.reshape(t, -1)
    return flat[: cfg.batch_frames].astype(np.float64), grid_coords(h, w)


def adapt_batch(model, batch, cfg, steps=None):
    """The inner loop on one (targets, coords) batch; returns (v, phis,
    per-step losses)."""
    targets, coords = batch
    return adapt(model, targets, coords,
                 steps=cfg.inner_steps if steps is None else steps,
                 inner_lr=cfg.inner_lr)


def test_config_validation():
    with pytest.raises(ContractError):
        tiny_cfg(batch_frames=0)
    with pytest.raises(ContractError):
        tiny_cfg(inner_lr=-0.1)
    with pytest.raises(ContractError):
        tiny_cfg(precision="float16")


def test_zero_inner_steps_returns_zero_modulations():
    cfg = tiny_cfg(inner_steps=0)
    model = cfg.new_model()
    v, phis, losses = adapt_batch(model, full_grid_batch(constant_video(), cfg), cfg)
    assert np.array_equal(v, np.zeros(8))
    assert np.array_equal(phis, np.zeros((3, 4)))
    assert losses == []


def test_modulations_stay_zero_at_optimum():
    cfg = tiny_cfg()
    model = cfg.new_model()
    coords = grid_coords(5, 5)
    base = forward_batch(model, np.zeros(8), np.zeros((1, 4)), coords)[0]
    batch = np.tile(base, (cfg.batch_frames, 1)), coords
    v, phis, losses = adapt_batch(model, batch, cfg)
    assert np.linalg.norm(v) < 1e-6
    assert np.linalg.norm(phis) < 1e-6
    assert len(losses) == cfg.inner_steps and max(losses) < 1e-12


def test_inner_loop_reduces_loss_on_constant_video():
    cfg = tiny_cfg()
    model = cfg.new_model()
    batch = full_grid_batch(constant_video(0.7), cfg)
    # the 64-bit trajectory must decrease overall, not just at the ends
    _, _, history = adapt_batch(model, batch, cfg)
    assert history[-1] < history[0]
    # one more step scores the modulations the ten steps ended at
    _, _, longer = adapt_batch(model, batch, cfg, steps=cfg.inner_steps + 1)
    assert longer[:-1] == history
    assert longer[-1] <= history[0]


def test_zero_inner_lr_keeps_modulations_zero():
    cfg = tiny_cfg(inner_lr=0.0)
    model = cfg.new_model()
    v, phis, _ = adapt_batch(model, full_grid_batch(constant_video(), cfg), cfg)
    assert np.array_equal(v, np.zeros(8))
    assert np.array_equal(phis, np.zeros((3, 4)))


def test_inner_loop_does_not_touch_weights():
    cfg = tiny_cfg()
    model = cfg.new_model()
    before = [p.copy() for _, p in model.parameters()]
    adapt_batch(model, full_grid_batch(constant_video(), cfg), cfg)
    for (_, p), old in zip(model.parameters(), before):
        assert np.array_equal(p, old)


def toy_window(dtype=np.float64, seed=3):
    """A one-layer model of width 4 and a window of three 3x3 frames."""
    rng = np.random.default_rng(seed)
    model = MetaModel.initialize(layers=1, hidden=4, video_dim=3, frame_dim=2, dtype=dtype,
                                 rng=rng)
    return model, rng.uniform(0, 1, size=(3, 9)).astype(dtype), grid_coords(3, 3)


def joint_point_and_gradient(window, v, phis, adapt_v=True):
    """The joint (phis, v) vector and its gradient, the frames' part taken
    per frame; without `adapt_v`, phis alone."""
    model, targets, coords = window
    g = loss_and_grads(model, v, phis, coords, targets)
    keep = slice(None) if adapt_v else slice(phis.size)
    return (np.concatenate([phis.ravel(), v])[keep],
            np.concatenate([len(phis) * g.phis.ravel(), g.v])[keep])


def second_step(window, lr, v=None):
    """(x1, g1, x2, history): the point after one two-point step, its
    gradient, and the point after two."""
    model, targets, coords = window
    v1, phis1, _ = adapt(model, targets, coords, steps=1, inner_lr=lr, v=v, two_point=True)
    v2, phis2, history = adapt(model, targets, coords, steps=2, inner_lr=lr, v=v,
                               two_point=True)
    x1, g1 = joint_point_and_gradient(window, v1, phis1, adapt_v=v is None)
    x2, _ = joint_point_and_gradient(window, v2, phis2, adapt_v=v is None)
    return x1, g1, x2, history


def hand_rate(window, x1, g1, v=None):
    """s.s / s.y between the zero start and x1, worked out by hand."""
    v0 = np.zeros(3) if v is None else v
    x0, g0 = joint_point_and_gradient(window, v0, np.zeros((3, 2)), adapt_v=v is None)
    s, y = x1 - x0, g1 - g0
    return float(s @ s) / float(s @ y)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("frozen_v", [False, True])
def test_the_first_two_point_step_is_the_plain_step_bit_for_bit(dtype, frozen_v):
    model, targets, coords = toy_window(dtype)
    v0 = np.linspace(-0.2, 0.2, 3).astype(dtype) if frozen_v else None
    lr = 0.1
    got = adapt(model, targets, coords, steps=1, inner_lr=lr, v=v0, two_point=True)
    g = loss_and_grads(model, np.zeros(3, dtype) if v0 is None else v0,
                       np.zeros((3, 2), dtype), coords, targets)
    want_phis = np.zeros((3, 2), dtype) - (lr * 3) * g.phis
    want_v = v0 if frozen_v else np.zeros(3, dtype) - lr * g.v
    assert np.array_equal(got[1], want_phis) and np.array_equal(got[0], want_v)
    plain = adapt(model, targets, coords, steps=1, inner_lr=lr, v=v0)
    assert all(np.array_equal(a, b) for a, b in zip(got[:2], plain[:2])) and got[2] == plain[2]


def test_the_second_step_takes_the_rate_of_the_two_recorded_points():
    window = toy_window()
    x1, g1, x2, history = second_step(window, lr=0.1)
    rate = hand_rate(window, x1, g1)
    assert history[1] < history[0] and 0.01 < rate < 1.0  # inside the clip
    np.testing.assert_allclose(x2, x1 - rate * g1, rtol=1e-12, atol=1e-15)
    # not the plain step
    assert not np.allclose(x2, x1 - 0.1 * g1)


def test_a_frozen_v_window_takes_its_rate_from_the_frame_vectors_alone():
    window = toy_window()
    v0 = np.array([0.3, -0.1, 0.2])
    x1, g1, x2, history = second_step(window, lr=0.1, v=v0)
    rate = hand_rate(window, x1, g1, v=v0)
    assert history[1] < history[0] and 0.01 < rate < 1.0
    np.testing.assert_allclose(x2, x1 - rate * g1, rtol=1e-12, atol=1e-15)
    # a rate over a move that counted v's gradient would step elsewhere
    g0 = joint_point_and_gradient(window, v0, np.zeros((3, 2)))[1]
    s = -0.1 * g0
    y = joint_point_and_gradient(window, v0, x1.reshape(3, 2))[1] - g0
    assert not np.isclose(float(s @ s) / float(s @ y), rate)


def test_a_two_point_rate_past_ten_times_the_inner_rate_is_clipped():
    window = toy_window()
    x1, g1, x2, history = second_step(window, lr=0.01)
    assert history[1] < history[0] and hand_rate(window, x1, g1) > 0.1
    np.testing.assert_allclose(x2, x1 - 0.1 * g1, rtol=1e-12, atol=1e-15)


def test_a_step_after_a_loss_increase_takes_the_inner_rate():
    window = toy_window()
    x1, g1, x2, history = second_step(window, lr=1.0)
    assert history[1] > history[0] and not np.isclose(hand_rate(window, x1, g1), 1.0)
    np.testing.assert_allclose(x2, x1 - 1.0 * g1, rtol=1e-12, atol=1e-15)


def test_two_point_rate_clips_and_falls_back():
    s = np.array([1.0, 2.0])
    assert two_point_rate(s, 4 * s, 1.0) == 0.25
    assert two_point_rate(s, 100 * s, 1.0) == 0.1      # 0.01, clipped at 0.1x
    assert two_point_rate(s, 0.01 * s, 0.5) == 5.0     # 100, clipped at 10x
    assert two_point_rate(s, -s, 0.5) == 0.5           # negative curvature
    assert two_point_rate(s, np.array([2.0, -1.0]), 0.5) == 0.5  # s.y == 0
    assert two_point_rate(np.zeros(2), np.zeros(2), 0.5) == 0.5  # no move


def test_zero_meta_lr_keeps_weights_bit_exact():
    cfg = tiny_cfg(meta_lr=0.0)
    model = cfg.new_model()
    updated, _ = meta_step(model, constant_video(), cfg, np.random.default_rng(0))
    for (_, p), (_, q) in zip(model.parameters(), updated.parameters()):
        assert np.array_equal(p, q)
    assert updated.iteration == model.iteration + 1


def test_meta_step_deterministic():
    cfg = tiny_cfg()
    video = constant_video()
    m1, loss1 = meta_step(cfg.new_model(), video, cfg, np.random.default_rng(42))
    m2, loss2 = meta_step(cfg.new_model(), video, cfg, np.random.default_rng(42))
    assert loss1 == loss2
    for (_, p), (_, q) in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(p, q)


def test_a_non_finite_weight_update_names_its_parameter(monkeypatch):
    real = training.loss_and_grads

    def huge_bias_gradient(*args, **kwargs):
        grads = real(*args, **kwargs)
        if grads.weights is not None:
            grads.weights["layer1.bias"][:] = 1e308
        return grads

    monkeypatch.setattr(training, "loss_and_grads", huge_bias_gradient)
    cfg = tiny_cfg(meta_lr=10.0)
    with pytest.raises(DivergenceError, match="non-finite weights in layer1.bias at step 10"):
        meta_step(cfg.new_model(), constant_video(), cfg, np.random.default_rng(0))


def test_short_video_sampled_with_replacement():
    cfg = tiny_cfg(batch_frames=6)
    video = constant_video(dims=(2, 6, 6))
    model = cfg.new_model()
    updated, loss = meta_step(model, video, cfg, np.random.default_rng(1))
    assert np.isfinite(loss)
    assert updated.iteration == 1


def test_divergence_error_carries_context():
    cfg = tiny_cfg()
    model = cfg.new_model()
    huge = {"out.weight": np.full((8, 1), 1e200)}
    broken = model.replace_params(huge)
    with pytest.raises(DivergenceError) as exc:
        adapt_batch(broken, full_grid_batch(constant_video(), cfg), cfg)
    assert exc.value.step == 0


def test_non_finite_gradient_in_inner_loop_names_the_step():
    # a zero last layer keeps every prediction at the output bias, so the
    # loss stays finite while the huge output weight overflows the gradients
    cfg = tiny_cfg()
    model = cfg.new_model()
    zero = {name: np.zeros(p.shape) for name, p in model.parameters()
            if name.endswith("1.weight") or name.endswith("1.bias")
            or name in ("video_proj1", "frame_proj1")}
    broken = model.replace_params({**zero, "out.weight": np.full((8, 1), 1e308)})
    with pytest.raises(DivergenceError) as exc:
        adapt_batch(broken, full_grid_batch(constant_video(), cfg), cfg)
    assert exc.value.step == 0
    assert exc.value.loss_history == []
    assert exc.value.__cause__.op.endswith("gradient")


def test_outer_divergence_keeps_the_inner_history():
    # inner_lr * b overflows to inf, so the one inner step succeeds and the
    # outer loss at the adapted modulations is not finite
    cfg = tiny_cfg(inner_steps=1, inner_lr=1e308)
    with pytest.raises(DivergenceError) as exc:
        meta_step(cfg.new_model(), constant_video(), cfg, np.random.default_rng(0))
    assert exc.value.step == cfg.inner_steps
    assert len(exc.value.loss_history) == 1
    assert np.isfinite(exc.value.loss_history[0])


def test_train_zero_iterations_returns_fresh_model():
    cfg = tiny_cfg(iterations=0)
    model, log = train([constant_video()], cfg)
    fresh = cfg.new_model()
    assert log.entries == []
    for (_, p), (_, q) in zip(model.parameters(), fresh.parameters()):
        assert np.array_equal(p, q)


def test_train_empty_dataset_rejected():
    with pytest.raises(ContractError):
        train([], tiny_cfg())


def test_the_iteration_that_draws_an_unreadable_video_raises_its_data_error(tmp_path):
    cfg = tiny_cfg(iterations=2)
    bad = tmp_path / "missing.rawvid"
    # the seed and the iteration alone pick the item; in this order
    # iteration 0 draws the readable video and iteration 1 the missing one
    items = [bad, constant_video()]
    first = np.random.default_rng([cfg.seed, _STREAM_SHUFFLE, 0]).permutation(2)[0]
    if first == 0:
        items.reverse()
    _, log = train(items, tiny_cfg(iterations=1))
    assert len(log.entries) == 1
    with pytest.raises(DataError, match="missing.rawvid"):
        train(items, cfg)


def test_train_log_keeps_each_checkpoints_checksum(tmp_path):
    _, log = train([constant_video()], tiny_cfg(iterations=5, precision="float32"),
                   checkpoint_dir=tmp_path, checkpoint_every=2)
    paths = [tmp_path / f"checkpoint_{i:08d}.vfnc" for i in (2, 4)]
    assert list(log.checkpoints) == paths
    for path in paths:
        assert log.checkpoints[path] == load_model(path).checksum


def test_training_loss_decreases_on_synthetic_corpus():
    cfg = TrainConfig(batch_frames=4, coords_per_frame=64, layers=3, hidden=24,
                      video_dim=16, frame_dim=8, inner_steps=3, inner_lr=0.1,
                      meta_lr=2e-6, iterations=120, omega0=30.0, seed=3,
                      precision="float32")
    videos = [gen_synthetic(SynthSpec(frames=4, height=12, width=12,
                                      background_seed=i, speed=1.0),
                            np.random.default_rng(i))[0]
              for i in range(4)]
    _, log = train(videos, cfg)
    losses = np.array([e.loss for e in log.entries])
    head = np.median(losses[: max(1, len(losses) // 10)])
    tail = np.median(losses[-max(1, len(losses) // 10):])
    assert tail < head


def test_resume_equals_uninterrupted_run(tmp_path):
    cfg = tiny_cfg(iterations=9, meta_lr=1e-5, precision="float32")
    videos = [constant_video(0.3), constant_video(0.6)]

    straight, straight_log = train(videos, cfg)
    _, _ = train(videos, cfg, checkpoint_dir=tmp_path, checkpoint_every=4)
    ckpt = load_model(tmp_path / "checkpoint_00000004.vfnc")
    assert ckpt.iteration == 4
    resumed, resumed_log = train(videos, cfg, resume=ckpt)

    for (_, p), (_, q) in zip(straight.parameters(), resumed.parameters()):
        assert np.array_equal(p, q)
    straight_tail = [e.loss for e in straight_log.entries[4:]]
    resumed_losses = [e.loss for e in resumed_log.entries]
    assert straight_tail == resumed_losses


def test_checkpoint_round_trip_preserves_model(tmp_path):
    cfg = tiny_cfg(iterations=3, precision="float32")
    model, _ = train([constant_video()], cfg)
    save_model(tmp_path / "m.vfnc", model)
    loaded = load_model(tmp_path / "m.vfnc")
    assert loaded.iteration == 3
    for (_, p), (_, q) in zip(model.parameters(), loaded.parameters()):
        assert np.array_equal(p, q)
