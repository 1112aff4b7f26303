"""Network-level checks: forward semantics against a loop-based oracle,
modulation neutrality and locality, coordinate handling, loss values and
gradients."""

import math
import re

import numpy as np
import pytest

from helpers import finite_diff, rel_err

from vfuncta import tensor
from vfuncta.errors import ContractError, NonFiniteError, ShapeError
from vfuncta.model import (
    MetaModel,
    forward_batch,
    grid_coords,
    loss_and_grads,
    param_shapes,
    sample_coords,
)
from vfuncta.tensor import Tensor


def tiny_model(seed=0, dtype=np.float64, layers=2, hidden=8, video_dim=8, frame_dim=4):
    return MetaModel.initialize(layers=layers, hidden=hidden, video_dim=video_dim,
                                frame_dim=frame_dim, omega0=30.0, dtype=dtype,
                                rng=np.random.default_rng([seed, 0]))


def pure_python_forward(model, v, phi, xy):
    """Straight-line scalar re-implementation of the layer rule."""
    h = [float(xy[0]), float(xy[1])]
    for k in range(model.layers):
        w = model.layer_weights[k].data
        b = model.layer_biases[k].data
        p2 = model.video_projs[k].data
        p1 = model.frame_projs[k].data
        nxt = []
        for j in range(model.hidden):
            acc = float(b[j])
            for i in range(len(h)):
                acc += h[i] * float(w[i, j])
            for i in range(model.video_dim):
                acc += float(v[i]) * float(p2[i, j])
            for i in range(model.frame_dim):
                acc += float(phi[i]) * float(p1[i, j])
            nxt.append(math.sin(model.omega0 * acc))
        h = nxt
    out = float(model.out_bias.data[0])
    for j in range(model.hidden):
        out += h[j] * float(model.out_weight.data[j, 0])
    return out


# --- the parameter table -------------------------------------------------------

def test_parameters_follow_the_table():
    m = tiny_model(layers=3, hidden=5, video_dim=6, frame_dim=4)
    table = param_shapes(layers=3, hidden=5, video_dim=6, frame_dim=4)
    assert [name for name, _ in m.parameters()] == list(table)
    assert [p.shape for _, p in m.parameters()] == list(table.values())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_initialize_hands_every_parameter_over_without_a_copy(monkeypatch, dtype):
    frozen = []

    def recording_tensor(data, name):
        frozen.append(tensor._frozen(data))
        return Tensor(data, name)

    monkeypatch.setattr("vfuncta.model.Tensor", recording_tensor)
    initialized = tiny_model(dtype=dtype)
    assert frozen == [True] * len(initialized.parameters())
    assert initialized.dtype == dtype


def test_replace_params_names_a_wrong_shape():
    m = tiny_model()
    with pytest.raises(ShapeError, match="layer1.weight"):
        m.replace_params({"layer1.weight": np.zeros((8, 7))})


def test_a_non_finite_parameter_is_refused_by_its_name():
    bias = np.zeros(8)
    bias[3] = np.nan
    with pytest.raises(NonFiniteError, match=r"'layer1\.bias'"):
        tiny_model().replace_params({"layer1.bias": bias})


def test_replace_params_rejects_an_unknown_name():
    m = tiny_model()
    with pytest.raises(ShapeError, match="layer9.weight"):
        m.replace_params({"layer9.weight": np.zeros((8, 8))})


def test_a_missing_parameter_is_named():
    params = dict(tiny_model().parameters())
    del params["frame_proj1"]
    with pytest.raises(ShapeError, match="frame_proj1"):
        MetaModel(params, omega0=30.0)


@pytest.mark.parametrize("name", ["layer0.weight", "video_proj0", "frame_proj0"])
def test_a_missing_parameter_that_gives_a_size_is_named(name):
    params = dict(tiny_model().parameters())
    del params[name]
    with pytest.raises(ShapeError, match=f"missing parameter.*{name}"):
        MetaModel(params, omega0=30.0)


def test_a_one_unit_model_is_refused_before_its_first_draw():
    class NoDraws:
        def uniform(self, *args, **kwargs):
            raise AssertionError("a value was drawn")

    with pytest.raises(ContractError, match="hidden must be >= 2, got 1"):
        MetaModel.initialize(layers=2, hidden=1, video_dim=3, frame_dim=3, rng=NoDraws())


# --- forward semantics --------------------------------------------------------

@pytest.mark.parametrize("omega0", [0.0, -1.0, math.nan, math.inf])
def test_omega0_must_be_finite_and_positive(omega0):
    params = dict(tiny_model().parameters())
    with pytest.raises(ContractError, match="omega0"):
        MetaModel(params, omega0=omega0)


def test_all_zero_model_outputs_zero():
    m = tiny_model()
    zeroed = m.replace_params({name: np.zeros(p.shape)
                               for name, p in m.parameters()})
    out = forward_batch(zeroed, np.zeros(8), np.zeros((1, 4)), grid_coords(4, 4))[0]
    assert np.array_equal(out, np.zeros(16))


def test_forward_matches_pure_python_oracle():
    m = tiny_model(seed=7)
    v = np.zeros(8)
    phi = np.zeros(4)
    xy = np.array([[0.3, -0.7]])
    got = forward_batch(m, v, phi[None], xy).item()
    want = pure_python_forward(m, v, phi, xy[0])
    assert got == pytest.approx(want, abs=1e-6)


def test_forward_matches_oracle_with_modulations():
    m = tiny_model(seed=3)
    rng = np.random.default_rng(11)
    v = rng.normal(scale=0.1, size=8)
    phi = rng.normal(scale=0.1, size=4)
    for xy in ([-1.0, -1.0], [0.0, 0.25], [1.0, 1.0]):
        got = forward_batch(m, v, phi[None], np.array([xy])).item()
        want = pure_python_forward(m, v, phi, xy)
        assert got == pytest.approx(want, abs=1e-6)


def test_equal_frame_modulations_give_identical_outputs():
    m = tiny_model(seed=5)
    rng = np.random.default_rng(0)
    v = rng.normal(scale=0.1, size=8)
    phi = rng.normal(scale=0.1, size=4)
    coords = grid_coords(6, 5)
    out1 = forward_batch(m, v, phi[None], coords)[0]
    out2 = forward_batch(m, v, phi.copy()[None], coords)[0]
    assert np.array_equal(out1, out2)


def test_zero_modulation_equals_unmodulated_network():
    m = tiny_model(seed=9)
    coords = grid_coords(3, 3)
    modulated = forward_batch(m, np.zeros(8), np.zeros((1, 4)), coords)[0]

    h = coords.astype(np.float64)
    for k in range(m.layers):
        h = np.sin(m.omega0 * (h @ m.layer_weights[k].data + m.layer_biases[k].data))
    bare = (h @ m.out_weight.data + m.out_bias.data).reshape(-1)
    assert np.allclose(modulated, bare, atol=1e-12)


def test_changing_one_frame_modulation_only_touches_that_frame():
    m = tiny_model(seed=2)
    rng = np.random.default_rng(4)
    coords = grid_coords(4, 4)
    b = 3
    v = rng.normal(scale=0.1, size=8)
    phis = rng.normal(scale=0.1, size=(b, 4))
    base = forward_batch(m, v, phis, coords)

    bumped = phis.copy()
    bumped[1] += 0.05
    out = forward_batch(m, v, bumped, coords)
    assert np.array_equal(base[0], out[0])
    assert np.array_equal(base[2], out[2])
    assert not np.array_equal(base[1], out[1])


def test_modulation_length_mismatch_raises():
    m = tiny_model()
    with pytest.raises(ShapeError):
        forward_batch(m, np.zeros(7), np.zeros((1, 4)), grid_coords(2, 2))
    with pytest.raises(ShapeError):
        forward_batch(m, np.zeros(8), np.zeros((1, 5)), grid_coords(2, 2))


# --- loss ---------------------------------------------------------------------

def loss_case(b=1, n=3):
    m = tiny_model(seed=13)
    rng = np.random.default_rng(5)
    coords = rng.uniform(-1, 1, size=(n, 2))
    v = rng.normal(scale=0.1, size=8)
    phis = rng.normal(scale=0.1, size=(b, 4))
    return m, v, phis, coords, forward_batch(m, v, phis, coords)


def test_loss_zero_when_equal():
    m, v, phis, coords, pred = loss_case()
    g = loss_and_grads(m, v, phis, coords, pred, weights=True)
    assert g.loss == 0.0
    assert not g.v.any() and not g.phis.any()
    assert not any(w.any() for w in g.weights.values())


def test_loss_hand_cases():
    m, v, phis, coords, pred = loss_case(b=2, n=2)
    g = loss_and_grads(m, v, phis, coords, pred - np.array([[1.0, 1.0], [0.5, 0.5]]))
    assert g.per_frame == pytest.approx([1.0, 0.25])
    assert g.loss == pytest.approx(0.625)
    m, v, phis, coords, pred = loss_case(n=1)
    assert loss_and_grads(m, v, phis, coords, pred - 0.5).loss == pytest.approx(0.25)


def test_loss_length_mismatch():
    m, v, phis, coords, _ = loss_case()
    # flat targets, one pixel too many, one frame too many
    for shape in [(4,), (1, 4), (2, 3)]:
        with pytest.raises(ShapeError, match=rf"{re.escape(str(shape))}.*\(1, 3\)"):
            loss_and_grads(m, v, phis, coords, np.zeros(shape))


# --- coordinates --------------------------------------------------------------

def test_grid_corner_mapping():
    coords = grid_coords(3, 5)
    # row-major: first pixel is (i=0, j=0) -> (x=-1, y=-1); last -> (1, 1)
    assert np.allclose(coords[0], [-1.0, -1.0])
    assert np.allclose(coords[-1], [1.0, 1.0])
    # pixel (i=1, j=2) -> x = 2*2/4-1 = 0, y = 2*1/2-1 = 0
    assert np.allclose(coords[1 * 5 + 2], [0.0, 0.0])


def test_degenerate_axis_maps_to_zero():
    assert np.all(grid_coords(1, 4)[:, 1] == 0.0)


@pytest.mark.parametrize("height, width", [(1, 1), (1, 4), (3, 5), (7, 2)])
def test_grid_is_a_read_only_float32_row_major_meshgrid(height, width):
    coords = grid_coords(height, width)
    assert coords.dtype == np.float32 and coords.shape == (height * width, 2)
    assert not coords.flags.writeable

    def axis(extent):
        if extent == 1:
            return np.zeros(1, dtype=np.float32)
        return (2.0 * np.arange(extent, dtype=np.float32) / (extent - 1) - 1.0).astype(np.float32)

    ys, xs = np.meshgrid(axis(height), axis(width), indexing="ij")
    assert np.array_equal(coords, np.stack([xs.ravel(), ys.ravel()], axis=1))


def test_full_sample_is_row_major_grid():
    indices, coords = sample_coords(3, 4, 12, np.random.default_rng(0))
    assert np.array_equal(indices, np.arange(12))
    assert np.array_equal(coords, grid_coords(3, 4))


def test_single_sample_reproducible():
    a, _ = sample_coords(5, 5, 1, np.random.default_rng(123))
    b, _ = sample_coords(5, 5, 1, np.random.default_rng(123))
    assert np.array_equal(a, b)


def test_sample_count_out_of_range():
    with pytest.raises(ContractError):
        sample_coords(2, 2, 5, np.random.default_rng(0))
    with pytest.raises(ContractError):
        sample_coords(2, 2, 0, np.random.default_rng(0))


def test_sample_inclusion_frequency_is_uniform():
    h = w = 4
    half = h * w // 2
    draws = 1000
    rng = np.random.default_rng(99)
    counts = np.zeros(h * w)
    for _ in range(draws):
        counts[sample_coords(h, w, half, rng)[0]] += 1
    freq = counts / draws
    p = half / (h * w)
    sigma = math.sqrt(p * (1 - p) / draws)
    assert np.all(np.abs(freq - p) < 5 * sigma)


# --- gradients through the full network ---------------------------------------

def test_model_gradients_match_finite_differences():
    m = tiny_model(seed=21, dtype=np.float64)
    rng = np.random.default_rng(77)
    b, n = 2, 6
    coords = rng.uniform(-1, 1, size=(n, 2))
    targets = rng.uniform(0, 1, size=(b, n))
    v0 = rng.normal(scale=0.05, size=8)
    phi0 = rng.normal(scale=0.05, size=(b, 4))

    grads = loss_and_grads(m, v0, phi0, coords, targets, weights=True)

    def f_mod(arrays):
        return loss_and_grads(m, arrays[0], arrays[1], coords, targets).loss

    numeric_mod = finite_diff(f_mod, [v0, phi0.copy()])
    assert rel_err(grads.v, numeric_mod[0]) < 1e-4
    assert rel_err(grads.phis, numeric_mod[1]) < 1e-4

    for name, p in m.parameters():
        def f_theta(arrays, name=name):
            m2 = m.replace_params({name: arrays[0]})
            return loss_and_grads(m2, v0, phi0, coords, targets).loss

        numeric = finite_diff(f_theta, [p.copy()])[0]
        assert rel_err(grads.weights[name], numeric) < 1e-4, name


@pytest.mark.parametrize("layers", [1, 2, 3, 4, 5])
def test_a_latent_step_gives_the_outer_steps_latent_gradients_at_every_depth(layers):
    # a latent step runs in two activation buffers, an outer step in one
    # per layer and one more
    m = tiny_model(seed=22, layers=layers)
    rng = np.random.default_rng(78)
    b, n = 3, 7
    coords = rng.uniform(-1, 1, size=(n, 2))
    targets = rng.uniform(0, 1, size=(b, n))
    v, phis = rng.normal(scale=0.05, size=8), rng.normal(scale=0.05, size=(b, 4))
    latent = loss_and_grads(m, v, phis, coords, targets)
    outer = loss_and_grads(m, v, phis, coords, targets, weights=True)
    assert latent.loss == outer.loss
    assert np.array_equal(latent.v, outer.v) and np.array_equal(latent.phis, outer.phis)
