"""How `MetaModel` takes in a parameter array, and the element rules of
the sine stack's closed form.

Each layer multiplies, adds its bias and both shifts, and takes the sine;
the loss averages squared errors per frame. These checks pin each rule
on hand-sized cases through `forward_batch`, `frame_mse` and
`loss_and_grads`, plus their gradients against finite differences.
"""

import math

import numpy as np
import pytest
from helpers import finite_diff, rel_err

from vfuncta import model as model_module
from vfuncta.errors import ContractError, NonFiniteError, ShapeError
from vfuncta.model import MetaModel, forward_batch, frame_mse, loss_and_grads, param_shapes


def one_layer(weight, bias, out_weight, out_bias=(0.0,), frame_proj=None, omega0=1.0):
    """One sine layer with one-wide latents; the video projection is zero."""
    weight = np.asarray(weight, dtype=np.float64)
    hidden = weight.shape[1]
    if frame_proj is None:
        frame_proj = np.zeros((1, hidden))
    params = {
        "layer0.weight": weight,
        "layer0.bias": bias,
        "out.weight": np.reshape(out_weight, (hidden, 1)),
        "out.bias": out_bias,
        "video_proj0": np.zeros((1, hidden)),
        "frame_proj0": frame_proj,
    }
    return MetaModel({name: np.asarray(p, dtype=np.float64) for name, p in params.items()},
                     omega0=omega0)


def predict(model, coords, phis=None):
    phis = np.zeros((1, model.frame_dim)) if phis is None else np.asarray(phis, dtype=np.float64)
    return forward_batch(model, np.zeros(model.video_dim), phis, np.asarray(coords))


def random_case(seed, layers=2, dtype=np.float64, b=2, n=3):
    rng = np.random.default_rng(seed)
    model = MetaModel.initialize(layers=layers, hidden=5, video_dim=3, frame_dim=2,
                                 omega0=30.0, dtype=dtype, rng=rng)
    coords = rng.uniform(-1, 1, size=(n, 2)).astype(dtype)
    targets = rng.uniform(0, 1, size=(b, n)).astype(dtype)
    v = rng.normal(scale=0.05, size=3).astype(dtype)
    phis = rng.normal(scale=0.05, size=(b, 2)).astype(dtype)
    return model, v, phis, coords, targets


# --- hand-checked forward values ---------------------------------------------

def test_matmul_identity():
    # identity weights pass the coordinate through: pred = sin(x)
    model = one_layer(np.eye(2), np.zeros(2), [1.0, 0.0])
    xs = np.array([[0.3, -0.9], [-0.5, 0.1]])
    assert np.array_equal(predict(model, xs)[0], np.sin(xs[:, 0]))


def test_matmul_hand_case():
    # unit coordinates pick rows of W: (1, 0) -> [1, 2], (0, 1) -> [3, 4]
    model = one_layer([[1.0, 2.0], [3.0, 4.0]], np.zeros(2), [1.0, 10.0])
    out = predict(model, [[1.0, 0.0], [0.0, 1.0]])[0]
    assert out == pytest.approx([math.sin(1) + 10 * math.sin(2),
                                 math.sin(3) + 10 * math.sin(4)], abs=1e-12)


def test_matmul_zero_annihilates():
    # zero latents add exact zeros, whatever the projections hold
    model, _, _, coords, _ = random_case(4)
    zero_v, zero_phis = np.zeros(3), np.zeros((2, 2))
    bare = model.replace_params({name: np.zeros(p.shape)
                                 for name, p in model.parameters() if "proj" in name})
    assert np.array_equal(forward_batch(model, zero_v, zero_phis, coords),
                          forward_batch(bare, zero_v, zero_phis, coords))


def test_matmul_shape_error_names_both_shapes():
    model, v, phis, coords, targets = random_case(0)
    with pytest.raises(ShapeError, match=r"\(3, 3\).*\(N, 2\)"):
        forward_batch(model, v, phis, np.zeros((3, 3)))
    with pytest.raises(ShapeError, match=r"\(2, 4\).*\(2, 3\)"):
        loss_and_grads(model, v, phis, coords, np.zeros((2, 4)))


def test_sine_act_zero():
    model = one_layer(np.zeros((2, 3)), np.zeros(3), [1.0, -2.0, 3.0], out_bias=[0.25])
    out = predict(model, [[0.5, -0.5], [1.0, 1.0]])
    assert np.array_equal(out, [[0.25, 0.25]])


def test_sine_act_reaches_one():
    omega0 = 30.0
    # the second unit, of zero output weight, only makes the network two wide
    model = one_layer(np.zeros((2, 2)), [np.pi / 2 / omega0, 0.0], [1.0, 0.0], omega0=omega0)
    assert predict(model, [[0.2, 0.7]])[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_add_blocks_values():
    # the frame vector of frame t shifts exactly the pixels of frame t
    model = one_layer(np.zeros((2, 2)), [0.0, 0.0], [1.0, 0.0], frame_proj=[[1.0, 0.0]])
    out = predict(model, np.zeros((2, 2)), phis=[[1.0], [3.0]])
    assert np.array_equal(out, np.sin([[1.0, 1.0], [3.0, 3.0]]))


def test_group_mean_values():
    per_frame = frame_mse(np.array([[1.0, 3.0], [5.0, 7.0]]), np.zeros((2, 2)))
    assert np.array_equal(per_frame, [5.0, 37.0])


# --- hand-checked gradients ---------------------------------------------------

def test_sine_act_gradient_at_zero_is_omega0():
    # at a zero pre-activation, d sin(w0 a) / da = w0
    omega0 = 17.5
    model = one_layer(np.zeros((2, 2)), [0.0, 0.0], [1.0, 0.0], omega0=omega0)
    g = loss_and_grads(model, np.zeros(1), np.zeros((1, 1)), np.zeros((3, 2)),
                       np.array([[0.2, 0.4, 0.9]]), weights=True)
    assert g.weights["layer0.bias"] == pytest.approx([omega0 * g.weights["out.bias"][0], 0.0],
                                                     rel=1e-12)


def test_each_slope_is_the_cosine_of_its_layers_scaled_pre_activation(monkeypatch):
    # omega0 enters the backward through its weights, not through the slopes
    model, v, phis, coords, targets = random_case(8, layers=3)
    params = dict(model.parameters())
    inner, frames = model_module._forward_tile, []

    def spy(model_, shifts, pixels, t, acts, slopes=None):
        pred = inner(model_, shifts, pixels, t, acts, slopes)
        h = pixels
        for k in range(model.layers):
            a = model.omega0 * (h @ params[f"layer{k}.weight"] + params[f"layer{k}.bias"]
                                + v @ params[f"video_proj{k}"] + phis[t] @ params[f"frame_proj{k}"])
            assert np.allclose(slopes[k][: len(pixels)], np.cos(a), rtol=0, atol=1e-12), k
            h = np.sin(a)
        frames.append(t)
        return pred

    monkeypatch.setattr(model_module, "_forward_tile", spy)
    for weights in (False, True):
        loss_and_grads(model, v, phis, coords, targets, weights=weights)
    assert frames == [0, 1] * 2


def test_sum_gradient_is_ones():
    # the output bias gradient sums the rows' gradients: N rows of 1/N each
    model, v, phis, coords, _ = random_case(2)
    pred = forward_batch(model, v, phis, coords)
    g = loss_and_grads(model, v, phis, coords, pred - 0.5, weights=True)
    assert g.weights["out.bias"] == pytest.approx([1.0], rel=1e-12)


def test_mean_squared_error_gradient_hand_case():
    # one frame, errors [1, 2]: loss = (1 + 4) / 2, d loss / d out.bias = 2 (1 + 2) / 2
    model, v, _, coords, _ = random_case(3, b=1, n=2)
    phis = np.zeros((1, 2))
    pred = forward_batch(model, v, phis, coords)
    g = loss_and_grads(model, v, phis, coords, pred - np.array([[1.0, 2.0]]), weights=True)
    assert g.loss == pytest.approx(2.5, rel=1e-12)
    assert g.weights["out.bias"] == pytest.approx([3.0], rel=1e-12)


# --- the closed form against finite differences --------------------------------

def test_every_primitive_matches_finite_differences():
    worst = 0.0
    for seed in range(12):
        model, v, phis, coords, targets = random_case(seed, layers=1 + seed % 3)
        g = loss_and_grads(model, v, phis, coords, targets, weights=True)

        def loss(arrays, name=None):
            m = model if name is None else model.replace_params({name: arrays[-1]})
            return loss_and_grads(m, arrays[0], arrays[1], coords, targets).loss

        # the central difference errs by step^2 times a third derivative
        # that omega0 = 30 makes large: at 1e-4 that error alone reaches
        # the tolerance on some draws, at 1e-5 it is 100 times smaller
        numeric = finite_diff(loss, [v, phis], step=1e-5)
        checks = [("v", g.v, numeric[0]), ("phis", g.phis, numeric[1])]
        for name, p in model.parameters():
            num = finite_diff(lambda a, name=name: loss([v, phis, a[0]], name),
                              [p.copy()], step=1e-5)
            checks.append((name, g.weights[name], num[0]))
        for name, analytic, num in checks:
            err = rel_err(analytic, num)
            worst = max(worst, err)
            assert err < 1e-4, f"{name} seed {seed}: rel err {err}"
    assert worst < 1e-4


def test_gradients_are_deterministic():
    model, v, phis, coords, targets = random_case(42, dtype=np.float32)
    g1 = loss_and_grads(model, v, phis, coords, targets, weights=True)
    g2 = loss_and_grads(model, v, phis, coords, targets, weights=True)
    assert g1.loss == g2.loss
    assert np.array_equal(g1.v, g2.v) and np.array_equal(g1.phis, g2.phis)
    for name in g1.weights:
        assert np.array_equal(g1.weights[name], g2.weights[name]), name


def test_unused_parameter_gets_exact_zeros():
    # at zero latents the projections do not reach the loss
    model, _, _, coords, targets = random_case(5, dtype=np.float32)
    g = loss_and_grads(model, np.zeros(3), np.zeros((2, 2)), coords, targets, weights=True)
    for k in range(model.layers):
        for name in (f"video_proj{k}", f"frame_proj{k}"):
            assert np.array_equal(g.weights[name], np.zeros(g.weights[name].shape)), name
            assert g.weights[name].dtype == np.float32


def test_shared_subexpression_accumulates():
    # v shifts every layer, so its gradient sums one term per layer
    model, v, phis, coords, targets = random_case(6, layers=3)
    g = loss_and_grads(model, v, phis, coords, targets, weights=True)
    per_layer = sum(model.video_projs[k].data @ g.weights[f"layer{k}.bias"]
                    for k in range(model.layers))
    assert np.allclose(g.v, per_layer, rtol=1e-12, atol=1e-15)


# --- taking in a parameter array ----------------------------------------------------

def frozen(arr):
    arr.setflags(write=False)
    return arr


def model_holding(weight):
    """A one-layer model handed `weight`, (2, l), as its `layer0.weight`;
    the other parameters are zeros of its dtype."""
    shapes = param_shapes(layers=1, hidden=weight.shape[1], video_dim=1, frame_dim=1)
    params = {name: np.zeros(shape, weight.dtype) for name, shape in shapes.items()}
    return MetaModel({**params, "layer0.weight": weight}, omega0=1.0)


def held_weight(model):
    return dict(model.parameters())["layer0.weight"]


def test_non_finite_input_rejected():
    with pytest.raises(NonFiniteError, match="'layer0.bias'"):
        one_layer(np.eye(2), [1.0, np.inf], [1.0, 0.0])
    with pytest.raises(NonFiniteError, match="'layer0.weight'"):
        model_holding(frozen(np.array([[1.0, np.nan], [0.0, 0.0]])))


def test_an_array_no_one_can_write_is_held_as_it_is():
    owner = frozen(np.arange(16, dtype=np.float32))
    for arr in (frozen(np.ones((2, 4), dtype=np.float32)), owner[4:].reshape(2, 6)):
        assert held_weight(model_holding(arr)) is arr


@pytest.mark.parametrize("source", [
    pytest.param(lambda: np.ones((2, 3)), id="writable"),
    pytest.param(lambda: frozen(np.ones((2, 3)).view()), id="read-only-view-of-a-writable-owner"),
    pytest.param(lambda: frozen(np.frombuffer(bytearray(48))).reshape(2, 3),
                 id="read-only-view-of-a-bytearray"),
    pytest.param(lambda: frozen(np.ones((3, 2))).T, id="not-c-contiguous"),
])
def test_any_other_array_is_copied(source):
    arr = source()
    held = held_weight(model_holding(arr))
    assert not np.shares_memory(held, arr)
    assert not held.flags.writeable and held.flags.c_contiguous
    assert held.dtype == arr.dtype
    assert np.array_equal(held, arr)


@pytest.mark.parametrize("source", [
    pytest.param(lambda: frozen(np.ones((2, 3), dtype=">f8")), id="byte-swapped"),
    pytest.param(lambda: frozen(np.ones((2, 3), dtype=np.float16)), id="half-precision"),
])
def test_any_other_dtype_is_refused(source):
    arr = source()
    with pytest.raises(ContractError, match=rf"^layer0.weight is {arr.dtype}, "
                                            r"the model's parameters must be float32 or float64$"):
        model_holding(arr)


def test_mutating_a_writable_source_changes_nothing():
    src = np.ones((2, 2), dtype=np.float32)
    model = model_holding(src)
    src[0, 0] = 5.0
    assert held_weight(model)[0, 0] == 1.0


def test_overflow_is_reported_with_op_name():
    model, v, phis, coords, targets = random_case(7)
    big = model.replace_params({"layer0.bias": np.full(5, 1e308)})
    with pytest.raises(NonFiniteError) as exc:
        forward_batch(big, v, phis, coords)
    assert exc.value.op == "forward"
    with pytest.raises(NonFiniteError) as exc:
        loss_and_grads(big, v, phis, coords, targets)
    assert exc.value.op == "loss"


def test_gradient_dtype_follows_input_dtype():
    for dtype in (np.float32, np.float64):
        model, v, phis, coords, targets = random_case(8, dtype=dtype)
        g = loss_and_grads(model, v, phis, coords, targets, weights=True)
        assert g.v.dtype == dtype and g.phis.dtype == dtype and g.per_frame.dtype == dtype
        assert all(a.dtype == dtype for a in g.weights.values())
