import numpy as np
import pytest

from emocluster.nn_core import (
    DenseLayer,
    ModelParams,
    OptimizerState,
    adamw_step,
    backward,
    clone_params,
    forward,
    grad_check,
    grads_to_arrays,
    grl_backward,
    init_dense,
    init_optimizer,
    load_checkpoint,
    make_mlp,
    model_param_arrays,
    save_checkpoint,
)


def _identity_model(dim):
    layer = DenseLayer(W=np.eye(dim), b=np.zeros(dim), activation="identity")
    return ModelParams(layers=[layer], input_dim=dim, output_dim=dim, kind="encoder")


def test_identity_layer_passthrough():
    model = _identity_model(3)
    x = np.array([[1.0, -2.0, 3.0]])
    out, _ = forward(model, x)
    assert np.array_equal(out, x)


def test_relu_and_tanh_values():
    relu = ModelParams(
        [DenseLayer(np.eye(2), np.zeros(2), "relu")], 2, 2, "encoder"
    )
    out, _ = forward(relu, np.array([[-1.0, 2.0]]))
    assert np.array_equal(out, [[0.0, 2.0]])
    tanh = ModelParams([DenseLayer(np.eye(2), np.zeros(2), "tanh")], 2, 2, "encoder")
    out, _ = forward(tanh, np.zeros((1, 2)))
    assert np.array_equal(out, np.zeros((1, 2)))


def test_softmax_rows_normalized():
    model = ModelParams([DenseLayer(np.eye(3), np.zeros(3), "softmax")], 3, 3, "emotion_cls")
    out, _ = forward(model, np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
    assert np.allclose(out.sum(axis=1), 1.0)
    assert np.allclose(out[1], [1 / 3] * 3)


def test_forward_shape_mismatch():
    model = _identity_model(3)
    with pytest.raises(ValueError, match="input shape"):
        forward(model, np.zeros((2, 4)))


def test_backward_linear_quadratic_matches_hand_computation():
    # f(x) = Wx + b, loss = 0.5*||y||^2 -> dW = y x^T, db = y, dx = W^T y
    W = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([0.5, -0.5])
    model = ModelParams([DenseLayer(W.copy(), b.copy(), "identity")], 2, 2, "encoder")
    x = np.array([[1.0, -1.0]])
    y, cache = forward(model, x)
    grads, dx = backward(model, cache, y)  # dL/dy = y for quadratic loss
    assert np.allclose(grads[0][0], y.T @ x)
    assert np.allclose(grads[0][1], y[0])
    assert np.allclose(dx, y @ W)


def test_zero_upstream_gradient_gives_zero_param_gradients():
    rng = np.random.default_rng(0)
    model = make_mlp(rng, [4, 5, 3], ["relu", "tanh"], "encoder")
    x = rng.normal(size=(6, 4))
    out, cache = forward(model, x)
    grads, dx = backward(model, cache, np.zeros_like(out))
    assert all(np.allclose(g, 0) and np.allclose(h, 0) for g, h in grads)
    assert np.allclose(dx, 0)


def test_grad_check_exact_on_linear_quadratic():
    # quadratic in the parameters: central differences are exact up to roundoff
    rng = np.random.default_rng(11)
    model = make_mlp(rng, [4, 3], ["identity"], "encoder")
    x = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 3))
    params = model_param_arrays(model)

    def loss_fn():
        out, cache = forward(model, x)
        diff = out - target
        loss = 0.5 * float((diff * diff).sum())
        grads, _ = backward(model, cache, diff)
        return loss, grads_to_arrays(grads)

    assert grad_check(loss_fn, params, eps=1e-5) <= 1e-9


def test_backward_finite_difference_random_net():
    rng = np.random.default_rng(3)
    model = make_mlp(rng, [4, 6, 3], ["tanh", "identity"], "encoder")
    x = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 3))
    params = model_param_arrays(model)

    def loss_fn():
        out, cache = forward(model, x)
        diff = out - target
        loss = 0.5 * float((diff * diff).sum())
        grads, _ = backward(model, cache, diff)
        return loss, grads_to_arrays(grads)

    assert grad_check(loss_fn, params, eps=1e-5) < 1e-5


def test_softmax_backward_full_jacobian():
    rng = np.random.default_rng(4)
    model = make_mlp(rng, [3, 4, 3], ["tanh", "softmax"], "emotion_cls")
    x = rng.normal(size=(4, 3))
    weights = rng.normal(size=(4, 3))  # generic linear functional of the probabilities
    params = model_param_arrays(model)

    def loss_fn():
        out, cache = forward(model, x)
        loss = float((weights * out).sum())
        grads, _ = backward(model, cache, weights)
        return loss, grads_to_arrays(grads)

    assert grad_check(loss_fn, params, eps=1e-6) < 1e-7


def test_grl_backward_scaled_negation():
    g = np.array([[0.5, -1.5]])
    assert np.array_equal(grl_backward(g, 1.0), -g)
    assert np.array_equal(grl_backward(g, 0.0), np.zeros_like(g))
    assert np.array_equal(grl_backward(g, 2.0), -2.0 * g)
    with pytest.raises(ValueError):
        grl_backward(g, -0.1)


def test_adamw_zero_grad_zero_decay_is_noop():
    p = np.array([1.0, -2.0])
    state = init_optimizer([p], lr=0.1, weight_decay=0.0)
    adamw_step(state, [p], [np.zeros(2)])
    assert np.array_equal(p, [1.0, -2.0])


def test_adamw_sign_limit_single_step():
    p = np.array([1.0])
    state = init_optimizer([p], lr=0.1, weight_decay=0.0, beta1=0.0, beta2=0.0)
    adamw_step(state, [p], [np.array([1.0])])
    assert p[0] == pytest.approx(1.0 - 0.1, abs=1e-8)


def test_adamw_decoupled_decay_closed_form():
    p = np.array([2.0])
    state = init_optimizer([p], lr=0.1, weight_decay=0.5)
    adamw_step(state, [p], [np.array([0.0])])
    assert p[0] == pytest.approx(2.0 * (1.0 - 0.1 * 0.5))


def test_adamw_rejects_nonfinite_gradient():
    p = np.array([1.0])
    state = init_optimizer([p], lr=0.1)
    with pytest.raises(FloatingPointError, match="parameter 0"):
        adamw_step(state, [p], [np.array([np.nan])])


def test_adamw_bit_reproducible():
    def run():
        rng = np.random.default_rng(5)
        p = rng.normal(size=(3, 3))
        state = init_optimizer([p], lr=0.01)
        for _ in range(10):
            adamw_step(state, [p], [rng.normal(size=(3, 3))])
        return p

    assert np.array_equal(run(), run())


def test_forward_deterministic_and_stateless():
    rng = np.random.default_rng(6)
    model = make_mlp(rng, [4, 4, 4], ["relu", "tanh"], "encoder")
    x = rng.normal(size=(3, 4))
    a, _ = forward(model, x)
    b, _ = forward(model, x)
    assert np.array_equal(a, b)


def test_make_mlp_validates_dims():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        make_mlp(rng, [3, 4], ["relu", "tanh"], "encoder")
    model = make_mlp(rng, [3, 4, 2], ["relu", "identity"], "encoder")
    assert model.input_dim == 3 and model.output_dim == 2


def test_model_validation_catches_chain_breaks():
    rng = np.random.default_rng(0)
    model = make_mlp(rng, [3, 4, 2], ["relu", "identity"], "encoder")
    model.layers[1] = init_dense(rng, 5, 2, "identity")  # wrong fan-in
    with pytest.raises(ValueError, match="expects input dim"):
        model.validate()


def test_init_dense_seeded_and_bounded():
    a = init_dense(np.random.default_rng(7), 9, 4, "relu")
    b = init_dense(np.random.default_rng(7), 9, 4, "relu")
    assert np.array_equal(a.W, b.W)
    assert np.all(np.abs(a.W) <= 1.0 / 3.0)
    assert np.array_equal(a.b, np.zeros(4))


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    components = {
        "encoder": make_mlp(rng, [6, 5, 5], ["relu", "relu"], "encoder"),
        "emotion_cls": make_mlp(rng, [5, 5, 3], ["relu", "softmax"], "emotion_cls"),
    }
    meta = {"mode": "contrastive", "seed": 3, "step": 100}
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, components, meta)
    restored, meta2 = load_checkpoint(path)
    assert meta2 == meta
    assert set(restored) == set(components)
    for name in components:
        for la, lb in zip(components[name].layers, restored[name].layers):
            assert np.array_equal(la.W, lb.W)
            assert np.array_equal(la.b, lb.b)
            assert la.activation == lb.activation


def test_checkpoint_rejects_corrupt_blob(tmp_path):
    rng = np.random.default_rng(9)
    components = {"encoder": make_mlp(rng, [3, 3], ["relu"], "encoder")}
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, components, {})
    blob = open(path + ".bin", "rb").read()
    with open(path + ".bin", "wb") as fh:
        fh.write(blob + b"\x00" * 8)
    with pytest.raises(ValueError, match="blob size"):
        load_checkpoint(path)


def test_clone_params_is_deep():
    rng = np.random.default_rng(10)
    model = make_mlp(rng, [3, 3], ["relu"], "encoder")
    copy = clone_params(model)
    copy.layers[0].W[0, 0] += 1.0
    assert model.layers[0].W[0, 0] != copy.layers[0].W[0, 0]
