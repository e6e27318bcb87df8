import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocluster import nn_core
from emocluster.nn_core import (
    DenseLayer,
    ModelParams,
    OptimizerState,
    adamw_step,
    backward,
    clone_params,
    flat_buffer,
    flatten_params,
    forward,
    grad_check,
    init_dense,
    init_optimizer,
    load_checkpoint,
    make_mlp,
    param_count,
    save_checkpoint,
)


def _identity_model(dim):
    layer = DenseLayer(W=np.eye(dim), b=np.zeros(dim), activation="identity")
    return ModelParams([layer])


def test_identity_layer_passthrough():
    model = _identity_model(3)
    x = np.array([[1.0, -2.0, 3.0]])
    out, _ = forward(model, x)
    assert np.array_equal(out, x)


def test_relu_and_tanh_values():
    relu = ModelParams([DenseLayer(np.eye(2), np.zeros(2), "relu")])
    out, _ = forward(relu, np.array([[-1.0, 2.0]]))
    assert np.array_equal(out, [[0.0, 2.0]])
    tanh = ModelParams([DenseLayer(np.eye(2), np.zeros(2), "tanh")])
    out, _ = forward(tanh, np.zeros((1, 2)))
    assert np.array_equal(out, np.zeros((1, 2)))


def test_backward_linear_quadratic_matches_hand_computation():
    # f(x) = Wx + b, loss = 0.5*||y||^2 -> dW = y x^T, db = y, dx = W^T y
    W = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([0.5, -0.5])
    model = ModelParams([DenseLayer(W.copy(), b.copy(), "identity")])
    x = np.array([[1.0, -1.0]])
    y, cache = forward(model, x)
    grads, (views,) = flat_buffer(model)
    dx = backward(model, cache, y, views)  # dL/dy = y for quadratic loss
    assert np.allclose(grads[:4].reshape(2, 2), y.T @ x)
    assert np.allclose(grads[4:], y[0])
    assert np.allclose(dx, y @ W)
    expected = grads.copy()
    grads[:] = np.nan
    assert backward(model, cache, y, views, input_grad=False) is None
    assert np.array_equal(grads, expected)


def test_zero_upstream_gradient_gives_zero_param_gradients():
    rng = np.random.default_rng(0)
    model = make_mlp(rng, [4, 5, 3], ["relu", "tanh"])
    x = rng.normal(size=(6, 4))
    out, cache = forward(model, x)
    grads, (views,) = flat_buffer(model)  # uninitialized: backward must write every entry
    dx = backward(model, cache, np.zeros_like(out), views)
    assert grads.shape == (param_count(model),) and np.allclose(grads, 0)
    assert np.allclose(dx, 0)


def _quadratic_loss_fn(model, x, target):
    """0.5 * ||model(x) - target||^2 and its gradient in one reused flat buffer."""
    grads, (views,) = flat_buffer(model)

    def loss_fn():
        out, cache = forward(model, x)
        diff = out - target
        backward(model, cache, diff, views)
        return 0.5 * float((diff * diff).sum()), grads

    return loss_fn


def test_grad_check_exact_on_linear_quadratic():
    # quadratic in the parameters: central differences are exact up to roundoff
    rng = np.random.default_rng(11)
    model = make_mlp(rng, [4, 3], ["identity"])
    x = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 3))
    params = flatten_params(model)
    assert grad_check(_quadratic_loss_fn(model, x, target), params, eps=1e-5) <= 1e-9


def test_backward_finite_difference_random_net():
    rng = np.random.default_rng(3)
    model = make_mlp(rng, [4, 6, 3], ["tanh", "identity"])
    x = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 3))
    params = flatten_params(model)
    assert grad_check(_quadratic_loss_fn(model, x, target), params, eps=1e-5) < 1e-5


@pytest.mark.parametrize("eps", [0.0, -1e-5, np.inf, np.nan])
def test_grad_check_rejects_nonpositive_eps(eps):
    def loss_fn():
        raise AssertionError("loss_fn must not run")

    with pytest.raises(ValueError, match="eps must be > 0"):
        grad_check(loss_fn, np.zeros(3), eps=eps)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_grad_check_returns_inf_for_nonfinite_gradient(bad):
    params = np.array([0.5, -1.0, 2.0])

    def loss_fn():
        grad = 2.0 * params
        grad[1] = bad
        return float(params @ params), grad

    assert grad_check(loss_fn, params, eps=1e-5) == np.inf


def test_adamw_zero_grad_zero_decay_is_noop(monkeypatch):
    monkeypatch.setattr(nn_core, "ADAM_WEIGHT_DECAY", 0.0)
    p = np.array([1.0, -2.0])
    state = init_optimizer(p, lr=0.1)
    adamw_step(state, p, np.zeros(2))
    assert np.array_equal(p, [1.0, -2.0])


def test_adamw_sign_limit_single_step(monkeypatch):
    monkeypatch.setattr(nn_core, "ADAM_WEIGHT_DECAY", 0.0)
    p = np.array([1.0])
    state = init_optimizer(p, lr=0.1)
    adamw_step(state, p, np.array([1.0]))  # bias correction makes the first step lr * sign(g)
    assert p[0] == pytest.approx(1.0 - 0.1, abs=1e-8)


def test_adamw_decoupled_decay_closed_form(monkeypatch):
    monkeypatch.setattr(nn_core, "ADAM_WEIGHT_DECAY", 0.5)
    p = np.array([2.0])
    state = init_optimizer(p, lr=0.1)
    adamw_step(state, p, np.array([0.0]))
    assert p[0] == pytest.approx(2.0 * (1.0 - 0.1 * 0.5))


def test_adamw_rejects_nonfinite_gradient():
    p = np.array([1.0])
    state = init_optimizer(p, lr=0.1)
    with pytest.raises(FloatingPointError, match="parameter 0"):
        adamw_step(state, p, np.array([np.nan]))


def test_adamw_bit_reproducible():
    def run():
        rng = np.random.default_rng(5)
        p = rng.normal(size=(3, 3))
        state = init_optimizer(p, lr=0.01)
        for _ in range(10):
            adamw_step(state, p, rng.normal(size=(3, 3)))
        return p

    assert np.array_equal(run(), run())


def test_forward_deterministic_and_stateless():
    rng = np.random.default_rng(6)
    model = make_mlp(rng, [4, 4, 4], ["relu", "tanh"])
    x = rng.normal(size=(3, 4))
    a, _ = forward(model, x)
    b, _ = forward(model, x)
    assert np.array_equal(a, b)


def test_make_mlp_validates_dims():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        make_mlp(rng, [3, 4], ["relu", "tanh"])
    model = make_mlp(rng, [3, 4, 2], ["relu", "identity"])
    assert model.input_dim == 3 and model.output_dim == 2


def test_init_dense_seeded_and_bounded():
    a = init_dense(np.random.default_rng(7), 9, 4, "relu")
    b = init_dense(np.random.default_rng(7), 9, 4, "relu")
    assert np.array_equal(a.W, b.W)
    assert np.all(np.abs(a.W) <= 1.0 / 3.0)
    assert np.array_equal(a.b, np.zeros(4))


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    components = {
        "encoder": make_mlp(rng, [6, 5, 5], ["relu", "relu"]),
        "emotion_cls": make_mlp(rng, [5, 5, 3], ["relu", "identity"]),
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
    components = {"encoder": make_mlp(rng, [3, 3], ["relu"])}
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, components, {})
    blob = open(path + ".bin", "rb").read()
    with open(path + ".bin", "wb") as fh:
        fh.write(blob + b"\x00" * 8)
    with pytest.raises(ValueError, match="blob size"):
        load_checkpoint(path)


def _two_component_checkpoint(path):
    rng = np.random.default_rng(9)
    components = {
        "encoder": make_mlp(rng, [3, 3], ["relu"]),
        "head": make_mlp(rng, [3, 2], ["identity"]),
    }
    save_checkpoint(path, components, {})
    with open(path + ".bin", "rb") as fh:
        return fh.read()


def _edit_manifest(path, edit):
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    edit(manifest)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


@pytest.mark.parametrize(
    "damage, detail",
    [
        (lambda layers: layers[1].update({"in": 5}), ": layer 1: expects input dim 5, got 4"),
        (lambda layers: layers.clear(), ": a model needs at least one layer"),
        # heads end at their logits: a manifest that names a softmax layer is not loadable
        (lambda layers: layers[-1].update(activation="softmax"), ": unknown activation 'softmax'"),
        (lambda layers: layers[0].update(activation=["relu"]), " has a malformed layer list"),
        (None, ": non-finite layer parameters"),
    ],
    ids=["chain-break", "no-layers", "unknown-activation", "non-string-activation", "nan-in-blob"],
)
def test_checkpoint_loader_checks_each_components_layers(tmp_path, damage, detail):
    # the loader is where a model's layers are checked: a model built in the program is consistent by construction
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, {"encoder": make_mlp(np.random.default_rng(0), [3, 4, 2], ["relu", "identity"])}, {})
    if damage is None:
        with open(path + ".bin", "r+b") as fh:
            fh.seek(8)  # past the header: the first weight
            fh.write(np.array([np.nan], dtype="<f8").tobytes())
    else:
        _edit_manifest(path, lambda manifest: damage(manifest["components"]["encoder"]["layers"]))
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: component 'encoder'{re.escape(detail)}$"):
        load_checkpoint(path)


def test_checkpoint_components_hold_only_their_layers(tmp_path):
    # a component's name and dims are its key and its layers' shapes; an older
    # manifest that still writes them as "kind", "input_dim" and "output_dim"
    # loads the same, whatever they say
    path = str(tmp_path / "ckpt.json")
    _two_component_checkpoint(path)
    with open(path, encoding="utf-8") as fh:
        assert {name: set(spec) for name, spec in json.load(fh)["components"].items()} == {
            "encoder": {"layers"}, "head": {"layers"}
        }
    expected, _ = load_checkpoint(path)

    def older(manifest):
        for name, spec in manifest["components"].items():
            spec.update(kind=name, input_dim=7, output_dim=expected[name].output_dim)

    _edit_manifest(path, older)
    restored, _ = load_checkpoint(path)
    for name in expected:
        assert [(l.W.tobytes(), l.b.tobytes(), l.activation) for l in restored[name].layers] == [
            (l.W.tobytes(), l.b.tobytes(), l.activation) for l in expected[name].layers
        ]


def test_checkpoint_meta_must_be_a_json_object(tmp_path):
    path = str(tmp_path / "ckpt.json")
    _two_component_checkpoint(path)
    _edit_manifest(path, lambda manifest: manifest.update(meta=[1, 2]))
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}: checkpoint meta must be a json object, not list$"):
        load_checkpoint(path)
    _edit_manifest(path, lambda manifest: manifest.pop("meta"))
    assert load_checkpoint(path)[1] == {}


def test_checkpoint_short_header_raises_value_error(tmp_path):
    path = str(tmp_path / "ckpt.json")
    blob = _two_component_checkpoint(path)
    with open(path + ".bin", "wb") as fh:
        fh.write(blob[:5])
    with pytest.raises(ValueError, match="truncated checkpoint header"):
        load_checkpoint(path)


def test_checkpoint_truncated_blob_names_component_and_offset(tmp_path):
    path = str(tmp_path / "ckpt.json")
    blob = _two_component_checkpoint(path)
    # 8-byte header, then encoder (9 + 3 floats), then head: cut inside head's W
    with open(path + ".bin", "wb") as fh:
        fh.write(blob[: 8 + 8 * 12 + 20])
    with pytest.raises(ValueError, match="component 'head' at offset 104"):
        load_checkpoint(path)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_damaged_checkpoint_blob_loads_or_raises_value_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ckpt.json")
        blob = bytearray(_two_component_checkpoint(path))
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="keep")]
        else:
            pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
            blob[pos] ^= data.draw(st.integers(1, 255), label="mask")
        with open(path + ".bin", "wb") as fh:
            fh.write(bytes(blob))
        try:
            load_checkpoint(path)
        except ValueError:
            pass


@pytest.mark.parametrize("damage", ["{", "[1]", "no components", "layer without in", "out as a string"])
def test_damaged_checkpoint_manifest_raises_value_error_naming_it(tmp_path, damage):
    path = str(tmp_path / "ckpt.json")
    _two_component_checkpoint(path)
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    layer = manifest["components"]["head"]["layers"][0]
    if damage == "no components":
        del manifest["components"]
    elif damage == "layer without in":
        del layer["in"]
    elif damage == "out as a string":
        layer["out"] = str(layer["out"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(damage if damage in ("{", "[1]") else json.dumps(manifest))
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: "):
        load_checkpoint(path)


def test_checkpoint_manifest_holding_no_object_says_so(tmp_path):
    path = str(tmp_path / "ckpt.json")
    _two_component_checkpoint(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[1]\n")
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: checkpoint manifest must be a json object, not list$"):
        load_checkpoint(path)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_damaged_checkpoint_manifest_loads_or_raises_value_error_naming_it(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ckpt.json")
        _two_component_checkpoint(path)
        with open(path, "rb") as fh:
            manifest = bytearray(fh.read())
        if data.draw(st.booleans(), label="truncate"):
            manifest = manifest[: data.draw(st.integers(0, len(manifest) - 1), label="keep")]
        else:
            pos = data.draw(st.integers(0, len(manifest) - 1), label="pos")
            manifest[pos] ^= data.draw(st.integers(1, 255), label="mask")
        with open(path, "wb") as fh:
            fh.write(bytes(manifest))
        try:
            load_checkpoint(path)
        except ValueError as exc:
            assert str(exc).startswith(path)


def test_clone_params_is_deep():
    rng = np.random.default_rng(10)
    model = make_mlp(rng, [3, 3], ["relu"])
    copy = clone_params(model)
    copy.layers[0].W[0, 0] += 1.0
    assert model.layers[0].W[0, 0] != copy.layers[0].W[0, 0]


def test_flatten_params_layers_view_one_buffer():
    rng = np.random.default_rng(12)
    enc = make_mlp(rng, [3, 4, 2], ["relu", "tanh"])
    head = make_mlp(rng, [2, 3], ["identity"])
    expected = np.concatenate([a.ravel() for m in (enc, head) for l in m.layers for a in (l.W, l.b)])
    flat = flatten_params(enc, head)
    assert flat.shape == (param_count(enc, head),) and flat.flags.c_contiguous
    assert np.array_equal(flat, expected)
    flat[0] += 1.0
    flat[-1] -= 1.0
    assert enc.layers[0].W[0, 0] == expected[0] + 1.0
    assert head.layers[-1].b[-1] == expected[-1] - 1.0
    copy = clone_params(enc)
    flat[0] += 1.0
    assert copy.layers[0].W[0, 0] == expected[0] + 1.0


def test_adamw_flat_buffer_matches_per_array_updates():
    # the update is elementwise, so one flat step equals a step per array
    rng = np.random.default_rng(13)
    model = make_mlp(rng, [4, 5, 3], ["relu", "tanh"])
    arrays = [a.copy() for l in model.layers for a in (l.W, l.b)]
    states = [init_optimizer(a, lr=0.01) for a in arrays]
    flat = flatten_params(model)
    state = init_optimizer(flat, lr=0.01)
    for _ in range(5):
        g = rng.normal(size=flat.size)
        adamw_step(state, flat, g)
        off = 0
        for a, s in zip(arrays, states):
            adamw_step(s, a, g[off : off + a.size].reshape(a.shape))
            off += a.size
    assert np.array_equal(flat, np.concatenate([a.ravel() for a in arrays]))


def test_adamw_nonfinite_gradient_names_first_bad_index():
    p = np.zeros(5)
    state = init_optimizer(p, lr=0.1)
    with pytest.raises(FloatingPointError, match="parameter 3"):
        adamw_step(state, p, np.array([0.0, 1.0, 2.0, np.inf, np.nan]))
    assert state.step == 0 and np.array_equal(p, np.zeros(5))
