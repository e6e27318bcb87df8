"""Minimal dense network substrate: layers, activations, AdamW,
finite-difference gradient checking, and checkpoint I/O.

Everything runs in float64; reverse-mode gradients are exact for the
affine/activation stack, which keeps finite-difference agreement tight
enough for 1e-5 relative tolerances.  Classifier heads end at their
logits: the softmax belongs to the cross-entropy loss, not the network.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .serialize import read_json, write_jsonl

# activation: (its value, in place on the pre-activation z; grad_a times its derivative, read off its output a)
ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda grad_a, a: grad_a * (a > 0)),
    "tanh": (lambda z: np.tanh(z, out=z), lambda grad_a, a: grad_a * (1.0 - a * a)),
    "identity": (lambda z: z, lambda grad_a, a: grad_a),
}


@dataclass
class DenseLayer:
    W: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)
    activation: str


@dataclass
class ModelParams:
    layers: list[DenseLayer]

    @property
    def input_dim(self) -> int:
        return self.layers[0].W.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].W.shape[0]


def init_dense(rng: np.random.Generator, in_dim: int, out_dim: int, activation: str) -> DenseLayer:
    """Scaled uniform fan-in init; biases start at zero."""
    limit = 1.0 / np.sqrt(in_dim)
    W = rng.uniform(-limit, limit, size=(out_dim, in_dim))
    return DenseLayer(W=W, b=np.zeros(out_dim), activation=activation)


def make_mlp(rng: np.random.Generator, dims: list[int], activations: list[str]) -> ModelParams:
    if len(dims) != len(activations) + 1:
        raise ValueError("dims must have one more entry than activations")
    return ModelParams([init_dense(rng, dims[i], dims[i + 1], activations[i]) for i in range(len(activations))])


def clone_params(model: ModelParams) -> ModelParams:
    return ModelParams([DenseLayer(l.W.copy(), l.b.copy(), l.activation) for l in model.layers])


def param_count(*models: ModelParams) -> int:
    return sum(l.W.size + l.b.size for model in models for l in model.layers)


def flat_buffer(*models: ModelParams):
    """An uninitialized float64 buffer for every W and b of the models (each
    layer's W row-major, then b), and per model its layers' views into it."""
    flat, views, off = np.empty(param_count(*models)), [], 0
    for model in models:
        views.append([])
        for layer in model.layers:
            n, end = layer.W.size, off + layer.W.size + layer.b.size
            views[-1].append((flat[off : off + n].reshape(layer.W.shape), flat[off + n : end]))
            off = end
    return flat, views


def flatten_params(*models: ModelParams) -> np.ndarray:
    """Move every W and b of the models into one `flat_buffer`; the layers
    keep views into it, so an in-place update of the buffer updates the models."""
    flat, views = flat_buffer(*models)
    for model, model_views in zip(models, views):
        for layer, (W, b) in zip(model.layers, model_views):
            W[...], b[...] = layer.W, layer.b
            layer.W, layer.b = W, b
    return flat


def forward(params: ModelParams, x: np.ndarray):
    """Run the stack on a float64 (batch, input_dim) array.

    Returns (output, cache); the cache holds the input and each layer's
    output, for the backward pass.
    """
    acts = [x]
    for layer in params.layers:
        acts.append(ACTIVATIONS[layer.activation][0](acts[-1] @ layer.W.T + layer.b))
    return acts[-1], acts


def backward(params: ModelParams, cache, grad_out: np.ndarray, grads, input_grad: bool = True):
    """Reverse-mode gradients through the stack, given grad_out = dLoss/d(output)
    and the cache of the `forward` call that produced that output.

    Writes each layer's (dW, db) into its views in grads, one model's part
    of `flat_buffer`; returns the gradient wrt the input batch, or None
    when input_grad is False.
    """
    g = grad_out
    for i in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[i]
        dz = ACTIVATIONS[layer.activation][1](g, cache[i + 1])
        dW, db = grads[i]
        dz.sum(axis=0, out=db)
        np.matmul(dz.T, cache[i], out=dW)
        g = dz @ layer.W if i or input_grad else None
    return g


# -------------------------------------------------------------------- optimizer

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
ADAM_WEIGHT_DECAY = 0.01


@dataclass
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float
    scratch: np.ndarray  # two work buffers for the update


def init_optimizer(params: np.ndarray, lr: float) -> OptimizerState:
    """Zero moments shaped like the flat parameter buffer."""
    return OptimizerState(np.zeros_like(params), np.zeros_like(params), 0, lr, np.empty((2, *params.shape)))


def adamw_step(state: OptimizerState, params: np.ndarray, grads: np.ndarray) -> None:
    """One decoupled-weight-decay Adam update of the flat buffer, in place."""
    if grads.shape != params.shape or params.shape != state.m.shape:
        raise ValueError(f"params/grads/state shape mismatch: {params.shape} / {grads.shape} / {state.m.shape}")
    if not np.all(np.isfinite(grads)):
        first = np.flatnonzero(~np.isfinite(grads))[0]
        raise FloatingPointError(f"non-finite gradient for parameter {first}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    m, v, p = state.m, state.v, params
    s, r = state.scratch  # the terms below in the order lr * (m / bc1) / (sqrt(v / bc2) + eps)
    m *= ADAM_BETA1
    m += np.multiply(grads, 1.0 - ADAM_BETA1, out=s)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(grads, 1.0 - ADAM_BETA2, out=s), grads, out=s)
    np.multiply(np.divide(m, bc1, out=s), state.lr, out=s)
    np.sqrt(np.divide(v, bc2, out=r), out=r)
    r += ADAM_EPS
    p -= np.divide(s, r, out=s)
    p -= np.multiply(p, state.lr * ADAM_WEIGHT_DECAY, out=s)


# ------------------------------------------------------------------ grad check

def grad_check(loss_fn, params: np.ndarray, eps: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences.

    params is a flat parameter buffer (or a slice view of one); loss_fn()
    must return (scalar loss, gradient vector aligned with params)
    evaluated at the params' current values.  It is re-invoked with each
    entry perturbed by +/- eps.  A non-finite error (a NaN or infinite loss,
    gradient or difference) returns inf, so no tolerance passes it.
    """
    if not 0 < eps < np.inf:
        raise ValueError(f"grad-check eps must be > 0 and finite, got {eps}")
    _, analytic = loss_fn()
    analytic = np.array(analytic, dtype=np.float64)  # a copy: loss_fn may reuse its gradient buffer
    if params.ndim != 1 or analytic.shape != params.shape:
        raise ValueError(f"params {params.shape} and gradient {analytic.shape} must be matching flat vectors")
    worst = 0.0
    for j in range(params.size):
        orig = params[j]
        # a huge eps may overflow; the non-finite error below reports that
        with np.errstate(over="ignore", invalid="ignore"):
            params[j] = orig + eps
            lp, _ = loss_fn()
            params[j] = orig - eps
            lm, _ = loss_fn()
        params[j] = orig
        numeric = (lp - lm) / (2.0 * eps)
        denom = max(1e-8, abs(analytic[j]) + abs(numeric))
        err = abs(analytic[j] - numeric) / denom
        if not np.isfinite(err):
            return float("inf")
        worst = max(worst, err)
    return float(worst)


# ------------------------------------------------------------------ checkpoints

def save_checkpoint(path: str, components: dict[str, ModelParams], meta: dict) -> None:
    """Write a json manifest at `path` and the parameter blob at `path`.bin.

    The blob is little-endian float64, components in sorted name order,
    each layer's W (row-major) then b.
    """
    manifest = {
        "format": "emocluster-checkpoint-v1",
        "blob": "f8-little-endian",
        "meta": meta,
        "components": {
            name: {
                "layers": [
                    {"in": l.W.shape[1], "out": l.W.shape[0], "activation": l.activation}
                    for l in model.layers
                ],
            }
            for name, model in components.items()
        },
    }
    write_jsonl(path, [manifest])
    with open(path + ".bin", "wb") as fh:
        fh.write(struct.pack("<4sI", b"EMC1", len(components)))
        for name in sorted(components):
            for layer in components[name].layers:
                fh.write(layer.W.astype("<f8").tobytes())
                fh.write(layer.b.astype("<f8").tobytes())


def _component_layers(path: str, name: str, spec) -> list[dict]:
    """A manifest component's layer list, checked before its blob is read:
    at least one layer, each with positive integer "in" and "out" and a known
    activation name, and each layer's "in" the previous layer's "out"."""
    where = f"{path}: component {name!r}"
    layers = spec.get("layers") if isinstance(spec, dict) else None
    if not isinstance(layers, list) or not all(
        isinstance(l, dict) and isinstance(l.get("activation"), str)
        and all(type(l.get(k)) is int and l[k] > 0 for k in ("in", "out"))
        for l in layers
    ):
        raise ValueError(f"{where} has a malformed layer list")
    if not layers:
        raise ValueError(f"{where}: a model needs at least one layer")
    for i, l in enumerate(layers):
        if l["activation"] not in ACTIVATIONS:
            raise ValueError(f"{where}: unknown activation {l['activation']!r}")
        if i and l["in"] != layers[i - 1]["out"]:
            raise ValueError(f"{where}: layer {i}: expects input dim {l['in']}, got {layers[i - 1]['out']}")
    return layers


def load_checkpoint(path: str) -> tuple[dict[str, ModelParams], dict]:
    manifest = read_json(path, "checkpoint manifest")
    if manifest.get("format") != "emocluster-checkpoint-v1":
        raise ValueError(f"{path}: not an emocluster checkpoint manifest")
    if not isinstance(manifest.get("components"), dict):
        raise ValueError(f"{path}: checkpoint manifest has no components object")
    meta = manifest.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: checkpoint meta must be a json object, not {type(meta).__name__}")
    names = sorted(manifest["components"])
    with open(path + ".bin", "rb") as fh:
        header = fh.read(8)
        if len(header) < 8:
            raise ValueError(f"{path}.bin: truncated checkpoint header ({len(header)} of 8 bytes)")
        magic, count = struct.unpack("<4sI", header)
        if magic != b"EMC1":
            raise ValueError(f"{path}.bin: bad checkpoint blob magic")
        if count != len(names):
            raise ValueError(f"{path}.bin: header counts {count} components, manifest lists {len(names)}")
        blob = fh.read()
    components: dict[str, ModelParams] = {}
    off = 0

    def take(n: int, name: str) -> np.ndarray:
        nonlocal off
        if off + 8 * n > len(blob):
            raise ValueError(f"{path}.bin: blob ends inside component {name!r} at offset {8 + off}")
        values = np.frombuffer(blob, dtype="<f8", count=n, offset=off).copy()
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: component {name!r}: non-finite layer parameters")
        off += 8 * n
        return values

    for name in names:
        layers = []
        for lspec in _component_layers(path, name, manifest["components"][name]):
            W = take(lspec["out"] * lspec["in"], name).reshape(lspec["out"], lspec["in"])
            layers.append(DenseLayer(W=W, b=take(lspec["out"], name), activation=lspec["activation"]))
        components[name] = ModelParams(layers)
    if off != len(blob):
        raise ValueError(f"{path}.bin: blob size does not match manifest")
    return components, meta
