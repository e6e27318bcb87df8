"""Minimal dense network substrate: layers, activations, AdamW,
finite-difference gradient checking, and checkpoint I/O.

Everything runs in float64; reverse-mode gradients are exact for the
affine/activation stack, which keeps finite-difference agreement tight
enough for 1e-5 relative tolerances.  Classifier heads end at their
logits: the softmax belongs to the cross-entropy loss, not the network.
"""

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .serialize import canonical_dumps

ACTIVATIONS = ("relu", "tanh", "identity")


@dataclass
class DenseLayer:
    W: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)
    activation: str

    def validate(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.W.ndim != 2 or self.b.ndim != 1 or self.W.shape[0] != self.b.shape[0]:
            raise ValueError(f"inconsistent layer shapes {self.W.shape} / {self.b.shape}")
        if not (np.all(np.isfinite(self.W)) and np.all(np.isfinite(self.b))):
            raise ValueError("non-finite layer parameters")


@dataclass
class ModelParams:
    layers: list[DenseLayer]

    @property
    def input_dim(self) -> int:
        return self.layers[0].W.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].W.shape[0]

    def validate(self) -> None:
        if not self.layers:
            raise ValueError("a model needs at least one layer")
        for layer in self.layers:
            layer.validate()
        for i, (prev, layer) in enumerate(zip(self.layers, self.layers[1:]), start=1):
            if layer.W.shape[1] != prev.W.shape[0]:
                raise ValueError(f"layer {i}: expects input dim {layer.W.shape[1]}, got {prev.W.shape[0]}")


def init_dense(rng: np.random.Generator, in_dim: int, out_dim: int, activation: str) -> DenseLayer:
    """Scaled uniform fan-in init; biases start at zero."""
    limit = 1.0 / np.sqrt(in_dim)
    W = rng.uniform(-limit, limit, size=(out_dim, in_dim))
    return DenseLayer(W=W, b=np.zeros(out_dim), activation=activation)


def make_mlp(rng: np.random.Generator, dims: list[int], activations: list[str]) -> ModelParams:
    if len(dims) != len(activations) + 1:
        raise ValueError("dims must have one more entry than activations")
    layers = [
        init_dense(rng, dims[i], dims[i + 1], activations[i]) for i in range(len(activations))
    ]
    model = ModelParams(layers)
    model.validate()
    return model


def clone_params(model: ModelParams) -> ModelParams:
    return ModelParams([DenseLayer(l.W.copy(), l.b.copy(), l.activation) for l in model.layers])


def param_count(*models: ModelParams) -> int:
    return sum(l.W.size + l.b.size for model in models for l in model.layers)


def flatten_params(*models: ModelParams) -> np.ndarray:
    """Move every W and b of the models into one contiguous float64 buffer.

    The layers keep views into the returned buffer, so an in-place update
    of the buffer updates the models.  Order: models as given, each layer's
    W (row-major) then b -- the order `backward` writes gradients in.
    """
    flat = np.empty(param_count(*models))
    off = 0
    for model in models:
        for layer in model.layers:
            for name in ("W", "b"):
                arr = getattr(layer, name)
                view = flat[off : off + arr.size].reshape(arr.shape)
                view[...] = arr
                setattr(layer, name, view)
                off += arr.size
    return flat


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    if activation == "tanh":
        return np.tanh(z)
    return z


def _activation_backward(grad_a: np.ndarray, z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return grad_a * (z > 0)
    if activation == "tanh":
        t = np.tanh(z)
        return grad_a * (1.0 - t * t)
    return grad_a


def forward(params: ModelParams, x: np.ndarray):
    """Run the stack on a (batch, input_dim) array.

    Returns (output, cache); the cache keeps each layer's input and
    pre-activation for the backward pass.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"input shape {x.shape} does not match input_dim {params.input_dim}")
    cache = []
    a = x
    for layer in params.layers:
        z = a @ layer.W.T + layer.b
        cache.append((a, z))
        a = _activate(z, layer.activation)
    return a, cache


def backward(params: ModelParams, cache, grad_out: np.ndarray):
    """Reverse-mode gradients through the stack, given grad_out = dLoss/d(output).

    Returns (flat parameter gradient in `flatten_params` order, gradient
    wrt the input batch).
    """
    if len(cache) != len(params.layers):
        raise ValueError("cache does not match model layers")
    flat = np.empty(param_count(params))
    off = flat.size
    g = np.asarray(grad_out, dtype=np.float64)
    for i in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[i]
        x_in, z = cache[i]
        if g.shape != z.shape:
            raise ValueError(f"layer {i}: gradient shape {g.shape} does not match {z.shape}")
        dz = _activation_backward(g, z, layer.activation)
        off -= layer.b.size
        dz.sum(axis=0, out=flat[off : off + layer.b.size])
        off -= layer.W.size
        np.matmul(dz.T, x_in, out=flat[off : off + layer.W.size].reshape(layer.W.shape))
        g = dz @ layer.W
    return flat, g


# -------------------------------------------------------------------- optimizer

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
ADAM_WEIGHT_DECAY = 0.01


@dataclass
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float


def init_optimizer(params: np.ndarray, lr: float) -> OptimizerState:
    """Zero moments shaped like the flat parameter buffer."""
    return OptimizerState(m=np.zeros_like(params), v=np.zeros_like(params), step=0, lr=lr)


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
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grads
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grads * grads
    p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    p -= state.lr * ADAM_WEIGHT_DECAY * p


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
    analytic = np.asarray(analytic, dtype=np.float64)
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
                "kind": name,
                "input_dim": model.input_dim,
                "output_dim": model.output_dim,
                "layers": [
                    {"in": l.W.shape[1], "out": l.W.shape[0], "activation": l.activation}
                    for l in model.layers
                ],
            }
            for name, model in components.items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(manifest))
        fh.write("\n")
    with open(path + ".bin", "wb") as fh:
        fh.write(struct.pack("<4sI", b"EMC1", len(components)))
        for name in sorted(components):
            for layer in components[name].layers:
                fh.write(layer.W.astype("<f8").tobytes())
                fh.write(layer.b.astype("<f8").tobytes())


def load_checkpoint(path: str) -> tuple[dict[str, ModelParams], dict]:
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != "emocluster-checkpoint-v1":
        raise ValueError(f"{path}: not an emocluster checkpoint manifest")
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
        off += 8 * n
        return values

    for name in names:
        spec = manifest["components"][name]
        layers = []
        for lspec in spec["layers"]:
            W = take(lspec["out"] * lspec["in"], name).reshape(lspec["out"], lspec["in"])
            layers.append(DenseLayer(W=W, b=take(lspec["out"], name), activation=lspec["activation"]))
        model = ModelParams(layers)
        model.validate()
        dims = (model.input_dim, model.output_dim)
        if (int(spec["input_dim"]), int(spec["output_dim"])) != dims:
            raise ValueError(f"{path}: component {name!r} declares other dims than its layers' {dims}")
        components[name] = model
    if off != len(blob):
        raise ValueError(f"{path}.bin: blob size does not match manifest")
    return components, manifest.get("meta", {})
