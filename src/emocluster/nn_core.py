"""Minimal dense network substrate: layers, activations, gradient reversal,
AdamW, finite-difference gradient checking, and checkpoint I/O.

Everything runs in float64; reverse-mode gradients are exact for the
affine/activation stack (including the full softmax Jacobian), which keeps
finite-difference agreement tight enough for 1e-5 relative tolerances.
"""

import json
import struct
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("relu", "tanh", "softmax", "identity")


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
    input_dim: int
    output_dim: int
    kind: str  # encoder | contrastive | speaker_cls | emotion_cls

    def validate(self) -> None:
        dim = self.input_dim
        for i, layer in enumerate(self.layers):
            layer.validate()
            if layer.W.shape[1] != dim:
                raise ValueError(f"layer {i}: expects input dim {layer.W.shape[1]}, got {dim}")
            dim = layer.W.shape[0]
        if dim != self.output_dim:
            raise ValueError(f"declared output dim {self.output_dim} but layers end at {dim}")


def init_dense(rng: np.random.Generator, in_dim: int, out_dim: int, activation: str) -> DenseLayer:
    """Scaled uniform fan-in init; biases start at zero."""
    limit = 1.0 / np.sqrt(in_dim)
    W = rng.uniform(-limit, limit, size=(out_dim, in_dim))
    return DenseLayer(W=W, b=np.zeros(out_dim), activation=activation)


def make_mlp(rng: np.random.Generator, dims: list[int], activations: list[str], kind: str) -> ModelParams:
    if len(dims) != len(activations) + 1:
        raise ValueError("dims must have one more entry than activations")
    layers = [
        init_dense(rng, dims[i], dims[i + 1], activations[i]) for i in range(len(activations))
    ]
    model = ModelParams(layers=layers, input_dim=dims[0], output_dim=dims[-1], kind=kind)
    model.validate()
    return model


def clone_params(model: ModelParams) -> ModelParams:
    return ModelParams(
        layers=[DenseLayer(l.W.copy(), l.b.copy(), l.activation) for l in model.layers],
        input_dim=model.input_dim,
        output_dim=model.output_dim,
        kind=model.kind,
    )


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    if activation == "tanh":
        return np.tanh(z)
    if activation == "softmax":
        return _softmax(z)
    return z


def _activation_backward(grad_a: np.ndarray, z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return grad_a * (z > 0)
    if activation == "tanh":
        t = np.tanh(z)
        return grad_a * (1.0 - t * t)
    if activation == "softmax":
        s = _softmax(z)
        dot = (grad_a * s).sum(axis=1, keepdims=True)
        return s * (grad_a - dot)
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


def backward(params: ModelParams, cache, grad_out: np.ndarray, from_logits: bool = False):
    """Reverse-mode gradients through the stack.

    grad_out is dLoss/d(output); with from_logits=True it is instead the
    gradient at the final pre-activation (the fused softmax/cross-entropy
    path), so the last activation derivative is skipped.

    Returns (per-layer [(dW, db), ...], gradient wrt the input batch).
    """
    if len(cache) != len(params.layers):
        raise ValueError("cache does not match model layers")
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.layers)
    g = np.asarray(grad_out, dtype=np.float64)
    for i in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[i]
        x_in, z = cache[i]
        if g.shape != z.shape:
            raise ValueError(f"layer {i}: gradient shape {g.shape} does not match {z.shape}")
        if i == len(params.layers) - 1 and from_logits:
            dz = g
        else:
            dz = _activation_backward(g, z, layer.activation)
        grads[i] = (dz.T @ x_in, dz.sum(axis=0))
        g = dz @ layer.W
    return grads, g


def grl_backward(grad: np.ndarray, lam: float) -> np.ndarray:
    """Gradient reversal: identity forward, so only the backward leg exists;
    it scales the gradient by -lambda."""
    if lam < 0:
        raise ValueError("grl lambda must be >= 0")
    return -lam * grad


# -------------------------------------------------------------------- optimizer

@dataclass
class OptimizerState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01


def init_optimizer(params: list[np.ndarray], lr: float, weight_decay: float = 0.01,
                   beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> OptimizerState:
    return OptimizerState(
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        step=0,
        lr=lr,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
        weight_decay=weight_decay,
    )


def adamw_step(state: OptimizerState, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
    """One decoupled-weight-decay Adam update, in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params/grads/state size mismatch")
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {i}")
        if g.shape != params[i].shape:
            raise ValueError(f"parameter {i}: gradient shape {g.shape} != {params[i].shape}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        p -= state.lr * state.weight_decay * p


def model_param_arrays(*models: ModelParams) -> list[np.ndarray]:
    """Flat list of parameter arrays (W then b per layer), trainer order."""
    arrays = []
    for model in models:
        for layer in model.layers:
            arrays.append(layer.W)
            arrays.append(layer.b)
    return arrays


def grads_to_arrays(layer_grads: list[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    out = []
    for dW, db in layer_grads:
        out.append(dW)
        out.append(db)
    return out


# ------------------------------------------------------------------ grad check

def grad_check(loss_fn, params: list[np.ndarray], eps: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences.

    loss_fn() must return (scalar loss, gradient arrays aligned with
    params) evaluated at the params' current values; it is re-invoked with
    each entry perturbed by +/- eps.
    """
    _, analytic = loss_fn()
    worst = 0.0
    for p, a in zip(params, analytic):
        flat_p = p.reshape(-1)
        flat_a = np.asarray(a, dtype=np.float64).reshape(-1)
        for j in range(flat_p.size):
            orig = flat_p[j]
            flat_p[j] = orig + eps
            lp, _ = loss_fn()
            flat_p[j] = orig - eps
            lm, _ = loss_fn()
            flat_p[j] = orig
            numeric = (lp - lm) / (2.0 * eps)
            denom = max(1e-8, abs(flat_a[j]) + abs(numeric))
            worst = max(worst, abs(flat_a[j] - numeric) / denom)
    return float(worst)


# ------------------------------------------------------------------ checkpoints

def save_checkpoint(path: str, components: dict[str, ModelParams], meta: dict) -> None:
    """Write a json manifest at `path` and the parameter blob at `path`.bin.

    The blob is little-endian float64, components in sorted name order,
    each layer's W (row-major) then b.
    """
    from .serialize import canonical_dumps

    manifest = {
        "format": "emocluster-checkpoint-v1",
        "blob": "f8-little-endian",
        "meta": meta,
        "components": {
            name: {
                "kind": model.kind,
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
    with open(path + ".bin", "rb") as fh:
        magic, _count = struct.unpack("<4sI", fh.read(8))
        if magic != b"EMC1":
            raise ValueError(f"{path}.bin: bad checkpoint blob magic")
        blob = fh.read()
    components: dict[str, ModelParams] = {}
    off = 0
    for name in sorted(manifest["components"]):
        spec = manifest["components"][name]
        layers = []
        for lspec in spec["layers"]:
            n_w = lspec["out"] * lspec["in"]
            W = np.frombuffer(blob, dtype="<f8", count=n_w, offset=off).reshape(
                lspec["out"], lspec["in"]
            ).copy()
            off += 8 * n_w
            b = np.frombuffer(blob, dtype="<f8", count=lspec["out"], offset=off).copy()
            off += 8 * lspec["out"]
            layers.append(DenseLayer(W=W, b=b, activation=lspec["activation"]))
        model = ModelParams(
            layers=layers,
            input_dim=int(spec["input_dim"]),
            output_dim=int(spec["output_dim"]),
            kind=str(spec["kind"]),
        )
        model.validate()
        components[name] = model
    if off != len(blob):
        raise ValueError(f"{path}.bin: blob size does not match manifest")
    return components, manifest.get("meta", {})
