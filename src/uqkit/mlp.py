"""A small multilayer perceptron over a flat parameter vector.

Parameters live in one flat 64-bit vector with a fixed layer-major
layout: for each layer, the weight matrix (fan_in x fan_out, row-major)
followed by the bias vector. ``mlp_activations`` and ``mlp_backward``
are the one forward/backward pair, sharing one ``unpack_params`` per
step: training steps run them on an ``(S, n, d)`` stack of batches with
an ``(S, P)`` stack of parameter vectors (one lane per fit), and
``laplace_fit`` runs them over leading batch axes to get per-sample
output Jacobians. The reverse-mode tape in
``autodiff`` is not used here; the tests hold a taped copy of this
forward pass as the oracle the backward pass must equal bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .rng import Rng, child_seed

ACTIVATIONS = ("tanh", "relu")

# JSON Schema of ``MlpConfig.to_dict()``, the ``model`` of a state document
MODEL_SCHEMA = {
    "type": "object", "additionalProperties": False,
    "required": ["input_dim", "hidden_widths", "output_dim", "activation", "init_seed"],
    "properties": {
        "input_dim": {"type": "integer", "minimum": 1},
        "hidden_widths": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "output_dim": {"type": "integer", "minimum": 1},
        "activation": {"enum": list(ACTIVATIONS)},
        "init_seed": {"type": "integer"},
    },
}


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int
    hidden_widths: tuple[int, ...]
    output_dim: int
    activation: str = "tanh"
    init_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(self.hidden_widths))
        if any(d < 1 for d in self.dims):
            raise ValueError("all layer dimensions must be at least 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_widths, self.output_dim)

    def to_dict(self) -> dict:
        return dict(asdict(self), hidden_widths=list(self.hidden_widths))


@lru_cache(maxsize=64)
def param_count(cfg: MlpConfig) -> int:
    dims = cfg.dims
    return sum((dims[i] + 1) * dims[i + 1] for i in range(len(dims) - 1))


def init_params(cfg: MlpConfig) -> np.ndarray:
    """Seeded scaled-uniform fan-in initialization.

    Layer l weights are U(-a, a) with a = sqrt(6 / fan_in), drawn
    row-major from the child stream (init_seed, l); biases start at zero.
    """
    dims = cfg.dims
    theta = np.empty(param_count(cfg))
    offset = 0
    for layer in range(len(dims) - 1):
        fan_in, fan_out = dims[layer], dims[layer + 1]
        a = np.sqrt(6.0 / fan_in)
        stream = Rng(child_seed(cfg.init_seed, layer))
        w = a * (2.0 * stream.uniforms(fan_in * fan_out) - 1.0)
        theta[offset : offset + fan_in * fan_out] = w
        offset += fan_in * fan_out
        theta[offset : offset + fan_out] = 0.0
        offset += fan_out
    return theta


def unpack_params(cfg: MlpConfig, theta) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a flat parameter vector, or an ``(S, P)`` stack of them, into
    (W, b) pairs, as views into it: W is ``(..., fan_in, fan_out)`` and b
    ``(..., 1, fan_out)``, so ``h @ W + b`` applies lane s's layer to lane
    s's rows."""
    theta = np.asarray(theta, dtype=np.float64)
    p = param_count(cfg)
    if theta.ndim not in (1, 2) or theta.shape[-1] != p:
        raise ValueError(f"parameter vector has wrong length; expected {p}")
    lead = theta.shape[:-1]
    dims = cfg.dims
    layers = []
    offset = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        stop = offset + fan_in * fan_out
        layers.append((
            theta[..., offset:stop].reshape(*lead, fan_in, fan_out),
            theta[..., None, stop : stop + fan_out],
        ))
        offset = stop + fan_out
    return layers


def mlp_forward(cfg: MlpConfig, theta, inputs: np.ndarray):
    """Forward pass producing the raw output matrix (n x output_dim).

    For classification the outputs are logits; for regression rows hold a
    (mean, log-variance) pair, so output_dim is 2.
    """
    for h in mlp_activations(cfg, unpack_params(cfg, theta), inputs):
        pass  # keep only the current layer alive, not every layer's output
    return h


def mlp_activations(cfg: MlpConfig, layers: list, inputs: np.ndarray, out=None):
    """Yield every layer's output, inputs first: x, h_1, ..., h_L, raw output.

    ``layers`` is ``unpack_params(cfg, theta)``. ``inputs`` is ``(..., n,
    input_dim)``; leading axes are batch axes, and with an ``(S, P)``
    stack of parameter vectors the first is the lane axis. ``out``, a
    buffer per layer, takes the outputs instead of new arrays.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim < 2 or inputs.shape[-1] != cfg.input_dim:
        raise ValueError(
            f"inputs must have shape (n, {cfg.input_dim}), got {inputs.shape}"
        )
    h = inputs
    yield h
    for i, (w, b) in enumerate(layers):
        # the product is a new array or a buffer, so the bias and the activation go in place
        h = h @ w if out is None else np.matmul(h, w, out=out[i])
        h += b
        if i < len(layers) - 1:
            if cfg.activation == "tanh":
                np.tanh(h, out=h)
            else:
                np.maximum(h, 0.0, out=h)
        yield h


def mlp_backward(cfg: MlpConfig, layers: list, hs: list, grad_out: np.ndarray, out=None):
    """Flat parameter gradient from the unpacked ``layers``, the list of
    ``mlp_activations`` and the output's gradient: the tape's
    vector-Jacobian products on the same operands, so it equals the taped
    gradient bit for bit. The final ``+ 0.0`` is the tape's scatter into a
    zero vector (-0.0 -> +0.0).

    ``grad_out`` is ``(..., n, output_dim)``; its leading axes are batch
    axes, to which those of the activations must broadcast. The result
    is ``(..., P)``, one gradient per batch index (into ``out`` if given).
    """
    g = grad_out
    lead = g.shape[:-2]
    grad = np.empty((*lead, param_count(cfg))) if out is None else out
    stop = grad.shape[-1]
    for i in range(len(layers) - 1, -1, -1):
        # layer i's bias and weight gradients, written into their slices
        fan_in, fan_out = layers[i][0].shape[-2:]
        b_start = stop - fan_out
        w_start = b_start - fan_in * fan_out
        g.sum(axis=-2, out=grad[..., b_start:stop])
        w_grad = grad[..., w_start:b_start].reshape(*lead, fan_in, fan_out)
        np.matmul(hs[i].swapaxes(-1, -2), g, out=w_grad)
        stop = w_start
        if i:
            g, h = g @ layers[i][0].swapaxes(-1, -2), hs[i]
            g = g * (1.0 - h * h) if cfg.activation == "tanh" else g * (h > 0.0)
    grad += 0.0
    return grad
