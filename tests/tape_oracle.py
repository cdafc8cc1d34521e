"""Taped reference implementations: the oracle for the explicit passes.

Every function here composes ``uqkit.autodiff`` primitives, so under
``value_and_grad`` (or a ``Tape``) it is differentiated by the
reverse-mode tape. The library's own forward/backward pass
(``mlp.mlp_activations``/``mlp.mlp_backward``) performs the same
floating-point operations in the same order, and the tests compare the
two bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from uqkit import autodiff as ad
from uqkit.data import CLASSIFICATION
from uqkit.mlp import MlpConfig, param_count
from uqkit.numerics import softmax

_LOG_2PI = math.log(2.0 * math.pi)


def taped_forward(cfg: MlpConfig, theta: ad.Var, inputs: np.ndarray):
    """The MLP forward pass on a tape variable (n x output_dim)."""
    if np.shape(theta.value) != (param_count(cfg),):
        raise ValueError(f"parameter vector has wrong length; expected {param_count(cfg)}")
    act = ad.tanh if cfg.activation == "tanh" else ad.relu
    dims = cfg.dims
    h = np.asarray(inputs, dtype=np.float64)
    offset = 0
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        stop = offset + fan_in * fan_out
        w = ad.reshape(ad.take_slice(theta, offset, stop), (fan_in, fan_out))
        b = ad.take_slice(theta, stop, stop + fan_out)
        h = h @ w + b
        if i < len(dims) - 2:
            h = act(h)
        offset = stop + fan_out
    return h


def mean_nll(cfg: MlpConfig, theta, inputs: np.ndarray, targets: np.ndarray, task: str):
    """Mean data NLL over a batch, as a tape variable."""
    out = taped_forward(cfg, theta, inputs)
    n = inputs.shape[0]
    if task == CLASSIFICATION:
        onehot = np.zeros((n, cfg.output_dim))
        onehot[np.arange(n), np.asarray(targets, dtype=np.int64)] = 1.0
        m = ad.vmax(out, axis=1)
        shifted = out - ad.reshape(m, (n, 1))
        lse = m + ad.log(ad.vsum(ad.exp(shifted), axis=1))
        picked = ad.vsum(out * onehot, axis=1)
        return ad.vsum(lse - picked) / n
    mu = ad.take_column(out, 0)
    log_var = ad.take_column(out, 1)
    resid = np.asarray(targets, dtype=np.float64) - mu
    return 0.5 * ad.vsum(log_var + resid * resid * ad.exp(-log_var) + _LOG_2PI) / n


def penalized_loss(cfg: MlpConfig, theta, inputs, targets, task: str, weight_decay: float):
    """Mean NLL plus the (weight_decay / 2) * ||theta||^2 ridge penalty."""
    loss = mean_nll(cfg, theta, inputs, targets, task)
    if weight_decay > 0:
        loss = loss + (weight_decay / 2.0) * ad.vsum(theta * theta)
    return loss


def advi_objective(cfg: MlpConfig, phi, inputs, targets, task: str, zs, prior_precision: float,
                   n_total: int):
    """Negative ELBO at fixed noise draws ``zs``; ``phi`` stacks (mean, log_std)."""
    p = len(zs[0])
    mu = ad.take_slice(phi, 0, p)
    log_std = ad.take_slice(phi, p, 2 * p)
    std = ad.exp(log_std)
    data_term = None
    for z in zs:
        nll = mean_nll(cfg, mu + std * z, inputs, targets, task)
        data_term = nll if data_term is None else data_term + nll
    kl = 0.5 * ad.vsum(
        prior_precision * (mu * mu + std * std)
        - 1.0
        - math.log(prior_precision)
        - 2.0 * log_std
    )
    return (n_total / len(zs)) * data_term + kl


def laplace_ggn(cfg: MlpConfig, theta: np.ndarray, inputs: np.ndarray, task: str) -> np.ndarray:
    """The GGN diagonal of ``laplace_fit`` by one tape and k backward
    sweeps per input row, summed in row order."""
    p = theta.size
    ggn = np.zeros(p)
    for i in range(inputs.shape[0]):
        tape = ad.Tape()
        tv = tape.input(theta)
        out = taped_forward(cfg, tv, inputs[i : i + 1])
        if task == CLASSIFICATION:
            k = cfg.output_dim
            jac = np.empty((k, p))
            for c in range(k):
                jac[c] = tape.gradient(ad.vsum(ad.take_column(out, c)), tv)
            probs = softmax(out.value[0])
            weighted = probs @ jac
            ggn += probs @ (jac * jac) - weighted**2
        else:
            g = tape.gradient(ad.vsum(ad.take_column(out, 0)), tv)
            var = math.exp(float(out.value[0, 1]))
            ggn += g * g / var
    return ggn
