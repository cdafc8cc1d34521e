"""Predictive statistics from an approximate posterior.

A command draws one ``(n, P)`` weight matrix with ``sample_weights``
(``posterior_sample`` owns the per-kind default n) and hands it to every
reduction: class probability means, regression moments split into
aleatoric and epistemic parts, and sampled credible intervals, so
calibration, conformal, and metric inputs share one set of weights.
Predictive entropy is ``numerics.entropy`` of the class probability mean.

The reductions hold every draw's output for the rows they are given, so
callers go through large inputs in ``row_blocks``: the class mean does so
itself, and ``evaluate`` calls the regression moments and intervals once
per block. A row's results do not depend on the block it is in: numpy
sums a stack of two or more rows over axis 0 in draw order, and a block
of one row comes only from a one-row input.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .conformal import Intervals, _check_alpha, _make_intervals
from .mlp import MlpConfig, mlp_forward
from .numerics import kth_smallest_columns, softmax
from .posterior import PosteriorState, posterior_sample
from .rng import Rng

# rows per block of a predictive pass: its memory is O(BLOCK_ROWS x draws)
BLOCK_ROWS = 1024


@dataclass(frozen=True)
class RegressionMoments:
    """The predictive moments of the rows ``predictive_moments_regression``
    was given, normally one block of them."""

    mean: np.ndarray
    variance: np.ndarray  # aleatoric + epistemic, exactly
    aleatoric: np.ndarray
    epistemic: np.ndarray
    draw_means: np.ndarray  # (draws, rows): each weight draw's predicted mean
    draw_variances: np.ndarray  # (draws, rows): each draw's predicted noise


def sample_weights(
    state: PosteriorState, n_samples: int | None = None, seed: int = 0
) -> tuple[np.ndarray, Rng]:
    """``posterior_sample``'s ``(n, P)`` draws from ``state`` and the stream
    that drew them. The stream continues where the draws ended;
    ``credible_interval_regression`` takes its observation noise from it.
    """
    rng = Rng(seed)
    return posterior_sample(state, rng, n_samples), rng


def _forward(thetas, cfg: MlpConfig, inputs) -> list[np.ndarray]:
    inputs = np.asarray(inputs, dtype=np.float64)
    return [mlp_forward(cfg, theta, inputs) for theta in thetas]


def row_blocks(n: int) -> list[slice]:
    """Slices of ``BLOCK_ROWS`` rows covering n rows. A last block of one
    row joins the block before it: numpy multiplies a one-row matrix by
    another routine than a larger one, which can differ in the last bit."""
    edges = [*range(0, n, BLOCK_ROWS), n]
    if n > 1 and n % BLOCK_ROWS == 1:
        del edges[-2]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def predictive_mean_classification(thetas, cfg: MlpConfig, inputs) -> np.ndarray:
    """Posterior-averaged class probabilities, one row per input, reduced
    over the draws one block of rows (``row_blocks``) at a time."""
    inputs = np.asarray(inputs, dtype=np.float64)
    probs = np.empty((len(inputs), cfg.output_dim))
    for rows in row_blocks(len(inputs)):
        probs[rows] = np.mean(
            [softmax(z, axis=1) for z in _forward(thetas, cfg, inputs[rows])], axis=0
        )
    return probs


def predictive_moments_regression(thetas, cfg: MlpConfig, inputs) -> RegressionMoments:
    """Predictive mean and variance, with the variance split into the
    average predicted noise (aleatoric) and the spread of predicted
    means over draws (epistemic, population convention). The per-draw
    Gaussians are kept for ``credible_interval_regression``."""
    outputs = _forward(thetas, cfg, inputs)
    mus = np.stack([out[:, 0] for out in outputs])
    noise = np.stack([np.exp(out[:, 1]) for out in outputs])
    mean = mus.mean(axis=0)
    aleatoric = noise.mean(axis=0)
    epistemic = np.mean((mus - mean) ** 2, axis=0)
    return RegressionMoments(
        mean=mean,
        variance=aleatoric + epistemic,
        aleatoric=aleatoric,
        epistemic=epistemic,
        draw_means=mus,
        draw_variances=noise,
    )


def credible_interval_regression(
    moments: RegressionMoments, alpha: float, rng: Rng
) -> Intervals:
    """Equal-tailed credible intervals from sampled observations.

    For each weight draw of ``moments`` one observation per row is
    sampled from that draw's predicted Gaussian, and the interval is the
    empirical alpha/2 and 1 - alpha/2 quantile pair (k = ceil(q * S)
    order statistics) of the pooled draws. The noise comes from ``rng``,
    normally the stream ``sample_weights`` returned, row by row: the n rows
    take its next n * S normals, row i the S from i * S on, one per draw.
    So blocks of rows, each given the one stream in row order, get the
    noise of one unblocked pass and leave the stream where that pass
    would. Too few draws for alpha warn at every call; Python's default
    filter shows the warning once per call site.
    """
    alpha = _check_alpha(alpha)
    s, n = moments.draw_means.shape
    if s < 2.0 / alpha:
        warnings.warn(
            f"only {s} posterior draws for alpha={alpha}; tail quantiles "
            "are unreliable (need at least 2/alpha)",
            stacklevel=2,
        )
    noise = rng.normals(n * s).reshape(n, s).T
    draws = moments.draw_means + np.sqrt(moments.draw_variances) * noise
    k_lo = max(math.ceil(0.5 * alpha * s), 1)
    k_hi = max(math.ceil((1.0 - 0.5 * alpha) * s), 1)
    return _make_intervals(
        kth_smallest_columns(draws, k_lo), kth_smallest_columns(draws, k_hi)
    )
