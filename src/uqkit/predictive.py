"""Predictive statistics from an approximate posterior.

A command draws one ``(n, P)`` weight matrix with ``sample_weights``
(``posterior_sample`` owns the per-kind default n) and hands it to every
reduction: class probability means, regression moments split into
aleatoric and epistemic parts, and sampled credible intervals, so
calibration, conformal, and metric inputs share one set of weights.
Predictive entropy is ``numerics.entropy`` of the class probability mean.
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


@dataclass(frozen=True)
class RegressionMoments:
    mean: np.ndarray
    variance: np.ndarray  # aleatoric + epistemic, exactly
    aleatoric: np.ndarray
    epistemic: np.ndarray
    draw_means: np.ndarray  # (draws, inputs): each weight draw's predicted mean
    draw_variances: np.ndarray  # (draws, inputs): each draw's predicted noise


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


def predictive_mean_classification(thetas, cfg: MlpConfig, inputs) -> np.ndarray:
    """Posterior-averaged class probabilities, one row per input."""
    return np.mean([softmax(z, axis=1) for z in _forward(thetas, cfg, inputs)], axis=0)


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

    For each weight draw of ``moments`` one observation per input is
    sampled from that draw's predicted Gaussian, and the interval is the
    empirical alpha/2 and 1 - alpha/2 quantile pair (k = ceil(q * S)
    order statistics) of the pooled draws. The noise comes from ``rng``,
    normally the stream ``sample_weights`` returned with the weights.
    """
    alpha = _check_alpha(alpha)
    s, n = moments.draw_means.shape
    if s < 2.0 / alpha:
        warnings.warn(
            f"only {s} posterior draws for alpha={alpha}; tail quantiles "
            "are unreliable (need at least 2/alpha)",
            stacklevel=2,
        )
    draws = np.empty((s, n))
    for j in range(s):
        eps = rng.normals(n)
        draws[j] = moments.draw_means[j] + np.sqrt(moments.draw_variances[j]) * eps
    k_lo = max(math.ceil(0.5 * alpha * s), 1)
    k_hi = max(math.ceil((1.0 - 0.5 * alpha) * s), 1)
    return _make_intervals(
        kth_smallest_columns(draws, k_lo), kth_smallest_columns(draws, k_hi)
    )
