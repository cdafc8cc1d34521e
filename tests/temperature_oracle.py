"""Textbook temperature scaling: the oracle for ``calibration``'s fit.

``scaled_nll`` forms beta * logits, its log-sum-exp and the picked logits
afresh at every call, and ``adam_beta`` runs ``numerics.softmax`` at every
step, as the definitions read. ``fit_temperature`` runs them through the
library's golden-section search and bound logic. The library takes the row
max and the picked logits once per fit and evaluates in one buffer; the
tests compare the two bit for bit.
"""

from __future__ import annotations

import numpy as np

from uqkit.calibration import (
    _ADAM_LEARNING_RATE,
    _ADAM_STEPS,
    T_MAX,
    T_MIN,
    TemperatureFit,
    _golden_section,
)
from uqkit.numerics import log_sum_exp, softmax


def scaled_nll(logits: np.ndarray, targets: np.ndarray, beta: float) -> float:
    """Mean NLL of softmax(beta * logits); beta is inverse temperature."""
    z = beta * logits
    lse = log_sum_exp(z, axis=1)
    picked = z[np.arange(z.shape[0]), targets]
    return float(np.mean(lse - picked))


def adam_beta(logits: np.ndarray, targets: np.ndarray) -> tuple[float, int]:
    """Fit beta by full-batch Adam on the NLL; a step that overflows ends it."""
    n = logits.shape[0]
    rows = np.arange(n)
    beta = 1.0
    m = v = 0.0
    for step in range(1, _ADAM_STEPS + 1):
        try:
            p = softmax(beta * logits, axis=1)
        except ValueError:  # beta * logits overflowed
            return beta, step - 1
        grad = float(np.mean(np.sum(p * logits, axis=1) - logits[rows, targets]))
        if not np.isfinite(grad):
            return beta, step - 1
        m = 0.9 * m + 0.1 * grad
        v = 0.999 * v + 0.001 * grad * grad
        m_hat = m / (1.0 - 0.9**step)
        v_hat = v / (1.0 - 0.999**step)
        beta -= _ADAM_LEARNING_RATE * m_hat / (np.sqrt(v_hat) + 1e-8)
        beta = min(max(beta, 1.0 / T_MAX), 1.0 / T_MIN)
    return beta, _ADAM_STEPS


def fit_temperature(logits, targets, method: str = "golden") -> TemperatureFit:
    """``calibration.fit_temperature`` on valid inputs, built on the two above."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(targets, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nll_before = scaled_nll(z, y, 1.0)
        if np.all(z == z[:, :1]):
            return TemperatureFit(
                temperature=1.0,
                nll_before=nll_before,
                nll_after=nll_before,
                iterations=0,
                warning="degenerate logits: every row is constant; kept t = 1",
            )
        if method == "golden":
            beta, iterations = _golden_section(
                lambda b: scaled_nll(z, y, b), 1.0 / T_MAX, 1.0 / T_MIN
            )
        else:
            beta, iterations = adam_beta(z, y)
        nll_fit = scaled_nll(z, y, beta)
    if nll_fit <= nll_before:
        t = 1.0 / beta
        nll_after = nll_fit
    else:
        t, nll_after = 1.0, nll_before
    at_bound = t <= T_MIN * (1.0 + 1e-4) or t >= T_MAX * (1.0 - 1e-4)
    return TemperatureFit(
        temperature=float(t),
        nll_before=nll_before,
        nll_after=nll_after,
        iterations=iterations,
        warning="temperature hit a search bound" if at_bound else None,
        at_bound=at_bound,
    )
