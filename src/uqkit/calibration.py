"""Post-hoc calibration of model outputs.

Classification outputs (logits) are calibrated by temperature scaling:
dividing logits by a single fitted scalar chosen to minimize calibration
negative log likelihood. Regression outputs (mean/variance pairs) are
calibrated by a multiplicative variance scale with a closed-form
minimizer of the Gaussian NLL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import check_finite, check_labels, log_sum_exp, softmax

T_MIN = 0.01
T_MAX = 100.0

_GOLDEN_TOL = 1e-6
_GOLDEN_MAX_ITER = 200
_ADAM_LEARNING_RATE = 0.1
_ADAM_STEPS = 300
_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TemperatureFit:
    temperature: float
    nll_before: float
    nll_after: float
    iterations: int
    warning: str | None = None
    at_bound: bool = False


@dataclass(frozen=True)
class VarianceScaleFit:
    scale: float
    warning: str | None = None


def apply_temperature(logits, t: float) -> np.ndarray:
    """Row-wise softmax of logits / t. Any t > 0 preserves each row's argmax."""
    z = check_finite(logits, "logits")
    t = float(t)
    if not T_MIN <= t <= T_MAX:
        raise ValueError(f"temperature must lie in [{T_MIN}, {T_MAX}], got {t}")
    return softmax(z / t, axis=-1)


def _scaled_nll(logits: np.ndarray, targets: np.ndarray, beta: float) -> float:
    """Mean NLL of softmax(beta * logits); beta is inverse temperature."""
    z = beta * logits
    lse = log_sum_exp(z, axis=1)
    picked = z[np.arange(z.shape[0]), targets]
    return float(np.mean(lse - picked))


def _golden_section(f, lo: float, hi: float) -> tuple[float, int]:
    """Minimize a unimodal scalar function on [lo, hi]."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    iterations = 0
    while b - a > _GOLDEN_TOL and iterations < _GOLDEN_MAX_ITER:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
        iterations += 1
    return 0.5 * (a + b), iterations


def _adam_beta(logits, targets) -> tuple[float, int]:
    """Fit the inverse temperature by full-batch Adam on the NLL."""
    n = logits.shape[0]
    rows = np.arange(n)
    beta = 1.0
    m = v = 0.0
    for step in range(1, _ADAM_STEPS + 1):
        p = softmax(beta * logits, axis=1)
        grad = float(np.mean(np.sum(p * logits, axis=1) - logits[rows, targets]))
        m = 0.9 * m + 0.1 * grad
        v = 0.999 * v + 0.001 * grad * grad
        m_hat = m / (1.0 - 0.9**step)
        v_hat = v / (1.0 - 0.999**step)
        beta -= _ADAM_LEARNING_RATE * m_hat / (np.sqrt(v_hat) + 1e-8)
        beta = min(max(beta, 1.0 / T_MAX), 1.0 / T_MIN)
    return beta, _ADAM_STEPS


def fit_temperature(logits, targets, method: str = "golden") -> TemperatureFit:
    """Fit the temperature minimizing calibration NLL over [0.01, 100].

    The search runs over the inverse temperature beta = 1/t, where the
    NLL is smooth and well-behaved. ``method="golden"`` (default) is a
    deterministic golden-section search to absolute tolerance 1e-6;
    ``method="adam"`` runs 300 steps of full-batch Adam at learning rate
    0.1. Either way the fitted NLL never exceeds the uncalibrated NLL:
    t = 1 is kept when the search cannot beat it.

    Degenerate inputs whose rows are all constant carry no calibration
    signal; those return t = 1 with a warning.
    """
    z = check_finite(logits, "logits")
    if z.ndim != 2 or z.shape[1] < 2:
        raise ValueError("logits must be an n x K matrix with K >= 2")
    y = check_labels(targets, z.shape[1], "targets")
    if y.shape[0] != z.shape[0]:
        raise ValueError("logits and targets disagree on length")
    if method not in ("golden", "adam"):
        raise ValueError(f"unknown method {method!r}")

    nll_before = _scaled_nll(z, y, 1.0)
    if np.max(np.abs(z - z.mean(axis=1, keepdims=True))) == 0.0:
        return TemperatureFit(
            temperature=1.0,
            nll_before=nll_before,
            nll_after=nll_before,
            iterations=0,
            warning="degenerate logits: every row is constant; kept t = 1",
        )

    if method == "golden":
        beta, iterations = _golden_section(
            lambda b: _scaled_nll(z, y, b), 1.0 / T_MAX, 1.0 / T_MIN
        )
    else:
        beta, iterations = _adam_beta(z, y)

    nll_fit = _scaled_nll(z, y, beta)
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


def fit_variance_scale(means, variances, targets) -> VarianceScaleFit:
    """Closed-form variance scale s = mean((y - mu)^2 / sigma^2).

    This is the exact minimizer of the Gaussian NLL over a multiplicative
    scale on the predicted variances; calibrated variances are s * sigma^2.
    All-zero residuals clamp s to 1e-12 with a warning.
    """
    mu = check_finite(means, "means")
    var = check_finite(variances, "variances")
    y = check_finite(targets, "targets")
    if not (mu.shape == var.shape == y.shape) or mu.ndim != 1 or mu.size < 1:
        raise ValueError("means, variances, and targets must be equal-length vectors")
    if np.any(var <= 0):
        raise ValueError("variances must be strictly positive")
    s = float(np.mean((y - mu) ** 2 / var))
    if s < 1e-12:
        return VarianceScaleFit(
            scale=1e-12, warning="all residuals are zero; scale clamped to 1e-12"
        )
    return VarianceScaleFit(scale=s)
