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

from .data import check_value
from .numerics import check_finite, check_labels, softmax

T_MIN = 0.01
T_MAX = 100.0

# fit_temperature's methods, and the schema fragment of a config's temperature_method
TEMPERATURE_METHODS = ("golden", "adam")
METHOD_SCHEMA = {"enum": list(TEMPERATURE_METHODS)}

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
    """Row-wise softmax of logits / t. A larger logit never gets a smaller
    probability, but logits closer than rounding resolves (0 and -1e-46)
    come out tied, so a row keeps its argmax only if its top two differ."""
    z = check_finite(logits, "logits")
    t = float(t)
    if not T_MIN <= t <= T_MAX:
        raise ValueError(f"temperature must lie in [{T_MIN}, {T_MAX}], got {t}")
    with np.errstate(over="ignore"):
        scaled = z / t
        if not np.all(np.isfinite(scaled)):
            # past the float range: shift rows by their max, so only zero shares overflow
            scaled = np.maximum((z - z.max(axis=-1, keepdims=True)) / t, -np.finfo(float).max)
    return softmax(scaled, axis=-1)


def _row_sums(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sum of each column of the (K, n) array ``a``, in ``out``.

    Whole rows of n are added in the order numpy's add-reduce takes over a
    contiguous row of K: left to right below 8 terms; from 8 to 128, eight
    running sums, combined as ((0+1)+(2+3))+((4+5)+(6+7)), then the rest
    left to right; past 128, the sums of the two halves split at K/2
    rounded down to a multiple of 8. The reduce starts from 0.0, so a sum
    of -0.0 alone is 0.0. So ``out`` equals ``np.sum(a.T.copy(), axis=1)``
    byte for byte, NaN payloads aside.
    """
    k = len(a)
    if k < 8:
        np.copyto(out, a[0])
        for row in a[1:]:
            out += row
    elif k <= 128:
        top = k - k % 8
        r = a[:8] if top == 8 else np.add(a[:8], a[8:16])
        for i in range(16, top, 8):
            r += a[i : i + 8]
        np.add(r[0], r[1], out=out)
        t = r[2] + r[3]
        out += t
        np.add(r[4], r[5], out=t)
        t += r[6] + r[7]
        out += t
        for row in a[top:]:
            out += row
    else:
        half = k // 2 - k // 2 % 8
        _row_sums(a[:half], out)
        out += _row_sums(a[half:], np.empty_like(out))
    out += 0.0
    return out


class _ScaledNll:
    """The mean NLL of softmax(beta * logits) and its derivative in beta,
    for one fit's logits and targets.

    The logits are kept class-major, as one C-contiguous (K, n) copy, so
    every elementwise pass runs over whole rows of n and the row-max shift
    is a row broadcast. The row max, the picked logits and max|logits| are
    taken once, and each evaluation runs in one (K, n) work buffer. The
    two sums over a row's K classes go through ``_row_sums``, in numpy's
    own pairwise order, so every value equals the textbook form's on
    C-ordered (n, K) logits bit for bit, whatever the layout of the logits
    passed. For beta > 0 rounding is monotone, so fl(beta * row max) is the
    row max of fl(beta * logits), and fl(beta * max|logits|) overflows
    exactly when some fl(beta * logits) does.
    """

    def __init__(self, logits: np.ndarray, targets: np.ndarray):
        self.z = np.ascontiguousarray(logits.T)
        n = self.z.shape[1]
        self.zmax = self.z.max(axis=0)
        self.picked = self.z[targets, np.arange(n)]
        self.zabs = float(np.max(np.abs(self.z)))
        self.buf = np.empty_like(self.z)
        self.sums = np.empty(n)

    def _exp_shifted(self, beta: float, m: np.ndarray) -> np.ndarray:
        """exp(beta * logits - m) in the work buffer."""
        buf = np.multiply(self.z, beta, out=self.buf)
        buf -= m
        return np.exp(buf, out=buf)

    def __call__(self, beta: float) -> float:
        m = beta * self.zmax
        m = np.where(np.isfinite(m), m, 0.0)  # log_sum_exp's guard on an infinite max
        lse = np.log(_row_sums(self._exp_shifted(beta, m), self.sums)) + m
        return float(np.mean(lse - beta * self.picked))

    def grad(self, beta: float) -> float:
        """d NLL / d beta; NaN when beta * logits overflows."""
        if not np.isfinite(beta * self.zabs):
            return np.nan
        p = self._exp_shifted(beta, beta * self.zmax)
        p /= _row_sums(p, self.sums)
        p *= self.z
        return float(np.mean(_row_sums(p, self.sums) - self.picked))


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


def _adam_beta(nll: _ScaledNll) -> tuple[float, int]:
    """Fit beta by full-batch Adam on the NLL; a step that overflows ends it."""
    beta = 1.0
    m = v = 0.0
    for step in range(1, _ADAM_STEPS + 1):
        grad = nll.grad(beta)
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
    check_value(METHOD_SCHEMA, method, ("method",))

    # Near the float limit an NLL or a search step can overflow: the NLLs
    # come out infinite (callers check them) and Adam stops at the step
    # that overflowed, so numpy's warnings would only repeat that.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nll = _ScaledNll(z, y)
        nll_before = nll(1.0)
        if np.all(nll.zmax == nll.z.min(axis=0)):  # every row is constant
            return TemperatureFit(
                temperature=1.0,
                nll_before=nll_before,
                nll_after=nll_before,
                iterations=0,
                warning="degenerate logits: every row is constant; kept t = 1",
            )
        if method == "golden":
            beta, iterations = _golden_section(nll, 1.0 / T_MAX, 1.0 / T_MIN)
        else:
            beta, iterations = _adam_beta(nll)
        nll_fit = nll(beta)
    if nll_fit <= nll_before:
        t = 1.0 / beta
        nll_after = nll_fit
    else:
        t, nll_after = 1.0, nll_before
    at_bound = bool(t <= T_MIN * (1.0 + 1e-4) or t >= T_MAX * (1.0 - 1e-4))
    return TemperatureFit(
        temperature=float(t),
        nll_before=nll_before,
        nll_after=nll_after,
        iterations=iterations,
        warning="temperature hit a search bound" if at_bound else None,
        at_bound=at_bound,
    )


def fit_variance_scale(means, variances, targets) -> VarianceScaleFit:
    """Closed-form variance scale s = mean(((y - mu) / sigma)^2).

    This is the exact minimizer of the Gaussian NLL over a multiplicative
    scale on the predicted variances; calibrated variances are s * sigma^2.
    The residuals are standardized before they are squared, so a residual
    and a variance both near the float limits still give s to full
    precision. An s below 1e-12 (all-zero residuals, say) is clamped to
    1e-12 with a warning; an s past the float range is a ``ValueError``.
    """
    mu = check_finite(means, "means")
    var = check_finite(variances, "variances")
    y = check_finite(targets, "targets")
    if not (mu.shape == var.shape == y.shape) or mu.ndim != 1 or mu.size < 1:
        raise ValueError("means, variances, and targets must be equal-length vectors")
    if np.any(var <= 0):
        raise ValueError("variances must be strictly positive")
    # an overflow here is the ValueError below, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        z = (y - mu) / np.sqrt(var)
        s = float(np.mean(z * z))
    if not np.isfinite(s):
        raise ValueError("variance scale overflows: residuals too large for the variances")
    if s < 1e-12:
        return VarianceScaleFit(
            scale=1e-12, warning="all residuals are zero; scale clamped to 1e-12"
        )
    return VarianceScaleFit(scale=s)
