"""Conformal prediction: sets for classification, intervals for regression.

Every method here shares one quantile convention: with n calibration
scores and miscoverage level alpha, the threshold is the
k = ceil((n+1)(1-alpha)) smallest score, and +infinity when k > n. That
order statistic preserves the finite-sample marginal coverage guarantee
of split conformal prediction under exchangeability.

Cross-validation style methods (jackknife+, jackknife-minmax, CV+) take a
caller-supplied trainer: a callable ``trainer(inputs, targets, seed)``
returning a predictor ``predict(inputs) -> means``. The trainer must be
deterministic given its arguments; each leave-out or fold fit receives a
deterministic child seed so concurrent and sequential execution agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset
from .errors import UqError
from .numerics import (
    check_finite,
    check_labels,
    check_prob_rows,
    kth_smallest,
    kth_smallest_columns,
)
from .rng import Rng, child_seed

Trainer = Callable[[np.ndarray, np.ndarray, int], Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class PredictionSets:
    """Per-input class label sets, stored as a boolean membership matrix."""

    member: np.ndarray  # (n_inputs, n_classes) bool

    def sizes(self) -> np.ndarray:
        return self.member.sum(axis=1)

    def contains(self, targets) -> np.ndarray:
        """Whether each row's set holds that row's class label."""
        y = check_labels(targets, self.member.shape[1], "targets")
        if y.shape[0] != len(self):
            raise ValueError("prediction sets and targets disagree on length")
        return self.member[np.arange(len(y)), y]

    def __len__(self) -> int:
        return self.member.shape[0]


@dataclass(frozen=True)
class Intervals:
    """Per-input [lower, upper] bounds.

    A method whose adjustment inverts an interval (possible in CQR when
    the conformal quantile is negative) collapses it to the midpoint and
    flags that input in ``collapsed``.
    """

    lower: np.ndarray
    upper: np.ndarray
    collapsed: np.ndarray

    def __len__(self) -> int:
        return self.lower.shape[0]

    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, targets) -> np.ndarray:
        """Whether each closed interval holds its row's finite target."""
        y = check_finite(targets, "targets")
        if y.shape[0] != len(self):
            raise ValueError("intervals and targets disagree on length")
        return (self.lower <= y) & (y <= self.upper)


def _make_intervals(lower: np.ndarray, upper: np.ndarray) -> Intervals:
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    collapsed = upper < lower
    if np.any(collapsed):
        mid = 0.5 * (lower + upper)
        lower = np.where(collapsed, mid, lower)
        upper = np.where(collapsed, mid, upper)
    return Intervals(lower=lower, upper=upper, collapsed=collapsed)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def conformal_quantile(scores, alpha: float) -> float:
    """ceil((n+1)(1-alpha))-th smallest score; +inf when the rank exceeds n."""
    alpha = _check_alpha(alpha)
    s = np.asarray(scores, dtype=np.float64).ravel()
    n = s.size
    if n < 1:
        raise ValueError("need at least one calibration score")
    k = math.ceil((n + 1) * (1.0 - alpha))
    if k > n:
        return math.inf
    return kth_smallest(s, k)


def _check_set_inputs(val_probs, val_targets, test_probs, alpha):
    """(alpha, val probs, val labels, test probs), validated for a set method."""
    alpha = _check_alpha(alpha)
    vp = check_prob_rows(val_probs, "val_probs")
    tp = check_prob_rows(test_probs, "test_probs")
    if vp.shape[1] != tp.shape[1]:
        raise ValueError("validation and test matrices disagree on class count")
    y = check_labels(val_targets, vp.shape[1], "val_targets")
    if y.shape[0] != vp.shape[0]:
        raise ValueError("val_probs and val_targets disagree on length")
    return alpha, vp, y, tp


def baseline_sets(val_probs, val_targets, test_probs, alpha: float) -> PredictionSets:
    """Split conformal prediction sets from the true-class probability score.

    Calibration scores are 1 - p_i[y_i]; the set for a test row keeps
    every class whose score 1 - p[c] is at or below the conformal
    quantile.
    """
    alpha, vp, y, tp = _check_set_inputs(val_probs, val_targets, test_probs, alpha)
    scores = 1.0 - vp[np.arange(vp.shape[0]), y]
    q = conformal_quantile(scores, alpha)
    return PredictionSets(member=(1.0 - tp) <= q)


def _aps_val_scores(probs: np.ndarray, targets: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Cumulative mass strictly above the true label's rank, plus u * p_true."""
    order = np.argsort(-probs, axis=1, kind="stable")
    sorted_p = np.take_along_axis(probs, order, axis=1)
    cum = np.cumsum(sorted_p, axis=1)
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(probs.shape[1])[None, :], axis=1)
    rows = np.arange(len(targets))
    p_true = probs[rows, targets]
    above = np.take_along_axis(cum, ranks[rows, targets][:, None], axis=1)[:, 0] - p_true
    return above + u * p_true


def adaptive_sets(
    val_probs,
    val_targets,
    test_probs,
    alpha: float,
    rng: Rng | None = None,
) -> PredictionSets:
    """Adaptive prediction sets built from cumulative sorted probabilities.

    Without ``rng`` the sets are deterministic: the randomization variable
    is fixed at u = 1, so the boundary class is always included and the
    sets replay byte-identically. With ``rng`` they are randomized: u is
    drawn per input from it, and the boundary class may be dropped (which
    can empty a set, as the randomized method allows).
    """
    alpha, vp, y, tp = _check_set_inputs(val_probs, val_targets, test_probs, alpha)

    n = vp.shape[0]
    u_val = np.ones(n) if rng is None else rng.uniforms(n)
    scores = _aps_val_scores(vp, y, u_val)
    q = conformal_quantile(scores, alpha)

    m, k_classes = tp.shape
    order = np.argsort(-tp, axis=1, kind="stable")
    sorted_p = np.take_along_axis(tp, order, axis=1)
    cum = np.cumsum(sorted_p, axis=1)
    # the boundary is the first sorted class whose cumulative mass reaches
    # q, or the last class when the total stays below q. Entries are
    # nonnegative, so cum never falls: the classes below q form a prefix
    # and counting them is the binary search of the per-row loop this
    # replaced
    boundary = np.where(cum[:, -1] < q, k_classes - 1, (cum < q).sum(axis=1))
    keep = boundary + 1
    if rng is not None and not math.isinf(q):
        rows = np.arange(m)
        p_boundary = sorted_p[rows, boundary]
        below = cum[rows, boundary] - p_boundary
        keep -= below + rng.uniforms(m) * p_boundary > q
    member = np.zeros((m, k_classes), dtype=bool)
    np.put_along_axis(member, order, np.arange(k_classes) < keep[:, None], axis=1)
    return PredictionSets(member=member)


def cqr_interval(
    val_lower, val_upper, val_targets, test_lower, test_upper, alpha: float
) -> Intervals:
    """Conformalized quantile regression: widen (or shrink) bound pairs.

    Calibration scores max(lower - y, y - upper) measure how far targets
    fall outside their intervals; the conformal quantile q shifts test
    bounds outward by q on each side. Output widths equal input widths
    plus 2q; a negative q that inverts an interval collapses it to the
    midpoint with the per-input flag set.
    """
    alpha = _check_alpha(alpha)
    vl = check_finite(val_lower, "val_lower")
    vu = check_finite(val_upper, "val_upper")
    y = check_finite(val_targets, "val_targets")
    tl = check_finite(test_lower, "test_lower")
    tu = check_finite(test_upper, "test_upper")
    if not (vl.shape == vu.shape == y.shape):
        raise ValueError("validation bounds and targets disagree on length")
    if tl.shape != tu.shape:
        raise ValueError("test bound vectors disagree on length")
    if np.any(vl > vu):
        raise ValueError("val_lower exceeds val_upper at some inputs")
    if np.any(tl > tu):
        raise ValueError("test_lower exceeds test_upper at some inputs")
    scores = np.maximum(vl - y, y - vu)
    q = conformal_quantile(scores, alpha)
    return _make_intervals(tl - q, tu + q)


def scalar_score_interval(
    val_means, val_stds, val_targets, test_means, test_stds, alpha: float
) -> Intervals:
    """Conformal intervals from a scalar uncertainty measure.

    Scores are normalized absolute residuals |y - mu| / sigma, and test
    intervals are mu +/- q sigma. With sigma identically 1 this reduces
    to absolute-residual split conformal.
    """
    alpha = _check_alpha(alpha)
    vm = check_finite(val_means, "val_means")
    vs = check_finite(val_stds, "val_stds")
    y = check_finite(val_targets, "val_targets")
    tm = check_finite(test_means, "test_means")
    ts = check_finite(test_stds, "test_stds")
    if not (vm.shape == vs.shape == y.shape):
        raise ValueError("validation means/stds/targets disagree on length")
    if tm.shape != ts.shape:
        raise ValueError("test means and stds disagree on length")
    if np.any(vs <= 0) or np.any(ts <= 0):
        raise ValueError("stds must be strictly positive")
    scores = np.abs(y - vm) / vs
    q = conformal_quantile(scores, alpha)
    return _make_intervals(tm - q * ts, tm + q * ts)


def _fold_predictions(
    trainer: Trainer,
    train: Dataset,
    fold_of: np.ndarray,
    test_inputs,
    seed: int,
    unit: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Held-out residuals and test predictions of per-fold refits.

    Fold f trains on every row outside it with child seed (seed, f).
    Returns (residuals (n,), mu (n, m)) where mu[i] are the test
    predictions of the model whose fold held row i out. A trainer failure
    names the fold as ``<unit> f``.
    """
    test_inputs = check_finite(test_inputs, "test_inputs")
    residuals = np.empty(train.n)
    mu = np.empty((train.n, test_inputs.shape[0]))
    for f in range(int(fold_of.max()) + 1):
        held = fold_of == f
        try:
            predict = trainer(
                train.inputs[~held], train.targets[~held], child_seed(seed, f)
            )
            held_pred = np.asarray(
                predict(train.inputs[held]), dtype=np.float64
            ).ravel()
            test_pred = np.asarray(predict(test_inputs), dtype=np.float64).ravel()
        except Exception as exc:
            raise UqError(f"trainer failed on {unit} {f}: {exc}") from exc
        residuals[held] = np.abs(train.targets[held] - held_pred)
        mu[held] = test_pred[None, :]
    return residuals, mu


def _leave_one_out(trainer: Trainer, train: Dataset, test_inputs, seed: int):
    """``_fold_predictions`` with every row as its own fold (jackknife)."""
    if train.n < 2:
        raise ValueError("leave-one-out methods need at least 2 training rows")
    return _fold_predictions(
        trainer, train, np.arange(train.n), test_inputs, seed, "leave-out index"
    )


def _plus_endpoints(
    mu: np.ndarray, residuals: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Jackknife+/CV+ interval endpoints from per-point predictions.

    Lower bound is the floor(alpha(n+1))-th smallest of mu_i - R_i, upper
    the ceil((1-alpha)(n+1))-th smallest of mu_i + R_i. A rank below 1
    gives -inf and one past n gives +inf, as in ``conformal_quantile``, so
    the coverage guarantee holds for every n.
    """
    n = residuals.shape[0]
    k_lo = math.floor(alpha * (n + 1))
    k_up = math.ceil((1.0 - alpha) * (n + 1))
    unbounded = np.full(mu.shape[1], np.inf)
    lower = kth_smallest_columns(mu - residuals[:, None], k_lo) if k_lo >= 1 else -unbounded
    upper = kth_smallest_columns(mu + residuals[:, None], k_up) if k_up <= n else unbounded
    return lower, upper


def jackknife_plus(
    trainer: Trainer, train: Dataset, test_inputs, alpha: float, seed: int = 0
) -> Intervals:
    """Jackknife+ predictive intervals (marginal coverage >= 1 - 2 alpha)."""
    alpha = _check_alpha(alpha)
    residuals, mu = _leave_one_out(trainer, train, test_inputs, seed)
    lower, upper = _plus_endpoints(mu, residuals, alpha)
    return _make_intervals(lower, upper)


def jackknife_minmax(
    trainer: Trainer, train: Dataset, test_inputs, alpha: float, seed: int = 0
) -> Intervals:
    """Jackknife-minmax intervals: wider than jackknife+, coverage >= 1 - alpha."""
    alpha = _check_alpha(alpha)
    residuals, mu = _leave_one_out(trainer, train, test_inputs, seed)
    q = conformal_quantile(residuals, alpha)
    return _make_intervals(mu.min(axis=0) - q, mu.max(axis=0) + q)


def cv_folds(n: int, n_folds: int, seed: int) -> np.ndarray:
    """Fold assignment: seeded permutation cut into contiguous chunks.

    Fold sizes differ by at most one; the remainder is spread one row per
    fold starting from fold 0.
    """
    if not 2 <= n_folds <= n:
        raise ValueError(f"n_folds must lie in [2, {n}], got {n_folds}")
    perm = Rng(seed).permutation(n)
    base, rem = divmod(n, n_folds)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[perm] = np.repeat(np.arange(n_folds), base + (np.arange(n_folds) < rem))
    return fold_of


def cv_plus(
    trainer: Trainer,
    train: Dataset,
    n_folds: int,
    test_inputs,
    alpha: float,
    seed: int = 0,
) -> Intervals:
    """CV+ intervals: the jackknife+ construction with K-fold predictors.

    With n_folds equal to n, every fold is a single row and the result
    reproduces jackknife+ regardless of the seed.
    """
    alpha = _check_alpha(alpha)
    fold_of = cv_folds(train.n, n_folds, seed)
    residuals, mu = _fold_predictions(
        trainer, train, fold_of, test_inputs, seed, "fold"
    )
    lower, upper = _plus_endpoints(mu, residuals, alpha)
    return _make_intervals(lower, upper)
